import inspect
import random
import sys
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_chained_multigraph
from squaretour import tjoin
from squaretour.graphcore import MultiGraph, WeightedGraph, series_reduced
from squaretour.oracles import brute_t_join, dense_t_join
from squaretour.tjoin import _t_join, min_t_join, min_weight_perfect_matching
from test_budgets import measured


def random_connected_weighted(rng, n, extra, hi=9):
    edges = []
    nodes = list(range(n))
    rng.shuffle(nodes)
    for a, b in zip(nodes, nodes[1:]):
        edges.append(tuple(sorted((a, b))))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append(tuple(sorted((u, v))))
    g = MultiGraph(n, edges)
    return WeightedGraph(g, [rng.randint(0, hi) for _ in edges])


def test_matching_two_points():
    pairs, w = min_weight_perfect_matching([[0, 7], [7, 0]])
    assert pairs == [(0, 1)]
    assert w == 7


def test_matching_four_points_on_a_line():
    # positions 0,1,2,3 with unit gaps: pair neighbours, total 2
    d = [[abs(i - j) for j in range(4)] for i in range(4)]
    pairs, w = min_weight_perfect_matching(d)
    assert w == 2
    assert sorted(pairs) == [(0, 1), (2, 3)]
    # sums past 2^63 stay exact
    d = [[2**62 * abs(i - j) for j in range(4)] for i in range(4)]
    assert min_weight_perfect_matching(d) == ([(0, 1), (2, 3)], 2**63)
    # 26 points on a line: neighbours pair up
    d = [[abs(i - j) for j in range(26)] for i in range(26)]
    assert min_weight_perfect_matching(d) == ([(i, i + 1) for i in range(0, 26, 2)], 13)


def test_matching_empty_and_odd():
    assert min_weight_perfect_matching([]) == ([], 0)
    with pytest.raises(ValueError, match="odd number of points"):
        min_weight_perfect_matching([[0]])
    with pytest.raises(ValueError, match="square"):
        min_weight_perfect_matching([[0, 1], [1]])


def test_matching_raises_when_the_engine_leaves_a_point_unmatched(monkeypatch):
    monkeypatch.setattr(tjoin, "_match", lambda d: [-1] * len(d))
    with pytest.raises(RuntimeError, match="^matching is not perfect$"):
        min_weight_perfect_matching([[0, 1], [1, 0]])


def test_matching_rejects_non_integer_distances():
    # truncating 0.9 and 0.1 to 0 would make every matching tie at weight 0
    d = [[0, .9, .1, .9], [.9, 0, .9, .1], [.1, .9, 0, .9], [.9, .1, .9, 0]]
    for bad in (d, [[0, "7"], ["7", 0]]):
        with pytest.raises(TypeError):
            min_weight_perfect_matching(bad)
    np = pytest.importorskip("numpy")
    d = np.array([[0, 9, 1, 9], [9, 0, 9, 1], [1, 9, 0, 9], [9, 1, 9, 0]], dtype=np.int64)
    assert min_weight_perfect_matching(d) == ([(0, 2), (1, 3)], 2)


def all_matchings(points):
    """Every perfect matching of the ascending points, as (i, j) pairs with i < j."""
    if not points:
        yield []
        return
    i = points[0]
    for j in points[1:]:
        rest = tuple(v for v in points if v not in (i, j))
        for m in all_matchings(rest):
            yield [(i, j)] + m


def brute_matching_weight(d):
    return min(sum(d[i][j] for i, j in m) for m in all_matchings(tuple(range(len(d)))))


def test_matching_engines_agree_with_enumeration():
    for seed in range(60):
        rng = random.Random(seed)
        p = rng.choice((2, 4, 6, 8))
        pts = [rng.randint(0, 50) for _ in range(p)]
        d = [[abs(a - b) for b in pts] for a in pts]
        pairs, w = min_weight_perfect_matching(d)
        assert w == brute_matching_weight(d), seed
        assert sorted(v for ij in pairs for v in ij) == list(range(p))


def test_matching_six_random_vs_fifteen_matchings():
    # 6 points admit exactly 15 perfect matchings
    for seed in range(6):
        rng = random.Random(seed)
        d = [[0] * 6 for _ in range(6)]
        for i, j in combinations(range(6), 2):
            d[i][j] = d[j][i] = rng.randint(1, 30)
        assert len(list(all_matchings(tuple(range(6))))) == 15
        _, w = min_weight_perfect_matching(d)
        assert w == brute_matching_weight(d)


def test_matching_stays_perfect_when_nested_edges_tie():
    # points 1, 4, 6 form a blossom inside a blossom; when it augments, two
    # of its kids have least-slack edges of equal slack to the other
    # blossom, and every level must take the one edge chosen at the top
    d = [[0, 1, 3, 4, 2, 4, 2, 1], [1, 0, 4, 5, 1, 3, 1, 2], [3, 4, 0, 1, 3, 1, 3, 4],
         [4, 5, 1, 0, 4, 2, 4, 3], [2, 1, 3, 4, 0, 2, 0, 3], [4, 3, 1, 2, 2, 0, 2, 5],
         [2, 1, 3, 4, 0, 2, 0, 3], [1, 2, 4, 3, 3, 5, 3, 0]]
    assert checked_matching_weight(d) == brute_matching_weight(d) == 5


def test_matching_nests_deeper_than_the_recursion_limit():
    # d(i, j) = i + j nests 199 blossoms deep at p = 400
    d = [[i + j for j in range(400)] for i in range(400)]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        pairs, w = min_weight_perfect_matching(d)
    finally:
        sys.setrecursionlimit(old)
    assert w == 79800 == sum(range(400))
    assert sorted(v for ij in pairs for v in ij) == list(range(400))


@st.composite
def cost_matrices(draw, max_points):
    """Square matrices on an even number of points; only the upper triangle
    is read, so the lower one is left random."""
    p = 2 * draw(st.integers(1, max_points // 2))
    costs = draw(st.sampled_from([st.integers(0, 2), st.integers(0, 100),
                                  st.integers(2**63, 2**63 + 2**20)]))
    return [[draw(costs) if i != j else 0 for j in range(p)] for i in range(p)]


def checked_matching_weight(d):
    pairs, w = min_weight_perfect_matching(d)
    assert all(i < j for i, j in pairs)
    assert sorted(v for ij in pairs for v in ij) == list(range(len(d)))
    assert w == sum(d[i][j] for i, j in pairs)
    return w


@settings(max_examples=150)
@given(cost_matrices(10))
def test_matching_agrees_with_enumeration_on_drawn_costs(d):
    assert checked_matching_weight(d) == brute_matching_weight(d)


@settings(max_examples=40)
@given(cost_matrices(40))
def test_matching_agrees_with_networkx_on_drawn_costs(d):
    g = nx.Graph()
    for i, j in combinations(range(len(d)), 2):
        g.add_edge(i, j, weight=d[i][j])
    want = sum(d[min(e)][max(e)] for e in nx.min_weight_matching(g))
    assert checked_matching_weight(d) == want


def test_t_join_path_endpoints():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    wg = WeightedGraph(g, [5, 1, 3])
    join = min_t_join(wg, {0, 3})
    assert join == frozenset({0, 1, 2})


def test_t_join_empty_t():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    assert min_t_join(WeightedGraph(g, [1, 1]), set()) == frozenset()


def test_t_join_errors():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    wg = WeightedGraph(g, [1, 1])
    with pytest.raises(ValueError, match="even"):
        min_t_join(wg, {0})
    with pytest.raises(ValueError, match="out of range"):
        min_t_join(wg, {0, 5})
    split = WeightedGraph(MultiGraph(4, [(0, 1), (2, 3)]), [1, 1])
    with pytest.raises(ValueError, match="disconnected"):
        min_t_join(split, {0, 1})


def join_weight(wg, join):
    return sum(wg.weight[e] for e in join)


def test_t_join_parity():
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        wg = random_connected_weighted(rng, n, rng.randint(0, 8))
        t_size = 2 * rng.randint(0, n // 2)
        t_nodes = set(rng.sample(range(n), t_size))
        join = min_t_join(wg, t_nodes)
        deg = [0] * n
        for e in join:
            u, v = wg.graph.edges[e]
            deg[u] += 1
            deg[v] += 1
        for v in range(n):
            assert (deg[v] % 2 == 1) == (v in t_nodes), (seed, v)


def test_t_join_matches_brute_force():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        wg = random_connected_weighted(rng, n, rng.randint(0, min(9, 18 - n + 1)))
        if wg.graph.edge_count > 18:
            continue
        t_size = 2 * rng.randint(0, n // 2)
        t_nodes = set(rng.sample(range(n), t_size))
        join = min_t_join(wg, t_nodes)
        brute = brute_t_join(wg, t_nodes)
        assert join_weight(wg, join) == join_weight(wg, brute), seed


@pytest.mark.extended
def test_t_join_on_a_star_of_2200_leaves():
    # every leaf is a T node, so the join is every edge; d(i, j) = i + j
    # nests 1099 blossoms deep
    wg = WeightedGraph(MultiGraph(2201, [(0, i) for i in range(1, 2201)]), tuple(range(2200)))
    join = min_t_join(wg, range(1, 2201))
    assert join == frozenset(range(2200))
    assert sum(wg.weight[e] for e in join) == sum(range(2200))


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_t_join_is_the_dense_edge_set(rng):
    # the same edges as one full search per T node, not only the same weight
    wg, t_nodes = random_chained_multigraph(rng)
    assert min_t_join(wg, t_nodes) == dense_t_join(wg, t_nodes)


def test_t_join_needs_every_t_node_kept():
    wg = WeightedGraph(MultiGraph(3, [(0, 1), (1, 2)]), [1, 1])
    red = series_reduced(wg)
    assert red.kept == [0, 2]
    with pytest.raises(RuntimeError, match="^T node not kept by the reduction$"):
        _t_join(wg, red, [0, 1])
    assert _t_join(wg, series_reduced(wg, [1]), [0, 1]) == frozenset({0})


def test_donut_t_join_searches_the_reduction():
    # k=12: 312 support nodes, 48 square corners, |T| = 24
    searches = measured("tour-donut-12")[2]["t-join"]
    assert sorted(searches) == [(48, t) for t in range(1, 24)] + [(312, 1)] * 12
