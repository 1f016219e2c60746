import random
from itertools import combinations

import pytest

from squaretour.errors import SizeCapError
from squaretour.graphcore import MultiGraph, WeightedGraph
from squaretour.oracles import brute_t_join
from squaretour.tjoin import min_t_join, min_weight_perfect_matching


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


def test_matching_empty_and_odd():
    assert min_weight_perfect_matching([]) == ([], 0)
    with pytest.raises(ValueError, match="odd number of points"):
        min_weight_perfect_matching([[0]])
    with pytest.raises(ValueError, match="square"):
        min_weight_perfect_matching([[0, 1], [1]])
    with pytest.raises(ValueError, match="unknown engine"):
        min_weight_perfect_matching([[0, 1], [1, 0]], engine="magic")


def brute_matching_weight(d):
    p = len(d)
    best = None
    def rec(left):
        if not left:
            return 0
        i = left[0]
        best_here = None
        for j in left[1:]:
            rest = tuple(x for x in left if x not in (i, j))
            c = d[i][j] + rec(rest)
            if best_here is None or c < best_here:
                best_here = c
        return best_here
    return rec(tuple(range(p)))


def test_matching_engines_agree_with_enumeration():
    for seed in range(60):
        rng = random.Random(seed)
        p = rng.choice((2, 4, 6, 8))
        pts = [rng.randint(0, 50) for _ in range(p)]
        d = [[abs(a - b) for b in pts] for a in pts]
        want = brute_matching_weight(d)
        for engine in ("dp", "blossom", "auto"):
            pairs, w = min_weight_perfect_matching(d, engine=engine)
            assert w == want, (seed, engine)
            assert sorted(v for ij in pairs for v in ij) == list(range(p))


def test_matching_six_random_vs_fifteen_matchings():
    # 6 points admit exactly 15 perfect matchings
    for seed in range(6):
        rng = random.Random(seed)
        d = [[0] * 6 for _ in range(6)]
        for i, j in combinations(range(6), 2):
            d[i][j] = d[j][i] = rng.randint(1, 30)
        matchings = list(all_matchings(tuple(range(6))))
        assert len(matchings) == 15
        want = min(sum(d[i][j] for i, j in m) for m in matchings)
        _, w = min_weight_perfect_matching(d)
        assert w == want


def all_matchings(points):
    if not points:
        yield []
        return
    i = points[0]
    for j in points[1:]:
        rest = tuple(v for v in points if v not in (i, j))
        for m in all_matchings(rest):
            yield [(i, j)] + m


def test_matching_dp_cap():
    p = 26
    d = [[abs(i - j) for j in range(p)] for i in range(p)]
    with pytest.raises(SizeCapError):
        min_weight_perfect_matching(d, engine="dp")
    pairs, w = min_weight_perfect_matching(d, engine="auto")
    assert w == 13
    assert len(pairs) == 13
    # sums past the DP's int64 range: auto falls back to blossom, dp refuses
    d = [[2**62 * abs(i - j) for j in range(4)] for i in range(4)]
    with pytest.raises(SizeCapError):
        min_weight_perfect_matching(d, engine="dp")
    assert min_weight_perfect_matching(d) == ([(0, 1), (2, 3)], 2**63)


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


def test_t_join_engines_agree():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 16)
        wg = random_connected_weighted(rng, n, rng.randint(2, 10))
        t_size = 2 * rng.randint(1, n // 2)
        t_nodes = set(rng.sample(range(n), t_size))
        a = min_t_join(wg, t_nodes, engine="dp")
        b = min_t_join(wg, t_nodes, engine="blossom")
        assert join_weight(wg, a) == join_weight(wg, b), seed
