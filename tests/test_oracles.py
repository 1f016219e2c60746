import random
from itertools import permutations

import pytest

from helpers import integral_cycle
from squaretour import SizeCapError
from squaretour.graphcore import MultiGraph, WeightedGraph, global_min_cut
from squaretour.halfpoint import HalfIntegerPoint, contract, square_point
from squaretour.instances import make_donut, random_square_graph, random_square_point
from squaretour.oracles import (
    BRUTE_CUTS_CAP,
    BRUTE_HAM_CAP,
    BRUTE_RAINBOW_CAP,
    BRUTE_T_JOIN_CAP,
    HELD_KARP_CAP,
    brute_cuts,
    brute_ham,
    brute_rainbow,
    brute_t_join,
    held_karp,
)


def tour_by_permutations(d):
    n = len(d)
    best = None
    for perm in permutations(range(1, n)):
        order = (0,) + perm
        c = sum(d[order[i]][order[(i + 1) % n]] for i in range(n))
        best = c if best is None else min(best, c)
    return best


def test_held_karp_k4_uniform():
    d = [[0 if i == j else 2 for j in range(4)] for i in range(4)]
    assert held_karp(d) == 8


def test_held_karp_tiny_instances():
    assert held_karp([[0]]) == 0
    assert held_karp([[0, 3], [4, 0]]) == 7


def test_held_karp_rejects_non_integer_distances():
    with pytest.raises(TypeError):
        held_karp([[0 if i == j else 1.7 for j in range(3)] for i in range(3)])
    np = pytest.importorskip("numpy")
    assert held_karp(np.array([[0, 2, 3], [2, 0, 4], [3, 4, 0]], dtype=np.int64)) == 9


def test_held_karp_matches_permutations():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        d = [[0 if i == j else rng.randint(0, 30) for j in range(n)]
             for i in range(n)]
        assert held_karp(d) == tour_by_permutations(d)


def test_held_karp_hidden_tour_spans_several_blocks():
    # n=19: the largest popcount layer holds C(18, 9) = 48620 masks, so the DP
    # runs it in several blocks.  The only tour without a cost-100 edge is
    # the hidden cycle (at most 19 * 5 = 95), so it is the optimum.
    for seed in range(2):
        rng = random.Random(seed)
        n = 19
        perm = rng.sample(range(n), n)
        d = [[0 if i == j else 100 for j in range(n)] for i in range(n)]
        want = 0
        for i in range(n):
            a, b = perm[i], perm[(i + 1) % n]
            d[a][b] = d[b][a] = c = rng.randint(1, 5)
            want += c
        assert held_karp(d) == want


def test_held_karp_asymmetric():
    d = [[0, 1, 10], [10, 0, 1], [1, 10, 0]]
    assert held_karp(d) == 3  # forced direction 0-1-2-0
    assert tour_by_permutations(d) == 3


def test_held_karp_input_checks():
    with pytest.raises(ValueError, match="^empty instance$"):
        held_karp([])
    with pytest.raises(ValueError, match="square"):
        held_karp([[0, 1], [1]])
    with pytest.raises(ValueError, match="nonnegative"):
        held_karp([[0, -1], [1, 0]])
    big = [[1] * (HELD_KARP_CAP + 1) for _ in range(HELD_KARP_CAP + 1)]
    with pytest.raises(SizeCapError, match="instance too large for exact oracle"):
        held_karp(big)
    # a tour of 2^64 does not fit the int64 table
    with pytest.raises(SizeCapError, match="costs too large"):
        held_karp([[2**62] * 4 for _ in range(4)])


def test_brute_ham_donut_and_cap():
    inst = make_donut(2)
    sg, sg_cost = contract(square_point(inst.point, inst.costs))
    edges, cost = brute_ham(sg, list(sg_cost))
    assert cost == 14
    big = random_square_graph(BRUTE_HAM_CAP + 1, 5)
    with pytest.raises(SizeCapError, match="brute_ham capped"):
        brute_ham(big, [1] * big.graph.edge_count)


def test_brute_t_join_against_definition():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    wg = WeightedGraph(g, [4, 1, 2, 9, 1])
    join = brute_t_join(wg, {0, 2})
    assert sum(wg.weight[e] for e in join) == 1  # the chord
    with pytest.raises(ValueError, match="even"):
        brute_t_join(wg, {0})
    # two components, one T node in each: no edge set has odd degree at both
    split = MultiGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="^no T-join exists$"):
        brute_t_join(WeightedGraph(split, [1, 1]), {0, 2})
    wide = MultiGraph(2, [(0, 1)] * (BRUTE_T_JOIN_CAP + 1))
    with pytest.raises(SizeCapError, match="brute_t_join capped"):
        brute_t_join(WeightedGraph(wide, [1] * wide.edge_count), {0, 1})


def test_brute_rainbow_cap():
    x = random_square_point(BRUTE_RAINBOW_CAP + 1, 1, 77)
    with pytest.raises(SizeCapError, match="brute_rainbow capped"):
        brute_rainbow(x, {e: 1 for e in x.support})


def test_brute_cuts_matches_stoer_wagner():
    for seed in range(40):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 2), rng.randint(1, 2), 3100 + seed)
        if x.n > BRUTE_CUTS_CAP:
            continue
        value, side = brute_cuts(x)
        edges = []
        weights = []
        for (u, v), x2 in sorted(x.support.items()):
            edges.append((u, v))
            weights.append(x2)
        wg = WeightedGraph(MultiGraph(x.n, edges), weights)
        sw_value, _ = global_min_cut(wg)
        assert value == sw_value, seed
        crossing = sum(
            x2 for (u, v), x2 in x.support.items() if (u in side) != (v in side)
        )
        assert crossing == value, seed


def test_brute_cuts_cap_and_small_inputs():
    with pytest.raises(SizeCapError, match="brute_cuts capped"):
        brute_cuts(integral_cycle(BRUTE_CUTS_CAP + 2))
    with pytest.raises(ValueError, match="^need at least 2 nodes$"):
        brute_cuts(HalfIntegerPoint(1, {}))
