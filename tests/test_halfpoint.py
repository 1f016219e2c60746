import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    integral_cycle,
    single_square_point,
    single_square_point_adjacent_paths,
    swap_pairs,
    unit_square_point,
)
from squaretour.graphcore import (
    DisjointSet,
    WeightedGraph,
    cut_labels,
    global_min_cut,
    is_connected,
    metric_closure,
)
from squaretour.halfpoint import (
    DEGENERATE_MSG,
    HalfIntegerPoint,
    PointClass,
    contract,
    edge_key,
    square_point,
    support_graph,
    validate_and_classify,
    validate_subtour,
)
from squaretour.deltamatroid import check_square_graph
from squaretour.instances import make_donut, random_four_regular, random_square_point
from squaretour.oracles import brute_cuts


def class_of(x):
    return validate_and_classify(x)[1]


def one_degrees(x):
    deg = [0] * x.n
    for u, v in x.one_edges():
        deg[u] += 1
        deg[v] += 1
    return deg


def one_path_lengths(x):
    """Edge count of every component of the 1-edge graph, ascending."""
    ds = DisjointSet(x.n)
    for u, v in x.one_edges():
        ds.union(u, v)
    return sorted(Counter(ds.find(u) for u, _ in x.one_edges()).values())


def test_point_construction_rejects_bad_values():
    with pytest.raises(ValueError, match="n must be positive"):
        HalfIntegerPoint(0, {})
    with pytest.raises(ValueError):
        HalfIntegerPoint(3, {(0, 1): 3})
    with pytest.raises(ValueError):
        HalfIntegerPoint(3, {(1, 0): 1})  # keys must be ordered
    with pytest.raises(ValueError):
        HalfIntegerPoint(2, {(0, 2): 1})
    with pytest.raises(ValueError):
        HalfIntegerPoint(2, {(1, 1): 2})
    # integers only, so a float never reaches the pipeline or the POINT text
    with pytest.raises(ValueError, match="^n must be an integer, got 3.0$"):
        HalfIntegerPoint(3.0, {(0, 1): 2})
    with pytest.raises(ValueError, match=r"^bad edge \(0.0, 1\) for n=3$"):
        HalfIntegerPoint(3, {(0.0, 1): 2})
    with pytest.raises(ValueError, match=r"^doubled value must be 1 or 2, got 2.0 on \(0, 1\)$"):
        HalfIntegerPoint(3, {(0, 1): 2.0})
    # numpy integers and bools pass, stored as Python ints
    x = HalfIntegerPoint(np.int64(3), {(np.int64(0), np.int32(1)): True, (1, 2): np.int8(2)})
    assert (x.n, x.support) == (3, {(0, 1): 1, (1, 2): 2})
    assert all(type(v) is int for (u, w), x2 in x.support.items() for v in (x.n, u, w, x2))


def test_validate_integral_cycle():
    assert validate_subtour(integral_cycle(5))


def test_validate_donut():
    assert validate_subtour(make_donut(2).point)


def test_validate_degree_violation():
    x = HalfIntegerPoint(3, {(0, 1): 2, (1, 2): 2, (0, 2): 1})
    rep = validate_subtour(x)
    assert not rep
    assert rep.reason == "degree"
    assert "degree" in rep.witness()


def test_validate_degree_on_a_huge_n():
    # the first failing node lies below 2|support| + 1, so no list of n
    # entries is made; an untouched node fails, and so does a node of degree 2
    far = HalfIntegerPoint(10**12, {(0, 1): 2, (1, 2): 2, (0, 2): 2})
    assert (validate_subtour(far).reason, validate_subtour(far).node) == ("degree", 3)
    wide = HalfIntegerPoint(10**12, {(0, 10**11): 2, (0, 1): 2})
    assert (validate_subtour(wide).reason, validate_subtour(wide).node) == ("degree", 1)


def test_validate_disconnected():
    rep = validate_subtour(HalfIntegerPoint(4, {(0, 1): 2, (2, 3): 2}))
    assert not rep
    assert rep.reason in ("degree", "disconnected")


def test_validate_cut_witness_adjacent_corner_paths():
    rep = validate_subtour(single_square_point_adjacent_paths())
    assert not rep
    assert rep.reason == "cut"
    assert rep.cut_value_x2 == 2
    assert rep.cut_side in (frozenset({0, 1, 4}), frozenset({2, 3, 5}))
    assert "cut" in rep.witness()


def test_validate_matches_brute_cuts():
    for seed in range(40):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 2), rng.randint(1, 2), seed)
        if x.n > 12:
            continue
        val, _ = brute_cuts(x)
        assert val >= 4
        assert validate_subtour(x)


def test_min_cut_brute_equality_on_invalid_point():
    x = single_square_point_adjacent_paths()
    val, side = brute_cuts(x)
    rep = validate_subtour(x)
    assert val == rep.cut_value_x2 == 2


@st.composite
def perturbed_square_points(draw):
    """A small random square point, then one to three edge swaps."""
    x = random_square_point(draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                            draw(st.integers(0, 10**6)))
    return swap_pairs(x, draw(st.integers(1, 3)), lambda swaps: draw(st.sampled_from(swaps)))


def four_regular_point(n, rng):
    """A general half-integer point: a random 4-regular multigraph on n
    nodes with x = 1/2 per edge, so a double edge is a 1-edge; graphs with
    a loop or a triple edge are drawn again."""
    while True:
        g, _ = random_four_regular(n, rng)
        mult = Counter(edge_key(u, v) for u, v in g.edges)
        if all(u != v for u, v in mult) and max(mult.values()) <= 2:
            return HalfIntegerPoint(n, dict(mult))


def feasible_half(rng, squares, n):
    """A feasible point with a 1/2-edge: a square point with up to the given
    squares or, as often, a general point on 4..n nodes."""
    if rng.random() < 0.5:
        return random_square_point(rng.randint(1, squares), rng.randint(1, 2), rng)
    while True:
        x = four_regular_point(rng.randint(4, n), rng)
        if x.half_edges() and validate_subtour(x):
            return x


def glued(x, y, rounds, rng):
    """x beside y, y's nodes shifted past x's, with `rounds` 1/2-edges a-b
    of x, node-disjoint, and c-d of y swapped for a-c, b-d: degrees stay 4
    and the cut between the halves falls to 2 * rounds."""
    support = dict(x.support)
    support.update({edge_key(u + x.n, v + x.n): x2 for (u, v), x2 in y.support.items()})
    ours, theirs = x.half_edges(), y.half_edges()
    for _ in range(rounds):
        if not ours:
            break
        (a, b), (c, d) = rng.choice(ours), rng.choice(theirs)
        del support[(a, b)], support[(c + x.n, d + x.n)]
        support[(a, c + x.n)] = support[(b, d + x.n)] = 1
        ours = [e for e in ours if not {a, b} & set(e)]
        theirs.remove((c, d))
    return HalfIntegerPoint(x.n + y.n, support)


def assert_agrees_with_brute_cuts(x):
    val, _ = brute_cuts(x)
    rep = validate_subtour(x)
    assert bool(rep) == (val >= 4)
    if rep.reason == "cut":
        assert rep.cut_value_x2 == val
        side = rep.cut_side
        crossing = sum(x2 for (u, v), x2 in x.support.items() if (u in side) != (v in side))
        assert crossing == val
    elif not rep:
        assert (rep.reason, val) == ("disconnected", 0)


@settings(max_examples=80)
@given(st.integers(0, 10**6))
def test_validate_finds_the_cut_of_glued_points(seed):
    rng = random.Random(seed)
    x = glued(feasible_half(rng, 1, 6), feasible_half(rng, 1, 6), 1, rng)
    rep = validate_subtour(x)
    assert (rep.reason, rep.cut_value_x2) == ("cut", 2)
    assert_agrees_with_brute_cuts(x)


@settings(max_examples=80)
@given(st.integers(0, 10**6))
def test_validate_agrees_with_brute_cuts_on_general_points(seed):
    rng = random.Random(seed)
    x = swap_pairs(four_regular_point(rng.randint(5, 12), rng), rng.randint(0, 3), rng.choice)
    assert_agrees_with_brute_cuts(x)


def test_validate_finds_a_one_edge_bridge():
    # two copies of a 5-node piece whose node 0 lacks one 1-edge, joined
    # by that 1-edge: a connected support with a bridge of doubled value 2
    piece = {(0, 1): 1, (0, 2): 1, (1, 3): 1, (1, 4): 2, (2, 3): 2, (2, 4): 1, (3, 4): 1}
    support = {**piece, **{(u + 5, v + 5): x2 for (u, v), x2 in piece.items()}, (0, 5): 2}
    x = HalfIntegerPoint(10, support)
    g = support_graph(x)
    assert cut_labels(g)[g.edges.index((0, 5))] == 0
    rep = validate_subtour(x)
    assert (rep.reason, rep.cut_value_x2) == ("cut", 2)
    assert_agrees_with_brute_cuts(x)


@pytest.mark.extended
def test_validate_decides_like_the_full_min_cut():
    """A standing differential test of the feasibility check: its decision,
    and any witness, against Stoer-Wagner on the full support."""

    def feasible(x):
        rep = validate_subtour(x)
        g = support_graph(x)
        if not is_connected(g):
            assert rep.reason == "disconnected"
            return False
        val, side = global_min_cut(WeightedGraph(g, tuple(x.support[k] for k in g.edges)))
        assert bool(rep) == (val >= 4)
        if not rep:
            assert (rep.cut_value_x2, rep.cut_side) == (val, side)
        return bool(rep)

    swapped = glued_pool = 0
    for seed in range(3000):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 3), rng.randint(1, 3), rng)
        swapped += not feasible(swap_pairs(x, rng.randint(1, 3), rng.choice))
    for seed in range(1000):
        rng = random.Random(seed)
        x, y = feasible_half(rng, 3, 10), feasible_half(rng, 3, 10)
        glued_pool += not feasible(glued(x, y, rng.choice((1, 1, 2)), rng))
    assert swapped >= 500 and glued_pool >= 500


@settings(max_examples=150)
@given(perturbed_square_points())
def test_validate_agrees_with_brute_cuts_on_perturbed_points(x):
    assert_agrees_with_brute_cuts(x)


def test_donut_min_cut_is_two():
    inst = make_donut(2)
    g = support_graph(inst.point)
    wg = WeightedGraph(g, tuple(inst.point.support[k] for k in g.edges))
    assert global_min_cut(wg)[0] == 4  # doubled weights, so x-cut 2
    assert brute_cuts(inst.point)[0] == 4


def test_donut_metric_distance_across_ring():
    inst = make_donut(2)
    g = support_graph(inst.point)
    wg = WeightedGraph(g, tuple(inst.costs[k] for k in g.edges))
    dist = metric_closure(wg)
    for path in inst.inner_paths + inst.outer_paths:
        assert dist[path[0]][path[-1]] == 2


def test_classify_square_and_donut():
    assert class_of(make_donut(2).point) is PointClass.SQUARE
    assert class_of(make_donut(3).point) is PointClass.SQUARE
    assert class_of(single_square_point()) is PointClass.SQUARE


def test_classify_integral_cycle_is_square():
    assert class_of(integral_cycle(6)) is PointClass.SQUARE


def test_classify_boyd_carr():
    # all 1-paths have length 1: cubic support, one 1-edge per node
    x = random_square_point(2, 1, 7)
    assert class_of(x) is PointClass.BOYD_CARR


def test_classify_square_with_long_paths_not_boyd_carr():
    assert class_of(single_square_point()) is PointClass.SQUARE


def test_classify_carr_vempala():
    support = {edge_key(i, (i + 1) % 12): 1 for i in range(12)}
    for i in range(6):
        support[edge_key(i, i + 6)] = 2
    x = HalfIntegerPoint(12, support)
    assert class_of(x) is PointClass.CARR_VEMPALA


def test_classify_other_half_integer():
    # 1/2-edges form a 6-cycle on 8 nodes: neither squares nor spanning cycle
    support = {edge_key(i, (i + 1) % 6): 1 for i in range(6)}
    support[edge_key(0, 3)] = 1
    support[edge_key(1, 4)] = 1
    support[edge_key(2, 5)] = 1
    support[(6, 7)] = 2
    x = HalfIntegerPoint(8, support)
    rep = validate_subtour(x)
    assert not rep  # 6 and 7 are disconnected from the cycle
    support = {edge_key(i, (i + 1) % 6): 1 for i in range(6)}
    support[edge_key(0, 2)] = 1
    support[edge_key(3, 5)] = 1
    support[edge_key(1, 4)] = 2
    x = HalfIntegerPoint(6, support)
    if validate_subtour(x):
        assert class_of(x) is PointClass.OTHER_HALF_INTEGER
    # every node of K5 meets four 1/2-edges, so they form no disjoint cycles
    k5 = HalfIntegerPoint(5, {(u, v): 1 for u in range(5) for v in range(u + 1, 5)})
    assert class_of(k5) is PointClass.OTHER_HALF_INTEGER


def test_classify_rejects_infeasible():
    x = HalfIntegerPoint(3, {(0, 1): 2, (1, 2): 2, (0, 2): 1})
    report, cls = validate_and_classify(x)
    assert not report and cls is None
    with pytest.raises(ValueError, match="^not a feasible point: degree node=0$"):
        unit_square_point(x)


def test_classify_n4_prefers_square():
    support = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1, (0, 2): 2, (1, 3): 2}
    assert class_of(HalfIntegerPoint(4, support)) is PointClass.BOYD_CARR


def test_decompose_donut():
    x = make_donut(2).point
    sp = unit_square_point(x)
    assert len(sp.squares) == 2
    assert len(sp.pair_partition) == 4
    # four 1-paths of length 2, each ending at two square corners
    assert one_path_lengths(x) == [2] * 4
    corners = {v for sq in sp.squares for e in sq for v in sp.keys[e]}
    deg = one_degrees(x)
    assert {v for v in range(x.n) if deg[v] == 1} == corners
    assert max(deg) == 2


def test_decompose_k4_donut():
    x = make_donut(4).point
    sp = unit_square_point(x)
    assert len(sp.squares) == 4
    assert one_path_lengths(x) == [4] * 8
    assert len(sp.pair_partition) == 8


def test_decompose_pair_partition_is_matchings():
    sp = unit_square_point(make_donut(3).point)
    for sq, pair in zip(sp.squares, zip(sp.pair_partition[0::2], sp.pair_partition[1::2])):
        m1, m2 = pair
        # a square's edge ids walk its cycle from its lowest edge
        assert min(sq) == sq[0] and sq[0] in m1
        assert all(set(sp.keys[sq[i]]) & set(sp.keys[sq[i - 1]]) for i in range(4))
        assert m1 | m2 == set(sq)
        assert m1.isdisjoint(m2)
        corners = sorted({v for e in sq for v in sp.keys[e]})
        for matching in (m1, m2):
            nodes = [v for e in matching for v in sp.keys[e]]
            assert sorted(nodes) == corners


def test_decompose_integral_cycle():
    x = integral_cycle(5)
    sp = unit_square_point(x)
    assert sp.squares == ()
    assert sp.pair_partition == ()
    assert one_path_lengths(x) == [5]  # one closed 1-cycle
    assert one_degrees(x) == [2] * 5


def test_decompose_rejects_non_square():
    support = {edge_key(i, (i + 1) % 12): 1 for i in range(12)}
    for i in range(6):
        support[edge_key(i, i + 6)] = 2
    x = HalfIntegerPoint(12, support)
    with pytest.raises(ValueError, match="not a square point"):
        unit_square_point(x)
    with pytest.raises(ValueError, match="not a square point"):
        square_point(x, {})  # before any cost check


def test_contract_donut():
    inst = make_donut(2)
    sp = square_point(inst.point, inst.costs)
    sg, cost = contract(sp)
    chains = sp.reduction.chains
    check_square_graph(sg)
    assert sg.graph.node_count == 8
    assert len(sg.matching) == 4
    assert sg.graph.edge_count == 12
    for e in sorted(sg.matching):
        assert cost[e] == 2
    # the chains partition the support; the matching edges' chains are the
    # 1-paths, the square edges' chains their own support edge
    keys = sorted(inst.point.support)
    assert sorted(e for c in chains for e in c) == list(range(len(keys)))
    paths = {
        frozenset(edge_key(u, v) for u, v in zip(p, p[1:]))
        for p in inst.inner_paths + inst.outer_paths
    }
    assert {frozenset(keys[e] for e in chains[m]) for m in sg.matching} == paths
    for sq in sg.squares:
        assert all(len(chains[e]) == 1 for e in sq)
    corners = sorted(v for sq in inst.squares for v in sq)
    assert list(sp.reduction.kept) == corners


def test_contract_builds_square_graphs():
    # tour.hamiltonian hands contract's square graph to the HAM stage unchecked
    for seed in range(60):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 12), rng.randint(1, 4), seed)
        check_square_graph(contract(unit_square_point(x))[0])
    for k in range(2, 13):
        inst = make_donut(k)
        check_square_graph(contract(square_point(inst.point, inst.costs))[0])


def test_checked_points_and_square_graphs_compare_by_value():
    x = random_square_point(4, 3, 11)
    costs = {e: 1 + sum(e) % 5 for e in x.support}
    assert square_point(x, costs) == square_point(x, costs)
    assert contract(square_point(x, costs))[0] == contract(square_point(x, costs))[0]


def test_contract_unit_paths_keep_support_shape():
    x = random_square_point(2, 1, 7)
    costs = {e: 1 for e in x.support}
    sp = square_point(x, costs)
    sg, _ = contract(sp)
    assert sg.graph.edge_count == len(x.support)
    assert all(len(c) == 1 for c in sp.reduction.chains)


def test_contract_single_square_diagonals():
    x = single_square_point()
    costs = {e: 1 for e in x.support}
    sp = square_point(x, costs)
    sg, cost = contract(sp)
    assert sg.graph.node_count == 4
    assert len(sg.matching) == 2
    for e in sorted(sg.matching):
        u, v = sg.graph.edges[e]
        assert (sp.reduction.kept[u], sp.reduction.kept[v]) in ((0, 2), (1, 3))
        assert cost[e] == 2
    check_square_graph(sg)


def test_contract_degenerate_point_errors():
    with pytest.raises(ValueError, match="integral point"):
        contract(square_point(integral_cycle(5), {edge_key(i, (i + 1) % 5): 1 for i in range(5)}))
    assert "1-edge cycle" in DEGENERATE_MSG


def test_contract_checks_costs():
    inst = make_donut(2)
    costs = dict(inst.costs)
    costs.pop((0, 1))
    with pytest.raises(ValueError, match="missing cost"):
        square_point(inst.point, costs)
    costs[(0, 1)] = -1
    with pytest.raises(ValueError, match="negative cost"):
        square_point(inst.point, costs)


def test_square_point_rejects_non_integer_costs():
    # the pipeline promises exact integer costs, so a float or a string is
    # refused before the sign check rather than summed or compared later
    x = single_square_point()
    for bad in (0.5, -0.5, 2.0, "3"):
        costs = dict.fromkeys(x.support, 1)
        costs[(1, 2)] = bad
        with pytest.raises(ValueError, match=r"cost on edge \(1, 2\) must be an integer"):
            square_point(x, costs)
    costs = dict.fromkeys(x.support, 0.5)
    del costs[(0, 1)]
    with pytest.raises(ValueError, match="missing cost"):
        square_point(x, costs)


def test_square_point_accepts_numpy_integer_costs():
    inst = make_donut(3)
    sp = square_point(inst.point, {e: np.int64(c) for e, c in inst.costs.items()})
    want = square_point(inst.point, inst.costs)
    assert sp.weighted.weight == want.weighted.weight
    assert sp.reduction.weighted.weight == want.reduction.weighted.weight
    assert all(type(c) is int for c in sp.weighted.weight + contract(sp)[1])


def test_square_nodes_have_two_half_edges():
    for seed in range(20):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 3), rng.randint(1, 3), 100 + seed)
        sp = unit_square_point(x)
        half_deg = [0] * x.n
        for u, v in x.half_edges():
            half_deg[u] += 1
            half_deg[v] += 1
        one_deg = one_degrees(x)
        square_edges = [sp.keys[e] for sq in sp.squares for e in sq]
        for v in {v for e in square_edges for v in e}:
            assert half_deg[v] == 2
            assert one_deg[v] == 1
        assert sorted(square_edges) == sorted(x.half_edges())
