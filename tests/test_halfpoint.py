import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squaretour import halfpoint
from squaretour.graphcore import WeightedGraph, global_min_cut, metric_closure
from squaretour.halfpoint import (
    DEGENERATE_MSG,
    HalfIntegerPoint,
    PointClass,
    classify,
    contract_one_paths,
    decompose,
    edge_key,
    support_graph,
    validate_subtour,
)
from squaretour.deltamatroid import check_square_graph
from squaretour.instances import make_donut, random_square_point
from squaretour.oracles import brute_cuts


def integral_cycle(n):
    return HalfIntegerPoint(n, {edge_key(i, (i + 1) % n): 2 for i in range(n)})


def single_square_point():
    # square 0-1-2-3 with diagonal paths 0-4-2 and 1-5-3
    support = {
        (0, 1): 1,
        (1, 2): 1,
        (2, 3): 1,
        (0, 3): 1,
        (0, 4): 2,
        (2, 4): 2,
        (1, 5): 2,
        (3, 5): 2,
    }
    return HalfIntegerPoint(6, support)


def test_point_construction_rejects_bad_values():
    with pytest.raises(ValueError):
        HalfIntegerPoint(3, {(0, 1): 3})
    with pytest.raises(ValueError):
        HalfIntegerPoint(3, {(1, 0): 1})  # keys must be ordered
    with pytest.raises(ValueError):
        HalfIntegerPoint(2, {(0, 2): 1})
    with pytest.raises(ValueError):
        HalfIntegerPoint(2, {(1, 1): 2})


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


def test_validate_disconnected():
    rep = validate_subtour(HalfIntegerPoint(4, {(0, 1): 2, (2, 3): 2}))
    assert not rep
    assert rep.reason in ("degree", "disconnected")


def single_square_point_adjacent_paths():
    # square 0-1-2-3, paths 0-4-1 and 2-5-3 join adjacent corners: cut x=1
    support = {
        (0, 1): 1,
        (1, 2): 1,
        (2, 3): 1,
        (0, 3): 1,
        (0, 4): 2,
        (1, 4): 2,
        (2, 5): 2,
        (3, 5): 2,
    }
    return HalfIntegerPoint(6, support)


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
    support = {
        (0, 1): 1,
        (1, 2): 1,
        (2, 3): 1,
        (0, 3): 1,
        (0, 4): 2,
        (1, 4): 2,
        (2, 5): 2,
        (3, 5): 2,
    }
    x = HalfIntegerPoint(6, support)
    val, side = brute_cuts(x)
    rep = validate_subtour(x)
    assert val == rep.cut_value_x2 == 2


def test_min_cut_runs_on_series_reduced_support(monkeypatch):
    sizes = []

    def recording(wg):
        sizes.append(wg.graph.node_count)
        return global_min_cut(wg)

    monkeypatch.setattr(halfpoint, "global_min_cut", recording)
    # a donut keeps only its square corners: 4 per square
    assert validate_subtour(make_donut(12).point)
    assert sizes == [4 * 12]
    # a Boyd-Carr point has no node of support degree 2 to suppress
    x = random_square_point(3, 1, 5)
    sizes.clear()
    assert validate_subtour(x)
    assert sizes == [x.n]
    # a violated cut is found on the reduced support, then cut again on the
    # full support for its witness
    sizes.clear()
    assert not validate_subtour(single_square_point_adjacent_paths())
    assert sizes == [4, 6]


@st.composite
def perturbed_square_points(draw):
    """A small random square point, then one to three swaps of two
    equal-valued edges a-b, c-d for a-c, b-d: doubled degrees stay 4, while
    cuts may fall below 4 and the support may fall apart."""
    x = random_square_point(draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                            draw(st.integers(0, 10**6)))
    support = dict(x.support)
    for _ in range(draw(st.integers(1, 3))):
        swaps = [
            (e, f, new)
            for e, f in combinations(sorted(support), 2)
            if support[e] == support[f] and len({*e, *f}) == 4
            for new in ((edge_key(e[0], f[0]), edge_key(e[1], f[1])),
                        (edge_key(e[0], f[1]), edge_key(e[1], f[0])))
            if not set(new) & set(support)
        ]
        if not swaps:
            break
        e, f, new = draw(st.sampled_from(swaps))
        x2 = support.pop(e)
        del support[f]
        support.update(dict.fromkeys(new, x2))
    return HalfIntegerPoint(x.n, support)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(perturbed_square_points())
def test_validate_agrees_with_brute_cuts_on_perturbed_points(x):
    val, _ = brute_cuts(x)
    rep = validate_subtour(x)
    assert bool(rep) == (val >= 4)
    if rep.reason == "cut":
        assert rep.cut_value_x2 == val
        side = rep.cut_side
        crossing = sum(x2 for (u, v), x2 in x.support.items() if (u in side) != (v in side))
        assert crossing == rep.cut_value_x2
    elif not rep:
        assert (rep.reason, val) == ("disconnected", 0)


def test_donut_min_cut_is_two():
    inst = make_donut(2)
    g, keys = support_graph(inst.point)
    wg = WeightedGraph(g, tuple(inst.point.support[k] for k in keys))
    assert global_min_cut(wg)[0] == 4  # doubled weights, so x-cut 2
    assert brute_cuts(inst.point)[0] == 4


def test_donut_metric_distance_across_ring():
    inst = make_donut(2)
    g, keys = support_graph(inst.point)
    wg = WeightedGraph(g, tuple(inst.costs[k] for k in keys))
    dist = metric_closure(wg)
    for path in inst.inner_paths + inst.outer_paths:
        assert dist[path[0]][path[-1]] == 2


def test_classify_square_and_donut():
    assert classify(make_donut(2).point) is PointClass.SQUARE
    assert classify(make_donut(3).point) is PointClass.SQUARE
    assert classify(single_square_point()) is PointClass.SQUARE


def test_classify_integral_cycle_is_square():
    assert classify(integral_cycle(6)) is PointClass.SQUARE


def test_classify_boyd_carr():
    # all 1-paths have length 1: cubic support, one 1-edge per node
    x = random_square_point(2, 1, 7)
    assert classify(x) is PointClass.BOYD_CARR


def test_classify_square_with_long_paths_not_boyd_carr():
    assert classify(single_square_point()) is PointClass.SQUARE


def test_classify_carr_vempala():
    support = {edge_key(i, (i + 1) % 12): 1 for i in range(12)}
    for i in range(6):
        support[edge_key(i, i + 6)] = 2
    x = HalfIntegerPoint(12, support)
    assert classify(x) is PointClass.CARR_VEMPALA


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
        assert classify(x) is PointClass.OTHER_HALF_INTEGER


def test_classify_rejects_infeasible():
    x = HalfIntegerPoint(3, {(0, 1): 2, (1, 2): 2, (0, 2): 1})
    with pytest.raises(ValueError):
        classify(x)


def test_classify_n4_prefers_square():
    support = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1, (0, 2): 2, (1, 3): 2}
    assert classify(HalfIntegerPoint(4, support)) is PointClass.BOYD_CARR


def test_decompose_donut():
    dec = decompose(make_donut(2).point)
    assert len(dec.squares) == 2
    assert len(dec.one_paths) == 4
    assert all(len(p.nodes) == 3 for p in dec.one_paths)  # length-2 paths
    assert len(dec.pair_partition) == 4
    assert not any(p.closed for p in dec.one_paths)


def test_decompose_k4_donut():
    dec = decompose(make_donut(4).point)
    assert len(dec.squares) == 4
    assert len(dec.one_paths) == 8
    assert all(len(p.nodes) == 5 for p in dec.one_paths)
    assert len(dec.pair_partition) == 8


def test_decompose_pair_partition_is_matchings():
    dec = decompose(make_donut(3).point)
    for sq, pair in zip(dec.squares, zip(dec.pair_partition[0::2], dec.pair_partition[1::2])):
        m1, m2 = pair
        assert m1 | m2 == set(sq.edges)
        assert m1.isdisjoint(m2)
        for matching in (m1, m2):
            nodes = [v for e in matching for v in e]
            assert sorted(nodes) == sorted(sq.nodes)


def test_decompose_integral_cycle():
    dec = decompose(integral_cycle(5))
    assert dec.squares == ()
    assert len(dec.one_paths) == 1
    assert dec.one_paths[0].closed
    assert dec.pair_partition == ()


def test_decompose_rejects_non_square():
    support = {edge_key(i, (i + 1) % 12): 1 for i in range(12)}
    for i in range(6):
        support[edge_key(i, i + 6)] = 2
    with pytest.raises(ValueError, match="not a square point"):
        decompose(HalfIntegerPoint(12, support))


def test_contract_donut():
    inst = make_donut(2)
    cp = contract_one_paths(inst.point, inst.costs)
    sg = cp.square_graph
    check_square_graph(sg)
    assert sg.graph.node_count == 8
    assert len(sg.matching) == 4
    assert sg.graph.edge_count == 12
    for e in sorted(sg.matching):
        assert cp.cost[e] == 2
    assert len(cp.expansion) == 4


def test_contract_unit_paths_keep_support_shape():
    x = random_square_point(2, 1, 7)
    costs = {e: 1 for e in x.support}
    cp = contract_one_paths(x, costs)
    assert cp.square_graph.graph.edge_count == len(x.support)
    assert all(len(p) == 2 for p in cp.expansion.values())


def test_contract_single_square_diagonals():
    x = single_square_point()
    costs = {e: 1 for e in x.support}
    cp = contract_one_paths(x, costs)
    sg = cp.square_graph
    assert sg.graph.node_count == 4
    assert len(sg.matching) == 2
    for e in sorted(sg.matching):
        u, v = sg.graph.edges[e]
        assert (cp.corner_orig[u], cp.corner_orig[v]) in ((0, 2), (1, 3))
        assert cp.cost[e] == 2
    check_square_graph(sg)


def test_contract_degenerate_point_errors():
    with pytest.raises(ValueError, match="integral point"):
        contract_one_paths(integral_cycle(5), {edge_key(i, (i + 1) % 5): 1 for i in range(5)})
    assert "1-edge cycle" in DEGENERATE_MSG


def test_contract_checks_costs():
    inst = make_donut(2)
    costs = dict(inst.costs)
    costs.pop((0, 1))
    with pytest.raises(ValueError, match="missing cost"):
        contract_one_paths(inst.point, costs)
    costs[(0, 1)] = -1
    with pytest.raises(ValueError, match="negative cost"):
        contract_one_paths(inst.point, costs)


def test_square_nodes_have_two_half_edges():
    for seed in range(20):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 3), rng.randint(1, 3), 100 + seed)
        dec = decompose(x)
        half_deg = [0] * x.n
        for u, v in x.half_edges():
            half_deg[u] += 1
            half_deg[v] += 1
        for sq in dec.squares:
            for v in sq.nodes:
                assert half_deg[v] == 2
        one_edges = {e for p in dec.one_paths for e in p.edges}
        assert one_edges == set(x.one_edges())
        square_edges = [e for sq in dec.squares for e in sq.edges]
        assert sorted(square_edges) == sorted(x.half_edges())
