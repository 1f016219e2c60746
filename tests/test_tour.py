import random
from itertools import combinations

import pytest

from squaretour import halfpoint
from squaretour.graphcore import DisjointSet, MultiGraph, global_min_cut, is_connected
from squaretour.halfpoint import HalfIntegerPoint, decompose, edge_key
from squaretour.instances import (
    everywhere_instance,
    make_donut,
    random_costs,
    random_square_point,
)
from squaretour.tour import compute_y, hamiltonian_with_ones, run_tour
from squaretour.treesel import rainbow_one_tree


def integral_cycle(n):
    return HalfIntegerPoint(n, {edge_key(i, (i + 1) % n): 2 for i in range(n)})


def single_square_point():
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


def prism_point():
    g = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (0, 3), (1, 4), (2, 5)])
    return everywhere_instance(g, {0, 7, 3, 5, 8, 2})


ONE_EDGES = frozenset({(0, 4), (2, 4), (1, 5), (3, 5)})
MATCH_A = frozenset({(0, 1), (2, 3)})
MATCH_B = frozenset({(1, 2), (0, 3)})


def test_ham_single_square_picks_cheaper_candidate():
    x = single_square_point()
    costs = {e: 2 for e in ONE_EDGES}
    costs.update({e: 1 for e in MATCH_A})
    costs.update({e: 5 for e in MATCH_B})
    ham = hamiltonian_with_ones(x, costs)
    assert ham.edges == ONE_EDGES | MATCH_A
    assert ham.cost == 10
    flipped = dict(costs)
    flipped.update({e: 5 for e in MATCH_A})
    flipped.update({e: 1 for e in MATCH_B})
    ham2 = hamiltonian_with_ones(x, flipped)
    assert ham2.edges == ONE_EDGES | MATCH_B
    assert ham2.cost == 10
    assert sorted(ham.order) == list(range(6))


def test_ham_donut_cost():
    inst = make_donut(2)
    ham = hamiltonian_with_ones(inst.point, inst.costs)
    # keeping the two cost-1 matchings in both squares would split the cycle
    # into the inner and outer rings, so one square pays the cost-k matching
    assert ham.cost == 14
    assert len(ham.edges) == 12
    one_edges = {e for e, v in inst.point.support.items() if v == 2}
    assert one_edges <= ham.edges
    for sq in decompose(inst.point).squares:
        assert len(ham.edges & set(sq.edges)) == 2


def test_ham_integral_point():
    x = integral_cycle(7)
    costs = {e: 3 * i for i, e in enumerate(sorted(x.support))}
    ham = hamiltonian_with_ones(x, costs)
    assert ham.edges == frozenset(x.support)
    assert ham.cost == sum(costs.values())
    assert 2 * ham.cost == x.cost_x2(costs)


def test_ham_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not a square point"):
        hamiltonian_with_ones(prism_point(), {e: 1 for e in prism_point().support})
    x = single_square_point()
    costs = {e: 1 for e in x.support}
    del costs[(0, 1)]
    with pytest.raises(ValueError, match="missing cost"):
        hamiltonian_with_ones(x, costs)
    costs[(0, 1)] = -2
    with pytest.raises(ValueError, match="negative cost"):
        hamiltonian_with_ones(x, costs)


def k4_point():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    return everywhere_instance(g, {0, 1, 2, 3})


def test_compute_y_covers_all_four_values():
    x = k4_point()
    # the all-half 4-cycle: halves in the cycle, 1-edges outside it
    y = compute_y(x, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    assert y[(0, 1)] == 1
    assert y[(0, 2)] == 4
    # a mixed cycle through one diagonal
    y2 = compute_y(x, frozenset({(0, 1), (1, 3), (2, 3), (0, 2)}))
    assert y2[(0, 2)] == 3
    assert y2[(1, 2)] == 2
    assert set(y.values()) | set(y2.values()) == {1, 2, 3, 4}


def test_compute_y_donut_fixed_sum():
    inst = make_donut(2)
    ham = hamiltonian_with_ones(inst.point, inst.costs)
    y = compute_y(inst.point, ham.edges)
    total = sum(inst.costs[e] * v for e, v in y.items())
    assert total == 42  # 6*(c.y); equals 2*c_x2 - c_H = 56 - 14


def test_compute_y_identity_random():
    for seed in range(30):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 4), rng.randint(1, 3), 300 + seed)
        costs = random_costs(x, seed)
        ham = hamiltonian_with_ones(x, costs)
        y = compute_y(x, ham.edges)
        assert set(y.values()) <= {1, 2, 3, 4}
        total = sum(costs[e] * v for e, v in y.items())
        assert total == 2 * x.cost_x2(costs) - ham.cost, seed


def test_compute_y_errors():
    x = single_square_point()
    with pytest.raises(ValueError, match="is not a support edge"):
        compute_y(x, frozenset({(0, 5), (0, 1), (1, 2), (2, 3), (0, 3), (2, 4)}))
    with pytest.raises(ValueError, match="not a Hamiltonian cycle"):
        compute_y(x, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


def j_star_degrees(n, mult):
    deg = [0] * n
    for (u, v), m in mult.items():
        deg[u] += m
        deg[v] += m
    return deg


def test_run_tour_donut_report():
    inst = make_donut(2)
    rep = run_tour(inst.point, inst.costs)
    assert rep.c_x2 == 28
    assert rep.c_h == 14
    assert rep.c_j == 18
    assert rep.bound_holds
    assert 14 * min(rep.c_h, rep.c_j) <= 10 * rep.c_x2
    assert rep.final_cost <= min(rep.c_h, rep.c_j)
    assert sorted(rep.final_cycle) == list(range(12))
    assert set(rep.j_star.values()) <= {1, 2}
    assert all(d % 2 == 0 for d in j_star_degrees(12, rep.j_star))


def test_run_tour_integral_ratio_one():
    x = integral_cycle(9)
    costs = random_costs(x, 21)
    rep = run_tour(x, costs)
    assert rep.c_h == rep.c_j == sum(costs.values())
    assert rep.j_star == {e: 1 for e in x.support}
    assert rep.final_cost == rep.c_h
    assert 2 * rep.c_h == rep.c_x2


def test_run_tour_structural_invariants():
    for seed in range(40):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 4), rng.randint(1, 3), 40 + seed)
        costs = random_costs(x, seed)
        rep = run_tour(x, costs)
        assert rep.bound_holds, seed
        assert rep.final_cost <= min(rep.c_h, rep.c_j), seed
        assert sorted(rep.final_cycle) == list(range(x.n)), seed
        assert set(rep.j_star.values()) <= {1, 2}, seed
        assert all(d % 2 == 0 for d in j_star_degrees(x.n, rep.j_star)), seed
        edges = [e for e, m in rep.j_star.items() for _ in range(m)]
        assert is_connected(MultiGraph(x.n, edges)), seed
        # the T-join part of J* never costs more than c.y
        f_star = rainbow_one_tree(x, costs)
        join_cost = rep.c_j - f_star.cost
        y = compute_y(x, rep.hamiltonian.edges)
        assert 6 * join_cost <= sum(costs[e] * v for e, v in y.items()), seed


def test_run_tour_validates_once(monkeypatch):
    calls = []

    def counting(wg):
        calls.append(wg)
        return global_min_cut(wg)

    monkeypatch.setattr(halfpoint, "global_min_cut", counting)
    inst = make_donut(3)
    x = random_square_point(3, 2, 11)
    for point, costs in ((inst.point, inst.costs), (x, random_costs(x, 11))):
        calls.clear()
        run_tour(point, costs)
        assert len(calls) == 1


def test_run_tour_engines_agree():
    for seed in (3, 14, 27):
        x = random_square_point(3, 2, seed)
        costs = random_costs(x, seed)
        a = run_tour(x, costs, engine="dp")
        b = run_tour(x, costs, engine="blossom")
        assert a.c_j == b.c_j
        assert a.c_h == b.c_h


def test_run_tour_rejects_bad_inputs():
    x = prism_point()
    with pytest.raises(ValueError, match="not a square point"):
        run_tour(x, {e: 1 for e in x.support})
    y = single_square_point()
    with pytest.raises(ValueError, match="negative cost"):
        run_tour(y, {e: -1 for e in y.support})


def donut_segment_cut(inst, start, length):
    """Half-open run of squares start..start+length-1 with the path interiors
    strictly between them; returns delta(S) in the support."""
    k = inst.k
    nodes = set()
    for off in range(length):
        nodes.update(inst.squares[(start + off) % k])
    for off in range(length - 1):
        i = (start + off) % k
        nodes.update(inst.inner_paths[i][1:-1])
        nodes.update(inst.outer_paths[i][1:-1])
    return {e for e in inst.point.support if (e[0] in nodes) != (e[1] in nodes)}


def ring_cut(inst):
    nodes = set()
    for sq in inst.squares:
        nodes.update(sq[:2])
    for path in inst.inner_paths:
        nodes.update(path[1:-1])
    return {e for e in inst.point.support if (e[0] in nodes) != (e[1] in nodes)}


def test_claim_case_two_on_donut_cuts():
    # cuts crossed four times by H either carry x >= 3 or meet F* evenly
    for k in (2, 3, 4):
        inst = make_donut(k)
        ham = hamiltonian_with_ones(inst.point, inst.costs)
        f_star = rainbow_one_tree(inst.point, inst.costs)
        cuts = [ring_cut(inst)]
        for start in range(k):
            for length in range(1, k):
                cuts.append(donut_segment_cut(inst, start, length))
        case_two_seen = 0
        for cut in cuts:
            x2 = sum(inst.point.support[e] for e in cut)
            crossings = len(ham.edges & cut)
            assert crossings % 2 == 0
            if crossings == 4:
                case_two_seen += 1
                assert x2 >= 6 or len(f_star.edges & cut) % 2 == 0, (k, cut)
        assert case_two_seen > 0, k


def test_claim_case_two_on_pair_class_cuts():
    for seed in range(30):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(2, 4), rng.randint(1, 2), 770 + seed)
        costs = random_costs(x, seed)
        ham = hamiltonian_with_ones(x, costs)
        f_star = rainbow_one_tree(x, costs)
        dec = decompose(x)
        for pa, pb in combinations(dec.pair_partition, 2):
            union = set(pa) | set(pb)
            ds = DisjointSet(x.n)
            for u, v in x.support:
                if (u, v) not in union:
                    ds.union(u, v)
            if len({ds.find(v) for v in range(x.n)}) != 2:
                continue
            if any(ds.find(u) == ds.find(v) for u, v in union):
                continue
            # a genuine four-half-edge cut: x(C) = 2, so Case 2 needs parity
            if len(ham.edges & union) == 4:
                assert len(f_star.edges & union) % 2 == 0, seed
