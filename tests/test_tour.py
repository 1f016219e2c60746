import random
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    four_half_edge_cuts,
    ham_digest_points,
    inside_one_path,
    integral_cycle,
    k4_graph,
    ladder_points,
    prism_graph,
    relabelled,
    single_square_point,
    spy,
    tour_report_cases,
)
from squaretour import deltamatroid, tjoin, tour
from squaretour.deltamatroid import HamCycle, ham_min_cost
from squaretour.graphcore import (
    MultiGraph,
    WeightedGraph,
    hamiltonian_order,
    is_connected,
    metric_closure,
)
from squaretour.halfpoint import HalfIntegerPoint, contract, edge_key, square_point, support_graph
from squaretour.instances import (
    everywhere_instance,
    make_donut,
    random_costs,
    random_square_point,
)
from squaretour.oracles import check_ham
from squaretour.tour import compute_y, hamiltonian, run_tour
from squaretour.treesel import RainbowOneTree, rainbow
from test_budgets import measured


def prism_point():
    return everywhere_instance(prism_graph(), {0, 7, 3, 5, 8, 2})


ONE_EDGES = frozenset({(0, 4), (2, 4), (1, 5), (3, 5)})
MATCH_A = frozenset({(0, 1), (2, 3)})
MATCH_B = frozenset({(1, 2), (0, 3)})


def test_ham_single_square_picks_cheaper_candidate():
    x = single_square_point()
    costs = {e: 2 for e in ONE_EDGES}
    costs.update({e: 1 for e in MATCH_A})
    costs.update({e: 5 for e in MATCH_B})
    ham = hamiltonian(square_point(x, costs))
    assert ham.edges == ONE_EDGES | MATCH_A
    assert ham.cost == 10
    flipped = dict(costs)
    flipped.update({e: 5 for e in MATCH_A})
    flipped.update({e: 1 for e in MATCH_B})
    ham2 = hamiltonian(square_point(x, flipped))
    assert ham2.edges == ONE_EDGES | MATCH_B
    assert ham2.cost == 10
    assert sorted(ham.order) == list(range(6))


def test_ham_donut_cost():
    inst = make_donut(2)
    sp = square_point(inst.point, inst.costs)
    ham = hamiltonian(sp)
    # keeping the two cost-1 matchings in both squares would split the cycle
    # into the inner and outer rings, so one square pays the cost-k matching
    assert ham.cost == 14
    assert len(ham.edges) == 12
    one_edges = {e for e, v in inst.point.support.items() if v == 2}
    assert one_edges <= ham.edges
    for sq in sp.squares:
        assert len(ham.edges & {sp.keys[e] for e in sq}) == 2


def test_ham_integral_point():
    x = integral_cycle(7)
    costs = {e: 3 * i for i, e in enumerate(sorted(x.support))}
    ham = hamiltonian(square_point(x, costs))
    assert ham.edges == frozenset(x.support)
    assert ham.cost == sum(costs.values())
    assert 2 * ham.cost == x.cost_x2(costs)


def test_ham_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not a square point"):
        hamiltonian(square_point(prism_point(), {e: 1 for e in prism_point().support}))
    x = single_square_point()
    costs = {e: 1 for e in x.support}
    del costs[(0, 1)]
    with pytest.raises(ValueError, match="missing cost"):
        hamiltonian(square_point(x, costs))
    costs[(0, 1)] = -2
    with pytest.raises(ValueError, match="negative cost"):
        hamiltonian(square_point(x, costs))


def assert_ham_certified(points):
    for x, costs in points:
        sg, cost = contract(square_point(x, costs))
        assert check_ham(sg, cost, ham_min_cost(sg, cost).edges)


def test_check_ham_certifies_pinned_cycles():
    # past brute_ham's cap, by one- and two-square exchanges
    for s in (8, 16, 24, 32, "donut"):
        assert_ham_certified(ham_digest_points(s))
    assert_ham_certified(ladder_points(128))


@pytest.mark.extended
def test_check_ham_certifies_pinned_cycles_extended():
    assert_ham_certified(ladder_points(256))


def k4_point():
    return everywhere_instance(k4_graph(), {0, 1, 2, 3})


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
    ham = hamiltonian(square_point(inst.point, inst.costs))
    y = compute_y(inst.point, ham.edges)
    total = sum(inst.costs[e] * v for e, v in y.items())
    assert total == 42  # 6*(c.y); equals 2*c_x2 - c_H = 56 - 14


def test_compute_y_identity_random():
    for seed in range(30):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 4), rng.randint(1, 3), 300 + seed)
        costs = random_costs(x, seed)
        ham = hamiltonian(square_point(x, costs))
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
    # three disjoint squares cover every node twice, but are no single cycle
    x = random_square_point(3, 1, 5)
    with pytest.raises(ValueError, match="not a Hamiltonian cycle"):
        compute_y(x, frozenset(x.half_edges()))


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


def test_integral_point_takes_the_square_point_path():
    # zero squares: the 1-edge cycle is the rainbow 1-tree, T = odd(F*) is
    # empty and so is its join, and L1 holds with equality
    for n in range(3, 10):
        x = integral_cycle(n)
        costs = random_costs(x, n)
        sp = square_point(x, costs)
        tree = rainbow(sp)
        assert tree.edges == frozenset(x.support) and 2 * tree.cost == x.cost_x2(costs), n
        assert tjoin._t_join(sp.weighted, sp.reduction, []) == frozenset(), n
        assert_bound_lemmas(x, costs)


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
        f_star = rainbow(square_point(x, costs))
        join_cost = rep.c_j - f_star.cost
        y = compute_y(x, rep.hamiltonian.edges)
        assert 6 * join_cost <= sum(costs[e] * v for e, v in y.items()), seed


@st.composite
def relabelled_points_with_costs(draw):
    """A random square point (1-6 squares, 1-paths of length 1-4), an
    integral cycle or a donut, its nodes relabelled by a random permutation,
    in some draws one that puts node 0 inside a 1-path, and costs in 0..2 or
    0..100."""
    kind = draw(st.sampled_from(("square", "cycle", "donut")))
    if kind == "square":
        x = random_square_point(draw(st.integers(1, 6)), draw(st.integers(1, 4)),
                                draw(st.integers(0, 10**6)))
    elif kind == "cycle":
        x = integral_cycle(draw(st.integers(3, 12)))
    else:
        x = make_donut(draw(st.integers(2, 4))).point
    perm = draw(st.permutations(range(x.n)))
    inner = [v for v in range(x.n) if inside_one_path(x, v)]
    if inner and draw(st.booleans()):  # an inner node takes label 0
        a, b = perm.index(0), draw(st.sampled_from(inner))
        perm[a], perm[b] = perm[b], 0
    x = relabelled(x, perm)
    high = draw(st.sampled_from((2, 100)))
    keys = sorted(x.support)
    return x, dict(zip(keys, draw(st.lists(st.integers(0, high), min_size=len(keys),
                                           max_size=len(keys)))))


@settings(max_examples=100)
@given(relabelled_points_with_costs())
def test_t_is_odd_f_star_and_on_the_kept_nodes(case):
    # every non-kept node has two 1-edges, both in F*, so run_tour reads
    # T = odd(F*) off the kept nodes alone; counted here over all n nodes
    x, costs = case
    sp = square_point(x, costs)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        spy(mp, [tour], "_t_join", lambda wg, red, t_nodes: seen.append(list(t_nodes)))
        run_tour(x, costs)
    degree = Counter(v for e in rainbow(sp).edges for v in e)
    assert seen == [[v for v in range(x.n) if degree[v] % 2]]
    assert set(seen[0]) <= set(sp.reduction.kept)


def assert_bound_lemmas(x, costs):
    """The lemmas the 10/7 bound rests on, and their sum: L1, 2 c(F*) <=
    c_x2, as x is a convex combination of rainbow 1-trees; L2, 6 c(join) +
    c_H <= 2 c_x2, as 6y = 4x - H dominates a T-join for T = odd(F*)."""
    rep = run_tour(x, costs)
    f_cost = rainbow(square_point(x, costs)).cost
    assert 2 * f_cost <= rep.c_x2
    assert 6 * (rep.c_j - f_cost) + rep.c_h <= 2 * rep.c_x2
    assert rep.c_h + 6 * rep.c_j <= 5 * rep.c_x2


@settings(max_examples=100)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 10**6), st.sampled_from((2, 100)))
def test_bound_lemmas_hold_on_square_points(s, length, seed, high):
    x = random_square_point(s, length, seed)
    assert_bound_lemmas(x, random_costs(x, seed, 0, high))


def test_bound_lemmas_hold_on_donuts():
    for inst in map(make_donut, range(2, 13)):
        assert_bound_lemmas(inst.point, inst.costs)


def test_lemma_two_catches_a_costlier_t_join(monkeypatch):
    # a square is a cycle, so adding its edges mod 2 keeps a T-join; on donut
    # k=2 that join costs 6 more, H stays chosen and the final check still
    # holds, but L2 does not
    inst = make_donut(2)
    sp = square_point(inst.point, inst.costs)
    rep = run_tour(inst.point, inst.costs)
    assert rep.c_h <= rep.c_j

    def costlier(*args, _fn=tour._t_join):
        return _fn(*args) ^ frozenset(sp.squares[0])

    monkeypatch.setattr(tour, "_t_join", costlier)
    with pytest.raises(RuntimeError, match="lemma L2"):
        run_tour(inst.point, inst.costs)


def test_lemma_one_catches_a_costlier_rainbow(monkeypatch):
    # the same 1-tree priced above c_x2 / 2: F* and so c_J are unchanged,
    # but L1 no longer holds
    inst = make_donut(2)
    c_x2 = inst.point.cost_x2(inst.costs)

    def costlier(sp, _fn=tour.rainbow):
        return RainbowOneTree(_fn(sp).edges, c_x2 // 2 + 1)

    monkeypatch.setattr(tour, "rainbow", costlier)
    with pytest.raises(RuntimeError, match="lemma L1"):
        run_tour(inst.point, inst.costs)


def t_odd_cut_values(x, costs):
    """The capacities of the T-odd cuts of a Gomory-Hu tree for the
    capacities 6y = compute_y(x, H), with T the odd nodes of F*: by Padberg
    & Rao (Math. Oper. Res. 7, 1982) a least T-odd cut is among them."""
    sp = square_point(x, costs)
    deg = Counter(v for e in rainbow(sp).edges for v in e)
    odd = {v for v in deg if deg[v] % 2}
    g = nx.Graph()
    for (u, v), c in compute_y(x, hamiltonian(sp).edges).items():
        g.add_edge(u, v, capacity=c)
    tree = nx.gomory_hu_tree(g)
    for u, v, w in list(tree.edges(data="weight")):
        tree.remove_edge(u, v)
        if len(nx.node_connected_component(tree, u) & odd) % 2:
            yield w
        tree.add_edge(u, v, weight=w)


def test_y_dominates_a_t_join():
    # every T-odd cut of y is at least 1, so c(join) <= c.y: the fact L2
    # rests on, checked without the T-join
    cases = [(inst.point, inst.costs) for inst in map(make_donut, range(2, 7))]
    cases += [(x, random_costs(x, s)) for s in (8, 16, 24, 32) for x in [random_square_point(s, 1, s)]]
    for x, costs in cases:
        assert min(t_odd_cut_values(x, costs)) >= 6, x.n


@pytest.mark.extended
def test_y_dominates_a_t_join_on_the_tour_report_cases():
    for x, costs in tour_report_cases(range(150)):
        assert min(t_odd_cut_values(x, costs)) >= 6, x.n


def test_final_cost_is_metric_closure_price():
    # the shortcut prices each step from chain offsets and searches on the
    # series reduction; the full all-pairs closure must agree
    cases = [(inst.point, inst.costs) for inst in map(make_donut, range(2, 7))]
    for seed in range(30):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 6), rng.randint(1, 3), 70 + seed)
        cases.append((x, random_costs(x, seed)))
    for x, costs in cases:
        rep = run_tour(x, costs)
        g = support_graph(x)
        dist = metric_closure(WeightedGraph(g, tuple(costs[k] for k in g.edges)))
        cyc = rep.final_cycle
        assert rep.final_cost == sum(dist[u][v] for u, v in zip(cyc, cyc[1:] + cyc[:1])), x.n


def closure_price(sp, order):
    dist = metric_closure(sp.weighted)
    return sum(dist[u][v] for u, v in zip(order, order[1:] + order[:1]))


@st.composite
def priced_orders(draw):
    """A random square point with 1-6 squares and 1-paths of length 1-5, in
    some draws with node 0 swapped into a 1-path, costs in 0..2 or 0..100,
    in some draws one 1-path edge heavier than the rest of its path and in
    some all costs raised by 2^90, and a random order of its nodes."""
    x = random_square_point(draw(st.integers(1, 6)), draw(st.integers(1, 5)),
                            draw(st.integers(0, 10**6)))
    inner = [v for v in range(x.n) if inside_one_path(x, v)]
    if inner and draw(st.booleans()):
        swap = {0: (v := draw(st.sampled_from(inner))), v: 0}
        x = HalfIntegerPoint(x.n, {edge_key(swap.get(a, a), swap.get(b, b)): x2
                                   for (a, b), x2 in x.support.items()})
    high = draw(st.sampled_from((2, 100)))
    keys = sorted(x.support)
    costs = dict(zip(keys, draw(st.lists(st.integers(0, high), min_size=len(keys),
                                         max_size=len(keys)))))
    order = draw(st.permutations(range(x.n)))
    heavy = [e for e in keys if inside_one_path(x, e[0]) or inside_one_path(x, e[1])]
    if heavy and draw(st.booleans()):
        # longer than the other four edges of its 1-path together: its ends,
        # made neighbours in the order, have 2 * gap > L if both are inside
        a, b = draw(st.sampled_from(heavy))
        costs[a, b] = 4 * high + 1
        order.remove(b)
        order.insert(order.index(a) + 1, b)
    if draw(st.booleans()):
        costs = {e: c + 2**90 for e, c in costs.items()}
    return square_point(x, costs), order


@settings(max_examples=150)
@given(priced_orders())
def test_price_matches_metric_closure_on_any_order(case):
    sp, order = case
    assert tour._price(sp, list(order)) == closure_price(sp, order)


def test_price_matches_metric_closure_on_donuts_and_cycles():
    rng = random.Random(5)
    cases = [(inst.point, inst.costs) for inst in map(make_donut, range(2, 9))]
    cases += [(integral_cycle(n), random_costs(integral_cycle(n), n)) for n in range(3, 10)]
    # integral cycles visiting their nodes in a random order, so node 0, the
    # one their reduction keeps, has arbitrary neighbours
    for n in range(3, 30, 2):
        perm = random.Random(n).sample(range(n), n)
        x = HalfIntegerPoint(n, {edge_key(perm[i - 1], perm[i]): 2 for i in range(n)})
        cases += [(x, random_costs(x, n, 0, high)) for high in (1, 5, 100)]
    for x, costs in cases:
        sp = square_point(x, costs)
        orders = [list(run_tour(x, costs).final_cycle)]
        for _ in range(5):
            orders.append(rng.sample(range(x.n), x.n))
        for order in orders:
            assert tour._price(sp, order) == closure_price(sp, order), (x.n, order)


def test_integral_point_prices_the_shorter_arc():
    # the heavy edge's ends are adjacent on the tour, yet the way round the
    # rest of the cycle is shorter
    x = integral_cycle(7)
    costs = {e: 1 for e in x.support}
    costs[(0, 1)] = 100
    rep = run_tour(x, costs)
    total = sum(costs.values())
    assert rep.final_cost == sum(min(c, total - c) for c in costs.values()) < rep.c_h


def test_shortcut_searches_only_the_reduction():
    calls = measured("tour-donut-12")[2]["price"]
    # the 48 square corners; the 264 nodes inside 1-paths are priced by
    # offsets, and a step to the end of a node's own 1-path runs no search
    assert 0 < len(calls) <= 24 and set(calls) == {48}
    # no node of degree 2: one search per tour node, as on the full support
    (x, _), _, seen = measured("tour-square-8-1-0")
    assert seen["price"] == [x.n] * x.n
    # an integral point is one loop chain at node 0: with no edge heavier
    # than half the cycle, every step is priced by offsets, node 0's too
    for n in (7, 20):
        (x, costs), final_cost, seen = measured(f"tour-integral-{n}")
        assert 2 * max(costs.values()) <= sum(costs.values())
        assert final_cost == sum(costs.values())
        assert seen["price"] == []


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10**6),
       st.sampled_from((2, 100)), st.integers(1, 80))
def test_run_tour_invariant_under_cost_scaling(s, length, seed, high, k):
    # every decision is an exact integer comparison, so scaling all costs by
    # 2^k scales every cost by 2^k and changes no choice, ties included
    x = random_square_point(s, length, seed)
    costs = random_costs(x, seed, 0, high)
    base = run_tour(x, costs)
    big = run_tour(x, {e: c << k for e, c in costs.items()})
    assert (big.c_x2, big.c_h, big.c_j, big.final_cost) == (
        base.c_x2 << k, base.c_h << k, base.c_j << k, base.final_cost << k)
    assert big.hamiltonian.order == base.hamiltonian.order
    assert big.j_star == base.j_star
    assert big.final_cycle == base.final_cycle
    assert big.final_cost <= min(big.c_h, big.c_j)


def test_run_tour_validates_once():
    for name in ("tour-donut-3", "tour-square-3-2-11"):
        (point, _), _, seen = measured(name)
        assert (seen["cut labels"], seen["min cut"]) == ([point.n], [])
    # square 0-1-2-3 with 1-paths joining adjacent corners: a cut of x2 = 2,
    # cut once on the full support for the witness
    _, (kind, message), seen = measured("tour-cut-2")
    assert kind == "ValueError" and "not a feasible point: cut" in message
    assert (seen["cut labels"], seen["min cut"]) == ([6], [6])


def test_run_tour_skips_the_square_graph_check():
    # contract builds the square graph from a checked point, so it is not
    # checked again; test_contract_builds_square_graphs backs that up
    for name in ("tour-donut-3", "tour-square-5-2-3"):
        assert measured(name)[2]["square check"] == []


def test_a_ham_of_two_cycles_raises(monkeypatch):
    # the greedy's square matchings on donut k=2 with one square flipped
    def two_cycles(sg, cost):
        return frozenset({0, 2, 4, 5, 6, 7, 8, 11})

    inst = make_donut(2)
    sg, cost = contract(square_point(inst.point, inst.costs))
    for module in (tour, deltamatroid):
        monkeypatch.setattr(module, "_ham_edges", two_cycles)
    with pytest.raises(RuntimeError, match="^HAM is not a Hamiltonian cycle$"):
        run_tour(inst.point, inst.costs)
    with pytest.raises(RuntimeError, match="^HAM is not a Hamiltonian cycle$"):
        ham_min_cost(sg, cost)


def test_run_tour_exact_on_numpy_integer_costs():
    # np.int64 sums near 2**61 wrap; every cost in the report is a Python int
    inst = make_donut(3)
    costs = {e: 2**61 + c for e, c in inst.costs.items()}
    rep = run_tour(inst.point, {e: np.int64(c) for e, c in costs.items()})
    assert rep == run_tour(inst.point, costs)
    assert all(type(c) is int for c in (rep.c_h, rep.c_j, rep.c_x2, rep.final_cost))


def test_run_tour_walks_the_hamiltonian_cycle_once():
    # the HAM stage walks its cycle on the support, not on the square graph;
    # the other walks are the squares
    for name in ("tour-donut-3", "tour-square-5-2-3"):
        (point, _), rep, seen = measured(name)
        g = support_graph(point)
        assert all((nodes, edges) == (g.node_count, g.edge_count) for nodes, edges, _ in seen["cycles"])
        assert [ids for _, _, ids in seen["cycles"]].count(point.n) == 1
        assert len(rep.hamiltonian.order) == point.n


def test_hamiltonian_and_ham_min_cost_return_one_ham_cycle_type():
    # ham_min_cost names the edges by square-graph id, hamiltonian by support key
    inst = make_donut(3)
    x = random_square_point(5, 2, 3)
    for point, costs in ((inst.point, inst.costs), (x, random_costs(x, 3))):
        sp = square_point(point, costs)
        ham = hamiltonian(sp)
        ids = [e for e, k in enumerate(sp.keys) if k in ham.edges]
        assert type(ham) is HamCycle and list(ham.order) == hamiltonian_order(sp.graph, ids)
        sg, cost = contract(sp)
        ham = ham_min_cost(sg, cost)
        assert type(ham) is HamCycle
        assert list(ham.order) == hamiltonian_order(sg.graph, ham.edges)


def test_run_tour_checks_costs_once_and_labels_no_node_twice():
    # square_point checks the costs, so no WeightedGraph checks them again,
    # and the rainbow labels its parts off the reduction: the one union-find
    # over all n nodes left is rainbow's final 1-tree check
    (point, _), _, seen = measured("tour-donut-12")
    assert point.n == 312
    assert seen["union-find"].count(312) == 1
    assert seen["weight check"] == []


def test_run_tour_reads_each_cost_once():
    # square_point checks each cost and keeps it as an int, and c_x2 is
    # summed from those, not read again from the caller's dict
    (point, costs), rep, seen = measured("tour-donut-3")
    reads = seen["cost get"] + seen["cost item"]
    assert rep == run_tour(point, dict(costs))
    assert sorted(reads) == sorted(costs) and len(reads) == 30


def test_run_tour_rejects_bad_inputs():
    x = prism_point()
    with pytest.raises(ValueError, match="not a square point"):
        run_tour(x, {e: 1 for e in x.support})
    y = single_square_point()
    with pytest.raises(ValueError, match="negative cost"):
        run_tour(y, {e: -1 for e in y.support})
    # an empty point used to validate as feasible and crash the HAM stage
    with pytest.raises(ValueError, match="n must be positive"):
        run_tour(HalfIntegerPoint(0, {}), {})


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
        ham = hamiltonian(square_point(inst.point, inst.costs))
        f_star = rainbow(square_point(inst.point, inst.costs))
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
    case_two_seen = 0
    for seed in range(30):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(2, 4), rng.randint(1, 2), 770 + seed)
        costs = random_costs(x, seed)
        sp = square_point(x, costs)
        ham = hamiltonian(sp)
        f_star = rainbow(sp)
        for union in four_half_edge_cuts(sp):
            # a genuine four-half-edge cut: x(C) = 2, so Case 2 needs parity
            if len(ham.edges & union) == 4:
                case_two_seen += 1
                assert len(f_star.edges & union) % 2 == 0, seed
    assert case_two_seen > 0


def test_final_cycle_is_the_ham_order_when_h_is_chosen():
    # shortcutting H, one cycle through every node, skips nothing, so the
    # final cycle is H's order itself
    chosen = 0
    for x, costs in tour_report_cases(range(150)):
        rep = run_tour(x, costs)
        if rep.c_h <= rep.c_j:
            chosen += 1
            assert rep.final_cycle == rep.hamiltonian.order
    assert chosen > 0
