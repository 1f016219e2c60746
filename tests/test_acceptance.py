"""End-to-end acceptance checks: one test per numbered criterion.

Each test carries its own time budget.  Criteria 3, 6 and 8 share one pool of
tour runs (seven donuts plus 500 seeded random square points); the pool is
built once, under the criterion-3 timer.
"""

import random
import time
from fractions import Fraction

import pytest

from helpers import (
    k4_graph,
    k4_square_graph,
    k33_graph,
    one_tree_ok,
    prism_graph,
    satisfies_exchange,
)
from squaretour.deltamatroid import ham_min_cost, verify_ham
from squaretour.graphcore import MultiGraph, WeightedGraph, metric_closure
from squaretour.halfpoint import (
    contract,
    square_point,
    support_graph,
    validate_subtour,
)
from squaretour.instances import (
    everywhere_instance,
    make_donut,
    random_bitransition_system,
    random_costs,
    random_square_graph,
    random_square_point,
)
from squaretour.kotzig import find_trail, verify_trail
from squaretour.oracles import brute_ham, brute_rainbow, brute_t_join, held_karp
from squaretour.tjoin import min_t_join
from squaretour.tour import compute_y, run_tour
from squaretour.treesel import rainbow

_CACHE = {}


def tour_trials():
    """(point, costs, report, rainbow tree, y in sixths) per pooled trial."""
    if "trials" not in _CACHE:
        inputs = []
        for k in range(2, 9):
            inst = make_donut(k)
            inputs.append((inst.point, inst.costs))
        for seed in range(500):
            rng = random.Random(31000 + seed)
            x = random_square_point(rng.randint(1, 5), rng.randint(1, 3), rng)
            inputs.append((x, random_costs(x, rng)))
        trials = []
        for x, costs in inputs:
            rep = run_tour(x, costs)
            tree = rainbow(square_point(x, costs))
            y6 = compute_y(x, rep.hamiltonian.edges)
            trials.append((x, costs, rep, tree, y6))
        _CACHE["trials"] = trials
    return _CACHE["trials"]


def donut_opt(k):
    inst = make_donut(k)
    g = support_graph(inst.point)
    wg = WeightedGraph(g, tuple(inst.costs[e] for e in g.edges))
    return held_karp(metric_closure(wg))


def test_criterion_01_donut_arithmetic():
    t0 = time.perf_counter()
    for k in range(2, 13):
        inst = make_donut(k)
        assert validate_subtour(inst.point)
        # doubled objective, so twice 3k^2 + k
        assert inst.point.cost_x2(inst.costs) == 2 * (3 * k * k + k)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_donut_opt_k2():
    t0 = time.perf_counter()
    assert donut_opt(2) == 14
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.extended
def test_criterion_02_donut_opt_k3_extended():
    assert donut_opt(3) == 32


def test_criterion_03_ten_sevenths_bound():
    t0 = time.perf_counter()
    trials = tour_trials()
    assert len(trials) == 507
    for x, costs, rep, tree, y6 in trials:
        best = min(rep.c_h, rep.c_j)
        assert 14 * best <= 10 * rep.c_x2
        assert rep.bound_holds
        assert rep.final_cost <= best
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_ham_matches_brute():
    t0 = time.perf_counter()
    chorded = 0
    for seed in range(200):
        rng = random.Random(32000 + seed)
        sg = random_square_graph(rng.randint(1, 6), rng)
        cost = [rng.randint(-50, 100) for _ in range(sg.graph.edge_count)]
        ham = ham_min_cost(sg, cost)
        assert verify_ham(sg, ham.edges)
        _, best = brute_ham(sg, cost)
        assert ham.cost == best
        for sq in sg.squares:
            corners = {u for e in sq for u in sg.graph.edges[e]}
            if any(set(sg.graph.edges[m]) <= corners for m in sg.matching):
                chorded += 1
                break
    assert chorded > 0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_kotzig_trails():
    t0 = time.perf_counter()
    for seed in range(200):
        rng = random.Random(33000 + seed)
        sys_ = random_bitransition_system(rng.randint(1, 50), rng)
        assert verify_trail(sys_, find_trail(sys_))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_rainbow_one_tree():
    trials = tour_trials()
    t0 = time.perf_counter()
    for seed in range(60):
        rng = random.Random(34000 + seed)
        x = random_square_point(rng.randint(1, 6), rng.randint(1, 3), rng)
        costs = random_costs(x, rng)
        _, best = brute_rainbow(x, costs)
        assert rainbow(square_point(x, costs)).cost == best
    for x, costs, rep, tree, y6 in trials:
        sp = square_point(x, costs)
        for pair in sp.pair_partition:
            assert len(tree.edges & {sp.keys[e] for e in pair}) == 1
        assert all(e in tree.edges for e in x.one_edges())
        assert one_tree_ok(x.n, tree.edges)
        assert 2 * tree.cost <= rep.c_x2
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_t_join_exactness():
    t0 = time.perf_counter()
    for seed in range(300):
        rng = random.Random(35000 + seed)
        n = rng.randint(2, 8)
        edges = []
        nodes = list(range(n))
        rng.shuffle(nodes)
        for a, b in zip(nodes, nodes[1:]):
            edges.append(tuple(sorted((a, b))))
        while len(edges) < 18 and rng.random() < 0.8:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append(tuple(sorted((u, v))))
        g = MultiGraph(n, edges)
        wg = WeightedGraph(g, [rng.randint(0, 9) for _ in edges])
        t_set = rng.sample(range(n), 2 * rng.randint(0, n // 2))
        join = min_t_join(wg, t_set)
        deg = [0] * n
        for e in join:
            u, v = g.edges[e]
            deg[u] += 1
            deg[v] += 1
        assert {v for v in range(n) if deg[v] % 2} == set(t_set)
        best = brute_t_join(wg, set(t_set))
        assert sum(wg.weight[e] for e in join) == sum(wg.weight[e] for e in best)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_08_y_vector_join_bound():
    # join cost in the pipeline is c_J minus the tree cost; y is in sixths
    for x, costs, rep, tree, y6 in tour_trials():
        join_cost = rep.c_j - tree.cost
        assert join_cost >= 0
        assert 6 * join_cost <= sum(costs[e] * y6[e] for e in y6)


def test_criterion_09_everywhere_vectors():
    assert Fraction(3, 7) + Fraction(4, 7) * Fraction(3, 2) * Fraction(1, 2) == Fraction(6, 7)
    cases = [(k4_graph(), {0, 1, 2, 3}), (prism_graph(), {0, 7, 3, 5, 8, 2}),
             (k33_graph(), {0, 3, 4, 7, 8, 2})]
    for g, ham in cases:
        x = everywhere_instance(g, ham)
        assert validate_subtour(x)
        n = g.node_count
        for seed in range(4):
            if seed == 0:
                f = [1] * n
            else:
                f = [random.Random(36000 + seed).randint(0, 9) for _ in range(n)]
            d = [[0 if i == j else f[i] + f[j] for j in range(n)] for i in range(n)]
            opt = held_karp(d)
            total = sum(f)
            # every tour pays each node twice under node-weight costs
            assert opt == 2 * total
            assert 7 * opt <= 18 * total
            costs = {e: f[e[0]] + f[e[1]] for e in x.support}
            assert x.cost_x2(costs) == 4 * total


def ham_family(sg):
    """All sets H & R over Hamiltonian cycles H containing the matching,
    with R the canonical reference edge of every square."""
    fam = set()
    refs = frozenset(min(sq) for sq in sg.squares)
    s = len(sg.squares)
    for bits in range(1 << s):
        hedges = set(sg.matching)
        for i in range(s):
            hedges |= sg.square_matchings(i)[(bits >> i) & 1]
        fr = frozenset(hedges)
        if verify_ham(sg, fr):
            fam.add(fr & refs)
    return fam


def test_criterion_10_delta_matroid_exchange():
    t0 = time.perf_counter()
    inst = make_donut(2)
    graphs = [k4_square_graph(), contract(square_point(inst.point, inst.costs))[0]]
    for seed in range(40):
        rng = random.Random(37000 + seed)
        graphs.append(random_square_graph(rng.randint(1, 4), rng))
    for sg in graphs:
        fam = ham_family(sg)
        assert fam
        assert satisfies_exchange(fam)
    assert time.perf_counter() - t0 < 5.0
