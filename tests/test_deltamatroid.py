import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enumerate_hams, k4_graph, k4_square_graph, satisfies_exchange
from squaretour.deltamatroid import (
    SquareGraph,
    _split_greedy,
    check_square_graph,
    ham_min_cost,
    verify_ham,
)
from squaretour.graphcore import MultiGraph, connected_without, hamiltonian_order, is_connected
from squaretour.halfpoint import contract, square_point
from squaretour.instances import (
    make_donut,
    random_costs,
    random_four_regular,
    random_square_graph,
    random_square_point,
)
from squaretour.oracles import brute_ham, check_ham


def random_matched_squares(rng, s):
    """s squares on nodes 4i..4i+3 plus a uniformly random perfect matching
    of all 4s nodes, which may double a square edge or add a diagonal."""
    edges = [(4 * i + j, 4 * i + (j + 1) % 4) for i in range(s) for j in range(4)]
    nodes = list(range(4 * s))
    rng.shuffle(nodes)
    edges += [(min(a, b), max(a, b)) for a, b in zip(nodes[0::2], nodes[1::2])]
    squares = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(s))
    return SquareGraph(MultiGraph(4 * s, edges), frozenset(range(4 * s, 6 * s)), squares)


def test_check_square_graph_accepts_k4():
    check_square_graph(k4_square_graph())


def test_check_square_graph_rejects_bad_inputs():
    g = k4_graph()
    with pytest.raises(ValueError, match="not a square graph"):
        check_square_graph(SquareGraph(g, frozenset({4}), ((0, 1, 2, 3),)))
    with pytest.raises(ValueError, match="not a square graph"):
        check_square_graph(SquareGraph(g, frozenset({0, 2}), ((0, 1, 2, 3),)))
    # a square edge dropped: degrees break
    g2 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    with pytest.raises(ValueError, match="not a square graph"):
        check_square_graph(SquareGraph(g2, frozenset({3, 4}), ((0, 1, 2, 3),)))
    # a square listed twice covers the same edges, but partitions nothing
    with pytest.raises(ValueError, match="squares do not partition"):
        check_square_graph(SquareGraph(g, frozenset({4, 5}), ((0, 1, 2, 3), (0, 1, 2, 3))))
    looped = MultiGraph(2, [(0, 0), (0, 1), (1, 1)])  # cubic, a loop at each end
    for sg, msg in [
        (SquareGraph(g, frozenset({4, 9}), ((0, 1, 2, 3),)), "matching edge id 9 out of range"),
        (SquareGraph(looped, frozenset({0}), ()), "matching edge 0 is a loop"),
        (SquareGraph(g, frozenset({4, 5}), ((0, 1, 0, 3),)), "square 0 repeats an edge id"),
        (SquareGraph(g, frozenset({4, 5}), ((0, 2, 1, 3),)), "square 0 edges 0,2 do not chain"),
    ]:
        with pytest.raises(ValueError, match=f"^not a square graph: {msg}$"):
            check_square_graph(sg)


def test_connected_square_graphs_have_no_bridge():
    # check_square_graph tests connectivity alone for 2-edge-connectivity
    connected = 0
    for seed in range(300):
        rng = random.Random(seed)
        sg = random_matched_squares(rng, rng.randint(1, 6))
        g = sg.graph
        if not is_connected(g):
            with pytest.raises(ValueError, match="not a square graph"):
                check_square_graph(sg)
            continue
        connected += 1
        check_square_graph(sg)
        assert all(connected_without(g, frozenset({e})) for e in range(g.edge_count)), seed
    assert 50 <= connected < 300
    # two K4 squares side by side: cubic, matched, but disconnected
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges = square + [(u + 4, v + 4) for u, v in square] + [(0, 2), (1, 3), (4, 6), (5, 7)]
    sg = SquareGraph(MultiGraph(8, edges), frozenset(range(8, 12)), ((0, 1, 2, 3), (4, 5, 6, 7)))
    with pytest.raises(ValueError, match="not a square graph"):
        check_square_graph(sg)


def test_square_matchings_pair_opposite_edges():
    sg = k4_square_graph()
    assert sg.square_matchings(0) == (frozenset({0, 2}), frozenset({1, 3}))


def test_square_family_satisfies_exchange_axiom():
    for seed in range(40):
        rng = random.Random(seed)
        sg = random_square_graph(rng.randint(1, 4), 500 + seed)
        refs = {min(sq) for sq in sg.squares}
        family = {frozenset(h & refs) for h in enumerate_hams(sg)}
        assert family, seed  # never empty
        assert satisfies_exchange(family), seed


def test_ham_k4_unit_costs():
    ham = ham_min_cost(k4_square_graph(), [1, 1, 1, 1, 1, 1])
    assert ham.cost == 4
    assert {4, 5} <= set(ham.edges)
    assert verify_ham(k4_square_graph(), ham.edges)
    assert len(ham.order) == 4
    with pytest.raises(ValueError, match="^cost vector length must equal edge count$"):
        ham_min_cost(k4_square_graph(), [1] * 5)


def test_ham_donut_contracted():
    inst = make_donut(2)
    sg, cost = contract(square_point(inst.point, inst.costs))
    ham = ham_min_cost(sg, list(cost))
    # both all-cheap and all-dear matching choices disconnect here, so the
    # optimum mixes: one cost-2 matching, one cost-4 matching, M cost 8
    assert ham.cost == 14
    _, bcost = brute_ham(sg, list(cost))
    assert bcost == 14


def test_ham_equal_matching_costs_reduce_to_connectivity():
    for seed in range(30):
        rng = random.Random(seed)
        sg = random_square_graph(rng.randint(1, 5), 900 + seed)
        cost = [0] * sg.graph.edge_count
        base = 0
        for e in sorted(sg.matching):
            cost[e] = rng.randint(0, 9)
            base += cost[e]
        per_square = []
        for si in range(len(sg.squares)):
            m1, m2 = sg.square_matchings(si)
            c = rng.randint(0, 9)
            for e in m1 | m2:
                cost[e] = c
            per_square.append(2 * c)
        ham = ham_min_cost(sg, cost)
        assert ham.cost == base + sum(per_square)


def test_ham_matches_brute_force():
    for seed in range(200):
        rng = random.Random(seed)
        sg = random_square_graph(rng.randint(1, 6), 2000 + seed)
        cost = [rng.randint(-40, 80) for _ in range(sg.graph.edge_count)]
        ham = ham_min_cost(sg, cost)
        _, bcost = brute_ham(sg, cost)
        assert ham.cost == bcost, seed
        assert verify_ham(sg, ham.edges), seed
        assert sum(cost[e] for e in ham.edges) == ham.cost, seed


def deletion_greedy(sg, cost):
    """ham_min_cost's choices made on the square graph itself: squares in
    order of non-increasing gap, each losing its dearer matching (ties: the
    one without the lowest edge id) while the whole graph stays connected.
    Returns the cycle's edges and its node order from node 0."""
    g = sg.graph

    def key(m):
        return sum(cost[e] for e in m), sorted(m)

    pairs = [sg.square_matchings(si) for si in range(len(sg.squares))]
    gaps = [abs(key(m1)[0] - key(m2)[0]) for m1, m2 in pairs]
    removed = set()
    for si in sorted(range(len(pairs)), key=lambda i: (-gaps[i], i)):
        keep, drop = sorted(pairs[si], key=key)
        if not connected_without(g, frozenset(removed | drop)):
            drop = keep
        removed |= drop
    hedges = frozenset(range(g.edge_count)) - removed
    assert verify_ham(sg, hedges)
    return hedges, tuple(hamiltonian_order(g, hedges))


@settings(max_examples=150)
@given(st.integers(1, 16), st.integers(0, 10**6), st.booleans(), st.data())
def test_ham_min_cost_matches_deletion_greedy(s, seed, contracted, data):
    # costs in 0..2 leave many ties, so the tie-breaks are compared too;
    # blown-up graphs number each square's edges in cyclic order, contracted
    # points do not
    if contracted:
        x = random_square_point(s, 2, seed)
        sg, _ = contract(square_point(x, random_costs(x, seed)))
    else:
        sg = random_square_graph(s, seed)
    m = sg.graph.edge_count
    cost = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    ham = ham_min_cost(sg, cost)
    assert (ham.edges, ham.order) == deletion_greedy(sg, cost)


def pairings(ds):
    w, x, y, z = ds
    return [((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))]


def naive_split_greedy(g, order, choose):
    """The splitting greedy by a fresh connectivity check of the explicit
    split graph per test.  groups[d] is the darts at dart d's node, or its
    pair once split; choose(options, disconnecting) gives a node its first
    and second pairing.  Returns the choices made and the final groups."""
    groups = [g.darts_at(g.dart_node(d)) for d in range(2 * g.edge_count)]

    def connects(pairing):
        trial = groups[:]
        for pair in pairing:
            for d in pair:
                trial[d] = pair
        ids = {}
        node = [ids.setdefault(t, len(ids)) for t in trial]
        return is_connected(MultiGraph(len(ids), list(zip(node[0::2], node[1::2]))))

    choices = []
    for v in order:
        options = pairings(g.darts_at(v))
        bad = [p for p in options if not connects(p)]
        assert len(bad) <= 1  # of a node's three pairings at most one disconnects
        first, second = choose(options, bad)
        choices.append((first, second))
        for pair in second if first in bad else first:
            for d in pair:
                groups[d] = pair
    return choices, groups


@settings(max_examples=150)
@given(st.integers(1, 30), st.integers(0, 10**6), st.booleans(), st.booleans())
def test_split_greedy_matches_fresh_connectivity_checks(n, seed, dense_failures, sparse):
    # loops and parallel edges included; with dense_failures the first
    # pairing is the disconnecting one whenever a node has one, as on donuts
    rng = random.Random(seed)
    g, _ = random_four_regular(n, rng)
    order = rng.sample(range(n), n)

    def choose(options, bad):
        first, second = rng.sample(options, 2)
        if dense_failures and bad:
            first, second = bad[0], rng.choice([p for p in options if p != bad[0]])
        return first, second

    choices, want = naive_split_greedy(g, order, choose)
    # matching darts of a square graph come from a sparse range of edge ids
    lift = (lambda d: 6 * (d >> 1) + 4 + (d & 1)) if sparse else (lambda d: d)

    def lifted(pairing):
        return tuple(tuple(map(lift, pair)) for pair in pairing)

    got = _split_greedy(
        [tuple(map(lift, g.darts_at(v))) for v in range(n)],
        ((lifted(first), lifted(second)) for first, second in choices),
    )
    assert [got[lift(d)] for d in range(2 * g.edge_count)] == [tuple(map(lift, p)) for p in want]


def test_split_greedy_raises_on_a_disconnected_graph():
    g = MultiGraph(4, [(0, 1)] * 4 + [(2, 3)] * 4)  # two bananas
    darts = [g.darts_at(v) for v in range(4)]
    with pytest.raises(RuntimeError, match="^no matching choice keeps the graph connected$"):
        _split_greedy(darts, [pairings(ds)[:2] for ds in darts])


def test_ham_node_order_is_a_cycle():
    for seed in range(20):
        rng = random.Random(seed)
        sg = random_square_graph(rng.randint(1, 4), 4000 + seed)
        cost = [rng.randint(0, 9) for _ in range(sg.graph.edge_count)]
        ham = ham_min_cost(sg, cost)
        order = ham.order
        assert sorted(order) == list(range(sg.graph.node_count))
        edge_pairs = {tuple(sorted(sg.graph.edges[e])) for e in ham.edges}
        for i, u in enumerate(order):
            v = order[(i + 1) % len(order)]
            assert tuple(sorted((u, v))) in edge_pairs


def test_verify_ham_rejects_corrupted():
    sg = k4_square_graph()
    ham = ham_min_cost(sg, [1] * 6)
    assert verify_ham(sg, ham.edges)
    assert not verify_ham(sg, ham.edges - {4})  # missing an M-edge
    assert not verify_ham(sg, frozenset(range(6)))  # both matchings at once
    assert not verify_ham(sg, ham.edges ^ {0, 1})  # wrong matching shape
    assert not verify_ham(sg, ham.edges - {0} | {-6})  # edge 0 named out of range
    with pytest.raises(ValueError, match="^not a square graph: squares do not partition"):
        verify_ham(SquareGraph(sg.graph, sg.matching, ()), ham.edges)


def test_check_ham_rejects_a_dearer_choice_and_corrupted_sets():
    sg = k4_square_graph()
    cost = [2, 1, 2, 1, 5, 5]  # the matching {1, 3} is cheaper than {0, 2}
    cheap, dear = frozenset({1, 3, 4, 5}), frozenset({0, 2, 4, 5})
    assert verify_ham(sg, cheap) and verify_ham(sg, dear)
    assert check_ham(sg, cost, cheap)
    assert not check_ham(sg, cost, dear)
    for bad in (cheap - {4}, frozenset(range(6)), cheap ^ {0, 1}, cheap - {1} | {-5}):
        assert not check_ham(sg, cost, bad)


@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(0, 10**6), st.data())
def test_check_ham_accepts_exactly_the_cheapest(s, seed, data):
    # with single-square exchanges alone, some dearer cycles would pass
    sg = random_square_graph(s, seed)
    m = sg.graph.edge_count
    cost = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    _, best = brute_ham(sg, cost)
    for hedges in enumerate_hams(sg):
        assert check_ham(sg, cost, hedges) == (sum(cost[e] for e in hedges) == best)
