import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enumerate_hams
from squaretour import kotzig
from squaretour.graphcore import MultiGraph, connected_without
from squaretour.instances import parse_bts, random_bitransition_system, serialize_bts
from squaretour.kotzig import (
    BitransitionSystem,
    Trail,
    blow_up,
    check_system,
    find_trail,
    verify_trail,
)


def two_node_banana():
    """Two nodes joined by four parallel edges; forbidden pairing groups
    edge 0 with edge 1 and edge 2 with edge 3 at both nodes."""
    g = MultiGraph(2, [(0, 1)] * 4)
    forbidden = (((0, 2), (4, 6)), ((1, 3), (5, 7)))
    return BitransitionSystem(g, forbidden)


def test_check_system_accepts_banana():
    check_system(two_node_banana())


def test_check_system_rejects_bad_systems():
    g = MultiGraph(2, [(0, 1)] * 4)
    with pytest.raises(ValueError, match="degree"):
        check_system(BitransitionSystem(MultiGraph(3, [(0, 1), (1, 2), (0, 2)]),
                                        (((0, 5), (1, 4)),) * 3))
    with pytest.raises(ValueError, match="one forbidden bitransition per node"):
        check_system(BitransitionSystem(g, (((0, 2), (4, 6)),)))
    with pytest.raises(ValueError, match="does not cover"):
        check_system(BitransitionSystem(g, (((0, 2), (4, 5)), ((1, 3), (5, 7)))))
    two = MultiGraph(4, [(0, 1)] * 4 + [(2, 3)] * 4)
    fb = (((0, 2), (4, 6)), ((1, 3), (5, 7)),
          ((8, 10), (12, 14)), ((9, 11), (13, 15)))
    with pytest.raises(ValueError, match="disconnected"):
        check_system(BitransitionSystem(two, fb))
    with pytest.raises(ValueError, match="empty"):
        check_system(BitransitionSystem(MultiGraph(0, []), ()))


def test_a_bad_system_cannot_be_built():
    g = MultiGraph(2, [(0, 1)] * 4)
    with pytest.raises(ValueError, match="does not cover"):
        BitransitionSystem(g, (((0, 2), (4, 5)), ((1, 3), (5, 7))))


def test_parsed_systems_compare_by_value():
    text = serialize_bts(random_bitransition_system(20, 3))
    assert parse_bts(text) == parse_bts(text)
    assert hash(parse_bts(text)) == hash(parse_bts(text))


def test_banana_hand_built_trails():
    sys = two_node_banana()
    # interleaved order e0,e2,e1,e3 avoids both forbidden pairings
    good = Trail((0, 1, 5, 4, 2, 3, 7, 6))
    assert verify_trail(sys, good)
    # straight order e0,e1,e2,e3 realizes the forbidden pairing at node 1
    bad = Trail((0, 1, 3, 2, 4, 5, 7, 6))
    assert not verify_trail(sys, bad)


def test_verify_trail_rejects_malformed():
    sys = two_node_banana()
    assert not verify_trail(sys, Trail((0, 1, 5, 4, 2, 3)))  # too short
    assert not verify_trail(sys, Trail((0, 1, 0, 1, 2, 3, 7, 6)))  # edge reused
    assert not verify_trail(sys, Trail((0, 1, 4, 5, 2, 3, 7, 6)))  # jump between nodes
    assert not verify_trail(sys, Trail((1, 0, 5, 4, 2, 3, 7, 6)))  # wrong direction
    assert not verify_trail(sys, Trail((0, 0, 5, 4, 2, 3, 7, 6)))  # repeated dart
    assert not verify_trail(sys, Trail((0, 3, 5, 4, 2, 1, 7, 6)))  # darts of two edges
    assert not verify_trail(sys, Trail((0, 1, 5, 4, 2, 3, 7, 8)))  # a dart out of range


def test_find_trail_banana():
    sys = two_node_banana()
    trail = find_trail(sys)
    assert verify_trail(sys, trail)
    assert trail.darts[0] == 0


def test_single_node_two_loops():
    g = MultiGraph(1, [(0, 0), (0, 0)])
    # forbidding the self-pairings costs nothing: no Eulerian trail can pair a
    # loop dart with its twin, so every trail is admissible
    sys = BitransitionSystem(g, (((0, 1), (2, 3)),))
    check_system(sys)
    trail = find_trail(sys)
    assert verify_trail(sys, trail)
    assert verify_trail(sys, Trail((0, 1, 2, 3)))
    # a crossing forbidden pairing does bite
    crossed = BitransitionSystem(g, (((0, 2), (1, 3)),))
    assert verify_trail(crossed, Trail((0, 1, 2, 3)))
    assert not verify_trail(crossed, Trail((1, 0, 2, 3)))
    assert verify_trail(crossed, find_trail(crossed))


def test_find_trail_random_systems():
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        sys = random_bitransition_system(n, seed)
        trail = find_trail(sys)
        assert verify_trail(sys, trail), seed


def test_find_trail_deterministic():
    sys = random_bitransition_system(8, 42)
    assert find_trail(sys).darts == find_trail(sys).darts


def blown_up(sys):
    """The square graph of sys, each forbidden pairing on opposite corners."""
    position = {}
    for (a, b), (c, d) in sys.forbidden:
        position.update({a: 0, b: 2, c: 1, d: 3})
    return blow_up(sys.graph, position)


def blow_up_trail(sys):
    """The trail of the minimum-cost HAM greedy on the blown-up square graph
    at unit costs: squares in index order, each keeping its (0, 2) matching
    while the whole graph stays connected, and the Hamiltonian cycle walked
    from dart 0's corner along edge 0."""
    g = sys.graph
    sg, corner = blown_up(sys)
    removed = set()
    for si in range(len(sg.squares)):
        m1, m2 = sg.square_matchings(si)
        if connected_without(sg.graph, frozenset(removed | m2)):
            removed |= m2
        else:
            assert connected_without(sg.graph, frozenset(removed | m1))
            removed |= m1
    corner_dart = {c: d for d, c in corner.items()}
    first = 4 * g.node_count  # the matching edge of original edge 0
    ham = frozenset(range(sg.graph.edge_count)) - removed
    edges, nodes, e, v = [], [], first, corner[0]
    while not nodes or v != corner[0]:  # leave every node along its other H edge
        edges.append(e)
        nodes.append(v)
        a, b = sg.graph.edges[e]
        v = b if a == v else a
        e = next(d >> 1 for d in sg.graph.darts_at(v) if d >> 1 in ham and d >> 1 != e)
    darts = []
    for i, e in enumerate(edges):
        if e >= first:
            darts += (corner_dart[nodes[i]], corner_dart[nodes[(i + 1) % len(nodes)]])
    return tuple(darts)


@settings(max_examples=200)
@given(st.integers(1, 25), st.integers(0, 10**6))
def test_find_trail_matches_blow_up_search(n, seed):
    sys = random_bitransition_system(n, seed)
    assert find_trail(sys).darts == blow_up_trail(sys)


def forbidden_pairs(sys):
    """Each dart's pair under the forbidden pairings: on the banana, a walk
    that closes after two of its four edges."""
    pair = [()] * (2 * sys.graph.edge_count)
    for pairing in sys.forbidden:
        for p in pairing:
            pair[p[0]] = pair[p[1]] = p
    return pair


# the second pairing is no pairing at all: the walk never comes back to dart 0
@pytest.mark.parametrize("pair", [forbidden_pairs(two_node_banana()), [(1, 3)] * 8])
def test_find_trail_checks_its_walk(pair, monkeypatch):
    monkeypatch.setattr(kotzig, "_split_greedy", lambda *args: pair)
    with pytest.raises(RuntimeError, match="trail walk does not close after every edge"):
        find_trail(two_node_banana())


def test_blow_up_shape():
    sys = two_node_banana()
    g = sys.graph
    position = {0: 0, 2: 2, 4: 1, 6: 3, 1: 0, 3: 2, 5: 1, 7: 3}
    sg, corner = blow_up(g, position)
    assert sg.graph.node_count == 8
    assert sg.graph.edge_count == 12
    assert sg.matching == frozenset(range(8, 12))
    assert len(sg.squares) == 2
    assert corner[0] == 0 and corner[1] == 4
    with pytest.raises(ValueError, match="not a bijection"):
        blow_up(g, {**position, 2: 0})
    with pytest.raises(ValueError, match="^node 0 has degree 3, want 4$"):
        blow_up(MultiGraph(2, [(0, 1)] * 3), position)


def trail_count_by_transitions(sys):
    """Number of admissible transition systems that glue the edges into a
    single closed trail, counted by brute force over all allowed pairings."""
    g = sys.graph
    m = g.edge_count
    allowed = []
    for v in range(g.node_count):
        darts = g.darts_at(v)
        a = darts[0]
        pairings = []
        for mate in darts[1:]:
            rest = [d for d in darts[1:] if d != mate]
            pairings.append(frozenset((frozenset((a, mate)),
                                       frozenset(tuple(rest)))))
        fb = frozenset(frozenset(p) for p in sys.forbidden[v])
        pairings = [p for p in set(pairings) if p != fb]
        assert len(pairings) == 2
        allowed.append(pairings)
    count = 0
    for combo in product(*allowed):
        partner = {}
        for pairing in combo:
            for pair in pairing:
                a, b = tuple(pair)
                partner[a] = b
                partner[b] = a
        # successor: arrive on dart d, leave on its partner, arrive on the
        # partner dart's opposite end; orbits pair up with their reversals,
        # so a single Eulerian trail means the orbit of dart 0 has size m
        seen = set()
        d = 0
        while d not in seen:
            seen.add(d)
            d = partner[d] ^ 1
        count += 1 if len(seen) == m else 0
    return count


def test_blow_up_bijection_with_admissible_trails():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        sys = random_bitransition_system(n, 7000 + seed)
        a = trail_count_by_transitions(sys)
        b = len(enumerate_hams(blown_up(sys)[0]))
        assert a == b, (seed, n, a, b)
        assert a >= 1, seed  # an admissible trail always exists
