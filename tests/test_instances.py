import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import k4_graph, k33_graph, prism_graph
from squaretour import instances
from squaretour.graphcore import MultiGraph, is_connected
from squaretour.halfpoint import (
    HalfIntegerPoint,
    PointClass,
    edge_key,
    validate_and_classify,
    validate_subtour,
)
from squaretour.instances import (
    everywhere_instance,
    make_donut,
    parse_bts,
    parse_point,
    random_bitransition_system,
    random_costs,
    random_four_regular,
    random_square_graph,
    random_square_point,
    serialize_bts,
    serialize_point,
)
from squaretour.kotzig import check_system


def test_donut_size_and_cost_identities():
    for k in range(2, 13):
        inst = make_donut(k)
        assert inst.point.n == 2 * k * k + 2 * k
        assert inst.point.cost_x2(inst.costs) == 2 * (3 * k * k + k)
        assert validate_subtour(inst.point)
        assert validate_and_classify(inst.point)[1] is PointClass.SQUARE


def test_donut_k4_headline_numbers():
    inst = make_donut(4)
    assert inst.point.n == 40
    assert inst.point.cost_x2(inst.costs) == 104  # c.x = 52


def test_donut_layout():
    k = 3
    inst = make_donut(k)
    assert len(inst.squares) == k
    for i, (ip, inn, on, op) in enumerate(inst.squares):
        assert (ip, inn, on, op) == (4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3)
        assert inst.costs[edge_key(ip, inn)] == k
        assert inst.costs[edge_key(on, op)] == k
        assert inst.costs[edge_key(inn, on)] == 1
        assert inst.costs[edge_key(ip, op)] == 1
        for e in ((ip, inn), (inn, on), (on, op), (ip, op)):
            assert inst.point.support[edge_key(*e)] == 1
    assert len(inst.inner_paths) == k
    assert len(inst.outer_paths) == k
    for i in range(k):
        nxt = (i + 1) % k
        inner = inst.inner_paths[i]
        outer = inst.outer_paths[i]
        assert inner[0] == 4 * i + 1 and inner[-1] == 4 * nxt
        assert outer[0] == 4 * i + 2 and outer[-1] == 4 * nxt + 3
        assert len(inner) == len(outer) == k + 1
        for path in (inner, outer):
            for u, v in zip(path, path[1:]):
                assert inst.point.support[edge_key(u, v)] == 2
                assert inst.costs[edge_key(u, v)] == 1


def test_donut_rejects_small_k():
    with pytest.raises(ValueError, match="k must be at least 2"):
        make_donut(1)


def test_generators_give_up_after_their_attempts(monkeypatch):
    monkeypatch.setattr(instances, "GENERATION_ATTEMPTS", 0)
    with pytest.raises(ValueError, match="^generation failed$"):
        random_four_regular(3, 0)
    with pytest.raises(ValueError, match="^generation failed$"):
        random_square_point(2, 1, 0)


def test_random_four_regular_shape():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 20)
        g, position = random_four_regular(n, seed)
        assert g.node_count == n
        assert g.edge_count == 2 * n
        assert all(g.degree(v) == 4 for v in range(n))
        assert is_connected(g)
        for v in range(n):
            assert sorted(position[d] for d in g.darts_at(v)) == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="at least one node"):
        random_four_regular(0, 1)


def test_random_generators_deterministic():
    a, pa = random_four_regular(9, 123)
    b, pb = random_four_regular(9, 123)
    assert a.edges == b.edges and pa == pb
    s1 = random_bitransition_system(7, 5)
    s2 = random_bitransition_system(7, 5)
    assert s1.graph.edges == s2.graph.edges
    assert s1.forbidden == s2.forbidden
    x1 = random_square_point(3, 2, 11)
    x2 = random_square_point(3, 2, 11)
    assert x1.n == x2.n and x1.support == x2.support
    assert random_costs(x1, 4) == random_costs(x2, 4)


def test_random_square_graph_is_checked_shape():
    for seed in range(30):
        rng = random.Random(seed)
        sg = random_square_graph(rng.randint(1, 6), seed)
        g = sg.graph
        assert all(g.degree(v) == 3 for v in range(g.node_count))
        assert len(sg.matching) == g.node_count // 2
        assert len(sg.squares) * 4 + len(sg.matching) == g.edge_count


def test_random_square_point_contract():
    for seed in range(40):
        rng = random.Random(seed)
        s = rng.randint(1, 5)
        max_len = rng.randint(1, 4)
        x = random_square_point(s, max_len, seed)
        assert validate_subtour(x)
        assert validate_and_classify(x)[1] in (PointClass.SQUARE, PointClass.BOYD_CARR)
        halves = sum(1 for v in x.support.values() if v == 1)
        assert halves == 4 * s
        assert x.n >= 4 * s
        assert x.n <= 4 * s + 2 * s * (max_len - 1)
    with pytest.raises(ValueError, match="at least one square"):
        random_square_point(0, 1, 3)
    with pytest.raises(ValueError, match="length at least 1"):
        random_square_point(2, 0, 3)


def test_random_costs_range_and_order():
    x = make_donut(2).point
    costs = random_costs(x, 9, low=5, high=7)
    assert set(costs) == set(x.support)
    assert all(5 <= c <= 7 for c in costs.values())


def test_everywhere_instance_k4():
    x = everywhere_instance(k4_graph(), {0, 1, 2, 3})
    assert validate_subtour(x)
    assert validate_and_classify(x)[1] is PointClass.BOYD_CARR
    assert x.support[(0, 2)] == 2 and x.support[(0, 1)] == 1


def test_everywhere_instance_prism_and_k33():
    x = everywhere_instance(prism_graph(), {0, 7, 3, 5, 8, 2})
    assert validate_subtour(x)
    assert validate_and_classify(x)[1] is PointClass.CARR_VEMPALA
    # K3,3 cycle 0-3-1-4-2-5: edge ids below follow the generator order
    y = everywhere_instance(k33_graph(), {0, 3, 4, 7, 8, 2})
    assert validate_subtour(y)
    assert validate_and_classify(y)[1] is PointClass.CARR_VEMPALA


def test_everywhere_instance_rejects_bad_graphs():
    with pytest.raises(ValueError, match="degree"):
        everywhere_instance(MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
                            {0, 1, 2, 3})
    with pytest.raises(ValueError, match="loop"):
        everywhere_instance(MultiGraph(2, [(0, 0), (0, 1), (1, 1)]), {1})
    with pytest.raises(ValueError, match="parallel"):
        everywhere_instance(MultiGraph(2, [(0, 1), (0, 1), (0, 1)]), {0, 1})
    # two diamonds joined by a 2-edge cut: cubic and simple but not 3ec
    diamonds = MultiGraph(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                              (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
                              (0, 4), (3, 7)])
    ham = {0, 3, 2, 11, 9, 7, 5, 10}
    with pytest.raises(ValueError, match="3-edge-connected"):
        everywhere_instance(diamonds, ham)


def test_everywhere_instance_rejects_disconnected_and_bridged_graphs():
    # no node, so vacuously cubic, but no cut to check
    with pytest.raises(ValueError, match="^min cut needs at least 2 nodes$"):
        everywhere_instance(MultiGraph(0, []), [])
    two_k4 = MultiGraph(8, [*k4_graph().edges, *((u + 4, v + 4) for u, v in k4_graph().edges)])
    with pytest.raises(ValueError, match="^disconnected graph$"):
        everywhere_instance(two_k4, range(8))
    # K4 with edge 0-1 subdivided by node 4, twice, the two 4s joined by a bridge
    side = [(0, 4), (1, 4), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    bridged = MultiGraph(10, [*side, *((u + 5, v + 5) for u, v in side), (4, 9)])
    with pytest.raises(ValueError, match="^graph is not 3-edge-connected$"):
        everywhere_instance(bridged, range(10))


def test_everywhere_instance_rejects_bad_cycles():
    with pytest.raises(ValueError, match="one edge per node"):
        everywhere_instance(k4_graph(), {0, 1, 2})
    with pytest.raises(ValueError, match="unknown edge id"):
        everywhere_instance(k4_graph(), {0, 1, 2, 9})
    # a node met by three cycle edges, and two triangles
    for g, ham in ((k4_graph(), {0, 1, 4, 5}), (prism_graph(), {0, 1, 2, 3, 4, 5})):
        with pytest.raises(ValueError, match="^cycle edges are not one cycle through every node$"):
            everywhere_instance(g, ham)


def test_point_round_trip():
    for build in (lambda: make_donut(2), lambda: make_donut(3)):
        inst = build()
        text = serialize_point(inst.point, inst.costs)
        x, costs = parse_point(text)
        assert x.n == inst.point.n
        assert x.support == inst.point.support
        assert costs == inst.costs
        assert serialize_point(x, costs) == text
    for seed in range(10):
        x = random_square_point(2, 3, seed)
        costs = random_costs(x, seed)
        y, c2 = parse_point(serialize_point(x, costs))
        assert y.support == x.support and c2 == costs
    u, v = min(costs)
    del costs[(u, v)]
    with pytest.raises(ValueError, match=f"^missing cost for edge {u}-{v}$"):
        serialize_point(x, costs)


@st.composite
def points_with_costs(draw):
    """Any support the POINT format can hold, feasible or not, with costs up
    to 2^70."""
    n = draw(st.integers(2, 15))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    keys = draw(st.sets(pair.map(lambda p: edge_key(*p)), min_size=1, max_size=30))
    support = {e: draw(st.sampled_from((1, 2))) for e in keys}
    costs = {e: draw(st.integers(0, 2**70)) for e in keys}
    return HalfIntegerPoint(n, support), costs


@settings(max_examples=100)
@given(points_with_costs())
def test_point_round_trip_on_drawn_points(point):
    x, costs = point
    assert parse_point(serialize_point(x, costs)) == (x, costs)


def test_point_parse_comments_and_blanks():
    text = """# a point
POINT 4   # four nodes

E 0 1 1 5
E 1 2 1 5  # half edge
E 2 3 1 5
E 0 3 1 5
E 0 2 2 1
E 1 3 2 1
END
"""
    x, costs = parse_point(text)
    assert x.n == 4
    assert x.support[(0, 2)] == 2
    assert costs[(0, 1)] == 5


def test_point_parse_errors():
    cases = [
        ("", "line 1: expected 'POINT <n>' header"),
        ("HELLO\n", "line 1: expected 'POINT <n>' header"),
        ("POINT\n", "expected 'POINT <n>' header"),
        ("POINT x\nEND\n", "node count must be an integer"),
        ("POINT 0\nEND\n", "node count must be positive"),
        ("POINT 2\nE 0 1 1\nEND\n", "expected 'E <u> <v> <x2> <cost>'"),
        ("POINT 2\nE 0 2 1 1\nEND\n", "line 2: node id out of range 0..1"),
        ("POINT 2\nE 0 0 1 1\nEND\n", "line 2: loop edge at node 0"),
        ("POINT 2\nE 0 1 3 1\nEND\n", "doubled value must be 1 or 2"),
        ("POINT 2\nE 0 1 1 -4\nEND\n", "cost must be nonnegative"),
        ("POINT 2\nE 0 1 1 1\nE 1 0 1 1\nEND\n", "line 3: duplicate edge 1-0"),
        ("POINT 2\nE 0 1 1 1\n", "missing END line"),
        ("POINT 2\nEND\n", "no edges given"),
        ("POINT 2\nE 0 1 1 1\nEND\nE 0 1 1 1\n", "line 4: content after END"),
        # a bad record before END is reported before the content after END
        ("POINT 2\nE 0 1 3 1\nEND\nE 0 1 1 1\n", "line 2: doubled value must be 1 or 2"),
    ]
    for text, msg in cases:
        with pytest.raises(ValueError) as err:
            parse_point(text)
        assert msg in str(err.value), (text, str(err.value))


def test_bts_round_trip():
    for seed in range(12):
        rng = random.Random(seed)
        sys = random_bitransition_system(rng.randint(1, 8), seed)
        text = serialize_bts(sys)
        back = parse_bts(text)
        assert back.graph.edges == sys.graph.edges
        assert back.forbidden == sys.forbidden
        check_system(back)
        assert serialize_bts(back) == text


@settings(max_examples=100)
@given(st.integers(1, 12), st.integers(0, 10**6))
def test_bts_round_trip_on_drawn_systems(n, seed):
    text = serialize_bts(random_bitransition_system(n, seed))
    assert serialize_bts(parse_bts(text)) == text


def test_bts_parse_errors():
    head = "BTS 2\nE 0 0 1\nE 1 0 1\nE 2 0 1\nE 3 0 1\n"
    f0 = "F 0 0.0 1.0 2.0 3.0\n"
    f1 = "F 1 0.1 1.1 2.1 3.1\n"
    cases = [
        ("", "line 1: expected 'BTS <n>' header"),
        ("BTS 0\nEND\n", "node count must be positive"),
        (head + f0 + f1 + "END\nE 4 0 1\n", "content after END"),
        (head + f0 + f1, "missing END line"),
        (head + "E 0 0 1\n" + f0 + f1 + "END\n", "duplicate edge id 0"),
        ("BTS 2\nE 5 0 1\n" + f0 + "END\n", "edge ids must be exactly 0..m-1"),
        (head + "F 0 0 1.0 2.0 3.0\n" + f1 + "END\n", "dart must look like"),
        (head + "F 0 0.2 1.0 2.0 3.0\n" + f1 + "END\n", "edge end must be 0 or 1"),
        (head + "F 0 9.0 1.0 2.0 3.0\n" + f1 + "END\n", "edge id 9 out of range"),
        (head + f0 + f0 + f1 + "END\n", "duplicate forbidden pairing for node 0"),
        (head + f0 + "END\n", "missing forbidden pairing for node 1"),
        (head + f0 + f1 + "X 1\nEND\n", "unknown record 'X'"),
        (head + f0 + f1 + "X 1\nEND\nE 4 0 1\n", "line 8: unknown record 'X'"),
        (head + "F 0 0.0 1.0 2.0 3.1\n" + f1 + "END\n", "does not cover"),
        (head + "E 4 0 2\n" + f0 + f1 + "END\n", "line 6: node id out of range 0..1"),
        (head + f0 + f1 + "F 2 0.0 1.0 2.0 3.0\nEND\n", "line 8: node id out of range 0..1"),
    ]
    for text, msg in cases:
        with pytest.raises(ValueError) as err:
            parse_bts(text)
        assert msg in str(err.value), (text, str(err.value))


def test_bts_parse_checks_degrees():
    text = "BTS 2\nE 0 0 1\nE 1 0 1\nE 2 0 1\nF 0 0.0 1.0 2.0 2.0\nF 1 0.1 1.1 2.1 2.1\nEND\n"
    with pytest.raises(ValueError, match="degree"):
        parse_bts(text)
