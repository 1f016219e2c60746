"""Every pinned amount of work, one row per operation and input.

A row builds its input outside the count (drawing a point validates it),
then runs its operation once under every counter in COUNTERS, each a
helpers.spy that records a few values per call.  Per counter a row pins the
records in call order or, as an int, the number of calls; a counter it
leaves out must record none.  It may also pin the output and check it.  A
change that does less work lowers a row, which then fails at its parent.
A test elsewhere that asserts a stage's work reads a row's records with
measured(name), which runs each row once per session.  Run every row with

    python3 -m pytest tests/test_budgets.py -m 'extended or not extended'
"""

import functools
import random

import pytest

from helpers import CUT_BAD, donut_text, integral_cycle, run_cli, single_square_point_adjacent_paths, spy
from squaretour import cli, deltamatroid, graphcore, halfpoint, instances, kotzig, oracles, tjoin, tour
from squaretour.graphcore import DisjointSet, MultiGraph, WeightedGraph
from squaretour.halfpoint import HalfIntegerPoint, validate_subtour
from squaretour.instances import make_donut, parse_bts, random_bitransition_system, random_costs
from squaretour.instances import random_square_point, serialize_bts
from squaretour.kotzig import find_trail
from squaretour.tour import run_tour


class Costs(dict):
    """A cost dict whose reads the cost counters see."""


# name: (owners, function, what one call records); the owners are every
# module that binds the function, so a call through any of them counts
COUNTERS = {
    "price": ([tour], "shortest_paths_from", lambda wg, *args: wg.graph.node_count),
    "t-join": ([tjoin], "shortest_paths_from", lambda wg, s, targets: (wg.graph.node_count, len(targets))),
    "support": ([halfpoint, cli], "support_graph", lambda x: x.n),
    "reduction": ([halfpoint, tjoin], "series_reduced", lambda wg, *args: wg.graph.node_count),
    "union-find": ([DisjointSet], "__init__", lambda ds, n: n),
    "sweep copy": ([DisjointSet], "copy", lambda ds: len(ds.parent)),
    "weight check": ([WeightedGraph], "__post_init__", lambda wg: wg.graph.node_count),
    "cycles": ([graphcore, halfpoint], "cycles", lambda g, ids: (g.node_count, g.edge_count, len(ids))),
    "matching": ([tjoin, oracles], "min_weight_perfect_matching", lambda d: len(d)),
    "cut labels": ([halfpoint, instances], "cut_labels", lambda g: g.node_count),
    "min cut": ([halfpoint], "global_min_cut", lambda wg: wg.graph.node_count),
    "connected": ([graphcore, cli, deltamatroid, instances, kotzig, tjoin], "is_connected",
                  lambda g: g.node_count),
    "connected without": ([graphcore, oracles], "connected_without", lambda g, removed: g.node_count),
    "square check": ([deltamatroid, oracles], "check_square_graph", lambda sg: sg.graph.node_count),
    "system check": ([kotzig], "check_system", lambda system: system.graph.node_count),
    "cost get": ([Costs], "get", lambda costs, key: key),
    "cost item": ([Costs], "__getitem__", lambda costs, key: key),
}


def square(s, length, seed):
    x = random_square_point(s, length, seed)
    return x, random_costs(x, seed)


def cycle_costs(n):
    """An integral n-cycle with no edge heavier than half the cycle, so
    every step of its tour is priced by offsets, node 0's too."""
    x = integral_cycle(n)
    costs = {e: 1 + i % 3 for i, e in enumerate(sorted(x.support))}
    assert 2 * max(costs.values()) <= sum(costs.values())
    return x, costs


def raised(fn, *args):
    """The type and message of the error fn raises on args."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value).__name__, str(info.value)


def sweeps_follow_second_pairings(systems, trails, seen):
    """One sweep, so one copy of a union-find over the system's edges, per
    node that takes its second pairing, plus one unless the last node takes
    it; a node's pairings are the trail's arriving and leaving darts."""
    for system, trail in zip(systems, trails):
        ds = trail.darts
        pairs = {frozenset((ds[i - 1], ds[i])) for i in range(0, len(ds), 2)}
        second = [frozenset((a, c)) not in pairs for (a, b), (c, d) in system.forbidden]
        assert seen["sweep copy"].count(system.graph.edge_count) == sum(second) + (not second[-1])
    return True


def tour_work(n, edges, kept, prices, p, union_finds, copies):
    """run_tour on a square point: one support, validation and reduction; a
    walk of the 4 1/2-edges per square (one per kept corner) and one of H;
    price searches on the reduction; p - 1 T-join searches there, with
    p - 1, ..., 1 targets, a matching on p nodes and one search per pair."""
    return {"support": [n], "cut labels": [n], "reduction": [n], "matching": [p], "price": [kept] * prices,
            "cycles": [(n, edges, kept), (n, edges, n)], "union-find": union_finds, "sweep copy": copies,
            "t-join": [(kept, t) for t in range(p - 1, 0, -1)] + [(n, 1)] * (p // 2)}


def budget(name, build, op, counts, *marks, out=None, check=None):
    return pytest.param(build, op, counts, out, check, id=name, marks=marks)


def tour_budget(name, build, counts, *marks, **kw):
    return budget(name, build, lambda inp: run_tour(*inp), counts, *marks, **kw)


CUT_2 = "cut S={2,3,5} x2=2"  # the witness of single_square_point_adjacent_paths and CUT_BAD
CUT_2_WORK = {"support": [6], "cut labels": [6], "min cut": [6], "union-find": [6], "connected": [6],
              "connected without": [6]}
TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
SWEEPS = [3, 2, 3, 3, 5, 2, 5, 3, 3, 3, 3]  # per kotzig benchmark system, n = 50, 75, ..., 300
ROWS = [
    tour_budget("tour-donut-12", lambda: (make_donut(12).point, make_donut(12).costs), tour_work(
        n=312, edges=336, kept=48, prices=24, p=24, union_finds=[68] + [0] * 11 + [25, 312],
        copies=[68] * 11)),
    tour_budget("tour-donut-3", lambda: (make_donut(3).point, Costs(make_donut(3).costs)), {**tour_work(
        n=24, edges=30, kept=12, prices=6, p=6, union_finds=[14, 0, 0, 7, 24], copies=[14] * 2),
        "cost get": sorted(make_donut(3).costs)},
        check=lambda inp, out, seen: out == run_tour(inp[0], dict(inp[1]))),
    tour_budget("tour-square-3-2-11", lambda: square(3, 2, 11), tour_work(
        n=15, edges=21, kept=12, prices=15, p=6, union_finds=[13, 0, 7, 15], copies=[13])),
    tour_budget("tour-square-5-2-3", lambda: square(5, 2, 3), tour_work(
        n=26, edges=36, kept=20, prices=26, p=10, union_finds=[24, 0, 0, 11, 26], copies=[24] * 2)),
    tour_budget("tour-square-8-1-0", lambda: square(8, 1, 0), tour_work(
        n=32, edges=48, kept=32, prices=32, p=16, union_finds=[42, 0, 17, 32], copies=[42])),
    tour_budget("tour-square-16-1-16", lambda: square(16, 1, 16), tour_work(
        n=64, edges=96, kept=64, prices=64, p=32, union_finds=[84, 0, 0, 33, 64], copies=[84] * 2)),
    tour_budget("tour-square-128-1-0", lambda: square(128, 1, 0), tour_work(
        n=512, edges=768, kept=512, prices=512, p=256, union_finds=[749, 0, 0, 0, 257, 512],
        copies=[749] * 3)),
    tour_budget("tour-square-256-1-0", lambda: square(256, 1, 0), tour_work(
        n=1024, edges=1536, kept=1024, prices=1024, p=512, union_finds=[1494, 0, 0, 0, 0, 513, 1024],
        copies=[1494] * 4), pytest.mark.extended),
    budget("tour-integral-7", lambda: cycle_costs(7), lambda inp: run_tour(*inp).final_cost, {
        "support": [7], "cut labels": [7], "reduction": [7], "cycles": [(7, 7, 0), (7, 7, 7)],
        "matching": [0], "union-find": [2, 7]}, out=13),
    budget("tour-integral-20", lambda: cycle_costs(20), lambda inp: run_tour(*inp).final_cost, {
        "support": [20], "cut labels": [20], "reduction": [20], "cycles": [(20, 20, 0), (20, 20, 20)],
        "matching": [0], "union-find": [2, 20]}, out=39),
    budget("tour-cut-2", lambda: ((x := single_square_point_adjacent_paths()), dict.fromkeys(x.support, 1)),
        lambda inp: raised(run_tour, *inp), CUT_2_WORK, out=("ValueError", f"not a feasible point: {CUT_2}")),
    budget("validate-feasible", lambda: [
        make_donut(12).point, make_donut(3).point, random_square_point(3, 1, 5), random_square_point(3, 2, 11),
        integral_cycle(5)], lambda points: [bool(validate_subtour(x)) for x in points],
        {"support": [312, 24, 12, 15, 5], "cut labels": [312, 24, 12, 15, 5]}, out=[True] * 5),
    budget("validate-cut-2", single_square_point_adjacent_paths, lambda x: bool(validate_subtour(x)),
        {"support": [6], "cut labels": [6]}, out=False),
    budget("witness-cut-2", single_square_point_adjacent_paths,  # one report's witness, read twice
        lambda x: [report.witness() for report in 2 * [validate_subtour(x)]], CUT_2_WORK, out=[CUT_2, CUT_2]),
    budget("witness-two-triangles", lambda: HalfIntegerPoint(6, dict.fromkeys(TRIANGLES, 2)),
        lambda x: validate_subtour(x).witness(), {"support": [6], "cut labels": [6]},
        out="support disconnected"),
    # the benchmark pool's 500 draws at seed 0, 384 of them rejected on a
    # violated cut: a rejection reads the report's truth value, no witness
    budget("draw-square-points",
        lambda: [(1 + i % 5, 1 + i // 5 % 3, random.Random(31000 + i)) for i in range(500)],
        lambda draws: [random_square_point(*args) for args in draws], {
            "support": 884, "cut labels": 884, "cycles": 500, "union-find": 1740, "connected": 1740,
            "connected without": 1740}),
    budget("cli-validate-cut-2", lambda: CUT_BAD, lambda text: run_cli(["validate"], text), CUT_2_WORK,
        out=(2, f"INVALID {CUT_2}\n", "")),
    budget("cli-opt-cut-2", lambda: CUT_BAD, lambda text: run_cli(["oracle", "opt"], text), {
        "support": [6], "union-find": [6, 6], "connected": [6, 6], "connected without": [6, 6]},
        out=(0, "OPT=10\n", "")),
    budget("cli-opt-donut-2", lambda: donut_text(2), lambda text: run_cli(["oracle", "opt"], text), {
        "support": [12], "union-find": [12, 12], "connected": [12, 12], "connected without": [12, 12]},
        out=(0, "OPT=14\n", "")),
    budget("weighted-graph", lambda: (MultiGraph(2, [(0, 1)]), (1,)), lambda args: WeightedGraph(*args),
        {"weight check": [2]}),
    budget("bts-draw-50", lambda: (50, 1), lambda args: random_bitransition_system(*args), {
        "system check": [50], "union-find": [50, 50], "connected": [50, 50], "connected without": [50, 50]}),
    budget("bts-parse-50", lambda: serialize_bts(random_bitransition_system(50, 1)), parse_bts, {
        "system check": [50], "union-find": [50], "connected": [50], "connected without": [50]}),
    budget("kotzig-trails", lambda: [random_bitransition_system(n, n) for n in range(50, 301, 25)],
        lambda systems: [find_trail(system) for system in systems], {
            "union-find": [v for n, c in zip(range(50, 301, 25), SWEEPS) for v in [2 * n] + [0] * c],
            "sweep copy": [2 * n for n, c in zip(range(50, 301, 25), SWEEPS) for _ in range(c)]},
        check=sweeps_follow_second_pairings),
]


ROW = {row.id: row.values for row in ROWS}


@functools.cache
def measured(name):
    """The input, output and records of the row called name, run once under
    every counter and shared by its row and any test that reads its work."""
    build, op = ROW[name][:2]
    inp = build()
    seen = {counter: [] for counter in COUNTERS}
    with pytest.MonkeyPatch.context() as mp:
        for counter, (owners, fn, record) in COUNTERS.items():
            calls = seen[counter]
            spy(mp, owners, fn, lambda *a, record=record, calls=calls, **kw: calls.append(record(*a, **kw)))
        result = op(inp)
    return inp, result, seen


@pytest.mark.parametrize("name", [pytest.param(row.id, id=row.id, marks=row.marks) for row in ROWS])
def test_pinned_work_is_unchanged(name):
    counts, out, check = ROW[name][2:]
    inp, result, seen = measured(name)
    pinned = {name: counts.get(name, []) for name in COUNTERS}
    assert {name: len(seen[name]) if type(n) is int else seen[name] for name, n in pinned.items()} == pinned
    assert out is None or result == out
    assert check is None or check(inp, result, seen)
