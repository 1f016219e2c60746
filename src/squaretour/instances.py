"""Instance generators and the line-oriented text formats.

All generators are pure functions of their seed.  The donut family uses a
frozen corner layout whose cost identity c.x = 3k^2 + k is asserted at
construction, so a layout regression cannot pass silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .deltamatroid import SquareGraph
from .graphcore import MultiGraph, cut_labels, hamiltonian_order, is_connected
from .halfpoint import SQUARE_CLASSES, EdgeKey, HalfIntegerPoint, edge_key, validate_and_classify
from .kotzig import BitransitionSystem, blow_up

__all__ = [
    "DonutInstance",
    "make_donut",
    "random_four_regular",
    "random_bitransition_system",
    "random_square_graph",
    "random_square_point",
    "random_costs",
    "everywhere_instance",
    "parse_point",
    "serialize_point",
    "parse_bts",
    "serialize_bts",
]

GENERATION_ATTEMPTS = 10_000


@dataclass(frozen=True)
class DonutInstance:
    """k squares in a ring, consecutive ones joined by two 1-paths of length k.

    Square i has corners (in_prev, in_next, out_next, out_prev) = 4i..4i+3 in
    cyclic order.  The cost-k half-edges run in_prev-in_next on the inside of
    the ring and out_prev-out_next on the outside; the two remaining square
    edges cost 1 and connect the inner corners to the outer ones.  Every path
    edge costs 1 and carries x = 1.
    """

    k: int
    point: HalfIntegerPoint
    costs: dict[EdgeKey, int]
    squares: tuple[tuple[int, int, int, int], ...]
    inner_paths: tuple[tuple[int, ...], ...]
    outer_paths: tuple[tuple[int, ...], ...]


def make_donut(k: int) -> DonutInstance:
    """Build the k-donut point with its canonical costs."""
    if k < 2:
        raise ValueError("k must be at least 2")
    support: dict[EdgeKey, int] = {}
    costs: dict[EdgeKey, int] = {}

    def add(u: int, v: int, x2: int, c: int) -> None:
        key = edge_key(u, v)
        if key in support:
            raise AssertionError(f"layout bug: duplicate edge {key}")
        support[key] = x2
        costs[key] = c

    squares = []
    for i in range(k):
        ip, inn, on, op = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        squares.append((ip, inn, on, op))
        add(ip, inn, 1, k)
        add(inn, on, 1, 1)
        add(on, op, 1, k)
        add(ip, op, 1, 1)

    def chain(a: int, b: int, first_interior: int) -> tuple[int, ...]:
        nodes = [a] + list(range(first_interior, first_interior + k - 1)) + [b]
        for u, v in zip(nodes, nodes[1:]):
            add(u, v, 2, 1)
        return tuple(nodes)

    inner = []
    outer = []
    base = 4 * k
    for i in range(k):
        nxt = (i + 1) % k
        inner.append(chain(4 * i + 1, 4 * nxt, base + i * (k - 1)))
    base += k * (k - 1)
    for i in range(k):
        nxt = (i + 1) % k
        outer.append(chain(4 * i + 2, 4 * nxt + 3, base + i * (k - 1)))

    n = 2 * k * k + 2 * k
    point = HalfIntegerPoint(n, support)
    if point.cost_x2(costs) != 2 * (3 * k * k + k):
        raise AssertionError("layout bug: donut cost identity failed")
    return DonutInstance(k, point, costs, tuple(squares), tuple(inner), tuple(outer))


def _as_rng(seed: int | random.Random) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_four_regular(
    n: int, seed: int | random.Random
) -> tuple[MultiGraph, dict[int, int]]:
    """Random connected 4-regular multigraph by uniform dart pairing.

    Also returns each dart's slot 0..3 at its node, the randomness consumed
    by the square blow-up.  Loops and parallel edges are kept.
    """
    if n < 1:
        raise ValueError("need at least one node")
    rng = _as_rng(seed)
    for _ in range(GENERATION_ATTEMPTS):
        slots = list(range(4 * n))
        rng.shuffle(slots)
        edges: list[tuple[int, int]] = []
        position: dict[int, int] = {}
        for e in range(2 * n):
            a, b = slots[2 * e], slots[2 * e + 1]
            if a // 4 > b // 4:
                a, b = b, a
            edges.append((a // 4, b // 4))
            position[2 * e] = a % 4
            position[2 * e + 1] = b % 4
        g = MultiGraph(n, edges)
        if is_connected(g):
            return g, position
    raise ValueError("generation failed")


def random_bitransition_system(n: int, seed: int | random.Random) -> BitransitionSystem:
    """Random connected 4-regular multigraph with one random forbidden
    pairing per node."""
    rng = _as_rng(seed)
    g, _ = random_four_regular(n, rng)
    forbidden = []
    for v in range(n):
        darts = list(g.darts_at(v))
        rng.shuffle(darts)
        forbidden.append(((darts[0], darts[1]), (darts[2], darts[3])))
    return BitransitionSystem(g, tuple(forbidden))


def random_square_graph(num_squares: int, seed: int | random.Random) -> SquareGraph:
    """Random square graph: blow up a random 4-regular multigraph.

    Loops in the base graph turn into chords or doubled square edges, so the
    output family includes the degenerate shapes.
    """
    rng = _as_rng(seed)
    g, position = random_four_regular(num_squares, rng)
    sg, _ = blow_up(g, position)
    return sg


def random_square_point(
    num_squares: int, max_path_len: int, seed: int | random.Random
) -> HalfIntegerPoint:
    """Random square point: random square structure with 1-paths of random
    length in [1, max_path_len] in place of matching edges.

    Draws are rejected until the point validates (a path joining adjacent
    corners of one square always induces a cut of value 1, so such draws are
    discarded along with any other infeasible layout).
    """
    if num_squares < 1:
        raise ValueError("need at least one square")
    if max_path_len < 1:
        raise ValueError("paths need length at least 1")
    rng = _as_rng(seed)
    for _ in range(GENERATION_ATTEMPTS):
        g, position = random_four_regular(num_squares, rng)
        sg, corner = blow_up(g, position)
        support = {edge_key(*sg.graph.edges[e]): 1 for sq in sg.squares for e in sq}
        nxt = 4 * num_squares
        ok = True
        for e in range(g.edge_count):
            length = rng.randint(1, max_path_len)
            nodes = [corner[2 * e]] + list(range(nxt, nxt + length - 1)) + [corner[2 * e + 1]]
            nxt += length - 1
            for u, v in zip(nodes, nodes[1:]):
                key = edge_key(u, v)
                if key in support:
                    ok = False
                    break
                support[key] = 2
            if not ok:
                break
        if not ok:
            continue
        x = HalfIntegerPoint(nxt, support)
        report, cls = validate_and_classify(x)
        if report:
            if cls not in SQUARE_CLASSES:
                raise AssertionError("generator produced a non-square point")
            return x
    raise ValueError("generation failed")


def random_costs(
    x: HalfIntegerPoint, seed: int | random.Random, low: int = 0, high: int = 100
) -> dict[EdgeKey, int]:
    """Seeded integer costs on the support, drawn in sorted edge order."""
    rng = _as_rng(seed)
    return {e: rng.randint(low, high) for e in sorted(x.support)}


def everywhere_instance(g: MultiGraph, ham_edges: Iterable[int]) -> HalfIntegerPoint:
    """Point with x = 1/2 on a Hamiltonian cycle of a cubic graph and x = 1
    on the complementary perfect matching.

    Requires g simple, cubic and 3-edge-connected; the result is a feasible
    point whose fractional part is one long cycle.
    """
    n = g.node_count
    seen: set[EdgeKey] = set()
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            raise ValueError(f"graph has a loop at node {u}")
        if edge_key(u, v) in seen:
            raise ValueError(f"parallel edge {u}-{v}")
        seen.add(edge_key(u, v))
    for v in range(n):
        if g.degree(v) != 3:
            raise ValueError(f"node {v} has degree {g.degree(v)}, want 3")
    if n < 2:
        raise ValueError("min cut needs at least 2 nodes")
    labels = cut_labels(g)
    if labels is None:
        raise ValueError("disconnected graph")
    # 3-edge-connected: no bridge (label 0) and no 2-edge cut (equal labels)
    if 0 in labels or len(set(labels)) < len(labels):
        raise ValueError("graph is not 3-edge-connected")
    ham = frozenset(ham_edges)
    if len(ham) != n:
        raise ValueError("Hamiltonian cycle must have one edge per node")
    for e in ham:
        if not 0 <= e < g.edge_count:
            raise ValueError(f"unknown edge id {e}")
    if hamiltonian_order(g, ham) is None:
        raise ValueError("cycle edges are not one cycle through every node")
    support = {
        edge_key(u, v): (1 if e in ham else 2) for e, (u, v) in enumerate(g.edges)
    }
    return HalfIntegerPoint(n, support)


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line.split()))
    return out


def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} must be an integer, got {tok!r}") from None


def _records(text: str, kind: str) -> Iterator:
    """Read a POINT or BTS text: first yield the node count of its
    '<kind> <n>' header, then (line number, tokens) of each record up to
    END.  Raises ValueError at a bad header, at the first line after END,
    or at the end of a text without END; a reader that rejects a record as
    it arrives so reports the first bad line."""
    lines = _content_lines(text)
    if not lines or lines[0][1][0] != kind:
        raise ValueError(f"line 1: expected '{kind} <n>' header")
    lineno, head = lines[0]
    if len(head) != 2:
        raise ValueError(f"line {lineno}: expected '{kind} <n>' header")
    n = _parse_int(head[1], lineno, "node count")
    if n < 1:
        raise ValueError(f"line {lineno}: node count must be positive")
    yield n
    ended = False
    for lineno, toks in lines[1:]:
        if ended:
            raise ValueError(f"line {lineno}: content after END")
        if toks == ["END"]:
            ended = True
        else:
            yield lineno, toks
    if not ended:
        raise ValueError("missing END line")


def parse_point(text: str) -> tuple[HalfIntegerPoint, dict[EdgeKey, int]]:
    """Parse the POINT format; returns the point and its edge costs."""
    records = _records(text, "POINT")
    n = next(records)
    support: dict[EdgeKey, int] = {}
    costs: dict[EdgeKey, int] = {}
    for lineno, toks in records:
        if toks[0] != "E" or len(toks) != 5:
            raise ValueError(f"line {lineno}: expected 'E <u> <v> <x2> <cost>'")
        u = _parse_int(toks[1], lineno, "node id")
        v = _parse_int(toks[2], lineno, "node id")
        x2 = _parse_int(toks[3], lineno, "doubled value")
        c = _parse_int(toks[4], lineno, "cost")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: node id out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"line {lineno}: loop edge at node {u}")
        if x2 not in (1, 2):
            raise ValueError(f"line {lineno}: doubled value must be 1 or 2")
        if c < 0:
            raise ValueError(f"line {lineno}: cost must be nonnegative")
        key = edge_key(u, v)
        if key in support:
            raise ValueError(f"line {lineno}: duplicate edge {u}-{v}")
        support[key] = x2
        costs[key] = c
    if not support:
        raise ValueError("no edges given")
    return HalfIntegerPoint(n, support), costs


def serialize_point(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> str:
    """Canonical POINT text: edges in sorted order, one per line."""
    out = [f"POINT {x.n}"]
    for u, v in sorted(x.support):
        try:
            c = costs[(u, v)]
        except KeyError:
            raise ValueError(f"missing cost for edge {u}-{v}") from None
        out.append(f"E {u} {v} {x.support[(u, v)]} {c}")
    out.append("END")
    return "\n".join(out) + "\n"


def _parse_dart(tok: str, lineno: int, edge_count: int) -> int:
    parts = tok.split(".")
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: dart must look like <edge>.<end>, got {tok!r}")
    e = _parse_int(parts[0], lineno, "edge id")
    end = _parse_int(parts[1], lineno, "edge end")
    if not 0 <= e < edge_count:
        raise ValueError(f"line {lineno}: edge id {e} out of range")
    if end not in (0, 1):
        raise ValueError(f"line {lineno}: edge end must be 0 or 1")
    return 2 * e + end


def parse_bts(text: str) -> BitransitionSystem:
    """Parse the BTS format into a checked bitransition system."""
    records = _records(text, "BTS")
    n = next(records)
    edge_rows: dict[int, tuple[int, int]] = {}
    f_rows: list[tuple[int, list[str]]] = []
    for lineno, toks in records:
        if toks[0] == "E":
            if len(toks) != 4:
                raise ValueError(f"line {lineno}: expected 'E <id> <u> <v>'")
            e = _parse_int(toks[1], lineno, "edge id")
            u = _parse_int(toks[2], lineno, "node id")
            v = _parse_int(toks[3], lineno, "node id")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"line {lineno}: node id out of range 0..{n - 1}")
            if e in edge_rows:
                raise ValueError(f"line {lineno}: duplicate edge id {e}")
            edge_rows[e] = (u, v)
        elif toks[0] == "F":
            f_rows.append((lineno, toks))
        else:
            raise ValueError(f"line {lineno}: unknown record {toks[0]!r}")
    m = len(edge_rows)
    if sorted(edge_rows) != list(range(m)):
        raise ValueError("edge ids must be exactly 0..m-1")
    forbidden: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for lineno, toks in f_rows:
        if len(toks) != 6:
            raise ValueError(f"line {lineno}: expected 'F <v> <d1> <d2> <d3> <d4>'")
        v = _parse_int(toks[1], lineno, "node id")
        if not 0 <= v < n:
            raise ValueError(f"line {lineno}: node id out of range 0..{n - 1}")
        if v in forbidden:
            raise ValueError(f"line {lineno}: duplicate forbidden pairing for node {v}")
        d1, d2, d3, d4 = (_parse_dart(t, lineno, m) for t in toks[2:])
        forbidden[v] = ((d1, d2), (d3, d4))
    # the first gap comes at the latest after len(forbidden) nodes, so a huge
    # header is rejected here, before anything n-sized is built
    missing = next((v for v in range(n) if v not in forbidden), None)
    if missing is not None:
        raise ValueError(f"missing forbidden pairing for node {missing}")
    g = MultiGraph(n, [edge_rows[e] for e in range(m)])
    return BitransitionSystem(g, tuple(forbidden[v] for v in range(n)))


def serialize_bts(sys: BitransitionSystem) -> str:
    """Canonical BTS text."""
    g = sys.graph
    out = [f"BTS {g.node_count}"]
    for e, (u, v) in enumerate(g.edges):
        out.append(f"E {e} {u} {v}")

    def dart(d: int) -> str:
        return f"{d // 2}.{d % 2}"

    for v in range(g.node_count):
        (a, b), (c, d) = sys.forbidden[v]
        out.append(f"F {v} {dart(a)} {dart(b)} {dart(c)} {dart(d)}")
    out.append("END")
    return "\n".join(out) + "\n"
