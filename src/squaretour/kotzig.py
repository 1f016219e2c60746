"""Eulerian trails avoiding one forbidden bitransition per node.

In a connected 4-regular multigraph, every node is crossed twice by a closed
Eulerian trail; the two (entry, exit) dart pairs used there form one of the
three pairings of its four darts.  Blowing each node up into a square whose
diagonals carry the forbidden pairs (blow_up) turns the admissible trails
into exactly the Hamiltonian cycles through all original edges, so one
always exists.  Contracting the squares again, a square left with one
matching is its node split along a non-forbidden pairing, and the graph stays
connected exactly when the blown-up one does: find_trail runs the HAM greedy's
splitting form on the graph itself, and blow_up remains the proof device.
A BitransitionSystem checks itself when built, so find_trail trusts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deltamatroid import SquareGraph, _split_greedy
from .graphcore import MultiGraph, is_connected

__all__ = [
    "BitransitionSystem",
    "Trail",
    "check_system",
    "blow_up",
    "find_trail",
    "verify_trail",
]

DartPair = tuple[int, int]


@dataclass(frozen=True)
class BitransitionSystem:
    """A 4-regular multigraph plus one forbidden dart pairing per node.

    forbidden[v] is a pair of dart pairs ((a, b), (c, d)) covering exactly the
    four darts incident to v (a loop contributes both of its darts to its
    node, so it may be paired with itself or split across the two pairs).
    Construction runs check_system, so every instance is a valid system.
    """

    graph: MultiGraph
    forbidden: tuple[tuple[DartPair, DartPair], ...]

    def __post_init__(self):
        check_system(self)


@dataclass(frozen=True)
class Trail:
    """Closed Eulerian trail as a dart sequence d0..d(2m-1).

    Darts 2i and 2i+1 are the two darts of the i-th traversed edge, in
    traversal order; consecutive edges share the node between them.
    """

    darts: tuple[int, ...]


def check_system(sys: BitransitionSystem) -> None:
    g = sys.graph
    if g.node_count == 0:
        raise ValueError("empty system")
    if not is_connected(g):
        raise ValueError("disconnected graph")
    if len(sys.forbidden) != g.node_count:
        raise ValueError("need exactly one forbidden bitransition per node")
    for v in range(g.node_count):
        darts = g.darts_at(v)
        if len(darts) != 4:
            raise ValueError(f"node {v} has degree {len(darts)}, want 4")
        (a, b), (c, d) = sys.forbidden[v]
        if sorted((a, b, c, d)) != sorted(darts):
            raise ValueError(f"forbidden pairing at node {v} does not cover its darts")


def blow_up(g: MultiGraph, position: dict[int, int]) -> tuple[SquareGraph, dict[int, int]]:
    """Expand each node of a 4-regular multigraph into a 4-cycle.

    position maps every dart to a slot 0..3 on its node's square; original
    edges become the matching, joining the slots of their two darts.  Returns
    the square graph and the map from darts to square-graph node ids.
    """
    n = g.node_count
    corner: dict[int, int] = {}
    for v in range(n):
        darts = g.darts_at(v)
        if len(darts) != 4:
            raise ValueError(f"node {v} has degree {len(darts)}, want 4")
        if sorted(position[d] for d in darts) != [0, 1, 2, 3]:
            raise ValueError(f"dart positions at node {v} are not a bijection onto 0..3")
        for d in darts:
            corner[d] = 4 * v + position[d]
    edges: list[tuple[int, int]] = []
    squares: list[tuple[int, int, int, int]] = []
    for v in range(n):
        base = 4 * v
        squares.append((base, base + 1, base + 2, base + 3))
        for j in range(4):
            edges.append((base + j, base + (j + 1) % 4))
    for e in range(g.edge_count):
        edges.append((corner[2 * e], corner[2 * e + 1]))
    graph = MultiGraph(4 * n, edges)
    matching = frozenset(range(4 * n, 4 * n + g.edge_count))
    return SquareGraph(graph, matching, tuple(squares)), corner


def find_trail(sys: BitransitionSystem) -> Trail:
    """Closed Eulerian trail whose pairing at every node differs from the
    forbidden one ((a, b), (c, d)): nodes in id order are split along
    (a, c), (b, d) when the graph stays connected and along (c, b), (d, a)
    otherwise.  These are ham_min_cost's choices on blow_up's square graph at
    unit costs, so the trail is the one its Hamiltonian cycle encodes.  The
    walk leaves along dart 0, then each node along the arriving dart's pair,
    and must close after every edge.
    """
    g = sys.graph
    choices = [(((a, c), (b, d)), ((c, b), (d, a))) for (a, b), (c, d) in sys.forbidden]
    pair = _split_greedy([g.darts_at(v) for v in range(g.node_count)], choices)
    darts: list[int] = []
    d = 0
    for _ in range(g.edge_count):
        darts += (d, d ^ 1)
        a, b = pair[d ^ 1]
        d = b if a == d ^ 1 else a
        if d == 0:
            break
    if d != 0 or len(darts) != 2 * g.edge_count:
        raise RuntimeError("trail walk does not close after every edge")
    return Trail(tuple(darts))


def verify_trail(sys: BitransitionSystem, trail: Trail) -> bool:
    """Closed Eulerian trail using each edge once and no forbidden pairing."""
    g = sys.graph
    m = g.edge_count
    ds = trail.darts
    if len(ds) != 2 * m:
        return False
    edges_seen = set()
    for i in range(m):
        a, b = ds[2 * i], ds[2 * i + 1]
        if not (0 <= a < 2 * m and 0 <= b < 2 * m):
            return False
        if a >> 1 != b >> 1 or a == b:
            return False
        edges_seen.add(a >> 1)
    if len(edges_seen) != m:
        return False
    pairing: dict[int, set[frozenset[int]]] = {v: set() for v in range(g.node_count)}
    for i in range(m):
        leave = ds[2 * i]
        arrive = ds[2 * i - 1]  # dart ending the previous edge (wraps around)
        if g.dart_node(arrive) != g.dart_node(leave):
            return False
        pairing[g.dart_node(leave)].add(frozenset((arrive, leave)))
    for v in range(g.node_count):
        fb = {frozenset(p) for p in sys.forbidden[v]}
        if pairing[v] == fb:
            return False
    return True
