"""Eulerian trails avoiding one forbidden bitransition per node.

In a connected 4-regular multigraph, every node is crossed twice by a closed
Eulerian trail; the two (entry, exit) dart pairs used there form one of the
three pairings of its four darts.  Given one forbidden pairing per node, a
trail avoiding all of them always exists and is found by blowing each node up
into a square whose diagonals carry the forbidden pairs: Hamiltonian cycles
through the blown-up graph that contain all original edges are exactly the
admissible trails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deltamatroid import SquareGraph, ham_min_cost
from .graphcore import MultiGraph, is_connected, walk_cycle

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
    """

    graph: MultiGraph
    forbidden: tuple[tuple[DartPair, DartPair], ...]


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
    forbidden one.  Forbidden pairs are placed on square diagonals, so no
    square matching can realize them."""
    check_system(sys)
    g = sys.graph
    position: dict[int, int] = {}
    for v in range(g.node_count):
        (a, b), (c, d) = sys.forbidden[v]
        position[a] = 0
        position[b] = 2
        position[c] = 1
        position[d] = 3
    sg, corner = blow_up(g, position)
    ham = ham_min_cost(sg, [1] * sg.graph.edge_count)

    corner_dart = {c: d for d, c in corner.items()}
    # walk the Hamiltonian cycle from dart 0's corner along the matching edge
    # of original edge 0; each matching edge walked is one trail step
    first = 4 * g.node_count
    edges, nodes = walk_cycle(sg.graph, ham.edges, corner[0], first)
    darts: list[int] = []
    for i, e in enumerate(edges):
        if e >= first:
            darts.append(corner_dart[nodes[i]])
            darts.append(corner_dart[nodes[(i + 1) % len(nodes)]])
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
