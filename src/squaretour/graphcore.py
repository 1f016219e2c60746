"""Small multigraph substrate: connectivity, global min cut, metric closure.

Everything is exact integer arithmetic.  Edges are addressed by dense ids;
each edge id e owns two darts 2*e and 2*e+1 (one per endpoint), which is the
only sane way to talk about parallel edges and loops.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MultiGraph",
    "WeightedGraph",
    "DisjointSet",
    "is_connected",
    "connected_without",
    "bridges",
    "is_two_edge_connected",
    "global_min_cut",
    "shortest_paths_from",
    "path_edges_to",
    "metric_closure",
    "eulerian_circuit",
    "walk_cycle",
]


class MultiGraph:
    """Undirected multigraph with dense node and edge ids.

    Immutable after construction.  Loops and parallel edges are legal.
    Dart 2*e is edge e seen from edges[e][0], dart 2*e+1 from edges[e][1].
    """

    __slots__ = ("node_count", "edges", "_adj")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        if node_count < 0:
            raise ValueError("node_count must be nonnegative")
        edge_list = []
        adj: list[list[int]] = [[] for _ in range(node_count)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")
            edge_list.append((u, v))
            adj[u].append(2 * eid)
            adj[v].append(2 * eid + 1)
        self.node_count = node_count
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_list)
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(d) for d in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def darts_at(self, v: int) -> tuple[int, ...]:
        """Darts incident to v, ascending.  A loop contributes both its darts."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def dart_node(self, dart: int) -> int:
        return self.edges[dart >> 1][dart & 1]

    def dart_other_node(self, dart: int) -> int:
        return self.edges[dart >> 1][1 - (dart & 1)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiGraph({self.node_count}, {list(self.edges)})"


@dataclass(frozen=True)
class WeightedGraph:
    """A multigraph plus one nonnegative integer weight per edge id."""

    graph: MultiGraph
    weight: tuple[int, ...]

    def __post_init__(self):
        if len(self.weight) != self.graph.edge_count:
            raise ValueError("weight vector length must equal edge count")
        for w in self.weight:
            if not isinstance(w, (int, np.integer)) or w < 0:
                raise ValueError("weights must be nonnegative integers")
        object.__setattr__(self, "weight", tuple(int(w) for w in self.weight))


class DisjointSet:
    """Union-find with path halving; merge by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; return False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def _reach(g: MultiGraph, start: int, skip_edges: frozenset[int]) -> list[int]:
    seen = bytearray(g.node_count)
    seen[start] = 1
    stack = [start]
    out = [start]
    while stack:
        v = stack.pop()
        for d in g.darts_at(v):
            if (d >> 1) in skip_edges:
                continue
            w = g.dart_other_node(d)
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
                out.append(w)
    return out


def is_connected(g: MultiGraph) -> bool:
    """True iff every node is reachable from node 0 (vacuous for <= 1 node)."""
    if g.node_count <= 1:
        return True
    return len(_reach(g, 0, frozenset())) == g.node_count


def connected_without(g: MultiGraph, removed: frozenset[int]) -> bool:
    """Connectivity of g after deleting the given edge ids (nodes stay)."""
    if g.node_count <= 1:
        return True
    return len(_reach(g, 0, removed)) == g.node_count


def bridges(g: MultiGraph) -> set[int]:
    """Edge ids whose removal disconnects their component.

    Iterative lowpoint DFS; parallel edges and loops are never bridges.
    """
    n = g.node_count
    disc = [-1] * n
    low = [0] * n
    out: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # stack holds (node, incoming dart, iterator index over darts)
        stack: list[list[int]] = [[root, -1, 0]]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            frame = stack[-1]
            v, in_dart, idx = frame
            darts = g.darts_at(v)
            if idx < len(darts):
                frame[2] += 1
                d = darts[idx]
                if in_dart != -1 and (d >> 1) == (in_dart >> 1):
                    # do not walk back through the tree edge itself; a second
                    # parallel copy has a different edge id and is traversed
                    continue
                w = g.dart_other_node(d)
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, d, 0])
                else:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if in_dart != -1:
                    p = g.dart_node(in_dart)  # parent end of the tree dart
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] > disc[p]:
                        out.add(in_dart >> 1)
    return out


def is_two_edge_connected(g: MultiGraph) -> bool:
    return is_connected(g) and not bridges(g)


def global_min_cut(wg: WeightedGraph) -> tuple[int, frozenset[int]]:
    """Global minimum cut by the Stoer-Wagner maximum-adjacency scheme.

    Deterministic: phases start at the lowest active node id and break
    adjacency ties by node id.  Returns (cut value, one side of the cut).
    Weights are summed in int64; loops never cross a cut and are dropped.
    """
    g = wg.graph
    n = g.node_count
    if n < 2:
        raise ValueError("min cut needs at least 2 nodes")
    if not is_connected(g):
        raise ValueError("disconnected graph")
    w = np.zeros((n, n), dtype=np.int64)
    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            w[u, v] += wg.weight[eid]
            w[v, u] += wg.weight[eid]
    active = np.ones(n, dtype=bool)
    groups: list[set[int]] = [{i} for i in range(n)]
    best_val: int | None = None
    best_side: frozenset[int] = frozenset()
    for _ in range(n - 1):
        idx = np.flatnonzero(active)
        if len(idx) < 2:
            break
        start = int(idx[0])
        in_a = np.zeros(n, dtype=bool)
        in_a[start] = True
        conn = w[start].copy()
        prev = start
        last = start
        for _ in range(len(idx) - 1):
            cand = np.where(active & ~in_a, conn, np.int64(-1))
            nxt = int(np.argmax(cand))
            prev, last = last, nxt
            cut_of_phase = int(conn[nxt])
            in_a[nxt] = True
            conn += w[nxt]
        if best_val is None or cut_of_phase < best_val:
            best_val = cut_of_phase
            best_side = frozenset(groups[last])
        # merge last into prev
        w[prev] += w[last]
        w[:, prev] += w[:, last]
        w[prev, prev] = 0
        w[last, :] = 0
        w[:, last] = 0
        active[last] = False
        groups[prev] |= groups[last]
    assert best_val is not None
    return best_val, best_side


def shortest_paths_from(wg: WeightedGraph, source: int) -> tuple[list[int], list[int]]:
    """Dijkstra from source.  Returns (dist, parent dart) per node.

    parent[v] is the dart of the edge used to enter v (-1 at the source and
    for unreachable nodes); dist is -1 for unreachable nodes.
    """
    g = wg.graph
    n = g.node_count
    dist = [-1] * n
    parent = [-1] * n
    seen = [False] * n
    pq: list[tuple[int, int]] = [(0, source)]
    dist[source] = 0
    while pq:
        dv, v = heapq.heappop(pq)
        if seen[v]:
            continue
        seen[v] = True
        for d in g.darts_at(v):
            w = g.dart_other_node(d)
            if w == v:
                continue
            nd = dv + wg.weight[d >> 1]
            if not seen[w] and (dist[w] == -1 or nd < dist[w]):
                dist[w] = nd
                parent[w] = d ^ 1  # the dart of this edge at w's end
                heapq.heappush(pq, (nd, w))
    return dist, parent


def path_edges_to(parent: list[int], g: MultiGraph, target: int) -> list[int]:
    """Edge ids of the shortest path tree branch ending at target."""
    out = []
    v = target
    while parent[v] != -1:
        d = parent[v]
        out.append(d >> 1)
        v = g.dart_other_node(d)
    out.reverse()
    return out


def metric_closure(wg: WeightedGraph) -> list[list[int]]:
    """All-pairs shortest path distances.  Error on disconnected input."""
    g = wg.graph
    if not is_connected(g):
        raise ValueError("disconnected graph")
    out = []
    for s in range(g.node_count):
        dist, _ = shortest_paths_from(wg, s)
        out.append(dist)
    return out


def eulerian_circuit(g: MultiGraph, start: int = 0) -> list[int]:
    """Closed Eulerian walk as a node sequence (first == last).

    Requires every degree even and all edges in one component.  The walk is
    canonical: Hierholzer taking the lowest unused dart at every step.
    """
    m = g.edge_count
    if m == 0:
        return [start]
    for v in range(g.node_count):
        if g.degree(v) % 2:
            raise ValueError(f"odd degree at node {v}")
    used = bytearray(m)
    ptr = [0] * g.node_count  # per-node cursor into its sorted dart list
    stack = [start]
    walk: list[int] = []
    while stack:
        v = stack[-1]
        darts = g.darts_at(v)
        i = ptr[v]
        while i < len(darts) and used[darts[i] >> 1]:
            i += 1
        ptr[v] = i
        if i == len(darts):
            walk.append(stack.pop())
        else:
            d = darts[i]
            used[d >> 1] = 1
            stack.append(g.dart_other_node(d))
    if len(walk) != m + 1:
        raise ValueError("edges not all reachable from start")
    walk.reverse()
    return walk


def walk_cycle(
    g: MultiGraph, cycle: frozenset[int], start: int, first: int
) -> tuple[list[int], list[int]]:
    """Walk the cycle formed by the given edge ids: leave start along edge
    first, then leave every node along its other cycle edge.  Returns the
    edge ids in walk order and, for each, the node it is left from."""
    edges: list[int] = []
    nodes: list[int] = []
    e, v = first, start
    for _ in range(len(cycle)):
        edges.append(e)
        nodes.append(v)
        a, b = g.edges[e]
        v = b if a == v else a
        e = next(d >> 1 for d in g.darts_at(v) if d >> 1 in cycle and d >> 1 != e)
    return edges, nodes
