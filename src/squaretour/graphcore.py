"""Small multigraph substrate: cut labels, min cut, series reduction, shortest paths.

Everything is exact integer arithmetic.  Edges are addressed by dense ids;
each edge id e owns two darts 2*e and 2*e+1 (one per endpoint), which is the
only sane way to talk about parallel edges and loops.  Union-find answers
each yes/no connectivity test; cut_labels searches, for its spanning tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, NamedTuple

__all__ = [
    "MultiGraph",
    "WeightedGraph",
    "Reduction",
    "DisjointSet",
    "is_connected",
    "connected_without",
    "cut_labels",
    "global_min_cut",
    "series_reduced",
    "shortest_paths_from",
    "path_edges_to",
    "metric_closure",
    "eulerian_circuit",
    "cycles",
    "hamiltonian_order",
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

    def __eq__(self, other: object) -> bool:  # the same edges under the same ids
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return (self.node_count, self.edges) == (other.node_count, other.edges)

    def __hash__(self) -> int:
        return hash((self.node_count, self.edges))

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiGraph({self.node_count}, {list(self.edges)})"


@dataclass(frozen=True)
class WeightedGraph:
    """A multigraph plus one nonnegative integer weight per edge id; nbrs[v]
    lists (other end, weight, dart at the other end) for v's darts in
    darts_at order, loops left out, for the shortest-path searches."""

    graph: MultiGraph
    weight: tuple[int, ...]
    nbrs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weight) != self.graph.edge_count:
            raise ValueError("weight vector length must equal edge count")
        # the type test spares the slow isinstance call for a plain int
        if not all((type(w) is int or isinstance(w, Integral)) and w >= 0 for w in self.weight):
            raise ValueError("weights must be nonnegative integers")
        self._fill(tuple(map(int, self.weight)))

    @classmethod
    def _checked(cls, graph: MultiGraph, weight: tuple[int, ...]) -> WeightedGraph:
        """The WeightedGraph of graph and weight, weight being one nonnegative
        Python int per edge id that the caller has checked: builds nbrs only."""
        wg = object.__new__(cls)
        object.__setattr__(wg, "graph", graph)
        wg._fill(weight)
        return wg

    def _fill(self, weight: tuple[int, ...]) -> None:
        nbrs: list[list[tuple[int, int, int]]] = [[] for _ in range(self.graph.node_count)]
        for e, ((u, v), w) in enumerate(zip(self.graph.edges, weight)):
            if u != v:
                nbrs[u].append((v, w, 2 * e + 1))
                nbrs[v].append((u, w, 2 * e))
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "nbrs", tuple(map(tuple, nbrs)))


class DisjointSet:
    """Union-find with path halving; merge by size.  union, the hot call of
    _split_greedy's sweeps, finds a's root and then b's with find's writes."""

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
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        while p[b] != b:
            p[b] = p[p[b]]
            b = p[b]
        if a == b:
            return False
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
        p[b] = a
        size[a] += size[b]
        return True

    def copy(self) -> DisjointSet:
        other = DisjointSet(0)
        other.parent, other.size = self.parent[:], self.size[:]
        return other


def is_connected(g: MultiGraph) -> bool:
    """True iff g has at most one component (vacuous for <= 1 node)."""
    return connected_without(g, frozenset())


def connected_without(g: MultiGraph, removed: frozenset[int]) -> bool:
    """Connectivity of g after deleting the given edge ids (nodes stay): each
    union that joins two parts leaves one part fewer."""
    ds = DisjointSet(g.node_count)
    joins = sum(ds.union(u, v) for e, (u, v) in enumerate(g.edges) if e not in removed)
    return g.node_count - joins <= 1


def cut_labels(g: MultiGraph) -> list[int] | None:
    """Cycle-space labels of a multigraph's edges, per edge id, or None if
    the graph is disconnected.

    In a spanning tree from node 0, the i-th non-tree edge gets the bit
    1 << i, and each tree edge the XOR of the bits of the non-tree edges with
    exactly one end below it.  Label 0 means the edge is a bridge; in a
    bridgeless graph {e, f} is a cut iff e and f have equal labels
    (Pritchard & Thurimella, ACM Trans. Algorithms 7(4), 2011, with one
    exact bit per non-tree edge instead of random words)."""
    edges = g.edges
    parent = [-2] + [-1] * (g.node_count - 1)  # node -> its tree edge's dart at the parent
    order = [0]
    for v in order:
        for d in g.darts_at(v):
            w = edges[d >> 1][1 - (d & 1)]
            if parent[w] == -1:
                parent[w] = d
                order.append(w)
    if len(order) < g.node_count:
        return None
    tree = {d >> 1 for d in parent[1:]}
    labels = [0] * len(edges)
    acc = [0] * g.node_count  # XOR of the non-tree bits met at each node
    bit = 1
    for e, (u, v) in enumerate(edges):
        if e not in tree:
            labels[e] = bit
            acc[u] ^= bit
            acc[v] ^= bit
            bit <<= 1
    for v in reversed(order[1:]):
        d = parent[v]
        labels[d >> 1] = acc[v]
        acc[edges[d >> 1][d & 1]] ^= acc[v]
    return labels


def global_min_cut(wg: WeightedGraph) -> tuple[int, frozenset[int]]:
    """Global minimum cut by the Stoer-Wagner maximum-adjacency scheme.

    Deterministic: phases start at the lowest active node id and break
    adjacency ties by node id.  Returns (cut value, one side of the cut).
    Loops never cross a cut and are dropped.
    """
    g = wg.graph
    n = g.node_count
    if n < 2:
        raise ValueError("min cut needs at least 2 nodes")
    if not is_connected(g):
        raise ValueError("disconnected graph")
    # adj[v][u]: total weight between the merged nodes v and u
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), w in zip(g.edges, wg.weight):
        if u != v:
            adj[u][v] = adj[u].get(v, 0) + w
            adj[v][u] = adj[v].get(u, 0) + w
    groups = {v: {v} for v in range(n)}  # active node -> nodes merged into it
    best: tuple[int, frozenset[int]] | None = None
    while len(groups) > 1:
        # lazy max-heap on (-connectivity, node id); the ids ascend, so the
        # list is a heap and the phase starts at the lowest active id
        conn = dict.fromkeys(groups, 0)
        heap = [(0, v) for v in conn]
        prev = last = -1
        while conn:
            key, v = heapq.heappop(heap)
            if conn.get(v) != -key:
                continue  # already added, or a stale entry
            prev, last = last, v
            cut_of_phase = conn.pop(v)
            for u, w in adj[v].items():
                if u in conn:
                    conn[u] += w
                    heapq.heappush(heap, (-conn[u], u))
        if best is None or cut_of_phase < best[0]:
            best = (cut_of_phase, frozenset(groups[last]))
        # merge last into prev
        adj[prev].pop(last, None)
        for u, w in adj[last].items():
            if u != prev:
                adj[u][prev] = adj[prev][u] = adj[prev].get(u, 0) + w
                del adj[u][last]
        groups[prev] |= groups.pop(last)
    assert best is not None
    return best


class Reduction(NamedTuple):
    """A series-reduced graph; see series_reduced."""

    kept: list[int]
    weighted: WeightedGraph
    chains: list[tuple[int, ...]]
    place: list[int | tuple[int, int] | None]
    chain_of: list[int]


def series_reduced(wg: WeightedGraph, keep: Iterable[int] = ()) -> Reduction:
    """Suppress every node of degree 2 not in keep, the series rule of
    Padberg & Rinaldi (Math. Prog. 47, 1990): each path a-...-b through
    suppressed nodes becomes one a-b edge weighing the path's sum.  Returns
    the kept nodes (ascending), the reduced graph and, per reduced edge, its
    chain of wg's edge ids walked from the kept node it is first met at;
    kept nodes, then their darts, ascending number the edges.  The walk also
    gives each edge its chain r and each node its place: its kept id, or (r,
    off) at weight off from chain r's first end.  Parts without a kept node
    vanish (place None, chain -1).  A shortest path between kept nodes runs
    along every chain it enters, so the reduction keeps their distances."""
    g, w = wg.graph, wg.weight
    keep = set(keep)
    kept = [v for v in range(g.node_count) if g.degree(v) != 2 or v in keep]
    place: list[int | tuple[int, int] | None] = [None] * g.node_count
    for i, v in enumerate(kept):
        place[v] = i
    chain_of = [-1] * g.edge_count
    edges: list[tuple[int, int]] = []
    chains: list[tuple[int, ...]] = []
    weight: list[int] = []
    for a in kept:
        for d in g.darts_at(a):
            if chain_of[d >> 1] < 0:
                r, chain, off = len(chains), [], 0
                while True:
                    chain_of[d >> 1] = r
                    chain.append(d >> 1)
                    off += w[d >> 1]
                    v = g.dart_other_node(d)
                    if place[v] is not None:
                        break
                    place[v] = (r, off)
                    d1, d2 = g.darts_at(v)
                    d = d2 if d1 >> 1 == d >> 1 else d1
                edges.append((place[a], place[v]))
                chains.append(tuple(chain))
                weight.append(off)
    reduced = WeightedGraph._checked(MultiGraph(len(kept), edges), tuple(weight))
    return Reduction(kept, reduced, chains, place, chain_of)


def shortest_paths_from(
    wg: WeightedGraph, source: int, targets: Iterable[int] | None = None
) -> tuple[list[int], list[int]]:
    """Dijkstra from source, a node.  Returns (dist, parent dart) per node.

    parent[v] is the dart of the edge used to enter v (-1 at the source and
    for unreachable nodes); dist is -1 for unreachable nodes.  With targets,
    the search stops once every target is settled: dist and parent are then
    final only for settled nodes, which include the targets and every node
    on their shortest paths, and equal those of the full search there.
    """
    nbrs = wg.nbrs
    n = len(nbrs)
    if not 0 <= source < n:
        raise ValueError(f"source node {source} out of range")
    dist = [-1] * n
    parent = [-1] * n
    pending = None if targets is None else set(targets)
    for t in (min(pending), max(pending)) if pending else ():
        if not 0 <= t < n:
            raise ValueError(f"target node {t} out of range")
    pq: list[tuple[int, int]] = [(0, source)]
    dist[source] = 0
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:  # stale: each push lowers its node's key
            continue
        if pending is not None:
            pending.discard(v)
            if not pending:
                break
        for w, c, back in nbrs[v]:
            nd = dv + c
            if dist[w] == -1 or nd < dist[w]:  # never a settled w: weights are >= 0
                dist[w] = nd
                parent[w] = back
                heapq.heappush(pq, (nd, w))
    return dist, parent


def path_edges_to(parent: list[int], g: MultiGraph, target: int) -> list[int]:
    """Edge ids of the shortest path tree branch ending at target."""
    if not 0 <= target < len(parent):
        raise ValueError(f"target node {target} out of range")
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

    Requires a node start, even degrees and all edges in one component.  The
    walk is canonical: Hierholzer taking the lowest unused dart at each step.
    """
    if not 0 <= start < g.node_count:
        raise ValueError(f"start node {start} out of range")
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


def cycles(g: MultiGraph, ids: Iterable[int]) -> list[tuple[list[int], list[int]]] | None:
    """The cycles the edge ids form, each as its edge ids in walk order and,
    for each, the node it is left from; or None unless every id names an
    edge and every node meets 0 or 2 of them (a loop meets its node twice).
    The cycles come by lowest node, each walked from it along its lower-id
    edge, then out of every node along the id it was not entered by."""
    ids = sorted(set(ids))
    if ids and (ids[0] < 0 or ids[-1] >= g.edge_count):
        return None
    at: list[list[int]] = [[] for _ in range(g.node_count)]  # each node's ids, ascending
    for e in ids:
        for v in g.edges[e]:
            at[v].append(e)
    if not {len(pair) for pair in at} <= {0, 2}:
        return None
    found = []
    for start, pair in enumerate(at):
        if pair:  # start is the lowest node of a cycle not yet walked
            edges, nodes, e, v = [], [], pair[0], start
            while True:
                edges.append(e)
                nodes.append(v)
                a, b = g.edges[e]
                v = b if a == v else a
                if v == start:
                    break
                x, y = at[v]
                e = y if x == e else x
            for v in nodes:
                at[v] = []
            found.append((edges, nodes))
    return found


def hamiltonian_order(g: MultiGraph, ids: Iterable[int]) -> list[int] | None:
    """The node order of the edge ids, walked as cycles walks it, when they
    form one cycle through every node; else None."""
    found = cycles(g, ids)  # a first cycle through every node is the only one
    return found[0][1] if found and len(found[0][1]) == g.node_count else None
