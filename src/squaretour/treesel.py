"""Rainbow 1-trees by weighted matroid intersection.

A 1-tree (with node 0 as the special node) is a spanning tree on nodes
1..n-1 plus two edges at node 0; 1-trees are the common bases of a direct-sum
matroid ("at most two edges at node 0, a forest elsewhere") and, for square
points, a partition matroid whose classes are the two perfect matchings of
every square plus one singleton class per 1-edge.  A minimum-cost common
basis therefore picks exactly one matching edge per class and all 1-edges,
and such a basis never costs more than the point itself.  rainbow takes a
point checked by halfpoint.square_point and works on its support edge ids;
only the returned tree names its edges by key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graphcore import DisjointSet
from .halfpoint import EdgeKey, SquarePoint

__all__ = ["RainbowOneTree", "rainbow"]


@dataclass(frozen=True)
class RainbowOneTree:
    """1-tree using every 1-edge and exactly one edge per matching pair."""

    edges: frozenset[EdgeKey]
    cost: int


def rainbow(sp: SquarePoint) -> RainbowOneTree:
    """Minimum-cost rainbow 1-tree of a checked square point.

    Every common basis contains each 1-edge, so the 1-edges are forced first
    (cost-neutral) and the intersection runs on the 1/2-edges alone; an
    integral point has none, and its tree is its 1-edge cycle.
    """
    x, ends, cost = sp.point, sp.graph.edges, sp.weighted.weight
    ones = frozenset(e for e, x2 in enumerate(x.support.values()) if x2 == 2)
    ids = ones | _cheapest_rainbow(sp)
    ds = DisjointSet(x.n)
    if (
        len(ids) != x.n
        or sum(1 for e in ids if ends[e][0] == 0) > 2
        or not all(ds.union(*ends[e]) for e in ids if ends[e][0] != 0)
    ):
        raise RuntimeError("rainbow selection is not a 1-tree")
    return RainbowOneTree(frozenset(sp.keys[e] for e in ids), sum(cost[e] for e in ids))


def _parts(sp: SquarePoint) -> tuple[dict[int, int], int]:
    """Labels below m of the parts that the 1-edges off node 0 split node 0
    and the kept nodes of sp.reduction into: each 1-path is one chain, which
    joins its two ends unless node 0 is inside it or one of its ends."""
    red, x, keys = sp.reduction, sp.point, sp.keys
    inner = red.place[0][0] if type(red.place[0]) is tuple else -1
    comp, m = {}, 1
    for r, (i, j) in enumerate(red.weighted.graph.edges):
        if x.support[keys[red.chains[r][0]]] == 2:
            a, b = red.kept[i], red.kept[j]
            comp[a], comp[b] = m, m + (r == inner)  # node 0 inside splits the chain
            m = comp[b] + 1
    comp[0] = 0  # node 0 is a part of its own, even at the end of a chain
    return comp, m


def _cheapest_rainbow(sp: SquarePoint) -> frozenset[int]:
    """Cheapest set of one edge per matching pair of sp that, with the
    point's 1-edges, is independent in the 1-tree matroid; one exists by
    lemma L1, so every round reaches a sink.  Edges are support edge ids.

    Weighted augmentation: the current set, cheapest for its size, grows
    along a shortest source-sink path of the exchange graph, where path
    length is the lexicographic pair (cost change, arc count); Bellman-Ford
    is safe because an extreme set admits no negative-cost cycle.  In a
    graphic matroid the exchange arcs are the fundamental cycles (Brezovec,
    Cornuejols & Glover, Math. Prog. 36, 1986).  The 1-edges off node 0 are
    in every round's forest, so they are contracted once: the forest of a
    round holds only the current edges off node 0, on the labels of the
    components the 1-edges span, which _parts reads off the 1-paths' chains
    in sp.reduction, and each round roots it once and reads off:

    - an edge at node 0 is a source if fewer than two chosen or 1-edges meet
      node 0, and otherwise gets an arc from each current edge at node 0;
    - any other edge is a source if it joins two trees, and otherwise gets an
      arc from each current edge on its tree path;
    - an edge has an arc to the current edge of its pair, and is a sink if
      the pair has none.

    Arc lists are in ascending edge order, and ties between sinks go to the
    smallest (cost, arc count, rank), rank being the place of repr(edge key)
    in sorted order; ids ascend with the keys, but repr order is not key
    order: "(3, 10)" < "(3, 4)".  Each Bellman-Ford sweep relaxes, in edge
    order, only the edges whose distance changed since they were last
    relaxed; the others cannot improve any distance.  A sweep pops them from
    a heap of the dirty edges ahead of its position and sets aside those
    made dirty at or behind it, the next sweep's heap, so it never scans a
    clean edge and relaxes the same edges in the same order as a scan.

    Warm start: every rainbow set of k edges costs at least the k cheapest
    pair minima.  While the edges taken are the cheapest pair minima and the
    next one, in (cost, rank) order over the untaken pairs, stays
    independent, it is a source and a sink at (cost, 0 arcs) that no sink
    beats, so the round would take it; the greedy takes such edges without
    rounds and stops at the first dependent one.
    """
    ends, cost, pairs = sp.graph.edges, sp.weighted.weight, sp.pair_partition
    ground = sorted(e for p in pairs for e in p)
    pair_of = {e: i for i, p in enumerate(pairs) for e in p}
    rank = {e: i for i, e in enumerate(sorted(ground, key=lambda e: repr(ends[e])))}
    comp, m = _parts(sp)
    ones_at_zero = sum(sp.point.support[sp.keys[d >> 1]] == 2 for d in sp.graph.darts_at(0))
    current: set[int] = set()
    taken: set[int] = set()
    zero, warm = ones_at_zero, DisjointSet(m)
    for e in sorted(ground, key=lambda e: (cost[e], rank[e])):
        if pair_of[e] in taken:
            continue
        u, v = ends[e]
        if u == 0 and zero < 2:
            zero += 1
        elif u == 0 or not warm.union(comp[u], comp[v]):
            break
        current.add(e)
        taken.add(pair_of[e])
    while len(current) < len(pairs):
        picked = {pair_of[e]: e for e in current}
        at_zero = sorted(e for e in current if ends[e][0] == 0)
        adj: list[list[int]] = [[] for _ in range(m)]
        for e in current:
            u, v = ends[e]
            if u != 0:
                adj[comp[u]].append(e)
                adj[comp[v]].append(e)
        root, depth = [-1] * m, [0] * m
        up: list[tuple[int, int]] = [(-1, -1)] * m  # parent, edge to it
        for r in range(m):
            if root[r] >= 0:
                continue
            root[r], stack = r, [r]
            while stack:
                a = stack.pop()
                for e in adj[a]:
                    b = comp[ends[e][0]] + comp[ends[e][1]] - a
                    if root[b] < 0:
                        root[b], depth[b], up[b] = r, depth[a] + 1, (a, e)
                        stack.append(b)

        sources: list[int] = []
        sinks: list[int] = []
        arcs: dict[int, list[int]] = {e: [] for e in ground}
        for e in ground:
            if e in current:
                continue
            u, v = ends[e]
            a, b = comp[u], comp[v]
            if u == 0:
                if ones_at_zero + len(at_zero) < 2:
                    sources.append(e)
                else:
                    for y in at_zero:
                        arcs[y].append(e)
            elif root[a] != root[b]:
                sources.append(e)
            else:
                while a != b:
                    if depth[a] < depth[b]:
                        a, b = b, a
                    a, y = up[a]
                    arcs[y].append(e)
            if pair_of[e] in picked:
                arcs[e].append(picked[pair_of[e]])
            else:
                sinks.append(e)

        step = list(cost)
        for e in current:
            step[e] = -cost[e]
        dist: list[tuple[int, int] | None] = [None] * len(cost)
        parent: list[int | None] = [None] * len(cost)
        dirty = [False] * len(cost)
        for e in sources:
            dist[e], dirty[e] = (cost[e], 0), True
        ahead = sources  # ascending, so already a heap
        for _ in range(len(ground) + 2):
            if not ahead:
                break
            behind: list[int] = []
            while ahead:
                u = heapq.heappop(ahead)
                dirty[u] = False
                du, hu = dist[u]
                for v in arcs[u]:
                    cand = (du + step[v], hu + 1)
                    if dist[v] is None or cand < dist[v]:
                        dist[v], parent[v] = cand, u
                        if not dirty[v]:
                            dirty[v] = True
                            if v > u:
                                heapq.heappush(ahead, v)
                            else:
                                behind.append(v)
            heapq.heapify(behind)
            ahead = behind
        else:  # pragma: no cover - would indicate a non-extreme set
            raise RuntimeError("negative cycle in exchange graph")

        reachable = [t for t in sinks if dist[t] is not None]
        if not reachable:  # pragma: no cover - impossible for feasible square points
            raise RuntimeError("square point admits no rainbow 1-tree")
        node = min(reachable, key=lambda t: (*dist[t], rank[t]))
        while node is not None:
            current ^= {node}
            node = parent[node]
    return frozenset(current)
