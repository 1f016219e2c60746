"""Rainbow 1-trees by weighted matroid intersection.

A 1-tree (with node 0 as the special node) is a spanning tree on nodes
1..n-1 plus two edges at node 0; 1-trees are the common bases of a direct-sum
matroid ("at most two edges at node 0, a forest elsewhere") and, for square
points, a partition matroid whose classes are the two perfect matchings of
every square plus one singleton class per 1-edge.  A minimum-cost common
basis therefore picks exactly one matching edge per class and all 1-edges,
and such a basis never costs more than the point itself.  rainbow takes a
point checked by halfpoint.square_point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import DisjointSet
from .halfpoint import DEGENERATE_MSG, EdgeKey, SquarePoint

__all__ = ["RainbowOneTree", "rainbow"]


@dataclass(frozen=True)
class RainbowOneTree:
    """1-tree using every 1-edge and exactly one edge per matching pair."""

    edges: frozenset[EdgeKey]
    cost: int


def rainbow(sp: SquarePoint) -> RainbowOneTree:
    """Minimum-cost rainbow 1-tree of a checked square point.

    Every common basis contains each 1-edge, so the 1-edges are forced first
    (cost-neutral) and the intersection runs on the 1/2-edges alone.
    """
    x, costs = sp.point, sp.costs
    if not sp.squares:
        raise ValueError(DEGENERATE_MSG)
    one_edges = frozenset(e for e in sp.keys if x.support[e] == 2)
    chosen = _cheapest_rainbow(x.n, one_edges, sp.pair_partition, costs)
    if chosen is None:  # pragma: no cover - impossible for feasible square points
        raise RuntimeError("square point admits no rainbow 1-tree")
    edges = one_edges | chosen
    ds = DisjointSet(x.n)
    if (
        len(edges) != x.n
        or sum(1 for u, _ in edges if u == 0) > 2
        or not all(ds.union(u, v) for u, v in edges if u != 0)
    ):
        raise RuntimeError("rainbow selection is not a 1-tree")
    return RainbowOneTree(edges, sum(costs[e] for e in edges))


def _cheapest_rainbow(
    n: int,
    ones: frozenset[EdgeKey],
    pairs: tuple[frozenset[EdgeKey], ...],
    cost: dict[EdgeKey, int],
) -> frozenset[EdgeKey] | None:
    """Cheapest set of one edge per pair that, with the 1-edges, is
    independent in the 1-tree matroid; None if there is none.

    Weighted augmentation: the current set, cheapest for its size, grows
    along a shortest source-sink path of the exchange graph, where path
    length is the lexicographic pair (cost change, arc count); Bellman-Ford
    is safe because an extreme set admits no negative-cost cycle.  In a
    graphic matroid the exchange arcs are the fundamental cycles (Brezovec,
    Cornuejols & Glover, Math. Prog. 36, 1986), so each round roots the
    forest of 1-edges and current edges off node 0 once and reads them off:

    - an edge at node 0 is a source if fewer than two chosen or 1-edges meet
      node 0, and otherwise gets an arc from each current edge at node 0;
    - any other edge is a source if it joins two trees, and otherwise gets an
      arc from each current edge on its tree path;
    - an edge has an arc to the current edge of its pair, and is a sink if
      the pair has none.

    Arc lists are in ascending edge order, and ties between sinks go to the
    smallest (cost, arc count, repr(edge)).
    """
    ground = sorted(e for p in pairs for e in p)
    pair_of = {e: i for i, p in enumerate(pairs) for e in p}
    forced = [e for e in ones if e[0] != 0]
    ones_at_zero = len(ones) - len(forced)
    current: set[EdgeKey] = set()
    while len(current) < len(pairs):
        picked = {pair_of[e]: e for e in current}
        at_zero = sorted(e for e in current if e[0] == 0)
        adj: list[list[EdgeKey]] = [[] for _ in range(n)]
        for e in forced + [e for e in current if e[0] != 0]:
            adj[e[0]].append(e)
            adj[e[1]].append(e)
        root, depth = [-1] * n, [0] * n
        up: list[tuple[int, EdgeKey]] = [(-1, (0, 0))] * n  # parent, edge to it
        for r in range(n):
            if root[r] >= 0:
                continue
            root[r], stack = r, [r]
            while stack:
                a = stack.pop()
                for e in adj[a]:
                    b = e[0] + e[1] - a
                    if root[b] < 0:
                        root[b], depth[b], up[b] = r, depth[a] + 1, (a, e)
                        stack.append(b)

        sources: list[EdgeKey] = []
        sinks: set[EdgeKey] = set()
        arcs: dict[EdgeKey, list[EdgeKey]] = {e: [] for e in ground}
        for e in ground:
            if e in current:
                continue
            u, v = e
            if u == 0:
                if ones_at_zero + len(at_zero) < 2:
                    sources.append(e)
                else:
                    for y in at_zero:
                        arcs[y].append(e)
            elif root[u] != root[v]:
                sources.append(e)
            else:
                while u != v:
                    if depth[u] < depth[v]:
                        u, v = v, u
                    u, y = up[u]
                    if y in current:
                        arcs[y].append(e)
            if pair_of[e] in picked:
                arcs[e].append(picked[pair_of[e]])
            else:
                sinks.add(e)

        dist = {e: (cost[e], 0) for e in sources}
        parent: dict[EdgeKey, EdgeKey | None] = dict.fromkeys(sources)
        for _ in range(len(ground) + 1):
            changed = False
            for u in ground:
                du = dist.get(u)
                if du is None:
                    continue
                for v in arcs[u]:
                    step = -cost[v] if v in current else cost[v]
                    cand = (du[0] + step, du[1] + 1)
                    if v not in dist or cand < dist[v]:
                        dist[v] = cand
                        parent[v] = u
                        changed = True
            if not changed:
                break
        else:  # pragma: no cover - would indicate a non-extreme set
            raise RuntimeError("negative cycle in exchange graph")

        reachable = [t for t in sinks if t in dist]
        if not reachable:
            return None
        node = min(reachable, key=lambda t: (dist[t][0], dist[t][1], repr(t)))
        while node is not None:
            current ^= {node}
            node = parent[node]
    return frozenset(current)
