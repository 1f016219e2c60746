"""Rainbow 1-trees by weighted matroid intersection.

A 1-tree (with node 0 as the special node) is a spanning tree on nodes
1..n-1 plus two edges at node 0; 1-trees are the common bases of a direct-sum
matroid ("at most two edges at node 0, a forest elsewhere") and, for square
points, a partition matroid whose classes are the two perfect matchings of
every square plus one singleton class per 1-edge.  A minimum-cost common
basis therefore picks exactly one matching edge per class and all 1-edges,
and such a basis never costs more than the point itself.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Protocol, Sequence

from dataclasses import dataclass

from .graphcore import DisjointSet, MultiGraph
from .halfpoint import DEGENERATE_MSG, EdgeKey, HalfIntegerPoint, SquarePoint, square_point

__all__ = [
    "MatroidOracle",
    "GraphicMatroid",
    "OneTreeMatroid",
    "PartitionMatroid",
    "ContractedMatroid",
    "weighted_matroid_intersection",
    "RainbowOneTree",
    "rainbow_one_tree",
]

Element = Hashable


class MatroidOracle(Protocol):
    """Independence oracle over a finite ground set."""

    @property
    def ground_set(self) -> tuple: ...

    @property
    def rank(self) -> int: ...

    def is_independent(self, subset: Iterable) -> bool: ...


class GraphicMatroid:
    """Forests of a multigraph; ground set = edge ids."""

    def __init__(self, graph: MultiGraph):
        self.graph = graph
        self._ground = tuple(range(graph.edge_count))
        ds = DisjointSet(graph.node_count)
        r = 0
        for u, v in graph.edges:
            if u != v and ds.union(u, v):
                r += 1
        self._rank = r

    @property
    def ground_set(self) -> tuple:
        return self._ground

    @property
    def rank(self) -> int:
        return self._rank

    def is_independent(self, subset: Iterable[int]) -> bool:
        ds = DisjointSet(self.graph.node_count)
        for e in subset:
            u, v = self.graph.edges[e]
            if u == v or not ds.union(u, v):
                return False
        return True


class OneTreeMatroid:
    """Direct sum of U_2 on the edges at node 0 and the graphic matroid of
    the rest; bases are exactly the 1-trees and have n elements."""

    def __init__(self, n: int, edges: Sequence[EdgeKey]):
        self.n = n
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v})")
        self._ground = tuple(sorted(set(edges)))
        at_zero = sum(1 for u, v in self._ground if u == 0)
        ds = DisjointSet(n)
        forest = 0
        for u, v in self._ground:
            if u != 0 and ds.union(u, v):
                forest += 1
        self._rank = min(2, at_zero) + forest

    @property
    def ground_set(self) -> tuple:
        return self._ground

    @property
    def rank(self) -> int:
        return self._rank

    def is_independent(self, subset: Iterable[EdgeKey]) -> bool:
        at_zero = 0
        ds = DisjointSet(self.n)
        for u, v in subset:
            if u == 0:
                at_zero += 1
                if at_zero > 2:
                    return False
            elif not ds.union(u, v):
                return False
        return True


class PartitionMatroid:
    """At most one element per class; the classes must be disjoint and the
    ground set is their union."""

    def __init__(self, classes: Iterable[Iterable[Element]]):
        self.classes = tuple(frozenset(c) for c in classes)
        ground: set[Element] = set()
        for c in self.classes:
            if ground & c:
                raise ValueError("classes must be disjoint")
            ground |= c
        self._ground = tuple(sorted(ground))
        self._class_of = {e: i for i, c in enumerate(self.classes) for e in c}
        self._rank = sum(1 for c in self.classes if c)

    @property
    def ground_set(self) -> tuple:
        return self._ground

    @property
    def rank(self) -> int:
        return self._rank

    def is_independent(self, subset: Iterable[Element]) -> bool:
        used: set[int] = set()
        for e in subset:
            ci = self._class_of.get(e)
            if ci is None:
                return False
            if ci in used:
                return False
            used.add(ci)
        return True


class ContractedMatroid:
    """Contraction of a matroid by an independent set of forced elements."""

    def __init__(self, base: MatroidOracle, forced: Iterable[Element]):
        self.base = base
        self.forced = frozenset(forced)
        if not self.forced <= set(base.ground_set):
            raise ValueError("forced elements outside ground set")
        if not base.is_independent(self.forced):
            raise ValueError("forced set is dependent")
        self._ground = tuple(e for e in base.ground_set if e not in self.forced)
        self._rank = base.rank - len(self.forced)

    @property
    def ground_set(self) -> tuple:
        return self._ground

    @property
    def rank(self) -> int:
        return self._rank

    def is_independent(self, subset: Iterable[Element]) -> bool:
        sub = set(subset)
        if sub & self.forced:
            return False
        return self.base.is_independent(sub | self.forced)


def weighted_matroid_intersection(
    m1: MatroidOracle, m2: MatroidOracle, cost: dict
) -> list | None:
    """Minimum-cost common basis of two matroids on the same ground set.

    Classic weighted augmentation: grow a common independent set that is
    cheapest for its size, each round augmenting along a shortest source-sink
    path of the exchange graph, where path length is the lexicographic pair
    (cost change, arc count).  Lexicographic Bellman-Ford is safe because an
    extreme common independent set admits no negative-cost cycle.

    Returns None when no common basis exists (including rank mismatch).
    """
    ground1, ground2 = set(m1.ground_set), set(m2.ground_set)
    if ground1 != ground2:
        raise ValueError("ground sets differ")
    target = m1.rank
    if target != m2.rank:
        return None
    ground = sorted(ground1)
    current: set = set()
    while len(current) < target:
        inside = [e for e in ground if e in current]
        outside = [e for e in ground if e not in current]
        sources = []
        sinks = set()
        arcs: dict = {e: [] for e in ground}
        for x in outside:
            if m1.is_independent(current | {x}):
                sources.append(x)
            else:
                for y in inside:
                    if m1.is_independent((current - {y}) | {x}):
                        arcs[y].append(x)
            if m2.is_independent(current | {x}):
                sinks.add(x)
            else:
                for y in inside:
                    if m2.is_independent((current - {y}) | {x}):
                        arcs[x].append(y)

        dist: dict = {}
        parent: dict = {}
        for x in sources:
            dist[x] = (cost[x], 0)
            parent[x] = None
        for round_no in range(len(ground) + 1):
            changed = False
            for u in ground:
                if u not in dist:
                    continue
                du = dist[u]
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
        best = min(reachable, key=lambda t: (dist[t][0], dist[t][1], _sort_token(t)))
        node = best
        while node is not None:
            current ^= {node}
            node = parent[node]
    return sorted(current)


def _sort_token(e) -> tuple:
    return (str(type(e).__name__), repr(e))


@dataclass(frozen=True)
class RainbowOneTree:
    """1-tree using every 1-edge and exactly one edge per matching pair."""

    edges: frozenset[EdgeKey]
    cost: int


def rainbow_one_tree(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> RainbowOneTree:
    """Minimum-cost rainbow 1-tree of a square point; checks x and costs with
    square_point first (see rainbow)."""
    return rainbow(square_point(x, costs))


def rainbow(sp: SquarePoint) -> RainbowOneTree:
    """Minimum-cost rainbow 1-tree of a checked square point.

    The common-basis computation runs with the 1-edges contracted out of both
    matroids: every common basis contains each singleton class, so forcing
    them first is cost-neutral and keeps the exchange graph small.
    """
    x, costs, dec = sp.point, sp.costs, sp.decomposition
    if not dec.squares:
        raise ValueError(DEGENERATE_MSG)
    one_edges = frozenset(e for e in sp.keys if x.support[e] == 2)
    one_tree = OneTreeMatroid(x.n, sp.keys)
    m1 = ContractedMatroid(one_tree, one_edges)
    m2 = PartitionMatroid(dec.pair_partition)
    sol = weighted_matroid_intersection(m1, m2, costs)
    if sol is None:  # pragma: no cover - impossible for feasible square points
        raise RuntimeError("square point admits no rainbow 1-tree")
    edges = frozenset(one_edges | set(sol))
    if len(edges) != x.n or not one_tree.is_independent(edges):
        raise RuntimeError("rainbow selection is not a 1-tree")
    return RainbowOneTree(edges, sum(costs[e] for e in edges))
