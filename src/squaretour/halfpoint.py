"""Half-integer points of the subtour-elimination polytope.

A point on n nodes is stored through its support only: a map from node pairs
to doubled values x2 in {1, 2} (so 1 means x_e = 1/2 and 2 means x_e = 1).
Validation, classification into the square / fractional-cycle families, and
the contraction of 1-paths down to a square graph all live here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .deltamatroid import SquareGraph
from .graphcore import MultiGraph, WeightedGraph, global_min_cut, is_connected

__all__ = [
    "EdgeKey",
    "HalfIntegerPoint",
    "SubtourReport",
    "PointClass",
    "SquareCycle",
    "OnePath",
    "SupportDecomposition",
    "SquarePoint",
    "ContractedPoint",
    "edge_key",
    "support_graph",
    "validate_subtour",
    "validate_and_classify",
    "classify",
    "decompose",
    "square_point",
    "contract_one_paths",
]

EdgeKey = tuple[int, int]

DEGENERATE_MSG = "integral point; tour is the 1-edge cycle"


def edge_key(u: int, v: int) -> EdgeKey:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class HalfIntegerPoint:
    """Support of a half-integer vector indexed by node pairs.

    n: number of nodes (ids 0..n-1).
    support: edge key (u, v) with u < v  ->  doubled value in {1, 2}.
    """

    n: int
    support: dict[EdgeKey, int]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        clean: dict[EdgeKey, int] = {}
        for (u, v), x2 in sorted(self.support.items()):
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
            if x2 not in (1, 2):
                raise ValueError(f"doubled value must be 1 or 2, got {x2} on ({u}, {v})")
            clean[(u, v)] = x2
        object.__setattr__(self, "support", clean)

    def half_edges(self) -> list[EdgeKey]:
        return [e for e, x2 in self.support.items() if x2 == 1]

    def one_edges(self) -> list[EdgeKey]:
        return [e for e, x2 in self.support.items() if x2 == 2]

    def cost_x2(self, costs: dict[EdgeKey, int]) -> int:
        """Doubled objective value: sum of cost * x2 over the support."""
        return sum(costs[e] * x2 for e, x2 in self.support.items())


def support_graph(x: HalfIntegerPoint) -> tuple[MultiGraph, list[EdgeKey]]:
    """The support as a MultiGraph; edge id i corresponds to the i-th key."""
    keys = sorted(x.support)
    return MultiGraph(x.n, keys), keys


@dataclass(frozen=True)
class SubtourReport:
    """Outcome of validate_subtour; truthy iff the point is feasible.

    reason is one of "ok", "degree", "disconnected", "cut"; node carries the
    offending node for degree violations, cut_side / cut_value_x2 carry a
    violated cut (doubled value < 4).
    """

    ok: bool
    reason: str = "ok"
    node: int | None = None
    cut_side: frozenset[int] | None = None
    cut_value_x2: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def witness(self) -> str:
        if self.ok:
            return "ok"
        if self.reason == "degree":
            return f"degree node={self.node}"
        if self.reason == "disconnected":
            return "support disconnected"
        side = ",".join(str(v) for v in sorted(self.cut_side or ()))
        return f"cut S={{{side}}} x2={self.cut_value_x2}"


def _series_reduced(wg: WeightedGraph) -> WeightedGraph:
    """Suppress every node of degree 2: a-v-b becomes one a-b edge of weight
    min(w_av, w_vb), the series rule of Padberg & Rinaldi (Math. Prog. 47,
    1990).  Every cut separating two kept nodes keeps its minimum value."""
    g = wg.graph
    kept = [v for v in range(g.node_count) if g.degree(v) != 2]
    new = [-1] * g.node_count
    for i, v in enumerate(kept):
        new[v] = i
    used = bytearray(g.edge_count)
    edges: list[tuple[int, int]] = []
    weight: list[int] = []
    for a in kept:
        for d in g.darts_at(a):
            if used[d >> 1]:
                continue
            used[d >> 1] = 1
            w = wg.weight[d >> 1]
            v = g.dart_other_node(d)
            while new[v] < 0:
                d1, d2 = g.darts_at(v)
                d = d2 if d1 >> 1 == d >> 1 else d1
                used[d >> 1] = 1
                w = min(w, wg.weight[d >> 1])
                v = g.dart_other_node(d)
            edges.append((new[a], new[v]))
            weight.append(w)
    return WeightedGraph(MultiGraph(len(kept), edges), tuple(weight))


def validate_subtour(x: HalfIntegerPoint) -> SubtourReport:
    """Check degree-2 equalities and all cut constraints, exactly.

    Degrees are doubled (must equal 4 at every node); the cut condition
    x(delta(S)) >= 2 becomes a doubled global min cut of at least 4, computed
    by Stoer-Wagner.  Once the degrees hold, a node of support degree 2 has
    two 1-edges, so every cut that no series-reduced cut covers is worth at
    least 4: the reduced support has a cut below 4 exactly when the support
    has one.  Only then is the full support cut, for the witness.
    """
    deg = [0] * x.n
    for (u, v), x2 in x.support.items():
        deg[u] += x2
        deg[v] += x2
    for v in range(x.n):
        if deg[v] != 4:
            return SubtourReport(False, "degree", node=v)
    g, keys = support_graph(x)
    if not is_connected(g):
        return SubtourReport(False, "disconnected")
    wg = WeightedGraph(g, tuple(x.support[k] for k in keys))
    reduced = _series_reduced(wg)
    if reduced.graph.node_count >= 2 and global_min_cut(reduced)[0] < 4:
        val, side = global_min_cut(wg)
        return SubtourReport(False, "cut", cut_side=side, cut_value_x2=val)
    return SubtourReport(True)


class PointClass(enum.Enum):
    SQUARE = "SQUARE"
    BOYD_CARR = "BOYD-CARR"
    CARR_VEMPALA = "CARR-VEMPALA"
    OTHER_HALF_INTEGER = "HALF-INTEGER"

    @property
    def label(self) -> str:
        return self.value


SQUARE_CLASSES = (PointClass.SQUARE, PointClass.BOYD_CARR)

Chain = tuple[tuple[int, ...], bool]


def _chains(edges: Iterable[EdgeKey]) -> list[Chain] | None:
    """Maximal paths, then cycles, of the simple graph on the given edges, as
    (nodes, closed) pairs; None if some node has degree above 2.  A path
    starts at its lower end, a cycle at its lowest node and heads to that
    node's lower neighbour."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nb) > 2 for nb in adj.values()):
        return None
    chains: list[Chain] = []
    seen: set[int] = set()
    for closed in (False, True):
        for start in sorted(adj):
            if start in seen or (len(adj[start]) == 2) != closed:
                continue
            nodes = [start]
            seen.add(start)
            prev, cur = start, min(adj[start])
            while cur != start:
                nodes.append(cur)
                seen.add(cur)
                nb = adj[cur]
                if len(nb) == 1:
                    break
                prev, cur = cur, (nb[1] if nb[0] == prev else nb[0])
            chains.append((tuple(nodes), closed))
    return chains


def _checked(x: HalfIntegerPoint) -> tuple[SubtourReport, PointClass | None, list[Chain] | None]:
    """One validation pass and, for a feasible point, one walk of the
    1/2-edges: the report, the class and the 1/2-edge cycles.

    A feasible point has even 1/2-degree everywhere, so the 1/2-edges form
    node-disjoint cycles unless some node has four of them.
    """
    report = validate_subtour(x)
    if not report:
        return report, None, None
    cycles = _chains(x.half_edges())
    cls = PointClass.OTHER_HALF_INTEGER
    if cycles is not None:
        if all(len(nodes) == 4 for nodes, _ in cycles):
            # squares on all n nodes: cubic support, one 1-edge per node
            cls = PointClass.BOYD_CARR if 4 * len(cycles) == x.n else PointClass.SQUARE
        elif len(cycles) == 1 and len(cycles[0][0]) == x.n:
            cls = PointClass.CARR_VEMPALA
    return report, cls, cycles


def _classified(x: HalfIntegerPoint) -> tuple[PointClass, list[Chain] | None]:
    report, cls, cycles = _checked(x)
    if cls is None:
        raise ValueError(f"not a feasible point: {report.witness()}")
    return cls, cycles


def validate_and_classify(x: HalfIntegerPoint) -> tuple[SubtourReport, PointClass | None]:
    """validate_subtour and, for a feasible point, classify, in one
    validation pass; the class is None for an infeasible point."""
    report, cls, _ = _checked(x)
    return report, cls


def classify(x: HalfIntegerPoint) -> PointClass:
    """Most specific class of a feasible point.

    SQUARE: 1/2-edges decompose into node-disjoint 4-cycles (vacuously for an
    integral cycle); BOYD-CARR additionally has cubic support with exactly one
    1-edge per node; CARR-VEMPALA: the 1/2-edges form a single cycle through
    all nodes.  On n = 4 both square and fractional-cycle conditions can hold
    at once and the square class wins.
    """
    return _classified(x)[0]


@dataclass(frozen=True)
class SquareCycle:
    """A 4-cycle of 1/2-edges.  nodes are cyclic; edges[i] joins nodes[i] and
    nodes[(i+1) % 4].  The two perfect matchings pair opposite edges."""

    nodes: tuple[int, int, int, int]
    edges: tuple[EdgeKey, EdgeKey, EdgeKey, EdgeKey] = field(init=False)

    def __post_init__(self):
        ks = tuple(
            edge_key(self.nodes[i], self.nodes[(i + 1) % 4]) for i in range(4)
        )
        object.__setattr__(self, "edges", ks)

    @property
    def matchings(self) -> tuple[frozenset[EdgeKey], frozenset[EdgeKey]]:
        return (
            frozenset((self.edges[0], self.edges[2])),
            frozenset((self.edges[1], self.edges[3])),
        )


@dataclass(frozen=True)
class OnePath:
    """Maximal path (or, in the degenerate integral case, cycle) of 1-edges."""

    nodes: tuple[int, ...]
    closed: bool = False

    @property
    def edges(self) -> tuple[EdgeKey, ...]:
        ks = [edge_key(self.nodes[i], self.nodes[i + 1]) for i in range(len(self.nodes) - 1)]
        if self.closed:
            ks.append(edge_key(self.nodes[-1], self.nodes[0]))
        return tuple(ks)


@dataclass(frozen=True)
class SupportDecomposition:
    squares: tuple[SquareCycle, ...]
    one_paths: tuple[OnePath, ...]
    pair_partition: tuple[frozenset[EdgeKey], ...]


def decompose(x: HalfIntegerPoint) -> SupportDecomposition:
    """Squares, 1-paths, and the pair partition of a square point.

    The pair partition holds the two perfect matchings of every square, in
    square order, matching containing the square's lowest edge first.
    """
    cls, cycles = _classified(x)
    if cls not in SQUARE_CLASSES:
        raise ValueError("not a square point")
    squares = tuple(SquareCycle(nodes) for nodes, _ in cycles)
    paths = tuple(OnePath(nodes, closed) for nodes, closed in _chains(x.one_edges()))
    pairs = tuple(m for sq in squares for m in sq.matchings)
    return SupportDecomposition(squares, paths, pairs)


@dataclass(frozen=True)
class SquarePoint:
    """A feasible square point with a nonnegative cost on every support edge,
    as square_point checked it.

    graph is the support with edge id i for keys[i] (keys sorted); weighted
    carries the costs on it.  The pipeline stages take this object, so a
    point is validated once however many stages use it.
    """

    point: HalfIntegerPoint
    costs: dict[EdgeKey, int]
    decomposition: SupportDecomposition
    graph: MultiGraph
    keys: tuple[EdgeKey, ...]

    @cached_property
    def weighted(self) -> WeightedGraph:
        return WeightedGraph(self.graph, tuple(self.costs[k] for k in self.keys))


def square_point(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> SquarePoint:
    """Every check the pipeline needs, run once: x is feasible (one subtour
    validation), x is a square point, and every support edge has a
    nonnegative cost."""
    dec = decompose(x)
    for e in x.support:
        c = costs.get(e)
        if c is None:
            raise ValueError(f"missing cost for edge {e}")
        if c < 0:
            raise ValueError(f"negative cost on edge {e}")
    g, keys = support_graph(x)
    return SquarePoint(x, costs, dec, g, tuple(keys))


@dataclass(frozen=True)
class ContractedPoint:
    """Square graph obtained by contracting every 1-path to a single edge.

    corner_orig[i] is the original node id of square-graph node i, expansion
    maps each matching edge id to the full original node path it replaced
    (endpoints included, oriented from the edge's first endpoint).
    """

    square_graph: SquareGraph
    cost: tuple[int, ...]
    corner_orig: tuple[int, ...]
    expansion: dict[int, tuple[int, ...]]


def contract_one_paths(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> ContractedPoint:
    """Contract 1-paths of a square point into matching edges; checks x and
    costs with square_point first (see contract)."""
    return contract(square_point(x, costs))


def contract(sp: SquarePoint) -> ContractedPoint:
    """Contract 1-paths of a checked square point into matching edges.

    Every 1-path is replaced by a single edge of summed cost joining its two
    square corners; square edges keep their own costs.  Requires at least one
    square: an integral point has no square graph.  A feasible point with a
    square has no closed 1-cycle, which would be a component of its own.
    """
    dec, costs = sp.decomposition, sp.costs
    if not dec.squares:
        raise ValueError(DEGENERATE_MSG)

    corner_orig: list[int] = []
    corner_new: dict[int, int] = {}
    for sq in dec.squares:
        for v in sq.nodes:
            corner_new[v] = len(corner_orig)
            corner_orig.append(v)

    edges: list[tuple[int, int]] = []
    cost: list[int] = []
    squares_new: list[tuple[int, int, int, int]] = []
    for si, sq in enumerate(dec.squares):
        base = 4 * si
        squares_new.append((base, base + 1, base + 2, base + 3))
        for j in range(4):
            u, v = sq.nodes[j], sq.nodes[(j + 1) % 4]
            edges.append((base + j, base + (j + 1) % 4))
            cost.append(costs[edge_key(u, v)])

    expansion: dict[int, tuple[int, ...]] = {}
    def path_sort_key(p: OnePath) -> tuple[int, int]:
        a, b = corner_new[p.nodes[0]], corner_new[p.nodes[-1]]
        return (min(a, b), max(a, b))

    for p in sorted(dec.one_paths, key=path_sort_key):
        a, b = corner_new[p.nodes[0]], corner_new[p.nodes[-1]]
        nodes = p.nodes if a <= b else tuple(reversed(p.nodes))
        eid = len(edges)
        edges.append((min(a, b), max(a, b)))
        cost.append(sum(costs[e] for e in p.edges))
        expansion[eid] = nodes

    graph = MultiGraph(len(corner_orig), edges)
    matching = frozenset(range(4 * len(dec.squares), len(edges)))
    sg = SquareGraph(graph, matching, tuple(squares_new))
    return ContractedPoint(sg, tuple(cost), tuple(corner_orig), expansion)
