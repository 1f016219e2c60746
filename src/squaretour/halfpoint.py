"""Half-integer points of the subtour-elimination polytope.

A point on n nodes is stored through its support only: a map from node pairs
to doubled values x2 in {1, 2} (so 1 means x_e = 1/2 and 2 means x_e = 1).
Validation, classification into the square / fractional-cycle families, and
the contraction of 1-paths down to a square graph all live here.
square_point(x, costs) checks a point once and is the one way into the
pipeline: every later stage (contract here, tour.hamiltonian,
treesel.rainbow) takes the SquarePoint it returns.  Inside the pipeline a
support edge is named by its id, the index of its key in sorted order;
edge keys appear only in the input and in the stages' results.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

from .deltamatroid import SquareGraph
from .graphcore import MultiGraph, Reduction, WeightedGraph, cut_labels, cycles, global_min_cut
from .graphcore import series_reduced

__all__ = [
    "EdgeKey",
    "HalfIntegerPoint",
    "SubtourReport",
    "PointClass",
    "SquarePoint",
    "edge_key",
    "support_graph",
    "validate_subtour",
    "validate_and_classify",
    "square_point",
    "contract",
]

EdgeKey = tuple[int, int]


DEGENERATE_MSG = "integral point; tour is the 1-edge cycle"


def _integral(value: object) -> bool:
    """An integer, numpy's included; the type test spares the slow
    isinstance call for a plain int."""
    return type(value) is int or isinstance(value, Integral)


def edge_key(u: int, v: int) -> EdgeKey:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class HalfIntegerPoint:
    """Support of a half-integer vector indexed by node pairs.

    n: number of nodes (ids 0..n-1).
    support: edge key (u, v) with u < v  ->  doubled value in {1, 2}.
    n, the node ids and the doubled values must be integers (numpy's
    pass) and are stored as Python ints.
    """

    n: int
    support: dict[EdgeKey, int]

    def __post_init__(self):
        if not _integral(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        clean: dict[EdgeKey, int] = {}
        for (u, v), x2 in sorted(self.support.items()):
            if not (_integral(u) and _integral(v) and 0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
            if not _integral(x2) or x2 not in (1, 2):
                raise ValueError(f"doubled value must be 1 or 2, got {x2} on ({u}, {v})")
            clean[(int(u), int(v))] = int(x2)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "support", clean)

    def half_edges(self) -> list[EdgeKey]:
        return [e for e, x2 in self.support.items() if x2 == 1]

    def one_edges(self) -> list[EdgeKey]:
        return [e for e, x2 in self.support.items() if x2 == 2]

    def cost_x2(self, costs: dict[EdgeKey, int]) -> int:
        """Doubled objective value: sum of cost * x2 over the support, in
        Python ints, so that numpy integer costs cannot overflow."""
        return sum(operator.index(costs[e]) * x2 for e, x2 in self.support.items())


def support_graph(x: HalfIntegerPoint) -> MultiGraph:
    """The support as a MultiGraph; edge id i is the i-th key in sorted
    order, so g.edges lists the keys, as x.support stores them."""
    return MultiGraph(x.n, x.support)


@dataclass(frozen=True)
class SubtourReport:
    """Outcome of validate_subtour; truthy iff the point is feasible.

    reason is one of "ok", "degree", "disconnected", "cut"; node carries the
    offending node for degree violations.  A "cut" report keeps the support
    with its x2 weights, and cut_side / cut_value_x2 give a violated cut
    (doubled value < 4), which Stoer-Wagner finds the first time either is
    read; they are None for any other reason.  A feasible report keeps the
    support graph, so later stages reuse it instead of building it again.
    """

    ok: bool
    reason: str = "ok"
    node: int | None = None
    support: MultiGraph | None = field(default=None, repr=False, compare=False)
    weighted: WeightedGraph | None = field(default=None, repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.ok

    @cached_property
    def _min_cut(self) -> tuple[int | None, frozenset[int] | None]:
        return global_min_cut(self.weighted) if self.weighted else (None, None)

    cut_value_x2 = property(lambda self: self._min_cut[0])
    cut_side = property(lambda self: self._min_cut[1])

    def witness(self) -> str:
        if self.ok:
            return "ok"
        if self.reason == "degree":
            return f"degree node={self.node}"
        if self.reason == "disconnected":
            return "support disconnected"
        side = ",".join(str(v) for v in sorted(self.cut_side or ()))
        return f"cut S={{{side}}} x2={self.cut_value_x2}"


def validate_subtour(x: HalfIntegerPoint) -> SubtourReport:
    """Check degree-2 equalities and all cut constraints, exactly.

    Doubled, every degree must be 4 and every cut at least 4.  Once the
    degrees hold, x2(delta(S)) = 4|S| - 2 x2(E(S)) is even, so a
    connected support violates a cut iff one 1-edge (a bridge) or two
    1/2-edges make up a whole cut, which cut_labels finds in linear time
    (Pritchard & Thurimella, ACM Trans. Algorithms 7(4), 2011).  No min cut
    runs here: the report cuts its support only when its witness is read."""
    # the support touches at most 2|support| nodes, so when n is larger an
    # untouched node, and thus the first failing one, lies below this bound
    top = min(x.n, 2 * len(x.support) + 1)
    deg = [0] * top
    for (u, v), x2 in x.support.items():
        if u < top:
            deg[u] += x2
        if v < top:
            deg[v] += x2
    for v, d in enumerate(deg):
        if d != 4:
            return SubtourReport(False, "degree", node=v)
    g = support_graph(x)
    labels = cut_labels(g)
    if labels is None:
        return SubtourReport(False, "disconnected")
    halves = [a for a, x2 in zip(labels, x.support.values()) if x2 == 1]
    if 0 in labels or len(set(halves)) < len(halves):
        weighted = WeightedGraph._checked(g, tuple(x.support.values()))  # x2 by edge id
        return SubtourReport(False, "cut", weighted=weighted)
    return SubtourReport(True, support=g)


class PointClass(enum.Enum):
    SQUARE = "SQUARE"
    BOYD_CARR = "BOYD-CARR"
    CARR_VEMPALA = "CARR-VEMPALA"
    OTHER_HALF_INTEGER = "HALF-INTEGER"


SQUARE_CLASSES = (PointClass.SQUARE, PointClass.BOYD_CARR)

Walk = tuple[list[int], list[int]]  # a cycle's edge ids and nodes in walk order


def _checked(x: HalfIntegerPoint) -> tuple[SubtourReport, PointClass | None, list[Walk] | None]:
    """One validation pass and, for a feasible point, one walk of the
    1/2-edges: the report, the class and the walks of the 1/2-edge cycles.

    A feasible point has even 1/2-degree everywhere, so the 1/2-edges form
    node-disjoint cycles unless some node has four of them.
    """
    report = validate_subtour(x)
    if not report:
        return report, None, None
    g = report.support
    half = cycles(g, [e for e, x2 in enumerate(x.support.values()) if x2 == 1])
    cls = PointClass.OTHER_HALF_INTEGER
    if half is not None:
        if all(len(edges) == 4 for edges, _ in half):
            # squares on all n nodes: cubic support, one 1-edge per node
            cls = PointClass.BOYD_CARR if 4 * len(half) == x.n else PointClass.SQUARE
        elif len(half) == 1 and len(half[0][0]) == x.n:
            cls = PointClass.CARR_VEMPALA
    return report, cls, half


def validate_and_classify(x: HalfIntegerPoint) -> tuple[SubtourReport, PointClass | None]:
    """validate_subtour and, for a feasible point, its most specific class,
    in one validation pass; the class is None for an infeasible point.

    SQUARE: 1/2-edges decompose into node-disjoint 4-cycles (vacuously for an
    integral cycle); BOYD-CARR additionally has cubic support with exactly one
    1-edge per node; CARR-VEMPALA: the 1/2-edges form a single cycle through
    all nodes.  On n = 4 both square and fractional-cycle conditions can hold
    at once and the square class wins.
    """
    report, cls, _ = _checked(x)
    return report, cls


@dataclass(frozen=True)
class SquarePoint:
    """A feasible square point with a nonnegative integer cost on every
    support edge, as square_point checked it.

    graph is the support with edge id i for keys[i] (keys sorted), as
    validation built it, weighted carries the costs on the graph and
    reduction its series reduction, which keeps node 0 on a point without
    squares.  Every edge is named by its id: squares holds the four edge ids
    of each 1/2-edge 4-cycle in cyclic order from its lowest edge, the
    squares in order of their lowest node.  The pipeline stages take this
    object, so a point is validated once however many stages use it.
    """

    point: HalfIntegerPoint
    graph: MultiGraph
    reduction: Reduction
    squares: tuple[tuple[int, int, int, int], ...]
    weighted: WeightedGraph

    @property
    def keys(self) -> tuple[EdgeKey, ...]:
        """The sorted support keys, keys[i] the ends of edge id i."""
        return self.graph.edges

    @property
    def pair_partition(self) -> tuple[frozenset[int], ...]:
        """The two perfect matchings of every square, in square order, the
        matching containing the square's lowest edge first."""
        return tuple(frozenset(sq[i::2]) for sq in self.squares for i in (0, 1))


def square_point(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> SquarePoint:
    """Every check the pipeline needs, run once: x is feasible (one subtour
    validation), x is a square point, and every support edge has a
    nonnegative integer cost, raising ValueError at the first that fails."""
    report, cls, half = _checked(x)
    if cls is None:
        raise ValueError(f"not a feasible point: {report.witness()}")
    if cls not in SQUARE_CLASSES:
        raise ValueError("not a square point")
    weight = []
    for e in x.support:  # in key order, so weight[i] is edge id i's cost
        c = costs.get(e)
        if c is None:
            raise ValueError(f"missing cost for edge {e}")
        if not _integral(c):
            raise ValueError(f"cost on edge {e} must be an integer")
        if c < 0:
            raise ValueError(f"negative cost on edge {e}")
        weight.append(int(c))
    g = report.support
    weighted = WeightedGraph._checked(g, tuple(weight))
    red = series_reduced(weighted, () if half else (0,))
    return SquarePoint(x, g, red, tuple(tuple(edges) for edges, _ in half), weighted)


def contract(sp: SquarePoint) -> tuple[SquareGraph, tuple[int, ...]]:
    """Contract 1-paths of a checked square point into matching edges.

    The square graph is the series-reduced support: every 1-path becomes a
    single matching edge joining its two square corners, and square edges
    stay.  Returns it with each edge's cost, the summed cost of its chain in
    sp.reduction.chains.  Requires at least one square: an integral point
    has no square graph.  A feasible point with a square has no closed
    1-cycle, which would be a component of its own.
    """
    if not sp.squares:
        raise ValueError(DEGENERATE_MSG)
    reduced = sp.reduction.weighted
    # square corners have degree 3, so each square edge is a chain of its own
    sq_ids = tuple(tuple(sp.reduction.chain_of[e] for e in sq) for sq in sp.squares)
    matching = frozenset(range(reduced.graph.edge_count)) - {e for sq in sq_ids for e in sq}
    return SquareGraph(reduced.graph, matching, sq_ids), reduced.weight
