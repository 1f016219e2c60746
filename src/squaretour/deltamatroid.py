"""Minimum-cost Hamiltonian cycles in square graphs.

A square graph is a cubic 2-edge-connected multigraph whose edge set splits
into a perfect matching M and a disjoint union of 4-cycles (squares).  Every
Hamiltonian cycle containing M picks exactly one of the two perfect matchings
of each square, and the traces H & R on a reference set R (one non-matching
edge per square) form a delta-matroid.  That structure is what makes the
greedy choices below optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Protocol, Sequence

from .graphcore import MultiGraph, connected_without, is_two_edge_connected, walk_cycle

__all__ = [
    "SquareGraph",
    "check_square_graph",
    "HamCycle",
    "DeltaMatroidOracle",
    "SquareDeltaMatroid",
    "ExplicitDeltaMatroid",
    "greedy",
    "ham_min_cost",
    "verify_ham",
]


@dataclass(frozen=True)
class SquareGraph:
    """Cubic multigraph split into a perfect matching and disjoint squares.

    squares holds, per square, its four edge ids in cyclic order: edge
    squares[i][j] shares one endpoint with squares[i][(j+1) % 4].  The two
    perfect matchings of a square pair opposite edges, (0, 2) and (1, 3).
    """

    graph: MultiGraph
    matching: frozenset[int]
    squares: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def reference(self) -> tuple[int, ...]:
        """One canonical non-matching edge per square: its lowest edge id."""
        return tuple(min(sq) for sq in self.squares)

    @cached_property
    def square_of(self) -> dict[int, int]:
        return {e: si for si, sq in enumerate(self.squares) for e in sq}

    def square_matchings(self, si: int) -> tuple[frozenset[int], frozenset[int]]:
        sq = self.squares[si]
        return frozenset((sq[0], sq[2])), frozenset((sq[1], sq[3]))

    def matching_with(self, r: int) -> frozenset[int]:
        """The perfect matching of r's square that contains r."""
        m1, m2 = self.square_matchings(self.square_of[r])
        return m1 if r in m1 else m2

    def matching_without(self, r: int) -> frozenset[int]:
        m1, m2 = self.square_matchings(self.square_of[r])
        return m2 if r in m1 else m1


def check_square_graph(sg: SquareGraph) -> None:
    """Raise ValueError("not a square graph: ...") on any broken invariant."""

    def bad(msg: str):
        raise ValueError(f"not a square graph: {msg}")

    g = sg.graph
    for v in range(g.node_count):
        if g.degree(v) != 3:
            bad(f"node {v} has degree {g.degree(v)}, want 3")
    m_darts = [0] * g.node_count
    for e in sg.matching:
        if not (0 <= e < g.edge_count):
            bad(f"matching edge id {e} out of range")
        u, v = g.edges[e]
        if u == v:
            bad(f"matching edge {e} is a loop")
        m_darts[u] += 1
        m_darts[v] += 1
    for v in range(g.node_count):
        if m_darts[v] != 1:
            bad(f"matching covers node {v} {m_darts[v]} times")
    seen: set[int] = set()
    for si, sq in enumerate(sg.squares):
        if len(set(sq)) != 4:
            bad(f"square {si} repeats an edge id")
        corners: list[int] = []
        for j in range(4):
            e, f = sq[j], sq[(j + 1) % 4]
            if e in sg.matching:
                bad(f"square {si} contains matching edge {e}")
            shared = set(g.edges[e]) & set(g.edges[f])
            if len(shared) != 1:
                bad(f"square {si} edges {e},{f} do not chain")
            corners.append(next(iter(shared)))
        if len(set(corners)) != 4:
            bad(f"square {si} is not a 4-cycle on distinct nodes")
        seen.update(sq)
    non_matching = set(range(g.edge_count)) - set(sg.matching)
    if seen != non_matching:
        bad("squares do not partition the non-matching edges")
    if not is_two_edge_connected(g):
        bad("graph is not 2-edge-connected")


@dataclass(frozen=True)
class HamCycle:
    edges: frozenset[int]
    node_order: tuple[int, ...]
    cost: int


class DeltaMatroidOracle(Protocol):
    """Extendability oracle for a delta-matroid over a finite ground set.

    query(include, exclude) answers whether some member D of the family
    satisfies D >= include and D & exclude == empty.
    """

    @property
    def ground_set(self) -> tuple[int, ...]: ...

    def query(self, include: Iterable[int], exclude: Iterable[int]) -> bool: ...


class ExplicitDeltaMatroid:
    """Oracle backed by an explicit set family; intended for tests."""

    def __init__(self, ground: Iterable[int], family: Iterable[Iterable[int]]):
        self._ground = tuple(sorted(ground))
        gs = set(self._ground)
        fam = []
        for member in family:
            member = frozenset(member)
            if not member <= gs:
                raise ValueError("family member outside ground set")
            fam.append(member)
        self.family = tuple(fam)

    @property
    def ground_set(self) -> tuple[int, ...]:
        return self._ground

    def query(self, include: Iterable[int], exclude: Iterable[int]) -> bool:
        inc, exc = frozenset(include), frozenset(exclude)
        return any(inc <= d and not (exc & d) for d in self.family)


class SquareDeltaMatroid:
    """Oracle for the family {H & R : H Hamiltonian cycle containing M}.

    The feasibility test forces the matching containing r for r in include,
    the matching avoiding r for r in exclude, checks connectivity with all
    free squares left intact, and then settles the free squares one by one,
    each time keeping a matching that preserves connectivity (one always
    exists once the forced graph is connected).
    """

    def __init__(self, sg: SquareGraph):
        check_square_graph(sg)
        self.sg = sg

    @property
    def ground_set(self) -> tuple[int, ...]:
        return self.sg.reference

    def query(self, include: Iterable[int], exclude: Iterable[int]) -> bool:
        sg = self.sg
        inc, exc = frozenset(include), frozenset(exclude)
        allowed = set(sg.reference)
        if not (inc <= allowed and exc <= allowed):
            raise ValueError("query outside the reference set")
        if inc & exc:
            return False
        removed: set[int] = set()
        forced: set[int] = set()
        for r in inc:
            removed |= sg.matching_without(r)
            forced.add(sg.square_of[r])
        for r in exc:
            removed |= sg.matching_with(r)
            forced.add(sg.square_of[r])
        if not connected_without(sg.graph, frozenset(removed)):
            return False
        for si in range(len(sg.squares)):
            if si in forced:
                continue
            m1, m2 = sg.square_matchings(si)
            if connected_without(sg.graph, frozenset(removed | m2)):
                removed |= m2
            elif connected_without(sg.graph, frozenset(removed | m1)):
                removed |= m1
            else:  # pragma: no cover - contradicts the exchange structure
                raise RuntimeError("no matching choice keeps the graph connected")
        return True


def greedy(oracle: DeltaMatroidOracle, cost: dict[int, int]) -> frozenset[int]:
    """Minimum-cost member of a delta-matroid via extendability queries.

    Elements are scanned by decreasing |cost| (ties by ascending element id).
    A nonpositive element is taken if some member allows it, a positive one is
    avoided if some member allows that; the final include set is optimal.
    """
    if not oracle.query((), ()):
        raise ValueError("empty delta-matroid")
    include: set[int] = set()
    exclude: set[int] = set()
    for e in sorted(oracle.ground_set, key=lambda e: (-abs(cost[e]), e)):
        if cost[e] <= 0:
            if oracle.query(include | {e}, exclude):
                include.add(e)
            else:
                exclude.add(e)
        else:
            if oracle.query(include, exclude | {e}):
                exclude.add(e)
            else:
                include.add(e)
    return frozenset(include)


def ham_min_cost(sg: SquareGraph, cost: Sequence[int]) -> HamCycle:
    """Minimum-cost Hamiltonian cycle containing the matching M.

    Squares are settled in order of non-increasing matching cost gap
    |c(m1) - c(m2)| (ties by square index).  For each square the cheaper
    matching is kept when deleting the other leaves the graph, with all
    unsettled squares still intact, connected; otherwise the choice is
    forced.  One of the two deletions always preserves connectivity.
    """
    check_square_graph(sg)
    g = sg.graph
    if len(cost) != g.edge_count:
        raise ValueError("cost vector length must equal edge count")

    def mcost(m: frozenset[int]) -> int:
        return sum(cost[e] for e in m)

    gaps = []
    for si in range(len(sg.squares)):
        m1, m2 = sg.square_matchings(si)
        gaps.append(abs(mcost(m1) - mcost(m2)))
    removed: set[int] = set()
    for si in sorted(range(len(sg.squares)), key=lambda i: (-gaps[i], i)):
        m1, m2 = sg.square_matchings(si)
        if (mcost(m1), sorted(m1)) <= (mcost(m2), sorted(m2)):
            first, second = m1, m2
        else:
            first, second = m2, m1
        if connected_without(g, frozenset(removed | second)):
            removed |= second
        elif connected_without(g, frozenset(removed | first)):
            removed |= first
        else:  # pragma: no cover - contradicts the exchange structure
            raise RuntimeError("no matching choice keeps the graph connected")
    hedges = frozenset(range(g.edge_count)) - removed
    # canonical order: from node 0 along its lower-id cycle edge
    first = next(d >> 1 for d in g.darts_at(0) if d >> 1 in hedges)
    _, order = walk_cycle(g, hedges, 0, first)
    return HamCycle(hedges, tuple(order), sum(cost[e] for e in hedges))


def verify_ham(sg: SquareGraph, hedges: frozenset[int]) -> bool:
    """Check that hedges is a Hamiltonian cycle containing M that uses exactly
    one perfect matching per square."""
    g = sg.graph
    if not sg.matching <= hedges:
        return False
    deg = [0] * g.node_count
    for e in hedges:
        u, v = g.edges[e]
        if u == v:
            return False
        deg[u] += 1
        deg[v] += 1
    if any(d != 2 for d in deg):
        return False
    outside = frozenset(range(g.edge_count)) - hedges
    if not connected_without(g, outside):
        return False
    for si in range(len(sg.squares)):
        m1, m2 = sg.square_matchings(si)
        chosen = hedges & (m1 | m2)
        if chosen != m1 and chosen != m2:
            return False
    return True
