"""Minimum-cost Hamiltonian cycles in square graphs.

A square graph is a cubic 2-edge-connected multigraph whose edge set splits
into a perfect matching M and a disjoint union of 4-cycles (squares).  Every
Hamiltonian cycle containing M picks exactly one of the two perfect matchings
of each square, and the traces H & R on a reference set R (one non-matching
edge per square) form a delta-matroid.  That structure is what makes the
greedy choices below optimal; the oracle form of that greedy is kept in
oracles as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graphcore import DisjointSet, MultiGraph, hamiltonian_order, is_connected

__all__ = [
    "SquareGraph",
    "check_square_graph",
    "HamCycle",
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
        for j in range(4):
            e, f = sq[j], sq[(j + 1) % 4]
            if e in sg.matching:
                bad(f"square {si} contains matching edge {e}")
            if len(set(g.edges[e]) & set(g.edges[f])) != 1:
                bad(f"square {si} edges {e},{f} do not chain")
        seen.update(sq)
    non_matching = set(range(g.edge_count)) - set(sg.matching)
    # equal unions alone would let a square be listed twice
    if seen != non_matching or 4 * len(sg.squares) != len(non_matching):
        bad("squares do not partition the non-matching edges")
    # A bridge lies on no square, so it is a matching edge with whole squares
    # on each side; one side would hold 4k nodes of which 4k - 1 are matched
    # among themselves.  So a connected square graph is 2-edge-connected.
    if not is_connected(g):
        bad("graph is not 2-edge-connected")


@dataclass(frozen=True)
class HamCycle:
    """A Hamiltonian cycle: its edges, its node order as hamiltonian_order
    walks it, and its cost.  ham_min_cost names the edges by id in the square
    graph, tour.hamiltonian by key in the point's support."""

    edges: frozenset
    order: tuple[int, ...]
    cost: int


Pairing = tuple[tuple[int, int], tuple[int, int]]


def _split_greedy(
    darts: Sequence[Sequence[int]], choices: Iterable[tuple[Pairing, Pairing]]
) -> list[Sequence[int]]:
    """Split every node of a connected 4-regular multigraph Q into two
    degree-2 nodes, keeping Q connected; returns each dart's pair.

    darts[v] holds node v's four darts (d and d ^ 1 are the ends of one
    edge); choices holds, in settling order, each node's first and second
    pairing.  The first is kept when Q stays connected, else the second,
    which then always does: of a node's three pairings at most one
    disconnects.

    Union-find over Q's edge ids answers these tests in sweeps: a pair joins
    the edges of its two darts, an unsplit node all four.  Call the settled
    nodes the prefix, and let U(k) split the prefix as decided, the unsettled
    nodes before k by their first pairing, and leave the nodes from k on
    unsplit.  The test at node j is U(j + 1).  Unsplitting a node only joins
    parts, so U(k) is connected exactly for k <= i, for one i.  A sweep splits
    every unsettled node by its first pairing, U(n), then unsplits nodes from
    the last down until U(i) connects: nodes before i keep their first pairing
    and node i takes its second; reaching the prefix unconnected means Q is not
    connected.  One sweep per node taking its second pairing, plus one unless
    the last node does, each O(n) unions on a copy of the prefix's union-find.
    """
    size = max(map(max, darts)) + 1
    group: list[Sequence[int]] = [()] * size  # a dart's node, or its pair once split
    for ds in darts:
        for d in ds:
            group[d] = ds
    choices = list(choices)
    n = len(choices)
    settled = DisjointSet((size + 1) // 2)  # the prefix's parts of the edges
    parts = 2 * len(darts)  # Q's edges: both darts of each are at its nodes
    done = 0
    while done < n:
        trial = settled.copy()
        union = trial.union
        left = parts
        for ((a, b), (c, d)), _ in choices[done:]:
            left -= union(a >> 1, b >> 1) + union(c >> 1, d >> 1)
        i = n
        while left > 1:
            i -= 1
            if i < done:
                raise RuntimeError("no matching choice keeps the graph connected")
            (a, _), (c, _) = choices[i][0]
            left -= union(a >> 1, c >> 1)
        for j in range(done, min(i + 1, n)):
            for pair in choices[j][j == i]:
                a, b = pair
                group[a] = group[b] = pair
                if i < n:  # after the last sweep the prefix is not needed
                    parts -= settled.union(a >> 1, b >> 1)
        done = i + 1
    return group


def ham_min_cost(sg: SquareGraph, cost: Sequence[int]) -> HamCycle:
    """Minimum-cost Hamiltonian cycle containing the matching M.

    Squares are settled in order of non-increasing matching cost gap
    |c(m1) - c(m2)| (ties by square index).  Each keeps its cheaper matching
    when the graph, with all unsettled squares intact, stays connected, and
    the other one otherwise, which then always does.  Contracting every
    square gives a 4-regular multigraph Q on the edges M: an intact square is
    an unsplit node of Q, a square left with one matching is its node split
    along the corner pairing of that matching, so the square graph is
    connected exactly when Q is, and _split_greedy decides on Q.  The order
    is hamiltonian_order's; a result that is not one raises RuntimeError.
    """
    check_square_graph(sg)
    if len(cost) != sg.graph.edge_count:
        raise ValueError("cost vector length must equal edge count")
    hedges = _ham_edges(sg, cost)
    order = hamiltonian_order(sg.graph, hedges)
    if order is None:
        raise RuntimeError("HAM is not a Hamiltonian cycle")
    return HamCycle(hedges, tuple(order), sum(cost[e] for e in hedges))


def _ham_edges(sg: SquareGraph, cost: Sequence[int]) -> frozenset[int]:
    """The edge ids of ham_min_cost's cycle, without its checks, for
    contract's square graphs."""
    g = sg.graph
    md = {g.dart_node(d): d for e in sg.matching for d in (2 * e, 2 * e + 1)}  # per corner
    darts, keyed = [], []
    for si, sq in enumerate(sg.squares):
        ends = [g.edges[e] for e in sq]
        p1, p2 = (tuple((md[u], md[v]) for u, v in ends[j::2]) for j in (0, 1))
        darts.append(p1[0] + p1[1])
        c1, c2 = cost[sq[0]] + cost[sq[2]], cost[sq[1]] + cost[sq[3]]
        # the cheaper matching first; ties go to the one with the lowest edge id
        if (c1, min(sq[0], sq[2])) > (c2, min(sq[1], sq[3])):
            p1, p2 = p2, p1
        keyed.append((-abs(c1 - c2), si, (p1, p2)))
    pair = _split_greedy(darts, (choice for *_, choice in sorted(keyed)))
    # a square edge is kept when its corners' matching darts ended up paired
    kept = [e for sq in sg.squares for e in sq if md[g.edges[e][1]] in pair[md[g.edges[e][0]]]]
    return frozenset(sg.matching).union(kept)


def verify_ham(sg: SquareGraph, hedges: frozenset[int]) -> bool:
    """Check that hedges is a Hamiltonian cycle (hamiltonian_order) containing
    M that uses exactly one perfect matching per square."""
    if not sg.matching <= hedges or hamiltonian_order(sg.graph, hedges) is None:
        return False
    for si in range(len(sg.squares)):
        m1, m2 = sg.square_matchings(si)
        chosen = hedges & (m1 | m2)
        if chosen != m1 and chosen != m2:
            return False
    return True
