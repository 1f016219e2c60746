"""Independent exact oracles used to check the fast algorithms.

Everything here is deliberately brute force (or a textbook exponential DP,
or the textbook delta-matroid greedy over an extendability oracle) and
shares no code path with the algorithms under test, except dense_t_join,
the plain T-join that pins min_t_join's edge set.  Hard size caps raise
SizeCapError rather than grind forever.
"""

from __future__ import annotations

from itertools import product
from operator import index
from typing import Iterable, Protocol, Sequence

from .deltamatroid import SquareGraph, check_square_graph
from .graphcore import DisjointSet, WeightedGraph, connected_without, path_edges_to
from .graphcore import shortest_paths_from
from .halfpoint import EdgeKey, HalfIntegerPoint, square_point
from .tjoin import min_weight_perfect_matching

__all__ = [
    "SizeCapError",
    "held_karp",
    "brute_ham",
    "brute_t_join",
    "dense_t_join",
    "brute_rainbow",
    "brute_cuts",
    "DeltaMatroidOracle",
    "ExplicitDeltaMatroid",
    "SquareDeltaMatroid",
    "greedy",
]

HELD_KARP_CAP = 24
BRUTE_HAM_CAP = 20
BRUTE_T_JOIN_CAP = 18
BRUTE_RAINBOW_CAP = 6
BRUTE_CUTS_CAP = 12


class SizeCapError(ValueError):
    """Input exceeds the hard size cap of an exact engine."""


def held_karp(d: Sequence[Sequence[int]]) -> int:
    """Exact TSP value on nodes 0..n-1 with the n x n distance matrix d.

    Bitmask DP over subsets of 1..n-1, vectorized per popcount layer in
    blocks of 2^14 masks, so temporaries stay small next to the table.  The
    table dtype shrinks to uint16 or int32 above 21 nodes, where an int64
    table would not fit in memory.  Distances whose tour bound n * max d
    does not fit the table raise SizeCapError, non-integers TypeError.
    """
    n = len(d)
    if n > HELD_KARP_CAP:
        raise SizeCapError("instance too large for exact oracle")
    if n == 0:
        raise ValueError("empty instance")
    for row in d:
        if len(row) != n:
            raise ValueError("distance matrix must be square")
    if any(index(v) < 0 for row in d for v in row):
        raise ValueError("distances must be nonnegative")
    if n == 1:
        return 0
    if n == 2:
        return int(d[0][1]) + int(d[1][0])
    import numpy as np  # imported here so that importing the package stays light
    r = n - 1
    # no tour costs more than n * max d; the table must hold that below inf
    bound = max(int(v) for row in d for v in row) * n + 1
    if r <= 20:
        dtype, inf = np.int64, np.iinfo(np.int64).max // 4
    elif bound < 60000:
        dtype, inf = np.uint16, 60000
    else:
        dtype, inf = np.int32, np.iinfo(np.int32).max // 4
    if bound > inf:
        raise SizeCapError(f"costs too large for the {np.dtype(dtype).name} DP table")
    dm = np.asarray(d, dtype=np.int64)

    size = 1 << r
    pc = np.zeros(size, dtype=np.uint8)  # popcount of every mask
    for j in range(r):
        pc[1 << j:2 << j] = pc[:1 << j] + 1
    dp = np.full((size, r), inf, dtype=dtype)
    for j in range(r):
        dp[1 << j, j] = min(int(dm[0, j + 1]), inf)
    inner = dm[1:, 1:]
    for s in range(1, r):
        layer = np.flatnonzero(pc == s)
        for start in range(0, len(layer), 1 << 14):
            masks = layer[start:start + (1 << 14)]
            rows = dp[masks].astype(np.int64)
            for j in range(r):
                sel = ((masks >> j) & 1) == 0
                if not sel.any():
                    continue
                cand = (rows[sel] + inner[:, j]).min(axis=1)
                np.minimum(cand, inf, out=cand)
                target = masks[sel] | (1 << j)
                current = dp[target, j].astype(np.int64)
                dp[target, j] = np.minimum(current, cand).astype(dtype)
    last = dp[size - 1].astype(np.int64) + dm[1:, 0]
    return int(last.min())


def brute_ham(sg: SquareGraph, cost: Sequence[int]) -> tuple[frozenset[int], int]:
    """Cheapest Hamiltonian cycle containing M, by trying every combination
    of square matchings.  Returns (edge ids, cost)."""
    check_square_graph(sg)
    s = len(sg.squares)
    if s > BRUTE_HAM_CAP:
        raise SizeCapError(f"brute_ham capped at {BRUTE_HAM_CAP} squares, got {s}")
    g = sg.graph
    best: tuple[int, tuple[int, ...]] | None = None
    for choice in product((0, 1), repeat=s):
        removed: set[int] = set()
        for si, pick in enumerate(choice):
            m1, m2 = sg.square_matchings(si)
            removed |= m2 if pick == 0 else m1
        if not connected_without(g, frozenset(removed)):
            continue
        kept = frozenset(range(g.edge_count)) - removed
        c = sum(cost[e] for e in kept)
        key = (c, tuple(sorted(kept)))
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError("no Hamiltonian cycle contains the matching")
    return frozenset(best[1]), best[0]


def brute_t_join(wg: WeightedGraph, t_set) -> frozenset[int]:
    """Minimum T-join by scoring all 2^m edge subsets at once in numpy.

    A subset's odd-degree node set is the XOR of per-edge incidence masks,
    so feasibility is a vector compare against the T mask.
    """
    g = wg.graph
    m = g.edge_count
    if m > BRUTE_T_JOIN_CAP:
        raise SizeCapError(f"brute_t_join capped at {BRUTE_T_JOIN_CAP} edges, got {m}")
    t_nodes = sorted(set(t_set))
    if len(t_nodes) % 2:
        raise ValueError("|T| must be even")
    t_mask = 0
    for v in t_nodes:
        t_mask |= 1 << v
    import numpy as np
    subsets = np.arange(1 << m, dtype=np.int64)
    parity = np.zeros(1 << m, dtype=np.int64)
    total = np.zeros(1 << m, dtype=np.int64)
    for e, (u, v) in enumerate(g.edges):
        chosen = (subsets >> e) & 1
        if u != v:
            parity ^= chosen * ((1 << u) | (1 << v))
        total += chosen * wg.weight[e]
    feasible = parity == t_mask
    if not feasible.any():
        raise ValueError("no T-join exists")
    costs = np.where(feasible, total, np.iinfo(np.int64).max)
    best = int(np.argmin(costs))
    return frozenset(e for e in range(m) if best >> e & 1)


def dense_t_join(wg: WeightedGraph, t_set) -> frozenset[int]:
    """Minimum T-join of a connected graph from one full search per T node
    on the whole graph and the all-pairs matrix over T: the edge set that
    min_t_join must return, not only its weight."""
    t_nodes = sorted(set(t_set))
    searches = [shortest_paths_from(wg, v) for v in t_nodes]
    pairs, _ = min_weight_perfect_matching([[dist[t] for t in t_nodes] for dist, _ in searches])
    join: set[int] = set()
    for a, b in pairs:
        join ^= set(path_edges_to(searches[a][1], wg.graph, t_nodes[b]))
    return frozenset(join)


def brute_rainbow(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> tuple[frozenset[EdgeKey], int]:
    """Cheapest rainbow 1-tree by enumerating one edge per matching pair;
    x and costs are checked by square_point."""
    sp = square_point(x, costs)
    s = len(sp.squares)
    if s > BRUTE_RAINBOW_CAP:
        raise SizeCapError(f"brute_rainbow capped at {BRUTE_RAINBOW_CAP} squares, got {s}")
    ones = [e for e, x2 in sorted(x.support.items()) if x2 == 2]
    pair_lists = [[sp.keys[e] for e in sorted(p)] for p in sp.pair_partition]
    best: tuple[int, tuple[EdgeKey, ...]] | None = None
    for choice in product(*pair_lists) if pair_lists else [()]:
        edges = list(ones) + list(choice)
        if len(edges) != x.n:
            continue
        at_zero = [e for e in edges if e[0] == 0]
        if len(at_zero) != 2:
            continue
        # n edges, two at node 0: the other n - 2 span nodes 1..n-1 iff acyclic
        ds = DisjointSet(x.n)
        if not all(ds.union(u, v) for u, v in edges if u != 0):
            continue
        c = sum(costs[e] for e in edges)
        key = (c, tuple(sorted(edges)))
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError("no rainbow 1-tree exists")
    return frozenset(best[1]), best[0]


def brute_cuts(x: HalfIntegerPoint) -> tuple[int, frozenset[int]]:
    """Minimum doubled cut value over all proper subsets, by enumeration."""
    if x.n > BRUTE_CUTS_CAP:
        raise SizeCapError(f"brute_cuts capped at {BRUTE_CUTS_CAP} nodes, got {x.n}")
    if x.n < 2:
        raise ValueError("need at least 2 nodes")
    best_val = None
    best_side: frozenset[int] = frozenset()
    for side in range(1, (1 << x.n) - 1):
        val = 0
        for (u, v), x2 in x.support.items():
            if (side >> u & 1) != (side >> v & 1):
                val += x2
        if best_val is None or val < best_val:
            best_val = val
            best_side = frozenset(v for v in range(x.n) if side >> v & 1)
    assert best_val is not None
    return best_val, best_side


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
