"""Exact oracles used to check the fast algorithms.

held_karp is a textbook exponential DP and the brute_* functions enumerate.
dense_t_join is the plain T-join that pins min_t_join's edge set, and
check_ham certifies a cheapest Hamiltonian cycle at any size, where
brute_ham is the small-case reference.  They share primitives with the
package: check_square_graph, verify_ham, square_point, connected_without,
hamiltonian_order, DisjointSet, and for dense_t_join the searches and the
matching.  Hard size caps raise SizeCapError rather than grind forever.
"""

from __future__ import annotations

from itertools import product
from operator import index
from typing import Sequence

from .deltamatroid import SquareGraph, check_square_graph, verify_ham
from .graphcore import DisjointSet, WeightedGraph, connected_without, hamiltonian_order
from .graphcore import path_edges_to, shortest_paths_from
from .halfpoint import EdgeKey, HalfIntegerPoint, square_point
from .tjoin import min_weight_perfect_matching

__all__ = [
    "SizeCapError",
    "held_karp",
    "brute_ham",
    "check_ham",
    "brute_t_join",
    "dense_t_join",
    "brute_rainbow",
    "brute_cuts",
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


def check_ham(sg: SquareGraph, cost: Sequence[int], hedges: frozenset[int]) -> bool:
    """Whether hedges is a cheapest Hamiltonian cycle containing M, at any
    size: verify_ham holds, and every exchange of one square's matching, or
    of two squares' matchings, that lowers the cost breaks the cycle.

    The traces H & R of these cycles on one edge per square form a
    delta-matroid, and a linear cost on it is cheapest at a feasible set
    exactly when no feasible set differing in one or two elements is cheaper
    (Dress & Wenzel, Appl. Math. Lett. 4, 1991).
    """
    if not verify_ham(sg, hedges):
        return False
    flips = [frozenset(sq) for sq in sg.squares]
    # what flipping a square to its other matching adds to the cost, ascending
    gains = sorted(
        (sum(cost[e] for e in flip - hedges) - sum(cost[e] for e in flip & hedges), si)
        for si, flip in enumerate(flips)
    )
    for i, (gi, si) in enumerate(gains):
        if gi >= 0:
            break
        partners = [frozenset()] + [flips[sj] for gj, sj in gains[i + 1:] if gi + gj < 0]
        if any(hamiltonian_order(sg.graph, hedges ^ flips[si] ^ x) is not None for x in partners):
            return False
    return True


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
        edges = list(ones) + list(choice)  # x sums to n: 1-edges + 2 per square
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
