"""Independent exact oracles used to check the fast algorithms.

Everything here is deliberately brute force (or a textbook exponential DP)
and shares no code path with the algorithms under test.  Hard size caps
raise SizeCapError rather than grind forever.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from .deltamatroid import SquareGraph, check_square_graph
from .errors import SizeCapError
from .graphcore import DisjointSet, WeightedGraph, connected_without
from .halfpoint import EdgeKey, HalfIntegerPoint, decompose

__all__ = ["held_karp", "brute_ham", "brute_t_join", "brute_rainbow", "brute_cuts"]

HELD_KARP_CAP = 24
BRUTE_HAM_CAP = 20
BRUTE_T_JOIN_CAP = 18
BRUTE_RAINBOW_CAP = 6
BRUTE_CUTS_CAP = 12


def held_karp(d: Sequence[Sequence[int]], n: int | None = None) -> int:
    """Exact TSP value on nodes 0..n-1 with distance matrix d.

    Bitmask DP over subsets of 1..n-1, vectorized per popcount layer.  The
    table dtype shrinks to uint16 or int32 above 21 nodes, where an int64
    table would not fit in memory.  Distances whose tour bound n * max d
    does not fit the table raise SizeCapError.
    """
    if n is None:
        n = len(d)
    elif n != len(d):
        raise ValueError("n does not match the distance matrix")
    if n > HELD_KARP_CAP:
        raise SizeCapError("instance too large for exact oracle")
    if n == 0:
        raise ValueError("empty instance")
    for row in d:
        if len(row) != n:
            raise ValueError("distance matrix must be square")
    if any(v < 0 for row in d for v in row):
        raise ValueError("distances must be nonnegative")
    if n == 1:
        return 0
    if n == 2:
        return int(d[0][1]) + int(d[1][0])
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
    masks_all = np.arange(size, dtype=np.int64)
    pc = np.zeros(size, dtype=np.uint8)
    for j in range(r):
        pc += ((masks_all >> j) & 1).astype(np.uint8)
    dp = np.full((size, r), inf, dtype=dtype)
    for j in range(r):
        dp[1 << j, j] = min(int(dm[0, j + 1]), inf)
    inner = dm[1:, 1:]
    for s in range(1, r):
        masks = np.flatnonzero(pc == s)
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


def brute_rainbow(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> tuple[frozenset[EdgeKey], int]:
    """Cheapest rainbow 1-tree by enumerating one edge per matching pair."""
    dec = decompose(x)
    s = len(dec.squares)
    if s > BRUTE_RAINBOW_CAP:
        raise SizeCapError(f"brute_rainbow capped at {BRUTE_RAINBOW_CAP} squares, got {s}")
    ones = [e for e, x2 in sorted(x.support.items()) if x2 == 2]
    pair_lists = [sorted(p) for p in dec.pair_partition]
    best: tuple[int, tuple[EdgeKey, ...]] | None = None
    for choice in product(*pair_lists) if pair_lists else [()]:
        edges = list(ones) + list(choice)
        if len(edges) != x.n:
            continue
        at_zero = [e for e in edges if e[0] == 0]
        if len(at_zero) != 2:
            continue
        ds = DisjointSet(x.n)
        ok = True
        joined = 0
        for u, v in edges:
            if u == 0:
                continue
            if not ds.union(u, v):
                ok = False
                break
            joined += 1
        if not ok or joined != x.n - 2:
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
