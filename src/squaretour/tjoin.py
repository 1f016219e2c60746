"""Minimum T-joins via shortest paths and exact perfect matching.

For nonnegative weights a minimum T-join is the symmetric difference of
shortest paths between the pairs of a minimum-weight perfect matching on T,
with distances from one shortest-path search per T node.  Two
interchangeable matching engines: a subset dynamic program (exact, up to 24
points) and the blossom-based integer-exact matching from networkx for
larger inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import networkx as nx
import numpy as np

from .errors import SizeCapError
from .graphcore import WeightedGraph, is_connected, path_edges_to, shortest_paths_from

__all__ = ["min_weight_perfect_matching", "min_t_join"]

DP_CAP = 24
# the DP's "unmatched" value; each DP value, a sum of p/2 distances, stays below
DP_INF = np.iinfo(np.int64).max // 4


def _match_dp(d: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Subset DP over even masks; layer-vectorized so the 2^p table stays in
    numpy.  dp[mask] = cost of perfectly matching the points in mask."""
    p = len(d)
    dm = np.asarray(d, dtype=np.int64)
    full = (1 << p) - 1
    dp = np.full(1 << p, DP_INF, dtype=np.int64)
    dp[0] = 0
    masks_all = np.arange(1 << p, dtype=np.int64)
    pc = np.zeros(1 << p, dtype=np.uint8)
    for j in range(p):
        pc += ((masks_all >> j) & 1).astype(np.uint8)
    low = np.zeros(1 << p, dtype=np.int64)
    if p:
        low[1:] = np.round(np.log2((masks_all[1:] & -masks_all[1:]).astype(np.float64))).astype(np.int64)
    for s in range(2, p + 1, 2):
        masks = np.flatnonzero(pc == s)
        i0 = low[masks]
        best = np.full(len(masks), DP_INF, dtype=np.int64)
        for j in range(1, p):
            sel = (((masks >> j) & 1) == 1) & (i0 != j)
            if not sel.any():
                continue
            sub = masks[sel] ^ (1 << i0[sel]) ^ (1 << j)
            cand = dm[i0[sel], j] + dp[sub]
            best[sel] = np.minimum(best[sel], cand)
        dp[masks] = best

    pairs: list[tuple[int, int]] = []
    mask = full
    while mask:
        i = int(low[mask])
        rest = mask ^ (1 << i)
        for j in range(i + 1, p):
            if rest >> j & 1 and dp[mask] == dm[i, j] + dp[rest ^ (1 << j)]:
                pairs.append((i, j))
                mask = rest ^ (1 << j)
                break
        else:  # pragma: no cover
            raise RuntimeError("matching DP reconstruction failed")
    return pairs


def _match_blossom(d: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    p = len(d)
    g = nx.Graph()
    g.add_nodes_from(range(p))
    for i in range(p):
        for j in range(i + 1, p):
            g.add_edge(i, j, weight=-int(d[i][j]))
    mate = nx.max_weight_matching(g, maxcardinality=True)
    pairs = sorted(tuple(sorted(e)) for e in mate)
    if 2 * len(pairs) != p:  # pragma: no cover
        raise RuntimeError("matching is not perfect")
    return pairs


def min_weight_perfect_matching(
    d: Sequence[Sequence[int]], engine: str = "auto"
) -> tuple[list[tuple[int, int]], int]:
    """Minimum-weight perfect matching on points 0..p-1 with distance d.

    Returns (pairs, total weight).  engine: "dp" (exact subset DP in int64,
    p <= 24 and (p/2) * max |d| below DP_INF), "blossom" (networkx,
    integer-exact), or "auto" (DP up to 16 points when its sums fit).
    """
    p = len(d)
    if p % 2:
        raise ValueError("odd number of points has no perfect matching")
    if p == 0:
        return [], 0
    for row in d:
        if len(row) != p:
            raise ValueError("distance matrix must be square")
    fits = p // 2 * max(abs(v) for row in d for v in row) < DP_INF
    if engine == "auto":
        engine = "dp" if p <= 16 and fits else "blossom"
    if engine == "dp":
        if p > DP_CAP:
            raise SizeCapError(f"matching DP capped at {DP_CAP} points, got {p}")
        if not fits:
            raise SizeCapError(f"matching DP needs (p/2) * max distance below {DP_INF}")
        pairs = _match_dp(d)
    elif engine == "blossom":
        pairs = _match_blossom(d)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return pairs, sum(int(d[i][j]) for i, j in pairs)


def min_t_join(wg: WeightedGraph, t_set: Iterable[int], engine: str = "auto") -> frozenset[int]:
    """Minimum-weight T-join as a set of edge ids.

    The symmetric difference of shortest paths between optimally matched
    T-pairs; exact for the nonnegative integer weights enforced by
    WeightedGraph.  |T| must be even and the graph connected.
    """
    g = wg.graph
    t_nodes = sorted(set(t_set))
    for v in t_nodes:
        if not 0 <= v < g.node_count:
            raise ValueError(f"T node {v} out of range")
    if len(t_nodes) % 2:
        raise ValueError("|T| must be even")
    if not is_connected(g):
        raise ValueError("disconnected graph")
    if not t_nodes:
        return frozenset()
    dists = []
    parents = []
    for v in t_nodes:
        dist, parent = shortest_paths_from(wg, v, t_nodes)
        dists.append(dist)
        parents.append(parent)
    d = [[dists[a][t_nodes[b]] for b in range(len(t_nodes))] for a in range(len(t_nodes))]
    pairs, _ = min_weight_perfect_matching(d, engine=engine)
    join: set[int] = set()
    for a, b in pairs:
        join ^= set(path_edges_to(parents[a], g, t_nodes[b]))
    return frozenset(join)
