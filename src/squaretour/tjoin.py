"""Minimum T-joins via shortest paths and exact perfect matching.

For nonnegative weights a minimum T-join is the symmetric difference of
shortest paths between the pairs of a minimum-weight perfect matching on T
(Edmonds & Johnson, Math. Prog. 5, 1973).  The distances between T nodes
come from searches on the graph's series reduction, which keeps only the T
nodes and the nodes not of degree 2, and keeps their distances; each
matched pair's path then comes from one search on the graph that stops at
the partner.  The matching is Edmonds' primal-dual blossom algorithm on the
dense distance matrix, in Python integers, so it is exact at any cost
magnitude.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Sequence

from .graphcore import Reduction, WeightedGraph, is_connected, path_edges_to, series_reduced
from .graphcore import shortest_paths_from

__all__ = ["min_weight_perfect_matching", "min_t_join"]


def _match(d: Sequence[Sequence[int]]) -> list[int]:
    """Mate of every point in a minimum-weight perfect matching of d (p >= 2).

    Edmonds (Canad. J. Math. 17, 1965) in the dense O(p^3) primal-dual form
    of Galil (ACM Comput. Surv. 18, 1986): a maximum-weight perfect matching
    on w(i, j) = -2 d[i][j] from the upper triangle.  Points are vertices
    0..p-1, blossoms p..2p-1; edge uv between top-level blossoms has slack
    dual[u] + dual[v] - w(u, v).  The duals start equal, then each free point
    lowers its own to a tight edge (matching a free tight partner), so free
    points' duals share a parity and every dual step is an integer.  Labels:
    0 outer, 1 inner, -1 none.  rep[b][x] is b's point on the least-slack
    edge to a vertex x outside b: b's points move their duals together.
    """
    p, m = len(d), 2 * len(d)
    w = [[-2 * index(d[i][j] if i < j else d[j][i]) for j in range(p)] for i in range(p)]
    dual = [max(map(max, w)) // 2] * p + [0] * p  # the diagonal is never read after this
    mate = [-1] * m  # the point matched to x's base
    pred = [-1] * m  # for inner x: the outer point across its tree edge
    best = [-1] * m  # the outer point on the least-slack edge to x
    label = [-1] * m
    top_of = list(range(p)) + [-1] * p  # -1: an unused blossom id
    kids: list[list[int]] = [[] for _ in range(m)]  # odd cycle, base first
    kid_of: list[dict[int, int]] = [{} for _ in range(m)]  # point -> kid
    leaves = [[v] for v in range(p)] + [[] for _ in range(p)]
    rep = [[v] * m for v in range(p)] + [[-1] * m for _ in range(p)]  # rep[v][x] = v for a point v
    queue: list[int] = []
    used = p  # blossom ids in use are below this

    def slack(u: int, x: int) -> int:
        v = rep[x][u]
        return dual[u] + dual[v] - w[u][v]

    def set_best(x: int) -> None:
        outer = [u for u in range(p) if top_of[u] != x and label[top_of[u]] == 0]
        best[x] = min(outer, key=lambda u: slack(u, x), default=-1)

    def set_top(x: int, b: int) -> None:
        stack = [x]
        while stack:
            y = stack.pop()
            top_of[y] = b
            stack += kids[y]

    def even_side(b: int, k: int) -> int:
        """Orient b's cycle so that kid k sits at an even position; return it."""
        ks = kids[b]
        i = ks.index(k)
        if i % 2:
            ks[1:] = ks[:0:-1]
            return len(ks) - i
        return i

    def set_mate(u: int, a: int, z: int) -> None:
        """Match u's point a to the point z outside u, the kid holding a
        becoming u's base.  Every level takes this one edge: under ties a
        kid's own least-slack edge towards z may be another.  Each frame
        changes only its own sub-blossom, so the stack's order is free."""
        stack = [(u, a, z)]
        while stack:
            u, a, z = stack.pop()
            mate[u] = z
            if u >= p:
                k = kid_of[u][a]
                i = even_side(u, k)
                ks = kids[u]
                for j in range(i):
                    x, y = ks[j], ks[j ^ 1]
                    stack.append((x, rep[x][y], rep[y][x]))
                stack.append((k, a, z))
                kids[u] = ks[i:] + ks[:i]

    def augment(u: int, v: int) -> None:
        while True:
            was = mate[u]
            set_mate(u, rep[u][v], rep[v][u])
            if was < 0:
                return
            v = top_of[was]
            u = top_of[pred[v]]
            set_mate(v, rep[v][u], rep[u][v])

    def to_root(x: int) -> Iterator[int]:
        """The outer vertices on x's alternating path to its tree's root."""
        while x >= 0:
            yield x
            x = top_of[pred[top_of[mate[x]]]] if mate[x] >= 0 else -1

    def add_blossom(u: int, base: int, v: int) -> None:
        nonlocal used
        b = next(b for b in range(p, m) if top_of[b] < 0)
        used = max(used, b + 1)
        dual[b], label[b], mate[b] = 0, 0, mate[base]
        halves = []
        for x in (u, v):
            path = []
            while x != base:
                y = top_of[mate[x]]
                path += (x, y)
                queue.extend(leaves[y])
                x = top_of[pred[y]]
            halves.append(path)
        ks = kids[b] = [base, *halves[0][::-1], *halves[1]]
        leaves[b] = [v for k in ks for v in leaves[k]]
        kid_of[b] = {v: k for k in ks for v in leaves[k]}
        set_top(b, b)
        for x in range(used):
            if top_of[x] >= 0 and top_of[x] != b:
                ends = [(rep[k][x], rep[x][k]) for k in ks]
                _, rep[b][x], rep[x][b] = min((dual[a] + dual[z] - w[a][z], a, z) for a, z in ends)
        set_best(b)

    def expand(b: int) -> None:
        ks = kids[b]
        for k in ks:
            set_top(k, k)
        kr = kid_of[b][rep[b][pred[b]]]
        i = even_side(b, kr)
        for j in range(0, i, 2):
            k, nk = ks[j], ks[j + 1]
            pred[k] = rep[nk][k]
            label[k], label[nk], best[k] = 1, 0, -1
            set_best(nk)
            queue.extend(leaves[nk])
        label[kr], pred[kr] = 1, pred[b]
        for k in ks[i + 1 :]:
            label[k] = -1
            set_best(k)
        top_of[b] = -1

    def found(eu: int, ev: int) -> bool:
        """Handle the tight edge eu-ev from an outer point; True on augment."""
        u, v = top_of[eu], top_of[ev]
        if label[v] == -1:
            nu = top_of[mate[v]]
            pred[v], label[v], label[nu] = eu, 1, 0
            best[v] = best[nu] = -1
            queue.extend(leaves[nu])
        elif label[v] == 0:
            on_u = set(to_root(u))
            base = next((x for x in to_root(v) if x in on_u), -1)
            if base < 0:
                augment(u, v)
                augment(v, u)
                return True
            add_blossom(u, base, v)
        return False

    def phase() -> bool:
        """Grow alternating trees from every free vertex until one
        augmentation; False once the matching is perfect."""
        queue.clear()
        label[:used] = [-1] * used
        best[:used] = [-1] * used
        for x in range(used):
            if top_of[x] == x and mate[x] < 0:
                pred[x], label[x] = -1, 0
                queue.extend(leaves[x])
        if not queue:
            return False
        while True:
            while queue:
                u = queue.pop()
                bu = top_of[u]
                if label[bu] == 1:
                    continue
                du, wu = dual[u], w[u]
                done = set()  # blossoms whose least-slack edge from u is known
                for v in range(p):
                    bv = top_of[v]
                    if bv == bu:
                        continue
                    if du + dual[v] == wu[v]:
                        if found(u, v):
                            return True
                        bu = top_of[u]
                    elif bv == v:
                        b = best[v]
                        if b < 0 or du - wu[v] < dual[b] - w[b][v]:
                            best[v] = u
                    elif bv not in done:
                        done.add(bv)
                        if best[bv] < 0 or slack(u, bv) < slack(best[bv], bv):
                            best[bv] = u
            step = min(
                [dual[b] // 2 for b in range(p, used) if top_of[b] == b and label[b] == 1]
                + [slack(best[x], x) // (2 if label[x] == 0 else 1) for x in range(used)
                   if top_of[x] == x and best[x] >= 0 and label[x] != 1]
            )
            # outer points lose step and inner ones gain it; blossoms twice that, reversed
            for u in range(p):
                dual[u] += (-step, step, 0)[label[top_of[u]]]
            for b in range(p, used):
                if top_of[b] == b:
                    dual[b] += (2 * step, -2 * step, 0)[label[b]]
            for x in range(used):
                u = best[x]
                if top_of[x] == x and u >= 0 and top_of[u] != x and slack(u, x) == 0:
                    if found(u, rep[x][u]):
                        return True
            for b in range(p, used):
                if top_of[b] == b and label[b] == 1 and dual[b] == 0:
                    expand(b)

    for u in range(p):
        if mate[u] < 0:
            dual[u] = max(w[u][v] - dual[v] for v in range(p) if v != u)
            for v in range(p):
                if v != u and mate[v] < 0 and dual[u] + dual[v] == w[u][v]:
                    mate[u], mate[v] = v, u
                    break
    while phase():
        pass
    return mate[:p]


def min_weight_perfect_matching(d: Sequence[Sequence[int]]) -> tuple[list[tuple[int, int]], int]:
    """Minimum-weight perfect matching on points 0..p-1 with distance d.

    Returns (pairs, total weight), pairs ascending with i < j in each.  Only
    the upper triangle of d counts; a non-integer distance raises TypeError.
    """
    p = len(d)
    if p % 2:
        raise ValueError("odd number of points has no perfect matching")
    if p == 0:
        return [], 0
    if any(len(row) != p for row in d):
        raise ValueError("distance matrix must be square")
    mate = _match(d)
    if any(v < 0 or mate[v] != u for u, v in enumerate(mate)):
        raise RuntimeError("matching is not perfect")
    pairs = [(u, v) for u, v in enumerate(mate) if u < v]
    return pairs, sum(index(d[i][j]) for i, j in pairs)


def min_t_join(wg: WeightedGraph, t_set: Iterable[int]) -> frozenset[int]:
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
    return _t_join(wg, series_reduced(wg, t_nodes), t_nodes)


def _t_join(wg: WeightedGraph, red: Reduction, t_nodes: list[int]) -> frozenset[int]:
    """Minimum T-join of a connected wg for the ascending T nodes t_nodes,
    given red, a series reduction of wg that keeps every T node.

    By construction the edge set is that of one full search per T node on
    wg and the all-pairs matrix (oracles.dense_t_join).  A path between kept
    nodes that enters a chain runs along all of it, so the distances between
    T nodes, d, are the same on red, and so is the matching.  A search that
    stops at t_b takes exactly the steps of a fuller search until t_b
    settles, and every node on t_b's path settles before it with its final
    parent, so each matched pair's path is the same too.
    """
    ids = [red.place[v] for v in t_nodes]
    if any(type(i) is not int for i in ids):
        raise RuntimeError("T node not kept by the reduction")
    p = len(ids)
    d = [[0] * p for _ in range(p)]
    for a in range(p - 1):
        dist, _ = shortest_paths_from(red.weighted, ids[a], ids[a + 1 :])
        for b in range(a + 1, p):
            d[a][b] = d[b][a] = dist[ids[b]]
    pairs, _ = min_weight_perfect_matching(d)
    join: set[int] = set()
    for a, b in pairs:
        _, parent = shortest_paths_from(wg, t_nodes[a], (t_nodes[b],))
        join ^= set(path_edges_to(parent, wg.graph, t_nodes[b]))
    return frozenset(join)
