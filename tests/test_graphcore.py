import heapq
import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_connected_graph
from squaretour.graphcore import (
    DisjointSet,
    MultiGraph,
    WeightedGraph,
    connected_without,
    cut_labels,
    cycles,
    eulerian_circuit,
    global_min_cut,
    hamiltonian_order,
    is_connected,
    metric_closure,
    path_edges_to,
    series_reduced,
    shortest_paths_from,
)


def test_multigraph_darts():
    g = MultiGraph(3, [(0, 1), (1, 2), (1, 1)])
    assert g.edge_count == 3
    assert g.degree(1) == 4  # loop counts twice
    assert g.dart_node(0) == 0 and g.dart_node(1) == 1
    assert g.dart_other_node(2) == 2
    assert g.darts_at(1) == (1, 2, 4, 5)


def test_multigraph_compares_by_value():
    g = MultiGraph(3, [(0, 1), (1, 2), (1, 1)])
    assert g == MultiGraph(3, [(0, 1), (1, 2), (1, 1)])
    assert hash(g) == hash(MultiGraph(3, [(0, 1), (1, 2), (1, 1)]))
    # edge ids are part of a graph: the same edges in another order differ
    assert g != MultiGraph(3, [(1, 2), (0, 1), (1, 1)])
    assert g != MultiGraph(4, [(0, 1), (1, 2), (1, 1)])
    # a graph is unequal to anything that is not a graph
    assert g != (3, ((0, 1), (1, 2), (1, 1)))
    assert g != object()


def test_multigraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        MultiGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        MultiGraph(2, [(-1, 0)])
    with pytest.raises(ValueError, match="^node_count must be nonnegative$"):
        MultiGraph(-1, [])


def test_disjoint_set():
    ds = DisjointSet(4)
    assert ds.union(0, 1)
    assert not ds.union(1, 0)
    assert ds.union(2, 3)
    assert ds.find(3) == ds.find(2)
    assert ds.find(0) != ds.find(2)


def reference_union(parent, size, a, b):
    """union as find, find, link: each root by path halving, a's first; the
    smaller set goes under the larger, b's root under a's on a tie."""
    roots = []
    for x in (a, b):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        roots.append(x)
    ra, rb = roots
    if ra == rb:
        return False
    if size[ra] < size[rb]:
        ra, rb = rb, ra
    parent[rb] = ra
    size[ra] += size[rb]
    return True


@st.composite
def union_sequences(draw):
    """n nodes and a sequence of unions: optionally a binomial build first
    (blocks of 1, 2, 4, ... merged pairwise, so trees grow log n deep and
    later finds must halve long paths), then random pairs, pairs a == a and
    repeats of earlier pairs."""
    n = draw(st.integers(1, 40))
    pairs = []
    if draw(st.booleans()):
        h = 1
        while h < n:
            pairs += [(i + h, i) if draw(st.booleans()) else (i, i + h)
                      for i in range(0, n - h, 2 * h)]
            h *= 2
    node = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(("pair", "same", "repeat")))
        if kind == "same":
            a = draw(node)
            pairs.append((a, a))
        elif kind == "repeat" and pairs:
            pairs.append(draw(st.sampled_from(pairs)))
        else:
            pairs.append((draw(node), draw(node)))
    return n, pairs, draw(st.integers(0, max(len(pairs) - 1, 0)))


@given(union_sequences())
def test_union_writes_what_find_then_link_writes(case):
    n, pairs, midway = case
    ds, parent, size = DisjointSet(n), list(range(n)), [1] * n
    for i, (a, b) in enumerate(pairs):
        if i == midway:
            snapshot, frozen = ds.copy(), (parent[:], size[:])
        assert ds.union(a, b) == reference_union(parent, size, a, b)
        assert (ds.parent, ds.size) == (parent, size)
    if pairs:
        # the copy shares no list with the original, which has moved on
        assert (snapshot.parent, snapshot.size) == frozen


def test_connectivity_and_edge_removal():
    # path 0-1-2 plus a parallel edge on 1-2: only 0-1 disconnects it
    g = MultiGraph(3, [(0, 1), (1, 2), (1, 2)])
    assert is_connected(g)
    assert connected_without(g, frozenset({1}))
    assert not connected_without(g, frozenset({0}))
    assert not connected_without(g, frozenset({1, 2}))


def test_is_connected_small_cases():
    assert connected_without(MultiGraph(0, []), frozenset())
    assert is_connected(MultiGraph(1, []))
    assert not is_connected(MultiGraph(2, []))
    assert is_connected(MultiGraph(2, [(0, 1)] * 4))


def test_global_min_cut_triangle():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert global_min_cut(WeightedGraph(g, (1, 1, 1)))[0] == 2
    val, side = global_min_cut(WeightedGraph(g, (3, 1, 1)))
    assert val == 2
    assert side in ({2}, {0, 1})


def test_global_min_cut_four_cycle():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert global_min_cut(WeightedGraph(g, (1, 1, 1, 1)))[0] == 2


def test_metric_closure_small_cases():
    path = WeightedGraph(MultiGraph(3, [(0, 1), (1, 2)]), (1, 1))
    assert metric_closure(path)[0][2] == 2
    tri = WeightedGraph(MultiGraph(3, [(0, 1), (1, 2), (0, 2)]), (1, 1, 5))
    assert metric_closure(tri)[0][2] == 2


def test_global_min_cut_matches_enumeration():
    # weights 1..9, then with zeros, then with 2^61, whose sums pass 2^63;
    # random_connected_graph draws loops and parallel edges
    big = 1 << 61
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, rng.randint(0, 8))
        pool = (range(1, 10), range(0, 4), (0, 1, big, big))[seed % 3]
        wg = WeightedGraph(g, tuple(rng.choice(pool) for _ in range(g.edge_count)))
        best = None
        for mask in range(1, (1 << n) - 1):
            val = sum(
                w
                for (u, v), w in zip(g.edges, wg.weight)
                if (mask >> u & 1) != (mask >> v & 1)
            )
            best = val if best is None or val < best else best
        got, side = global_min_cut(wg)
        assert got == best, seed
        across = sum(
            w for (u, v), w in zip(g.edges, wg.weight) if (u in side) != (v in side)
        )
        assert across == got, seed


def test_global_min_cut_errors():
    with pytest.raises(ValueError):
        global_min_cut(WeightedGraph(MultiGraph(1, []), ()))
    with pytest.raises(ValueError):
        global_min_cut(WeightedGraph(MultiGraph(2, []), ()))


@st.composite
def small_connected_multigraphs(draw):
    """A random spanning tree plus extra edges, loops and parallel edges
    among them, listed in random order so tree edges get any ids."""
    n = draw(st.integers(1, 7))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=8))
    return MultiGraph(n, draw(st.permutations(edges)))


def test_cut_labels_report_disconnection():
    assert cut_labels(MultiGraph(3, [(0, 1), (1, 0)])) is None
    assert cut_labels(MultiGraph(3, [(1, 2), (0, 0)])) is None
    assert cut_labels(MultiGraph(1, [])) == []


@given(small_connected_multigraphs())
def test_cut_labels_find_every_one_and_two_edge_cut(g):
    labels = cut_labels(g)
    bridges = {e for e in range(g.edge_count) if not connected_without(g, frozenset({e}))}
    assert {e for e, a in enumerate(labels) if a == 0} == bridges
    for e, f in combinations(sorted(set(range(g.edge_count)) - bridges), 2):
        cut = not connected_without(g, frozenset({e, f}))
        assert (labels[e] == labels[f]) == cut


@st.composite
def multigraphs_with_removed_edges(draw):
    """Free edges on 1..8 nodes, so loops, parallel edges and isolated nodes
    all occur, and a random set of their ids."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=14))
    removed = draw(st.frozensets(st.sampled_from(range(len(edges))))) if edges else frozenset()
    return MultiGraph(n, edges), removed


@given(multigraphs_with_removed_edges())
def test_connected_without_agrees_with_a_spanning_search(case):
    g, removed = case
    kept = MultiGraph(g.node_count, [uv for e, uv in enumerate(g.edges) if e not in removed])
    assert connected_without(g, removed) == (cut_labels(kept) is not None)


def test_dijkstra_against_floyd_warshall():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        g = random_connected_graph(rng, n, rng.randint(0, 8))
        wg = WeightedGraph(g, tuple(rng.randint(0, 9) for _ in range(g.edge_count)))
        inf = float("inf")
        fw = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for (u, v), w in zip(g.edges, wg.weight):
            fw[u][v] = min(fw[u][v], w)
            fw[v][u] = min(fw[v][u], w)
        for m in range(n):
            for i in range(n):
                for j in range(n):
                    if fw[i][m] + fw[m][j] < fw[i][j]:
                        fw[i][j] = fw[i][m] + fw[m][j]
        dist, parent = shortest_paths_from(wg, 0)
        assert dist == [fw[0][j] for j in range(n)], seed
        assert metric_closure(wg) == fw, seed
        for t in range(n):
            path = path_edges_to(parent, g, t)
            assert sum(wg.weight[e] for e in path) == dist[t], seed
        # a search stopped at the targets agrees with the full one on them
        for source in range(n):
            full_dist, full_parent = shortest_paths_from(wg, source)
            targets = rng.sample(range(n), rng.randint(1, n))
            dist, parent = shortest_paths_from(wg, source, targets)
            for t in targets:
                assert dist[t] == full_dist[t], seed
                assert path_edges_to(parent, g, t) == path_edges_to(full_parent, g, t), seed


def test_shortest_path_unreachable():
    g = MultiGraph(3, [(0, 1)])
    dist, parent = shortest_paths_from(WeightedGraph(g, (5,)), 0)
    assert dist == [0, 5, -1]
    assert parent[2] == -1
    with pytest.raises(ValueError):
        metric_closure(WeightedGraph(g, (5,)))


def seen_list_dijkstra(wg, source, targets=None):
    """shortest_paths_from as it was with a settled list: a popped node is
    skipped once settled, and a settled node is never relaxed."""
    n = wg.graph.node_count
    dist, parent, seen = [-1] * n, [-1] * n, [False] * n
    pending = None if targets is None else set(targets)
    pq = [(0, source)]
    dist[source] = 0
    while pq:
        dv, v = heapq.heappop(pq)
        if seen[v]:
            continue
        seen[v] = True
        if pending is not None:
            pending.discard(v)
            if not pending:
                break
        for w, c, back in wg.nbrs[v]:
            nd = dv + c
            if not seen[w] and (dist[w] == -1 or nd < dist[w]):
                dist[w], parent[w] = nd, back
                heapq.heappush(pq, (nd, w))
    return dist, parent


@st.composite
def weighted_multigraphs_with_targets(draw):
    """multigraphs_with_removed_edges' free edges with weights 0..3, so ties,
    zero cycles and unreachable nodes all occur, and a target set per node."""
    g, _ = draw(multigraphs_with_removed_edges())
    weights = draw(st.lists(st.integers(0, 3), min_size=g.edge_count, max_size=g.edge_count))
    node_sets = st.frozensets(st.integers(0, g.node_count - 1))
    return WeightedGraph(g, weights), draw(st.lists(node_sets, min_size=g.node_count,
                                                    max_size=g.node_count))


@given(weighted_multigraphs_with_targets())
def test_dijkstra_needs_no_settled_list(case):
    # nonnegative weights: a settled node is never relaxed and only its one
    # entry at its distance is not stale, so the same (dist, parent) result
    wg, target_sets = case
    for source, targets in enumerate(target_sets):
        assert shortest_paths_from(wg, source) == seen_list_dijkstra(wg, source)
        assert shortest_paths_from(wg, source, targets) == seen_list_dijkstra(wg, source, targets)


def test_eulerian_circuit_canonical():
    # two triangles sharing node 0
    g = MultiGraph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    walk = eulerian_circuit(g, 0)
    assert walk[0] == walk[-1] == 0
    assert len(walk) == g.edge_count + 1
    assert walk == eulerian_circuit(g, 0)  # deterministic
    assert eulerian_circuit(MultiGraph(3, []), 2) == [2]  # no edges: the start alone


def test_eulerian_circuit_covers_each_edge_once():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n, rng.randint(0, 8))
        odd = [v for v in range(n) if g.degree(v) % 2]
        edges = list(g.edges)
        for a, b in zip(odd[0::2], odd[1::2]):
            edges.append((min(a, b), max(a, b)))
        g = MultiGraph(n, edges)
        walk = eulerian_circuit(g, 0)
        used = sorted(
            tuple(sorted((walk[i], walk[i + 1]))) for i in range(len(walk) - 1)
        )
        assert used == sorted(tuple(sorted(e)) for e in g.edges), seed


def test_walkers_refuse_ids_out_of_range():
    # -1 would name the last edge or node by Python indexing, and an edge id
    # past the end would raise IndexError
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    for ids in ([0, 1, -1], [0, 1, 3], [-1], [3]):
        assert cycles(g, ids) is None and hamiltonian_order(g, ids) is None, ids
    wg = WeightedGraph(g, (1, 1, 1))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"^start node {bad} out of range$"):
            eulerian_circuit(g, bad)
        with pytest.raises(ValueError, match=f"^source node {bad} out of range$"):
            shortest_paths_from(wg, bad)
        with pytest.raises(ValueError, match=f"^target node {bad} out of range$"):
            path_edges_to(shortest_paths_from(wg, 0)[1], g, bad)
    # a target out of range is never settled, so the search would run in full
    for targets, bad in (([5], 5), ([-1], -1), ([1, 3], 3), ([-1, 2], -1)):
        with pytest.raises(ValueError, match=f"^target node {bad} out of range$"):
            shortest_paths_from(wg, 0, targets)
    with pytest.raises(ValueError, match="^start node 3 out of range$"):
        eulerian_circuit(MultiGraph(3, []), 3)  # before the empty walk


def test_eulerian_circuit_errors():
    with pytest.raises(ValueError):
        eulerian_circuit(MultiGraph(2, [(0, 1)]))
    disconnected = MultiGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    with pytest.raises(ValueError):
        eulerian_circuit(disconnected, 0)


def test_weighted_graph_rejects_negative():
    g = MultiGraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        WeightedGraph(g, (-1,))
    with pytest.raises(ValueError):
        WeightedGraph(g, (1, 2))
    for bad in (1.0, "1", None, np.int64(-1)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            WeightedGraph(g, (bad,))


def test_weighted_graph_accepts_numpy_integers():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 2)])
    wg = WeightedGraph(g, (np.int64(4), np.int32(0), True))
    assert wg.weight == (4, 0, 1)
    assert all(type(w) is int for w in wg.weight)
    assert wg == WeightedGraph(g, (4, 0, 1))


@given(small_connected_multigraphs(), st.randoms(use_true_random=False))
def test_neighbour_lists_follow_the_darts(g, rng):
    wg = WeightedGraph(g, [rng.randint(0, 5) for _ in g.edges])
    for v in range(g.node_count):
        want = [(g.dart_other_node(d), wg.weight[d >> 1], d ^ 1)
                for d in g.darts_at(v) if g.dart_other_node(d) != v]
        assert list(wg.nbrs[v]) == want


@st.composite
def chained_multigraphs(draw):
    """small_connected_multigraphs with each edge subdivided into a chain of
    1-3 edges, weights 0..5, and a set of nodes to keep."""
    g = draw(small_connected_multigraphs())
    n, edges = g.node_count, []
    for u, v in g.edges:
        length = draw(st.integers(1, 3))
        nodes = [u, *range(n, n + length - 1), v]
        n += length - 1
        edges += zip(nodes, nodes[1:])
    weights = draw(st.lists(st.integers(0, 5), min_size=len(edges), max_size=len(edges)))
    return WeightedGraph(MultiGraph(n, edges), weights), draw(st.sets(st.integers(0, n - 1)))


@given(chained_multigraphs())
def test_series_reduction_keeps_nodes_chains_and_distances(case):
    wg, keep = case
    g = wg.graph
    red = series_reduced(wg, keep)
    assert red.kept == [v for v in range(g.node_count) if g.degree(v) != 2 or v in keep]
    if not red.kept:  # a cycle with nothing to keep vanishes
        assert g.edge_count == g.node_count and red.chains == []
        assert red.place == [None] * g.node_count and red.chain_of == [-1] * g.edge_count
        return
    assert sorted(e for chain in red.chains for e in chain) == list(range(g.edge_count))
    kept = set(red.kept)
    place: list = [None] * g.node_count
    for i, v in enumerate(red.kept):
        place[v] = i
    for r, ((a, b), w, chain) in enumerate(zip(red.weighted.graph.edges, red.weighted.weight, red.chains)):
        assert w == sum(wg.weight[e] for e in chain)
        assert all(red.chain_of[e] == r for e in chain)
        walk, off = [red.kept[a]], 0
        for e in chain:
            u, v = g.edges[e]
            assert walk[-1] in (u, v)
            walk.append(v if walk[-1] == u else u)
            off += wg.weight[e]
            if walk[-1] not in kept:  # offsets are prefix sums from the first end
                place[walk[-1]] = (r, off)
        assert walk[-1] == red.kept[b] and not kept & set(walk[1:-1])
    assert red.place == place
    full, reduced = metric_closure(wg), metric_closure(red.weighted)
    assert reduced == [[full[u][v] for v in red.kept] for u in red.kept]


def test_cycles_leave_the_lowest_node_along_its_lower_id_edge():
    # 4-cycle 0-1-2-3 with the chord 0-2 outside the cycle
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert cycles(g, {0, 1, 2, 3}) == [([0, 1, 2, 3], [0, 1, 2, 3])]
    assert hamiltonian_order(g, [3, 2, 1, 0]) == [0, 1, 2, 3]
    # the triangle 0-3-2 closed by the chord: node 0 meets ids 3 and 4
    assert cycles(g, [4, 2, 3]) == [([3, 2, 4], [0, 3, 2])]


def test_cycles_walk_each_of_disjoint_cycles():
    # a triangle 0-1-2 beside a 2-cycle 3-4 of parallel edges and a loop at 5
    g = MultiGraph(6, [(0, 1), (3, 4), (1, 2), (3, 4), (0, 2), (5, 5)])
    assert cycles(g, {4, 2, 0}) == [([0, 2, 4], [0, 1, 2])]
    assert cycles(g, {3, 1}) == [([1, 3], [3, 4])]
    assert cycles(g, {5}) == [([5], [5])]
    assert cycles(g, [5, 3, 1, 3]) == [([1, 3], [3, 4]), ([5], [5])]


def test_cycles_come_by_lowest_node():
    # a triangle 0-1-2 beside a 2-cycle 3-4 of parallel edges and a loop at 5
    g = MultiGraph(6, [(0, 1), (3, 4), (1, 2), (3, 4), (0, 2), (5, 5)])
    assert cycles(g, range(6)) == [([0, 2, 4], [0, 1, 2]), ([1, 3], [3, 4]), ([5], [5])]
    assert cycles(g, []) == []
    assert cycles(g, {0, 2}) is None  # nodes 0 and 2 meet one id each
    assert hamiltonian_order(g, range(6)) is None
    assert hamiltonian_order(MultiGraph(2, [(0, 1), (1, 0)]), {1, 0}) == [0, 1]


@st.composite
def multigraphs_with_edge_sets(draw):
    """Free edges on 1..8 nodes, so loops and parallel edges occur, and a set
    of their ids: either any set, or node-disjoint cycles (a loop, two
    parallel edges or longer) that the other edges surround."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=10))
    if draw(st.booleans()):
        ids = draw(st.frozensets(st.sampled_from(range(len(edges))))) if edges else frozenset()
        return MultiGraph(n, edges), ids
    nodes = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    start = 0
    first = len(edges)
    for end in cuts:
        ring = nodes[start:end]
        edges += [(u, v) for u, v in zip(ring, ring[1:] + ring[:1])]
        start = end
    order = draw(st.permutations(range(len(edges))))
    ids = frozenset(order.index(e) for e in range(first, len(edges)))
    return MultiGraph(n, [edges[e] for e in order]), ids


@given(multigraphs_with_edge_sets())
def test_cycles_agree_with_networkx(case):
    g, ids = case
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.node_count))
    h.add_edges_from(g.edges[e] for e in ids)
    found = cycles(g, ids)
    assert cycles(g, sorted(ids, reverse=True) * 2) == found  # unsorted, with repeats
    if any(d not in (0, 2) for _, d in h.degree()):
        assert found is None and hamiltonian_order(g, ids) is None
        return
    parts = sorted((sorted(c) for c in nx.connected_components(h) if h.degree(min(c))),
                   key=min)
    assert [sorted(nodes) for _, nodes in found] == parts
    assert sorted(e for edges, _ in found for e in edges) == sorted(ids)
    for edges, nodes in found:
        # from the lowest node along its lower-id edge, one edge per step
        assert nodes[0] == min(nodes)
        assert edges[0] == min(e for e in ids if nodes[0] in g.edges[e])
        for e, u, v in zip(edges, nodes, nodes[1:] + nodes[:1]):
            assert sorted(g.edges[e]) == sorted((u, v))
    spans = len(parts) == 1 and len(parts[0]) == g.node_count
    assert hamiltonian_order(g, ids) == (found[0][1] if spans else None)
