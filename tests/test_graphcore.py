import random

import pytest

from squaretour.graphcore import (
    DisjointSet,
    MultiGraph,
    WeightedGraph,
    bridges,
    connected_without,
    eulerian_circuit,
    global_min_cut,
    is_connected,
    is_two_edge_connected,
    metric_closure,
    path_edges_to,
    shortest_paths_from,
    walk_cycle,
)


def random_connected_graph(rng, n, extra):
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((min(u, v), max(u, v)))
    return MultiGraph(n, edges)


def test_multigraph_darts():
    g = MultiGraph(3, [(0, 1), (1, 2), (1, 1)])
    assert g.edge_count == 3
    assert g.degree(1) == 4  # loop counts twice
    assert g.dart_node(0) == 0 and g.dart_node(1) == 1
    assert g.dart_other_node(2) == 2
    assert g.darts_at(1) == (1, 2, 4, 5)


def test_multigraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        MultiGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        MultiGraph(2, [(-1, 0)])


def test_disjoint_set():
    ds = DisjointSet(4)
    assert ds.union(0, 1)
    assert not ds.union(1, 0)
    assert ds.union(2, 3)
    assert ds.find(3) == ds.find(2)
    assert ds.find(0) != ds.find(2)


def test_connectivity_and_bridges():
    # path 0-1-2 plus a parallel edge on 1-2: only 0-1 is a bridge
    g = MultiGraph(3, [(0, 1), (1, 2), (1, 2)])
    assert is_connected(g)
    assert bridges(g) == {0}
    assert not is_two_edge_connected(g)
    assert connected_without(g, frozenset({1}))
    assert not connected_without(g, frozenset({0}))
    cyc = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert bridges(cyc) == set()
    assert is_two_edge_connected(cyc)


def test_bridges_match_removal_oracle():
    for seed in range(60):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 6))
        want = {e for e in range(g.edge_count) if not connected_without(g, frozenset({e}))}
        assert bridges(g) == want, seed


def test_is_connected_small_cases():
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
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, rng.randint(0, 8))
        wg = WeightedGraph(g, tuple(rng.randint(1, 9) for _ in range(g.edge_count)))
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


def test_shortest_path_unreachable():
    g = MultiGraph(3, [(0, 1)])
    dist, parent = shortest_paths_from(WeightedGraph(g, (5,)), 0)
    assert dist == [0, 5, -1]
    assert parent[2] == -1
    with pytest.raises(ValueError):
        metric_closure(WeightedGraph(g, (5,)))


def test_eulerian_circuit_canonical():
    # two triangles sharing node 0
    g = MultiGraph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    walk = eulerian_circuit(g, 0)
    assert walk[0] == walk[-1] == 0
    assert len(walk) == g.edge_count + 1
    assert walk == eulerian_circuit(g, 0)  # deterministic


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


def test_walk_cycle_leaves_along_first_edge():
    # 4-cycle 0-1-2-3 with the chord 0-2 outside the cycle
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    cycle = frozenset({0, 1, 2, 3})
    assert walk_cycle(g, cycle, 0, 0) == ([0, 1, 2, 3], [0, 1, 2, 3])
    assert walk_cycle(g, cycle, 0, 3) == ([3, 2, 1, 0], [0, 3, 2, 1])
    assert walk_cycle(g, cycle, 2, 1) == ([1, 0, 3, 2], [2, 1, 0, 3])
