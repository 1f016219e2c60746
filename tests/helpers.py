"""Builders and tools that more than one test module uses, each written once.

The test modules import them as ``from helpers import ...``.  The pools
below feed the pinned digests in test_identity.py: each draws exactly the
points, matrices and costs it drew when its digest was recorded.
"""

import contextlib
import hashlib
import io
import random
from collections import Counter
from itertools import combinations, product
from unittest import mock

from squaretour import cli
from squaretour.deltamatroid import SquareGraph
from squaretour.graphcore import (
    DisjointSet,
    MultiGraph,
    WeightedGraph,
    connected_without,
    shortest_paths_from,
)
from squaretour.halfpoint import HalfIntegerPoint, edge_key, square_point
from squaretour.instances import make_donut, random_costs, random_four_regular, random_square_point
from squaretour.instances import serialize_point
from squaretour.treesel import rainbow

# square 0-1-2-3 with 1-paths joining adjacent corners: the cut around one
# 1-path and its square edge has x2 = 2
CUT_BAD = """POINT 6
E 0 1 1 3
E 1 2 1 3
E 2 3 1 3
E 0 3 1 3
E 0 4 2 1
E 1 4 2 1
E 2 5 2 1
E 3 5 2 1
END
"""


def integral_cycle(n):
    return HalfIntegerPoint(n, {edge_key(i, (i + 1) % n): 2 for i in range(n)})


def single_square_point():
    # square 0-1-2-3 with diagonal paths 0-4-2 and 1-5-3
    support = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1,
               (0, 4): 2, (2, 4): 2, (1, 5): 2, (3, 5): 2}
    return HalfIntegerPoint(6, support)


def single_square_point_adjacent_paths():
    # CUT_BAD's point: paths 0-4-1 and 2-5-3 join adjacent corners, cut x=1
    support = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1,
               (0, 4): 2, (1, 4): 2, (2, 5): 2, (3, 5): 2}
    return HalfIntegerPoint(6, support)


def k4_graph():
    return MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])


def k4_square_graph():
    # square 0-1-2-3 with both diagonals as the matching
    return SquareGraph(k4_graph(), frozenset({4, 5}), ((0, 1, 2, 3),))


def prism_graph():
    return MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)])


def k33_graph():
    return MultiGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def donut_text(k):
    inst = make_donut(k)
    return serialize_point(inst.point, inst.costs)


def relabelled(x, perm):
    """x with node v renamed perm[v]."""
    return HalfIntegerPoint(x.n, {edge_key(perm[u], perm[v]): x2 for (u, v), x2 in x.support.items()})


def inside_one_path(x, v):
    """Whether v lies inside a 1-path: both of its support edges are 1-edges."""
    return sum(1 for e in x.one_edges() if v in e) == 2


def unit_square_point(x):
    return square_point(x, dict.fromkeys(x.support, 1))


def enumerate_hams(sg):
    """All Hamiltonian cycles of a square graph that contain its matching,
    as edge frozensets: one matching per square, kept if it connects."""
    out = []
    for choice in product((0, 1), repeat=len(sg.squares)):
        removed = set()
        for si, pick in enumerate(choice):
            m1, m2 = sg.square_matchings(si)
            removed |= m2 if pick == 0 else m1
        if connected_without(sg.graph, frozenset(removed)):
            out.append(frozenset(range(sg.graph.edge_count)) - removed)
    return out


def satisfies_exchange(fam):
    """Whether the family fam satisfies the delta-matroid exchange axiom."""
    for d1 in fam:
        for d2 in fam:
            for j in d1 ^ d2:
                if not any(d1 ^ frozenset({j, k}) in fam for k in d1 ^ d2):
                    return False
    return True


def one_tree_ok(n, edges):
    # n edges, two at node 0, spanning tree on the remaining nodes; a
    # union-find of its own, independent of graphcore.DisjointSet
    if len(edges) != n or sum(1 for e in edges if 0 in e) != 2:
        return False
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        if 0 in (u, v):
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return len({find(v) for v in range(1, n)}) == 1


def four_half_edge_cuts(sp):
    """Cuts made of two matching pair classes of a checked square point:
    remove the union of a class pair and keep it only if the support falls
    into two sides that every removed edge crosses."""
    x = sp.point
    cuts = []
    for pa, pb in combinations(sp.pair_partition, 2):
        union = {sp.keys[e] for e in pa | pb}
        ds = DisjointSet(x.n)
        for u, v in x.support:
            if (u, v) not in union:
                ds.union(u, v)
        roots = {ds.find(v) for v in range(x.n)}
        if len(roots) != 2:
            continue
        if all(ds.find(u) != ds.find(v) for u, v in union):
            cuts.append(frozenset(union))
    return cuts


def random_connected_graph(rng, n, extra):
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((min(u, v), max(u, v)))
    return MultiGraph(n, edges)


def swap_pairs(x, rounds, pick):
    """Up to `rounds` swaps of two equal-valued edges a-b, c-d for a-c, b-d,
    each chosen by pick from all possible ones: doubled degrees stay 4,
    while cuts may fall below 4 and the support may fall apart."""
    support = dict(x.support)
    for _ in range(rounds):
        swaps = [
            (e, f, new)
            for e, f in combinations(sorted(support), 2)
            if support[e] == support[f] and len({*e, *f}) == 4
            for new in ((edge_key(e[0], f[0]), edge_key(e[1], f[1])),
                        (edge_key(e[0], f[1]), edge_key(e[1], f[0])))
            if not set(new) & set(support)
        ]
        if not swaps:
            break
        e, f, new = pick(swaps)
        x2 = support.pop(e)
        del support[f]
        support.update(dict.fromkeys(new, x2))
    return HalfIntegerPoint(x.n, support)


def simple_half_point(rng):
    """x = 1/2 on every edge of a simple random 4-regular graph on 5..12
    nodes: every node meets four 1/2-edges."""
    while True:
        n = rng.randint(5, 12)
        g, _ = random_four_regular(n, rng)
        keys = {edge_key(u, v) for u, v in g.edges}
        if len(keys) == 2 * n and all(u != v for u, v in keys):
            return HalfIntegerPoint(n, dict.fromkeys(keys, 1))


def half_cycle_point(rng):
    """1/2-edges on the cycle 0..n-1 and 1-edges on a random perfect
    matching of chords, n even in 6..16."""
    n = 2 * rng.randint(3, 8)
    cycle = {edge_key(i, (i + 1) % n) for i in range(n)}
    while True:
        nodes = list(range(n))
        rng.shuffle(nodes)
        chords = {edge_key(a, b) for a, b in zip(nodes[0::2], nodes[1::2])}
        if not chords & cycle:
            return HalfIntegerPoint(n, {**dict.fromkeys(cycle, 1), **dict.fromkeys(chords, 2)})


def tie_matrices(seeds):
    """Tie-heavy costs 0..2 on up to 16 points, every tenth matrix on up to 64."""
    for seed in seeds:
        rng = random.Random(seed)
        p = 2 * rng.randint(1, 32 if seed % 10 == 0 else 8)
        yield [[rng.randint(0, 2) for _ in range(p)] for _ in range(p)]


def t_distance_matrix(x, costs):
    """The distances between the T nodes that run_tour matches on x: the
    odd-degree nodes of its rainbow 1-tree."""
    sp = square_point(x, costs)
    deg = Counter(v for e in rainbow(sp).edges for v in e)
    t = sorted(v for v in deg if deg[v] % 2)
    rows = [shortest_paths_from(sp.weighted, a, t)[0] for a in t]
    return [[row[b] for b in t] for row in rows]


def random_chained_multigraph(rng):
    """A connected multigraph whose core (a random tree plus random extra
    edges, loops and parallel edges among them) has every edge subdivided
    into a chain of 1..4 edges, with weights 0..5, shuffled node labels and
    edge order, and an even T drawn from all nodes, chain interiors
    (degree 2) included."""
    core = rng.randint(1, 6)
    pairs = [(rng.randrange(v), v) for v in range(1, core)]
    pairs += [(rng.randrange(core), rng.randrange(core)) for _ in range(rng.randint(0, 6))]
    n = core
    edges = []
    for u, v in pairs:
        length = rng.randint(1, 4)
        nodes = [u, *range(n, n + length - 1), v]
        n += length - 1
        edges += zip(nodes, nodes[1:])
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in edges]
    rng.shuffle(edges)
    wg = WeightedGraph(MultiGraph(n, edges), [rng.randint(0, 5) for _ in edges])
    return wg, rng.sample(range(n), 2 * rng.randint(0, n // 2))


def ham_digest_points(s):
    """Per square count s, path lengths 1..3 with costs in 0..100 and in 0..2
    (many equal matching costs); for s = "donut", donuts k=2..12."""
    if s == "donut":
        for k in range(2, 13):
            inst = make_donut(k)
            yield inst.point, inst.costs
        return
    for length in (1, 2, 3):
        x = random_square_point(s, length, s + 100 * length)
        for high in (100, 2):
            yield x, random_costs(x, s + 100 * length, 0, high)


def ladder_points(s):
    """Ladder points with s squares and 1-paths of length 1, costs 0..2 and 0..100."""
    for seed in range(3):
        x = random_square_point(s, 1, seed)
        for high in (2, 100):
            yield x, random_costs(x, seed, 0, high)


def tour_report_cases(square_seeds):
    """Donuts k=2..12 with their own costs and with costs 0..2, and random
    square points with 1-12 squares, 1-paths of length 1-5 and costs 0..2."""
    cases = []
    for k in range(2, 13):
        inst = make_donut(k)
        cases += [(inst.point, inst.costs), (inst.point, random_costs(inst.point, k, 0, 2))]
    for seed in square_seeds:
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 12), rng.randint(1, 5), rng)
        cases.append((x, random_costs(x, rng, 0, 2)))
    return cases


def sha256_hex(chunks):
    """sha256 over the chunks, strings encoded as UTF-8, in order."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def spy(monkeypatch, owners, name, record):
    """Set `name` on every owner to one wrapper that calls record with the
    call's arguments and then the first owner's original.  An owner without
    the name gains it, so a later import of it there is caught too."""
    fn = getattr(owners[0], name)

    def wrapped(*args, **kwargs):
        record(*args, **kwargs)
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, wrapped, raising=False)


def run_cli(argv, stdin=""):
    """cli.main in this process on the given stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()
