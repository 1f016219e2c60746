import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squaretour import treesel
from squaretour.graphcore import DisjointSet
from squaretour.halfpoint import HalfIntegerPoint, edge_key, square_point
from squaretour.instances import make_donut, random_costs, random_square_point
from squaretour.oracles import brute_rainbow
from squaretour.treesel import RainbowOneTree, rainbow


def single_square_point():
    support = {
        (0, 1): 1,
        (1, 2): 1,
        (2, 3): 1,
        (0, 3): 1,
        (0, 4): 2,
        (2, 4): 2,
        (1, 5): 2,
        (3, 5): 2,
    }
    return HalfIntegerPoint(6, support)


def one_tree_ok(x, edges):
    # n edges, two at node 0, a forest (so a spanning tree) on the rest
    if len(edges) != x.n or sum(1 for u, _ in edges if u == 0) != 2:
        return False
    ds = DisjointSet(x.n)
    return all(ds.union(u, v) for u, v in edges if u != 0)


def test_single_square_rainbow_enumeration():
    x = single_square_point()
    unit = {e: 1 for e in x.support}
    sp = square_point(x, unit)
    ones = [e for e, v in x.support.items() if v == 2]
    cls_a, cls_b = [sorted(sp.keys[e] for e in p) for p in sp.pair_partition]
    valid = []
    for ea in cls_a:
        for eb in cls_b:
            cand = frozenset(ones) | {ea, eb}
            if one_tree_ok(x, cand):
                valid.append(cand)
    assert len(valid) == 2  # the two corner choices through node 0 that chain
    tree = rainbow(sp)
    assert tree.cost == 6  # equals c.x for unit costs
    assert tree.edges in valid
    assert min(sum(unit[e] for e in v) for v in valid) == 6


def test_rainbow_donut_cost_bound():
    inst = make_donut(2)
    tree = rainbow(square_point(inst.point, inst.costs))
    bedges, bcost = brute_rainbow(inst.point, inst.costs)
    assert tree.cost == bcost
    assert tree.cost <= 14  # 2 cost <= c.x2 = 28
    assert 2 * tree.cost <= inst.point.cost_x2(inst.costs)


def test_rainbow_rejects_a_selection_that_is_not_a_one_tree(monkeypatch):
    """rainbow's own 1-tree check, fed two bad selections on donut k=3: none
    at all (too few edges), and one of the right size that takes all four
    edges of a square off node 0, a 4-cycle, and neither pick of another."""
    inst = make_donut(3)
    sp = square_point(inst.point, inst.costs)
    good = treesel._cheapest_rainbow(sp)
    full = next(sq for sq in sp.squares if all(0 not in sp.keys[e] for e in sq))
    other = next(sq for sq in sp.squares if sq != full)
    closed = (good | frozenset(full)) - frozenset(other)
    assert len(closed) == len(good)
    for bad in (frozenset(), closed):
        monkeypatch.setattr(treesel, "_cheapest_rainbow", lambda sp, bad=bad: bad)
        with pytest.raises(RuntimeError, match="^rainbow selection is not a 1-tree$"):
            rainbow(sp)


def test_rainbow_structure_and_brute_agreement():
    for seed in range(60):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(1, 4), rng.randint(1, 3), 600 + seed)
        costs = random_costs(x, seed)
        sp = square_point(x, costs)
        tree = rainbow(sp)
        ones = {e for e, v in x.support.items() if v == 2}
        assert ones <= tree.edges, seed
        for pair in sp.pair_partition:
            assert len(tree.edges & {sp.keys[e] for e in pair}) == 1, seed
        assert len(tree.edges) == x.n, seed
        assert one_tree_ok(x, tree.edges), seed
        _, bcost = brute_rainbow(x, costs)
        assert tree.cost == bcost, seed
        assert 2 * tree.cost <= x.cost_x2(costs), seed


# sha256 over repr(sorted(tree.edges)) of the four trees per square count,
# recorded with the generic matroid-intersection implementation this module
# used to have; ties between equal-cost trees must still break the same way
SCALE_DIGESTS = {
    8: "cd68f3600bc8158719a1480f7e937a056c6b084b95c274a0029e1b46a2c0a4ea",
    16: "74733861616aa6183e9dce06b2af7387a067a0c9663cec31b9e4eeb0f489bb89",
    24: "8b52753bd9137b2b6fbc4d125cc58b9bdf93fb9b26e731fb021799eb6fcc4621",
    32: "e92d4fc3aa5a2f58dff37e3b80f7a66992521b397d6d5ddd7b021dbc436e220b",
    48: "dfb944b194ca5cbc989eeb792a29bbe9d976c1cc3daa9b21474a0701c38a1a69",
    64: "3c882f4ca1c494e0b8f2ee3081396f8881a1c1ae4b63f90f9a57d193e2944945",
}


# the same digest at the sizes where the rainbow's rounds cost most
SCALE_DIGESTS_EXTENDED = {
    128: "a11158094216b90374546a5f2a02fd2c292e92177b09e4044a5706be19035097",
    256: "4a4a6b819e5b441fe29ea10d95563bd02b6c3651c210d83d58f7c1b4edeceba6",
}


def scale_trees_digest(s):
    h = hashlib.sha256()
    for j in range(4):
        x = random_square_point(s, 1, s + 100 * j)
        tree = rainbow(square_point(x, random_costs(x, s + 100 * j)))
        h.update(repr(sorted(tree.edges)).encode())
    return h.hexdigest()


def test_rainbow_trees_unchanged_at_scale():
    # past brute_rainbow's 6-square cap: the trees themselves are pinned
    for s, want in SCALE_DIGESTS.items():
        assert scale_trees_digest(s) == want, s


@pytest.mark.extended
def test_rainbow_trees_unchanged_at_scale_extended():
    for s, want in SCALE_DIGESTS_EXTENDED.items():
        assert scale_trees_digest(s) == want, s


def test_rainbow_trees_unchanged_on_many_ties():
    # costs in 0..2 leave many equal-cost trees; the sink tie-break compares
    # repr(edge), which is not key order ("(3, 10)" < "(3, 4)"), and most of
    # these points have more than 10 nodes
    h = hashlib.sha256()
    for i in range(320):
        x = random_square_point(1 + i % 8, 1 + i // 8 % 3, 9000 + i)
        tree = rainbow(square_point(x, random_costs(x, 9000 + i, 0, 2)))
        h.update(repr(sorted(tree.edges)).encode())
    assert h.hexdigest() == "95bd4f4072cd37a9c0a0f624a7adaec89e43f2aa95463d7cbde35bf6696015b4"


def test_rainbow_trees_unchanged_on_large_donuts():
    # past the workloads' k <= 12, where the rainbow's rounds run long: these
    # 36 trees take 22090 Bellman-Ford sweeps, which set 40190 edges aside
    # for the next sweep; canonical costs, then many ties
    h = hashlib.sha256()
    for k in range(13, 31):
        inst = make_donut(k)
        for costs in (inst.costs, random_costs(inst.point, k, 0, 2)):
            tree = rainbow(square_point(inst.point, costs))
            h.update(repr(sorted(tree.edges)).encode())
    assert h.hexdigest() == "db562d21f8559307d436b4017eb0b62f891491d1034f5654ed7dcb4f6dda1023"


def relabelled(x, perm):
    """x with node v renamed perm[v]."""
    return HalfIntegerPoint(x.n, {edge_key(perm[u], perm[v]): x2 for (u, v), x2 in x.support.items()})


def inside_one_path(x, v):
    """Whether v lies inside a 1-path: both of its support edges are 1-edges."""
    return sum(1 for e in x.one_edges() if v in e) == 2


def test_rainbow_trees_unchanged_on_relabelled_points():
    # random_square_point puts a square corner at node 0; a seeded shuffle,
    # in every other point with a 1-path interior node moved to 0, covers a
    # node 0 of support degree 2 and forest roots other than a corner
    h = hashlib.sha256()
    zero_inside = 0
    for i in range(360):
        rng = random.Random(7000 + i)
        x = random_square_point(rng.randint(1, 6), rng.randint(1, 4), rng)
        perm = list(range(x.n))
        rng.shuffle(perm)
        inner = [v for v in range(x.n) if inside_one_path(x, v)]
        if i % 2 and inner:
            v = rng.choice(inner)
            j = perm.index(0)
            perm[j], perm[v] = perm[v], 0
        y = relabelled(x, perm)
        zero_inside += inside_one_path(y, 0)
        low, high = rng.choice([(0, 0), (0, 1), (0, 100)])
        tree = rainbow(square_point(y, random_costs(y, rng, low, high)))
        h.update(repr(sorted(tree.edges)).encode())
    for k in range(2, 13):
        inst = make_donut(k)
        tree = rainbow(square_point(inst.point, inst.costs))
        h.update(repr(sorted(tree.edges)).encode())
    assert zero_inside >= 50
    assert h.hexdigest() == "7e106e63cc7a34067e1f86db608f8163705806ec823e9c37b398e8824662b4f2"


@st.composite
def relabelled_points_with_ties(draw):
    """A random square point with 1-4 squares and 1-paths of length 1-3,
    its nodes permuted, and costs in 0..2."""
    x = random_square_point(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                            draw(st.integers(0, 10**6)))
    y = relabelled(x, draw(st.permutations(range(x.n))))
    costs = draw(st.lists(st.integers(0, 2), min_size=len(y.support), max_size=len(y.support)))
    return y, dict(zip(sorted(y.support), costs))


@settings(max_examples=150)
@given(relabelled_points_with_ties())
def test_rainbow_matches_brute_on_relabelled_ties(case):
    x, costs = case
    sp = square_point(x, costs)
    tree = rainbow(sp)
    assert tree.cost == brute_rainbow(x, costs)[1]
    assert set(x.one_edges()) <= tree.edges
    for pair in sp.pair_partition:
        assert len(tree.edges & {sp.keys[e] for e in pair}) == 1
    assert one_tree_ok(x, tree.edges)


@st.composite
def relabelled_points(draw):
    """A random square point, an integral cycle or a donut, its nodes
    permuted, in half the square points and donuts with a node inside a
    1-path moved to node 0."""
    kind = draw(st.sampled_from(["square", "integral", "donut"]))
    if kind == "square":
        x = random_square_point(draw(st.integers(1, 6)), draw(st.integers(1, 4)),
                                draw(st.integers(0, 10**6)))
    elif kind == "integral":
        n = draw(st.integers(3, 12))
        x = HalfIntegerPoint(n, {edge_key(i, (i + 1) % n): 2 for i in range(n)})
    else:
        x = make_donut(draw(st.integers(2, 6))).point
    perm = draw(st.permutations(range(x.n)))
    inner = [v for v in range(x.n) if inside_one_path(x, v)]
    if kind != "integral" and inner and draw(st.booleans()):
        v = draw(st.sampled_from(inner))
        j = perm.index(0)
        perm[j], perm[v] = perm[v], 0
    return relabelled(x, perm)


@settings(max_examples=150)
@given(relabelled_points())
def test_parts_split_the_corners_as_the_one_edges_do(x):
    # the labels read off the reduction's chains against a union-find over
    # every 1-edge off node 0, on node 0 and every kept node
    sp = square_point(x, dict.fromkeys(x.support, 1))
    comp, m = treesel._parts(sp)
    ds = DisjointSet(x.n)
    for u, v in x.one_edges():
        if u != 0:
            ds.union(u, v)
    nodes = sorted({0, *sp.reduction.kept})
    assert sorted(comp) == nodes
    assert all(0 <= comp[v] < m for v in nodes)
    for a, b in combinations(nodes, 2):
        assert (comp[a] == comp[b]) == (ds.find(a) == ds.find(b)), (a, b)


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


def test_rainbow_square_pair_cuts_met_twice():
    # the k=2 donut has the inner and outer ring cuts, four 1/2-edges each;
    # a rainbow tree crosses every such cut exactly twice
    inst = make_donut(2)
    sp = square_point(inst.point, inst.costs)
    cuts = four_half_edge_cuts(sp)
    assert len(cuts) == 2
    tree = rainbow(sp)
    for cut in cuts:
        assert len(tree.edges & cut) == 2
    for seed in range(40):
        rng = random.Random(seed)
        x = random_square_point(rng.randint(2, 4), rng.randint(1, 2), 880 + seed)
        costs = random_costs(x, seed)
        sp = square_point(x, costs)
        tree = rainbow(sp)
        for cut in four_half_edge_cuts(sp):
            assert len(tree.edges & cut) == 2, seed


def test_rainbow_rejects_degenerate_and_bad_costs():
    # an integral point's rainbow 1-tree is its 1-edge cycle
    cyc = HalfIntegerPoint(5, {edge_key(i, (i + 1) % 5): 2 for i in range(5)})
    assert rainbow(square_point(cyc, {e: 1 for e in cyc.support})) == RainbowOneTree(frozenset(cyc.support), 5)
    x = single_square_point()
    costs = {e: 1 for e in x.support}
    del costs[(0, 1)]
    with pytest.raises(ValueError, match="missing cost"):
        rainbow(square_point(x, costs))
