import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    four_half_edge_cuts,
    inside_one_path,
    integral_cycle,
    one_tree_ok,
    relabelled,
    single_square_point,
    unit_square_point,
)
from squaretour import treesel
from squaretour.graphcore import DisjointSet
from squaretour.halfpoint import square_point
from squaretour.instances import make_donut, random_costs, random_square_point
from squaretour.oracles import brute_rainbow
from squaretour.treesel import RainbowOneTree, rainbow


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
            if one_tree_ok(x.n, cand):
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
        assert one_tree_ok(x.n, tree.edges), seed
        _, bcost = brute_rainbow(x, costs)
        assert tree.cost == bcost, seed
        assert 2 * tree.cost <= x.cost_x2(costs), seed


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
    assert one_tree_ok(x.n, tree.edges)


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
        x = integral_cycle(draw(st.integers(3, 12)))
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
    sp = unit_square_point(x)
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
    cyc = integral_cycle(5)
    assert rainbow(square_point(cyc, {e: 1 for e in cyc.support})) == RainbowOneTree(frozenset(cyc.support), 5)
    x = single_square_point()
    costs = {e: 1 for e in x.support}
    del costs[(0, 1)]
    with pytest.raises(ValueError, match="missing cost"):
        rainbow(square_point(x, costs))
