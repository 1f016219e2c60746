"""Every pinned output digest, one row per pool and size.

A row hashes, with helpers.sha256_hex, the text of the outputs a fixed pool
of inputs gives: min-cut sides, classes and squares, Kotzig trails, matching
mates, T-join edge sets, HAM orders, tour reports, rainbow 1-trees and the
CLI's bytes.  Each digest was recorded from trusted code and must not move:
a change that alters any of these outputs, a tie among equal costs broken
another way included, fails its row by name.  Run every row with

    python3 -m pytest tests/test_identity.py -m 'extended or not extended'
"""

import ast
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    CUT_BAD,
    half_cycle_point,
    ham_digest_points,
    inside_one_path,
    ladder_points,
    random_chained_multigraph,
    random_connected_graph,
    relabelled,
    run_cli,
    sha256_hex,
    simple_half_point,
    swap_pairs,
    t_distance_matrix,
    tie_matrices,
    tour_report_cases,
    unit_square_point,
)
from squaretour import tjoin
from squaretour.graphcore import WeightedGraph, global_min_cut
from squaretour.halfpoint import PointClass, square_point, validate_and_classify
from squaretour.instances import make_donut, random_bitransition_system, random_costs, random_square_point
from squaretour.kotzig import find_trail
from squaretour.tjoin import min_t_join
from squaretour.tour import hamiltonian, run_tour
from squaretour.treesel import rainbow
from test_budgets import COUNTERS


def min_cut_witnesses():
    # the phase start (lowest active id) and the tie-break (lowest id among
    # the most connected) choose the side among equal cuts
    for seed in range(300):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 14), rng.randint(0, 20))
        wg = WeightedGraph(g, tuple(rng.randint(0, 4) for _ in range(g.edge_count)))
        val, side = global_min_cut(wg)
        yield repr((val, sorted(side)))


def classes_and_squares():
    """validate_and_classify's class and witness, and square_point's squares,
    on random square points, all-1/2 points on 4-regular graphs, 1/2-cycles
    with matched chords and edge-swapped square points."""
    points = []
    for seed in range(60):
        rng = random.Random(seed)
        points.append(random_square_point(rng.randint(1, 12), rng.randint(1, 4), rng))
        points.append(swap_pairs(random_square_point(rng.randint(1, 3), rng.randint(1, 3), rng),
                                 rng.randint(1, 3), rng.choice))
    for seed in range(20):
        rng = random.Random(seed)
        points += [simple_half_point(rng), half_cycle_point(rng)]
    classes = Counter()
    for x in points:
        report, cls = validate_and_classify(x)
        classes[cls and cls.value] += 1
        yield f"{x.n} {sorted(x.support.items())} {cls and cls.value} {report.witness()}\n"
        if cls in (PointClass.SQUARE, PointClass.BOYD_CARR):
            yield f"{unit_square_point(x).squares}\n"
    assert classes == {"SQUARE": 59, "BOYD-CARR": 31, "HALF-INTEGER": 36, "CARR-VEMPALA": 21, None: 13}


def trails(n):
    # taken from the blow-up search that the splitting greedy replaced
    for j in range(3):
        yield repr(find_trail(random_bitransition_system(n, n + 100 * j)).darts)


def mates(matrices):
    """_match's mates, not only the weight, on each matrix."""
    for d in matrices:
        yield repr(tjoin._match(d))


def mates_on_ties_nests_and_ladders():
    # ties; d(i, j) = i + j, whose blossoms nest; and the T-distance matrices
    # of ladder points at s=64 and s=128, as the blossom walks chose their mates
    yield from mates(tie_matrices(range(2000)))
    yield from mates([[[i + j for j in range(64)] for i in range(64)]])
    for s in (64, 128):
        x = random_square_point(s, 1, 0)
        yield from mates([t_distance_matrix(x, random_costs(x, 0))])


def t_joins(seeds):
    # the edge sets, not only their weights: with weights 0..5 ties abound
    for seed in seeds:
        wg, t_nodes = random_chained_multigraph(random.Random(seed))
        yield f"{sorted(min_t_join(wg, t_nodes))}\n"


def hams(points):
    # past brute_ham's cap: the cycles themselves, ties included
    for x, costs in points:
        yield repr(hamiltonian(square_point(x, costs)).order)


def tour_reports(seeds):
    # ties among equal T-joins, 1-trees and shortcuts abound at costs 0..2
    for x, costs in tour_report_cases(seeds):
        r = run_tour(x, costs)
        yield f"{sorted(r.j_star.items())} {r.final_cycle} {r.final_cost}\n"


def tour_reports_at_scale(cases):
    # where the matching and the rainbow take most of the time, on
    # random_square_point(s, 1, seed) with costs 0..high
    for s, seed, high in cases:
        x = random_square_point(s, 1, seed)
        r = run_tour(x, random_costs(x, seed, 0, high))
        yield f"{sorted(r.j_star.items())} {r.final_cycle} {r.final_cost} {r.hamiltonian.order}\n"


def trees(points):
    # recorded with the generic matroid-intersection implementation treesel
    # used to have; ties between equal-cost trees must break the same way
    for x, costs in points:
        yield repr(sorted(rainbow(square_point(x, costs)).edges))


def scale_points(s):
    # past brute_rainbow's 6-square cap
    for j in range(4):
        x = random_square_point(s, 1, s + 100 * j)
        yield x, random_costs(x, s + 100 * j)


def tie_points():
    # costs in 0..2 leave many equal-cost trees; the sink tie-break compares
    # repr(edge), which is not key order ("(3, 10)" < "(3, 4)"), and most of
    # these points have more than 10 nodes
    for i in range(320):
        x = random_square_point(1 + i % 8, 1 + i // 8 % 3, 9000 + i)
        yield x, random_costs(x, 9000 + i, 0, 2)


def large_donuts():
    # past the workloads' k <= 12, where the rainbow's rounds run long: these
    # 36 trees take 22090 Bellman-Ford sweeps, which set 40190 edges aside for
    # the next sweep; canonical costs, then many ties
    for k in range(13, 31):
        inst = make_donut(k)
        for costs in (inst.costs, random_costs(inst.point, k, 0, 2)):
            yield inst.point, costs


def relabelled_pool():
    # random_square_point puts a square corner at node 0; a seeded shuffle, in
    # every other point with a 1-path interior node moved to 0, covers a node
    # 0 of support degree 2 and forest roots other than a corner
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
        yield y, random_costs(y, rng, low, high)
    for k in range(2, 13):
        inst = make_donut(k)
        yield inst.point, inst.costs
    assert zero_inside >= 50


def cli_bytes():
    """argv, exit code, stdout and stderr of `validate`, `ham` and `tour` on
    donuts k=2, 3, 7, three random square points and CUT_BAD, and of
    `oracle opt` on donut k=2 and CUT_BAD, with the generators' own bytes."""
    texts = []
    for argv in (["donut", "--k", "2"], ["donut", "--k", "3"], ["donut", "--k", "7"],
                 *(["random-square", "--squares", s, "--max-path", m, "--seed", seed]
                   for s, m, seed in (("4", "2", "1"), ("16", "1", "7"), ("32", "3", "3")))):
        result = run_cli(argv)
        yield repr((argv, *result))
        texts.append(result[1])
    for text in texts + [CUT_BAD]:
        opt = [["oracle", "opt"]] if text in (texts[0], CUT_BAD) else []
        for argv in (["validate"], ["ham"], ["tour"], *opt):
            yield repr((argv, *run_cli(argv, text)))


def row(name, chunks, digest, *marks):
    return pytest.param(chunks, digest, id=name, marks=marks)


EXTENDED = pytest.mark.extended
ROWS = [
    row("min-cut-witnesses", min_cut_witnesses,
        "effc0c1efa7d41dee5c7fbe97fede33e287f98b21af84e782eb34651e5a8cab5"),
    row("classes-and-squares", classes_and_squares,
        "282888a2c8892623d9023afb1c252c89af90d2a33170fa0596291b5390bef7a2"),
    row("trails-50", lambda: trails(50),
        "b281a14762fa7f9482400efd4e60eb8ccf6626ca99d4b9c06fbefadd35610d8d"),
    row("trails-300", lambda: trails(300),
        "01288814c51160a9a4345ba4021c4e3f637576d823b6302183984de493222fdb"),
    row("trails-600", lambda: trails(600),
        "8fcf7c79ae5b97e112260a6af5c7dc986577e78780aa479a2ebb0a1796cd2b15"),
    row("trails-1200", lambda: trails(1200),
        "97d3c47ba52344ccf39a11219348907e0887f31db104f633a1d50c207a5795cf"),
    row("trails-2400", lambda: trails(2400),
        "e4cc5adf0a89f854d7e8f9e246f48fd81b001631e2d9b7ebabacf20cff7cff80"),
    row("mates", mates_on_ties_nests_and_ladders,
        "f3cd3453ec47fce360e0f225eb446eaac3b5bba1ee3631a12050b5858f531c71"),
    row("mates-extended", lambda: mates(tie_matrices(range(2000, 12000))),
        "28bae4dfbfe97b754139b36a922b67910043bb5caec3a3db88c0d16364a8f10c", EXTENDED),
    row("t-joins", lambda: t_joins(range(1000)),
        "0878140dabf10bed5408253b4b83fee05d45899874cb5923426347d354b42d7d"),
    row("t-joins-extended", lambda: t_joins(range(1000, 6000)),
        "902b81ccb48865af6a546ddca859382f5c153af6f34a704c7b63a6125367f90e", EXTENDED),
    row("ham-8", lambda: hams(ham_digest_points(8)),
        "2d06232aed0f918eb58c90fd55e00e3d944d3036ea3045738531163cf7794551"),
    row("ham-16", lambda: hams(ham_digest_points(16)),
        "b77da03d53e60b1d04f7bbd03af7430c52543abc9394448705fcce9ed0d05d00"),
    row("ham-24", lambda: hams(ham_digest_points(24)),
        "fffde3a43c9eb478364c7ecb06ccbcbd5bcab5f06a59a911ae237b10925c198f"),
    row("ham-32", lambda: hams(ham_digest_points(32)),
        "e4af4bee2f34bbbb51490aff4d3729a539433414ea92ed1ef9e4a5764aab156e"),
    row("ham-donut", lambda: hams(ham_digest_points("donut")),
        "e99edb258d2ce03d1407f284bbd31f5d53878910d6a4354df6b080c7f8512ed0"),
    row("ham-ladder-128", lambda: hams(ladder_points(128)),
        "ee3d47c734ad7781977ed9209d7681c90ca7541cfbe281788323db02d95676aa", EXTENDED),
    row("ham-ladder-256", lambda: hams(ladder_points(256)),
        "b3253868b3cb61e8eefacdd3a62e70b8eaa0be4735d28ba61077868bdc5518d0", EXTENDED),
    row("tour-reports", lambda: tour_reports(range(150)),
        "8e20df12c6f74e7726bde4087af7a3255a4d7ea72740ccedfb210fb6f36710d3"),
    row("tour-reports-extended", lambda: tour_reports(range(150, 900)),
        "262af1155ed667a1dd5c8888542342ab7226df5c05a3ed526aed0453b8a07193", EXTENDED),
    row("tour-reports-at-scale",
        lambda: tour_reports_at_scale([(64, 0, 100), (64, 1, 100), (64, 0, 2), (64, 1, 2), (128, 0, 2)]),
        "61996636bdbae69a3df4892ea16d4c59f37a06b6bf8930fc6c36a684d05c0841"),
    row("tour-reports-at-scale-extended",
        lambda: tour_reports_at_scale([(256, 0, 100), (256, 1, 100), (256, 0, 2), (256, 1, 2)]),
        "bff5d3d774626c2d09f80b3581381320da221d001344d33ed979a257a6519328", EXTENDED),
    row("trees-8", lambda: trees(scale_points(8)),
        "cd68f3600bc8158719a1480f7e937a056c6b084b95c274a0029e1b46a2c0a4ea"),
    row("trees-16", lambda: trees(scale_points(16)),
        "74733861616aa6183e9dce06b2af7387a067a0c9663cec31b9e4eeb0f489bb89"),
    row("trees-24", lambda: trees(scale_points(24)),
        "8b52753bd9137b2b6fbc4d125cc58b9bdf93fb9b26e731fb021799eb6fcc4621"),
    row("trees-32", lambda: trees(scale_points(32)),
        "e92d4fc3aa5a2f58dff37e3b80f7a66992521b397d6d5ddd7b021dbc436e220b"),
    row("trees-48", lambda: trees(scale_points(48)),
        "dfb944b194ca5cbc989eeb792a29bbe9d976c1cc3daa9b21474a0701c38a1a69"),
    row("trees-64", lambda: trees(scale_points(64)),
        "3c882f4ca1c494e0b8f2ee3081396f8881a1c1ae4b63f90f9a57d193e2944945"),
    row("trees-128", lambda: trees(scale_points(128)),
        "a11158094216b90374546a5f2a02fd2c292e92177b09e4044a5706be19035097", EXTENDED),
    row("trees-256", lambda: trees(scale_points(256)),
        "4a4a6b819e5b441fe29ea10d95563bd02b6c3651c210d83d58f7c1b4edeceba6", EXTENDED),
    row("trees-with-ties", lambda: trees(tie_points()),
        "95bd4f4072cd37a9c0a0f624a7adaec89e43f2aa95463d7cbde35bf6696015b4"),
    row("trees-large-donuts", lambda: trees(large_donuts()),
        "db562d21f8559307d436b4017eb0b62f891491d1034f5654ed7dcb4f6dda1023"),
    row("trees-relabelled", lambda: trees(relabelled_pool()),
        "7e106e63cc7a34067e1f86db608f8163705806ec823e9c37b398e8824662b4f2"),
    row("cli-bytes", cli_bytes,
        "714b0f5eeb5c25dafa8828941d3e179666ad43e2a464fa477eebaaacdd91571c"),
]


@pytest.mark.parametrize("chunks, digest", ROWS)
def test_pinned_outputs_are_unchanged(chunks, digest):
    assert sha256_hex(chunks()) == digest


def test_each_builder_and_pin_lives_in_one_place():
    # a builder is defined in one file, helpers.py if two modules need it,
    # and a new pinned digest is a row of ROWS, not a literal elsewhere
    where = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        text = path.read_text()
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_"):
                assert node.name not in where, (node.name, where.get(node.name), path.name)
                where[node.name] = path.name
        if path.name != "test_identity.py":
            assert not re.search(r"\b[0-9a-f]{64}\b", text), path.name


def test_each_work_pin_is_a_budget_row():
    # a spy or patch on a function that COUNTERS counts belongs in
    # test_budgets.py's table; the name must be a literal to be read here
    counted = {fn for _, fn, _ in COUNTERS.values()}
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        if path.name == "test_budgets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee in ("spy", "setattr") and len(node.args) >= 3:
                    name = node.args[2 if callee == "spy" else 1]
                    assert isinstance(name, ast.Constant), (path.name, node.lineno)
                    assert name.value not in counted, (path.name, node.lineno, name.value)
