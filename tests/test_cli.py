import contextlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squaretour
from helpers import donut_text, run_cli
from squaretour import cli, tour
from squaretour.cli import main
from squaretour.halfpoint import square_point
from squaretour.instances import (
    make_donut,
    parse_bts,
    parse_point,
    random_bitransition_system,
    random_costs,
    random_square_point,
    serialize_bts,
    serialize_point,
)
from squaretour.kotzig import Trail, verify_trail
from squaretour.tour import hamiltonian, run_tour

BANANA_BTS = """BTS 2
E 0 0 1
E 1 0 1
E 2 0 1
E 3 0 1
F 0 0.0 1.0 2.0 3.0
F 1 0.1 1.1 2.1 3.1
END
"""

# parses fine, fails validation: doubled degree is 2 everywhere
DEGREE_BAD = """POINT 4
E 0 1 1 5
E 1 2 1 5
E 2 3 1 5
E 0 3 1 5
END
"""

# a triangle of 1-edges under a node count no list could hold
HUGE_N = """POINT 99999999999999999999
E 0 1 2 1
E 1 2 2 1
E 0 2 2 1
END
"""

# BANANA_BTS's node 0 under a node count no list could hold
HUGE_BTS = """BTS 99999999999999999999
E 0 0 0
E 1 0 0
F 0 0.0 0.1 1.0 1.1
END
"""


def test_donut_then_tour_pipe():
    code, out, err = run_cli(["donut", "--k", "2"])
    assert code == 0
    assert err == ""
    assert out == donut_text(2)
    code, out, err = run_cli(["tour"], out)
    assert code == 0
    assert out == "cx=28/2 cH=14 cJ=18 tour=14 bound=OK\n"


def test_validate_labels():
    code, out, _ = run_cli(["validate"], donut_text(4))
    assert code == 0
    assert out == "SQUARE\n"


def test_validate_invalid_point_exits_2():
    code, out, _ = run_cli(["validate"], DEGREE_BAD)
    assert code == 2
    assert out == "INVALID degree node=0\n"
    code, out, _ = run_cli(["validate"], HUGE_N)
    assert code == 2
    assert out == "INVALID degree node=3\n"
    for cmd in ("ham", "tour"):
        code, out, err = run_cli([cmd], HUGE_N)
        assert (code, out) == (2, "")
        assert err == "error: not a feasible point: degree node=3\n"


def point_text(n, keys, x2):
    return "".join([f"POINT {n}\n", *(f"E {u} {v} {x2} 1\n" for u, v in keys), "END\n"])


K5_HALVES = point_text(5, [(u, v) for u in range(5) for v in range(u + 1, 5)], 1)


def two_cycles(size):
    """Two node-disjoint cycles of 1-edges, each on `size` nodes."""
    return point_text(2 * size, [(b + i, b + (i + 1) % size) for b in (0, size)
                                 for i in range(size)], 2)


def test_validate_labels_general_and_disconnected_points():
    # every node of K5 meets four 1/2-edges: feasible, but no cycles to walk
    assert run_cli(["validate"], K5_HALVES) == (0, "HALF-INTEGER\n", "")
    code, out, err = run_cli(["validate"], two_cycles(3))
    assert (code, out, err) == (2, "INVALID support disconnected\n", "")
    code, out, err = run_cli(["tour"], two_cycles(3))
    assert (code, out, err) == (2, "", "error: not a feasible point: support disconnected\n")


def test_oracle_opt_rejects_disconnected_graphs():
    # 26 nodes are past the exact-engine cap: connectivity is checked first
    for size in (3, 13):
        code, out, err = run_cli(["oracle", "opt"], two_cycles(size))
        assert (code, out, err) == (2, "", "error: disconnected graph\n"), size


def test_ham_output_shape():
    code, out, _ = run_cli(["ham"], donut_text(2))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cost=14"
    assert lines[1].startswith("cycle=")
    nodes = [int(t) for t in lines[1][len("cycle="):].split()]
    assert sorted(nodes) == list(range(12))


def test_oracle_opt_and_size_cap(monkeypatch):
    code, out, _ = run_cli(["oracle", "opt"], donut_text(2))
    assert code == 0
    assert out == "OPT=14\n"
    # k=5 has 60 nodes, past the exact-engine cap
    code, out, err = run_cli(["oracle", "opt"], donut_text(5))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    # the cap is checked before the n shortest-path searches of the closure
    closures = []
    monkeypatch.setattr(cli, "metric_closure", lambda wg: closures.append(wg))
    code, out, err = run_cli(["oracle", "opt"], donut_text(12))
    assert (code, out, err) == (3, "", "error: instance too large for exact oracle\n")
    assert closures == []


@pytest.mark.extended
def test_oracle_opt_23_nodes_peak_memory(tmp_path):
    # 23 nodes: a 2^22 x 22 uint16 table (185 MB); the layer blocks keep the
    # rest small.  A child process measures its own child's peak RSS.
    path = tmp_path / "p23.point"
    assert main(["random-square", "--squares", "4", "--max-path", "3", "--seed", "7",
                 "--out", str(path)]) == 0
    probe = (
        "import resource, subprocess, sys\n"
        "r = subprocess.run([sys.executable, '-m', 'squaretour.cli', 'oracle', 'opt', sys.argv[1]],"
        " capture_output=True, text=True)\n"
        "print(r.returncode, r.stdout.strip(),"
        " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)\n"
    )
    src = str(Path(squaretour.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True,
                         text=True, check=True, env=env)
    code, opt, rss_mb = out.stdout.split()
    assert (code, opt) == ("0", "OPT=767")
    assert int(rss_mb) <= 300


@pytest.mark.parametrize("exc", [RuntimeError("theorem violated"),
                                 AssertionError("matching is not perfect")])
def test_internal_error_exits_4(exc, monkeypatch):
    def broken(x, costs):
        raise exc

    monkeypatch.setattr(cli, "run_tour", broken)
    code, out, err = run_cli(["tour"], donut_text(2))
    assert (code, out, err) == (4, "", f"error: internal: {exc}\n")


def test_unkept_t_node_exits_4(monkeypatch):
    # a reduction without the T nodes is a bug here, not a bad input
    def unkept(wg, red, t_nodes, _fn=tour._t_join):
        return _fn(wg, red._replace(place=[None] * len(red.place)), t_nodes)

    monkeypatch.setattr(tour, "_t_join", unkept)
    code, out, err = run_cli(["tour"], donut_text(2))
    assert (code, out, err) == (4, "", "error: internal: T node not kept by the reduction\n")


def test_ham_of_two_cycles_exits_4(monkeypatch):
    # the greedy's square matchings on donut k=2 with one square flipped
    monkeypatch.setattr(tour, "_ham_edges", lambda sg, cost: frozenset({0, 2, 4, 5, 6, 7, 8, 11}))
    code, out, err = run_cli(["tour"], donut_text(2))
    assert (code, out, err) == (4, "", "error: internal: HAM is not a Hamiltonian cycle\n")


def test_out_of_memory_exits_3(monkeypatch):
    def exhausted(k):
        raise MemoryError

    monkeypatch.setattr(cli, "make_donut", exhausted)
    code, out, err = run_cli(["donut", "--k", "2"])
    assert (code, out, err) == (3, "", "error: out of memory\n")


def test_out_of_memory_in_a_limited_child_exits_3():
    # donut k=3000 has 18,006,000 nodes; the address-space limit is set in
    # the child alone, after the fork, so this process keeps its own
    resource = pytest.importorskip("resource")
    limit = 400 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(squaretour.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-m", "squaretour.cli", "donut", "--k", "3000"],
                         capture_output=True, text=True, env=env, preexec_fn=cap)
    assert (out.returncode, out.stdout, out.stderr) == (3, "", "error: out of memory\n")


def test_import_leaves_out_numpy_and_networkx():
    probe = "import squaretour, squaretour.cli, sys; print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    src = str(Path(squaretour.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "[]\n"


def test_huge_header_fails_before_allocating():
    code, out, err = run_cli(["oracle", "opt"], HUGE_N)
    assert (code, out, err) == (2, "", "error: disconnected graph\n")
    code, out, err = run_cli(["kotzig"], HUGE_BTS)
    assert (code, out, err) == (2, "", "error: missing forbidden pairing for node 1\n")


def test_kotzig_prints_verifiable_trail():
    code, out, err = run_cli(["kotzig"], BANANA_BTS)
    assert code == 0
    toks = out.split()
    assert len(toks) == 8
    darts = []
    for t in toks:
        e, end = t.split(".")
        darts.append(2 * int(e) + int(end))
    sys_ = parse_bts(BANANA_BTS)
    assert verify_trail(sys_, Trail(tuple(darts)))


def test_random_square_deterministic(tmp_path):
    a = tmp_path / "a.point"
    b = tmp_path / "b.point"
    args = ["random-square", "--squares", "4", "--max-path", "2", "--seed", "9"]
    assert run_cli(args + ["--out", str(a)])[0] == 0
    assert run_cli(args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()
    x, costs = parse_point(a.read_text())
    assert len(x.half_edges()) == 16
    assert set(costs) == set(x.support)


def test_donut_out_file(tmp_path):
    path = tmp_path / "d3.point"
    code, out, _ = run_cli(["donut", "--k", "3", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text() == donut_text(3)
    for cmd in (["validate"], ["ham"], ["tour"]):  # a path reads like stdin
        want = run_cli(cmd, donut_text(3))
        assert run_cli(cmd + [str(path)]) == want


def test_parse_error_exits_2():
    code, out, err = run_cli(["tour"], "garbage\n")
    assert code == 2
    assert out == ""
    assert err == "error: line 1: expected 'POINT <n>' header\n"


def test_missing_file_exits_2(tmp_path):
    code, _, err = run_cli(["validate", str(tmp_path / "nope.point")])
    assert code == 2
    assert err.startswith("error: ")


def test_tour_exact_at_any_cost_scale():
    # path distances past int64 (x 2^58) used to overflow the matching DP's
    # table, and ones near it (x 2^61 // 50) to pass its sentinel
    x = random_square_point(4, 2, 7)
    costs = random_costs(x, 7)
    code, out, _ = run_cli(["tour"], serialize_point(x, costs))
    assert code == 0
    assert out == "cx=1593/2 cH=701 cJ=905 tour=687 bound=OK\n"
    for scale in (2**58, 2**61 // 50):
        scaled = {e: c * scale for e, c in costs.items()}
        code, out, err = run_cli(["tour"], serialize_point(x, scaled))
        assert (code, err) == (0, "")
        assert out == (
            f"cx={1593 * scale}/2 cH={701 * scale} cJ={905 * scale} "
            f"tour={687 * scale} bound=OK\n"
        )


def digit_cap():
    """CPython's cap on int-str digits (3.11 on), None where there is none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextlib.contextmanager
def no_digit_cap():
    cap = digit_cap()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def test_cli_exact_past_the_int_str_digit_cap():
    # costs of 5001 digits, past the 4300 that CPython's int() reads and
    # str() prints by default
    inst = make_donut(3)
    costs = {e: c + 10**5000 for e, c in inst.costs.items()}
    with no_digit_cap():
        text = serialize_point(inst.point, costs)
        rep = run_tour(inst.point, costs)
        want_tour = f"cx={rep.c_x2}/2 cH={rep.c_h} cJ={rep.c_j} tour={rep.final_cost} bound=OK\n"
        ham = hamiltonian(square_point(inst.point, costs))
        want_ham = f"cost={ham.cost}\ncycle=" + " ".join(map(str, ham.order)) + "\n"
    cap = digit_cap()
    for argv, want in ((["tour"], want_tour), (["ham"], want_ham)):
        code, out, err = run_cli(argv, text)
        assert (code, err) == (0, "") and out == want, argv
        assert digit_cap() == cap
    # a 5000-digit cost is read as an integer, then refused for its sign
    minus = "-1" + "0" * 4999
    code, out, err = run_cli(["tour"], f"POINT 3\nE 0 1 2 {minus}\nE 1 2 2 1\nE 0 2 2 1\nEND\n")
    assert (code, out, err) == (2, "", "error: line 2: cost must be nonnegative\n")
    assert digit_cap() == cap


def random_point_text(squares, seed):
    x = random_square_point(squares, 2, seed)
    return serialize_point(x, random_costs(x, seed))


FUZZ_BASES = [
    donut_text(2),
    BANANA_BTS,
    serialize_bts(random_bitransition_system(4, 1)),
    *(random_point_text(1 + seed % 2, seed) for seed in range(3)),
]
FUZZ_TOKENS = ["POINT", "BTS", "E", "F", "END", "#", "0", "1", "2", "3", "-1",
               "0.1", "1.2", "x", "", "99999999999999999999"]


@st.composite
def mutated_files(draw):
    """A valid POINT or BTS file with one to four tokens or lines deleted,
    replaced or inserted, at places drawn by a seeded random.Random (drawn
    one by one, hypothesis would favour the first line)."""
    text = draw(st.sampled_from(FUZZ_BASES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = FUZZ_TOKENS + text.split()
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("del", "put", "ins", "del line", "dup line", "ins line"))
        i = rng.randrange(len(lines)) if lines else 0
        if op == "ins line" or not lines:
            lines.insert(i, rng.choices(pool, k=rng.randint(0, 6)))
        elif op == "del line":
            del lines[i]
        elif op == "dup line":
            lines.insert(i, list(lines[i]))
        else:
            line = lines[i]
            j = rng.randint(0, len(line))
            if op == "ins" or j == len(line):
                line.insert(j, rng.choice(pool))
            elif op == "del":
                del line[j]
            else:
                line[j] = rng.choice(pool)
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=300)
@given(mutated_files())
def test_fuzzed_files_exit_with_documented_codes(text):
    for argv in (["validate"], ["ham"], ["tour"], ["oracle", "opt"], ["kotzig"]):
        code, _, msg = run_cli(argv, text)
        assert code in (0, 2, 3), (argv, text)
        assert msg == "" or (msg.startswith("error: ") and msg.count("\n") == 1
                             and msg.endswith("\n")), (argv, text, msg)
