import io

from squaretour.cli import main
from squaretour.instances import (
    make_donut,
    parse_bts,
    parse_point,
    random_costs,
    random_square_point,
    serialize_point,
)
from squaretour.kotzig import Trail, verify_trail

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


def run(argv, capsys, monkeypatch, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def donut_text(k):
    inst = make_donut(k)
    return serialize_point(inst.point, inst.costs)


def test_donut_then_tour_pipe(capsys, monkeypatch):
    code, out, err = run(["donut", "--k", "2"], capsys, monkeypatch)
    assert code == 0
    assert err == ""
    assert out == donut_text(2)
    code, out, err = run(["tour"], capsys, monkeypatch, stdin=out)
    assert code == 0
    assert out == "cx=28/2 cH=14 cJ=18 tour=14 bound=OK\n"


def test_validate_labels(capsys, monkeypatch):
    code, out, _ = run(["validate"], capsys, monkeypatch, stdin=donut_text(4))
    assert code == 0
    assert out == "SQUARE\n"


def test_validate_invalid_point_exits_2(capsys, monkeypatch):
    code, out, _ = run(["validate"], capsys, monkeypatch, stdin=DEGREE_BAD)
    assert code == 2
    assert out == "INVALID degree node=0\n"


def test_ham_output_shape(capsys, monkeypatch):
    code, out, _ = run(["ham"], capsys, monkeypatch, stdin=donut_text(2))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cost=14"
    assert lines[1].startswith("cycle=")
    nodes = [int(t) for t in lines[1][len("cycle="):].split()]
    assert sorted(nodes) == list(range(12))


def test_oracle_opt_and_size_cap(capsys, monkeypatch):
    code, out, _ = run(["oracle", "opt"], capsys, monkeypatch, stdin=donut_text(2))
    assert code == 0
    assert out == "OPT=14\n"
    # k=5 has 60 nodes, past the exact-engine cap
    code, out, err = run(["oracle", "opt"], capsys, monkeypatch, stdin=donut_text(5))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_kotzig_prints_verifiable_trail(capsys, monkeypatch):
    code, out, err = run(["kotzig"], capsys, monkeypatch, stdin=BANANA_BTS)
    assert code == 0
    toks = out.split()
    assert len(toks) == 8
    darts = []
    for t in toks:
        e, end = t.split(".")
        darts.append(2 * int(e) + int(end))
    sys_ = parse_bts(BANANA_BTS)
    assert verify_trail(sys_, Trail(tuple(darts)))


def test_random_square_deterministic(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.point"
    b = tmp_path / "b.point"
    args = ["random-square", "--squares", "4", "--max-path", "2", "--seed", "9"]
    assert run(args + ["--out", str(a)], capsys, monkeypatch)[0] == 0
    assert run(args + ["--out", str(b)], capsys, monkeypatch)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    x, costs = parse_point(a.read_text())
    assert len(x.half_edges()) == 16
    assert set(costs) == set(x.support)


def test_donut_out_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d3.point"
    code, out, _ = run(["donut", "--k", "3", "--out", str(path)], capsys, monkeypatch)
    assert code == 0
    assert out == ""
    assert path.read_text() == donut_text(3)


def test_parse_error_exits_2(capsys, monkeypatch):
    code, out, err = run(["tour"], capsys, monkeypatch, stdin="garbage\n")
    assert code == 2
    assert out == ""
    assert err == "error: line 1: expected 'POINT <n>' header\n"


def test_missing_file_exits_2(tmp_path, capsys, monkeypatch):
    code, _, err = run(["validate", str(tmp_path / "nope.point")], capsys, monkeypatch)
    assert code == 2
    assert err.startswith("error: ")


def test_tour_exact_at_any_cost_scale(capsys, monkeypatch):
    # path distances past int64 (x 2^58) used to overflow the matching DP's
    # table, and ones near it (x 2^61 // 50) to pass its sentinel
    x = random_square_point(4, 2, 7)
    costs = random_costs(x, 7)
    code, out, _ = run(["tour"], capsys, monkeypatch, stdin=serialize_point(x, costs))
    assert code == 0
    assert out == "cx=1593/2 cH=701 cJ=905 tour=687 bound=OK\n"
    for scale in (2**58, 2**61 // 50):
        scaled = {e: c * scale for e, c in costs.items()}
        code, out, err = run(["tour"], capsys, monkeypatch, stdin=serialize_point(x, scaled))
        assert (code, err) == (0, "")
        assert out == (
            f"cx={1593 * scale}/2 cH={701 * scale} cJ={905 * scale} "
            f"tour={687 * scale} bound=OK\n"
        )
