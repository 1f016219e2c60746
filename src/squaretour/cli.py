"""Command-line front end.

Exit codes: 0 success, 2 invalid input, 3 exact-engine size cap or out of
memory, 4 failed internal check (one ``error: internal:`` line).  Output is
deterministic for a fixed input and seed, so commands can be piped, e.g.
``squaretour donut --k 2 | squaretour tour``.
"""

from __future__ import annotations

import argparse
import sys

from .graphcore import WeightedGraph, is_connected, metric_closure
from .halfpoint import square_point, support_graph, validate_and_classify
from .instances import (
    make_donut,
    parse_bts,
    parse_point,
    random_costs,
    random_square_point,
    serialize_point,
)
from .kotzig import find_trail
from .oracles import HELD_KARP_CAP, SizeCapError, held_karp
from .tour import hamiltonian, run_tour


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    x, _ = parse_point(_read(args.file))
    report, cls = validate_and_classify(x)
    if not report:
        print(f"INVALID {report.witness()}")
        return 2
    print(cls.value)
    return 0


def _cmd_ham(args: argparse.Namespace) -> int:
    x, costs = parse_point(_read(args.file))
    ham = hamiltonian(square_point(x, costs))
    print(f"cost={ham.cost}")
    print("cycle=" + " ".join(str(v) for v in ham.order))
    return 0


def _cmd_tour(args: argparse.Namespace) -> int:
    x, costs = parse_point(_read(args.file))
    report = run_tour(x, costs)  # raises rather than return a failed bound
    print(
        f"cx={report.c_x2}/2 cH={report.c_h} cJ={report.c_j} "
        f"tour={report.final_cost} bound=OK"
    )
    return 0


def _cmd_kotzig(args: argparse.Namespace) -> int:
    sys_ = parse_bts(_read(args.file))
    trail = find_trail(sys_)
    print(" ".join(f"{d // 2}.{d % 2}" for d in trail.darts))
    return 0


def _cmd_donut(args: argparse.Namespace) -> int:
    inst = make_donut(args.k)
    _write_out(serialize_point(inst.point, inst.costs), args.out)
    return 0


def _cmd_random_square(args: argparse.Namespace) -> int:
    x = random_square_point(args.squares, args.max_path, args.seed)
    costs = random_costs(x, args.seed)
    _write_out(serialize_point(x, costs), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    x, costs = parse_point(_read(args.file))
    if x.n > 2 * len(x.support):
        # some node meets no edge; checked before any n-sized structure
        raise ValueError("disconnected graph")
    g = support_graph(x)
    wg = WeightedGraph._checked(g, tuple(costs[k] for k in g.edges))  # parse_point checked them
    if not is_connected(g):
        raise ValueError("disconnected graph")
    if x.n > HELD_KARP_CAP:  # held_karp's own cap, checked before n searches
        raise SizeCapError("instance too large for exact oracle")
    print(f"OPT={held_karp(metric_closure(wg))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squaretour",
        description="Tours, trails and certificates for half-integer points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify a point file")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ham", help="min-cost Hamiltonian cycle with all 1-edges")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_ham)

    p = sub.add_parser("tour", help="run the tour pipeline with its bound")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_tour)

    p = sub.add_parser("kotzig", help="Eulerian trail avoiding forbidden pairings")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_kotzig)

    p = sub.add_parser("donut", help="write a donut instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_donut)

    p = sub.add_parser("random-square", help="write a random square point")
    p.add_argument("--squares", type=int, required=True)
    p.add_argument("--max-path", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_random_square)

    p = sub.add_parser("oracle", help="exact reference computations")
    p.add_argument("what", choices=["opt"])
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # exact at any cost size: lift CPython's int-str digit cap (3.11 on)
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
