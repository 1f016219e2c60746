"""Benchmark of squaretour: end-to-end metrics, or per-layer metrics from a
traced run, for one seeded workload.

    python3 perfbench/run.py --workload pool --seed 0 --seconds 5 --trace 0

Run it from the root of a squaretour checkout; it imports the library from
``src/`` next to this directory.  Ops run one at a time in one process, in
a closed loop, in whole passes over the workload's inputs, until the time
is up and at least the workload's minimum number of passes is done.  Every
output is checked (see workloads.py).  Times are scaled to a reference
machine speed (see speed.py).  The last line of stdout is one JSON object:
correct, attempted, failed and the metrics with their units.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

try:
    import workloads as W
except ImportError as exc:
    sys.exit(f"perfbench: {exc}")
from spans import LAYERS, Tracer  # noqa: E402
from speed import Speed  # noqa: E402

SETUP_REPEATS = 3
CLI_REPEATS = 5
PARSE_REPEATS = 20
SUBPROCESS_TIMEOUT_S = 120


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(min_samples: int) -> float:
    """Highest percentile, to 0.1, that leaves at least 10 samples beyond
    it.  Fixed per workload from the samples its minimum passes give, so
    the same percentile is reported whatever the number of passes."""
    return int(1000 * (1 - 10 / min_samples)) / 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(W.SRC), env.get("PYTHONPATH")]))
    return env


def timed_children(argv: list[str], repeats: int, speed: Speed, check,
                   errors: list[str]) -> list[float]:
    """Run a command `repeats` times; return its times at reference speed.
    `check(proc)` returns an error message or None; messages go to
    `errors`, which makes the run incorrect."""
    env = child_env()
    times = []
    for _ in range(repeats):
        with speed.waiting():
            t0 = perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
            t1 = perf_counter()
        err = check(proc)
        msg = f"{' '.join(argv[1:])}: {err}"
        if err and msg not in errors:
            errors.append(msg)
        times.append(speed.scaled(t0, t1, t1 - t0))
    return times


def timed_call(speed: Speed, fn, *args) -> tuple:
    """fn(*args) and its time at reference speed."""
    busy = speed.busy
    t0 = perf_counter()
    out = fn(*args)
    t1 = perf_counter()
    return out, speed.scaled(t0, t1, t1 - t0 - (speed.busy - busy))


class OpLog:
    """Outputs, failures and times of one workload's ops over many passes."""

    def __init__(self, wl, seed: int, inputs: list, pins: dict, speed: Speed):
        self.wl, self.inputs, self.speed = wl, inputs, speed
        self.first: list = [None] * len(inputs)
        self.bad: list[str | None] = [None] * len(inputs)
        # traced? -> per op, one (start, end, wall time net of the sampler) per pass
        self.records = {False: [[] for _ in inputs], True: [[] for _ in inputs]}
        self.passes = self.attempted = self.failed = 0
        self.errors: list[str] = []
        key = W.pin_key(wl, seed)
        self.pin_rows = pins.get("rows", {}).get(wl.name, {}).get(key)
        self.pin_digest = pins.get("digests", {}).get(wl.name, {}).get(key)

    def run_pass(self, tracer: Tracer | None = None) -> None:
        """One pass over the inputs.  With a tracer, each op runs untraced
        and then traced, so that both runs find the same warm state."""
        gc.collect()
        first_pass = self.passes == 0
        self.passes += 1
        for i, inp in enumerate(self.inputs):
            self._run_op(i, inp, None, first_pass)
            if tracer is not None:
                self._run_op(i, inp, tracer, False)
        if first_pass and self.pin_rows is None and self.pin_digest and None not in self.first:
            # Only a digest is pinned for this seed: a mismatch fails every op.
            rows = [self.wl.pin_row(sig) for sig in self.first]
            if W.rows_digest(rows) != self.pin_digest:
                self.bad = ["outputs differ from the pinned digest"] * len(self.inputs)
                self.failed = self.attempted
                self.errors.append(self.bad[0])

    def _run_op(self, i: int, inp, tracer: Tracer | None, first: bool) -> None:
        err = None
        traced = tracer is not None
        if traced:
            tracer.begin_op(self.wl.size(inp))
        busy = self.speed.busy
        t0 = perf_counter()
        try:
            out = self.wl.run(inp)
        except Exception as exc:  # a raising op is a failed op
            out, err = None, f"raised {exc!r}"
        t1 = perf_counter()
        self.records[traced][i].append((t0, t1, t1 - t0 - (self.speed.busy - busy)))
        if traced:
            spans_self = tracer.end_op()
            if err is None and abs((t1 - t0) - spans_self) > 0.02 * (t1 - t0) + 1e-4:
                err = f"span self times add up to {spans_self:.6f} s, op took {t1 - t0:.6f} s"
        if err is None:
            sig = self.wl.signature(out)
            if first:
                self.first[i] = sig
                self.bad[i] = self.wl.check(inp, out) or self._pin_mismatch(i, sig)
            elif sig != self.first[i]:
                err = "output differs from the first pass"
        err = err or self.bad[i]
        self.attempted += 1
        if err:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i}: {err}")

    def _pin_mismatch(self, i: int, sig) -> str | None:
        if self.pin_rows is None:
            return None
        row = self.wl.pin_row(sig)
        if row != self.pin_rows[i]:
            return f"pinned {self.pin_rows[i]}, got {row}"
        return None

    def times(self, traced: bool, wall: bool = False) -> list[list[float]]:
        """Per op, its times at reference speed (or as wall time)."""
        if wall:
            return [[net for _, _, net in rs] for rs in self.records[traced]]
        return [[self.speed.scaled(t0, t1, net) for t0, t1, net in rs]
                for rs in self.records[traced]]


def pass_time(per_op: list[list[float]]) -> float:
    """Time of one pass, as the sum over ops of each op's median."""
    return sum(statistics.median(ts) for ts in per_op)


def run_passes(log: OpLog, seconds: float, min_passes: int, tracer: Tracer | None = None) -> int:
    """Whole passes until `seconds` are spent and at least `min_passes` are
    done."""
    start = perf_counter()
    n = 0
    while n < min_passes or perf_counter() - start < seconds:
        log.run_pass(tracer)
        n += 1
    return n


def machine() -> dict:
    import networkx
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def end_to_end(wl, seed: int, seconds: float, pins: dict, speed: Speed) -> tuple[dict, OpLog, dict]:
    digests = set()
    errors: list[str] = []

    def probe_ok(proc) -> str | None:
        digests.add(proc.stdout.strip())
        return proc.stderr.strip() if proc.returncode else None

    setup_times = timed_children(
        [sys.executable, str(W.BENCH_DIR / "setup_probe.py"), wl.name, str(seed)],
        SETUP_REPEATS, speed, probe_ok, errors)
    inputs = wl.build(seed)
    log = OpLog(wl, seed, inputs, pins, speed)
    log.errors += errors
    if digests != {W.inputs_digest(wl, inputs)}:
        log.errors.append(f"a fresh interpreter built other inputs: {sorted(digests)}")

    def cli_ok(proc) -> str | None:
        if proc.returncode != 0 or proc.stdout != W.DONUT8_STDOUT:
            return f"printed {proc.stdout!r}, exit {proc.returncode}"
        return None

    cli_times = timed_children([sys.executable, "-m", "squaretour.cli", "tour", str(W.DONUT8)],
                               CLI_REPEATS, speed, cli_ok, log.errors)

    passes = run_passes(log, seconds, wl.min_passes)
    per_op = log.times(False)
    samples = [t for ts in per_op for t in ts]
    wall = log.times(False, wall=True)
    tail_p = tail_percentile(len(inputs) * wl.min_passes)
    metrics = {
        "throughput_ops_s": (len(inputs) / pass_time(per_op), "ops/s"),
        "latency_ms_p50": (1000 * statistics.median(samples), "ms"),
        "latency_ms_tail": (1000 * percentile(samples, tail_p), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_tour_s": (statistics.median(cli_times), "s"),
    }
    detail = {
        "passes": passes,
        "samples": len(samples),
        "tail_percentile": tail_p,
        "setup_runs": len(setup_times),
        "cli_runs": len(cli_times),
        "failed_frac": log.failed / log.attempted,
        "wall_throughput_ops_s": len(inputs) / pass_time(wall),
        "wall_latency_ms_p50": 1000 * statistics.median(t for ts in wall for t in ts),
    }
    return metrics, log, detail


def per_layer(wl, seed: int, seconds: float, pins: dict, speed: Speed) -> tuple[dict, OpLog, dict]:
    errors: list[str] = []
    import_times = timed_children([sys.executable, "-c", "import squaretour.cli"],
                                  SETUP_REPEATS, speed,
                                  lambda proc: proc.stderr.strip() if proc.returncode else None,
                                  errors)
    text = W.DONUT8.read_text(encoding="utf-8")
    parse_times = [timed_call(speed, W.st.parse_point, text)[1] for _ in range(PARSE_REPEATS)]
    inputs, generate_s = timed_call(speed, wl.build, seed)

    log = OpLog(wl, seed, inputs, pins, speed)
    log.errors += errors
    tracer = Tracer()
    tracer.install()
    try:
        passes = run_passes(log, seconds, 1, tracer)
    finally:
        tracer.uninstall()

    ops = max(tracer.ops, 1)
    calls, self_s = tracer.calls, tracer.self_s

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    m = {}
    for name in ("halfpoint.validate_subtour", "halfpoint.classify", "halfpoint.decompose",
                 "graphcore.global_min_cut", "graphcore.metric_closure",
                 "graphcore.shortest_paths_from", "graphcore.connected_without"):
        m[f"{name}.calls_per_op"] = (calls[name] / ops, "count")
    for name in ("halfpoint.validate_subtour", "halfpoint.decompose",
                 "halfpoint.contract_one_paths", "graphcore.global_min_cut",
                 "graphcore.metric_closure", "graphcore.eulerian_circuit",
                 "graphcore.connected_without", "deltamatroid.ham_min_cost",
                 "deltamatroid.check_square_graph", "treesel.rainbow_one_tree",
                 "treesel.weighted_matroid_intersection", "tjoin.min_t_join",
                 "tjoin.min_weight_perfect_matching", "tour.run_tour",
                 "tour.hamiltonian_with_ones", "kotzig.find_trail", "kotzig.blow_up"):
        m[f"{name}.self_ms"] = (1000 * self_s[name] / ops, "ms")
    for layer in LAYERS[:7]:
        own = sum(s for name, s in self_s.items() if name.startswith(layer + "."))
        m[f"{layer}.self_ms"] = (1000 * own / ops, "ms")
    cuts = tracer.probed["graphcore.global_min_cut"]
    dp, blossom = calls["tjoin._match_dp"], calls["tjoin._match_blossom"]
    tours = wl.name in W.TOUR_WORKLOADS
    m["graphcore.global_min_cut.nodes_mean"] = (mean(v for v, _ in cuts), "count")
    m["graphcore.global_min_cut.nodes_frac"] = (mean(v / n for v, n in cuts), "1")
    m["treesel.independence_calls_per_op"] = (tracer.counts["treesel.is_independent"] / ops, "count")
    m["tjoin.t_size_mean"] = (mean(v for v, _ in tracer.probed["tjoin.min_t_join"]), "count")
    m["tjoin.blossom_share"] = (blossom / (dp + blossom) if dp + blossom else 0.0, "1")
    m["tour.shortcut_saving_mean"] = (
        mean(W.shortcut_saving(sig) for sig in log.first if sig) if tours else 0.0, "count")
    m["instances.generate_s"] = (generate_s, "s")
    m["cli.import_s"] = (statistics.median(import_times), "s")
    m["instances.parse_point.self_ms"] = (1000 * statistics.median(parse_times), "ms")
    m["trace_overhead_frac"] = (pass_time(log.times(True)) / pass_time(log.times(False)) - 1, "1")
    detail = {
        "passes": passes,
        "traced_ops": tracer.ops,
        "failed_frac": log.failed / log.attempted,
        "wall_trace_overhead_frac": pass_time(log.times(True, wall=True))
        / pass_time(log.times(False, wall=True)) - 1,
    }
    return m, log, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 is the default, 1 is held out for confirming claims")
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = W.WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    with Speed() as speed:
        metrics, log, detail = measure(wl, args.seed, args.seconds, W.load_pins(), speed)
    for err in log.errors:
        print(f"FAIL {err}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:7s} {name:48s} {value:14.6f} {unit}")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "machine": machine(), **detail}))
    print(json.dumps({
        "correct": log.failed == 0 and not log.errors,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
