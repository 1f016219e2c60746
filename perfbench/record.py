"""Write one history entry: the end-to-end and traced results of every
workload, measured at the checked-out commit.

    python3 perfbench/record.py perfbench/history/BENCH_<n>.json [--seed 0]

Runs run.py once per workload and trace setting, with the run length of
BENCHMARK.json, and writes each run's detail line (machine facts, passes,
samples) and result line, with the commit they were measured at.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    runs = []
    for wl in bench["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl["name"],
                 "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            *_, detail, result = proc.stdout.splitlines()
            runs.append({"trace": trace, **json.loads(detail), "result": json.loads(result)})
            print(wl["name"], trace, runs[-1]["result"]["correct"], flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"commit": commit, "runs": runs}, indent=1) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
