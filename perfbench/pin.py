"""Write pins.json: the outputs every benchmark op must reproduce.

    python3 perfbench/pin.py [workload ...]

With workload names, only their pins are rewritten.  Run it only at a
commit whose outputs are trusted; the benchmark counts any difference from
the pins as a failed op.  Per-op rows are kept for seeds 0
(the default) and 1 (held out), and a digest of the rows for seeds 0..31.
Every output is checked before it is pinned.
"""

import json
import subprocess
import sys

import workloads as W

ROW_SEEDS = (0, 1)
DIGEST_SEEDS = range(32)


def pinned_rows(wl, seed: int) -> list:
    rows = []
    for i, inp in enumerate(wl.build(seed)):
        out = wl.run(inp)
        err = wl.check(inp, out)
        if err:
            raise SystemExit(f"{wl.name} seed {seed} op {i}: {err}")
        rows.append(wl.pin_row(wl.signature(out)))
    return rows


def main() -> None:
    names = sys.argv[1:] or list(W.WORKLOADS)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=W.ROOT,
                            capture_output=True, text=True).stdout.strip()
    pins = W.load_pins() if sys.argv[1:] else {"rows": {}, "digests": {}}
    if pins.get("commit", commit) != commit:
        raise SystemExit(f"pins.json was written at {pins['commit']}, not at {commit}")
    pins["commit"] = commit
    for wl in map(W.WORKLOADS.__getitem__, names):
        pins["rows"].pop(wl.name, None)
        pins["digests"].pop(wl.name, None)
        seeds = DIGEST_SEEDS if wl.seeded else (0,)
        for seed in seeds:
            rows = pinned_rows(wl, seed)
            key = W.pin_key(wl, seed)
            pins["digests"].setdefault(wl.name, {})[key] = W.rows_digest(rows)
            if seed in ROW_SEEDS:
                pins["rows"].setdefault(wl.name, {})[key] = rows
            print(wl.name, key, flush=True)
    with open(W.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
