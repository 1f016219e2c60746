"""Seeded workloads, their checks and their pinned outputs.

A workload is a fixed list of inputs built from the benchmark seed and one
operation applied to each input: ``run_tour`` for the three tour workloads,
``find_trail`` for ``kotzig``.  Every output is checked with code of this
file, independent of the library's own checks, and compared with the values
pinned in ``pins.json``.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"
DONUT8 = BENCH_DIR / "data" / "donut8.point"
DONUT8_STDOUT = "cx=400/2 cH=242 cJ=268 tour=242 bound=OK\n"

if not (SRC / "squaretour" / "__init__.py").is_file():
    raise ImportError(f"no squaretour sources at {SRC}; run the benchmark from a squaretour checkout")
sys.path.insert(0, str(SRC))

import squaretour as st  # noqa: E402

if Path(st.__file__).resolve().parent != SRC / "squaretour":
    raise ImportError(f"imported squaretour from {st.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    min_passes: int
    build: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    signature: Callable[[Any], tuple]
    pin_row: Callable[[Any], list]
    size: Callable[[Any], int]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- tour ops

def _donut_inputs(seed: int) -> list:
    del seed  # the donut family has no randomness
    return [(inst.point, inst.costs) for inst in map(st.make_donut, range(2, 13))]


def _pool_inputs(seed: int) -> list:
    """The acceptance pool's mix: donuts k=2..8 and 500 random points from
    random.Random(31000 + 500*seed + i), with 1-5 squares and 1-paths of
    length up to 1-3.  The acceptance tests draw the square count and path
    length at random; here each (squares, path length) pair gets a fixed
    share of the 500, so that the seed changes the points but not how many
    of each size there are.  With random shares the median op's size moved
    between 14 and 16 nodes from seed to seed, and latency_ms_p50 with it."""
    inputs = [(inst.point, inst.costs) for inst in map(st.make_donut, range(2, 9))]
    for i in range(500):
        rng = random.Random(31000 + 500 * seed + i)
        x = st.random_square_point(1 + i % 5, 1 + i // 5 % 3, rng)
        inputs.append((x, st.random_costs(x, rng)))
    return inputs


LADDER_SIZES = (8, 16, 24, 32)
LADDER_COPIES = 4


def _ladder_inputs(seed: int) -> list:
    """For each square count s, the points and costs `squaretour
    random-square --squares s --max-path 1 --seed <seed+s+100*j>` writes,
    j < LADDER_COPIES.  The time of one point of a given size varies by up
    to 25% from seed to seed; with four points per size, each run once per
    pass, the metrics move much less with the seed."""
    inputs = []
    for s in LADDER_SIZES:
        for j in range(LADDER_COPIES):
            x = st.random_square_point(s, 1, seed + s + 100 * j)
            inputs.append((x, st.random_costs(x, seed + s + 100 * j)))
    return inputs


def _run_tour(inp):
    x, costs = inp
    return st.run_tour(x, costs)


def _distances_from(adj: list[list[tuple[int, int]]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, c in adj[v]:
            if dist[w] == -1 or d + c < dist[w]:
                dist[w] = d + c
                heapq.heappush(heap, (d + c, w))
    return dist


def _connected_spanning(n: int, edges) -> bool:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    parts = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


def check_tour(inp, rep) -> str | None:
    """Recompute every claim of a TourReport from the point and costs."""
    x, costs = inp
    n, sup = x.n, x.support
    c_x2 = sum(costs[e] * x2 for e, x2 in sup.items())
    if rep.c_x2 != c_x2:
        return f"c_x2 {rep.c_x2} != {c_x2}"

    ham = rep.hamiltonian
    order = ham.order
    if len(order) != n or order[0] != 0 or sorted(order) != list(range(n)):
        return "HAM order is not a permutation starting at node 0"
    walked = {(min(u, v), max(u, v)) for u, v in zip(order, order[1:] + order[:1])}
    if walked != set(ham.edges) or not walked <= sup.keys():
        return "HAM order does not walk the HAM edges of the support"
    if any(x2 == 2 and e not in walked for e, x2 in sup.items()):
        return "HAM misses a 1-edge"
    c_h = sum(costs[e] for e in walked)
    if ham.cost != c_h or rep.c_h != c_h:
        return f"c_H {rep.c_h} != {c_h}"

    deg = [0] * n
    for (u, v), m in rep.j_star.items():
        if (u, v) not in sup or m < 1:
            return f"J* uses edge ({u}, {v}) {m} times"
        deg[u] += m
        deg[v] += m
    if any(d % 2 for d in deg) or not _connected_spanning(n, rep.j_star):
        return "J* is not a connected Eulerian spanning multigraph"
    c_j = sum(costs[e] * m for e, m in rep.j_star.items())
    if rep.c_j != c_j:
        return f"c_J {rep.c_j} != {c_j}"

    best = min(c_h, c_j)
    if not rep.bound_holds or 14 * best > 10 * c_x2:
        return f"certificate fails: 14*{best} > 10*{c_x2}"

    cyc = rep.final_cycle
    if sorted(cyc) != list(range(n)):
        return "final cycle is not Hamiltonian"
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v) in sup:
        adj[u].append((v, costs[(u, v)]))
        adj[v].append((u, costs[(u, v)]))
    priced = sum(_distances_from(adj, u)[w] for u, w in zip(cyc, cyc[1:] + cyc[:1]))
    if rep.final_cost != priced:
        return f"final cost {rep.final_cost} != shortest-path price {priced}"
    if priced > best:
        return f"final cost {priced} > min(c_H, c_J) = {best}"
    return None


def _tour_signature(rep) -> tuple:
    return (rep.c_x2, rep.c_h, rep.c_j, rep.final_cost, rep.hamiltonian.cost,
            rep.hamiltonian.order, rep.final_cycle, tuple(sorted(rep.j_star.items())))


def _tour_pin_row(sig: tuple) -> list:
    """What `squaretour tour` and `squaretour ham` print: c_x2, c_H, c_J,
    the final cost, the HAM cost and a digest of the HAM cycle."""
    c_x2, c_h, c_j, final_cost, ham_cost, order = sig[:6]
    return [c_x2, c_h, c_j, final_cost, ham_cost, _digest(" ".join(map(str, order)))]


def shortcut_saving(sig: tuple) -> int:
    """min(c_H, c_J) - final_cost of a tour signature."""
    return min(sig[1], sig[2]) - sig[3]


def _tour_size(inp) -> int:
    return inp[0].n


# -------------------------------------------------------------- kotzig ops

KOTZIG_SIZES = tuple(range(50, 301, 25))


def _kotzig_inputs(seed: int) -> list:
    return [st.random_bitransition_system(n, seed + n) for n in KOTZIG_SIZES]


def _run_trail(sys_):
    return st.find_trail(sys_)


def _check_trail(sys_, trail) -> str | None:
    return None if st.verify_trail(sys_, trail) else "verify_trail rejects the trail"


def _trail_pin_row(sig: tuple) -> list:
    """What `squaretour kotzig` prints, as its length and a digest."""
    darts = sig[0]
    return [len(darts), _digest(" ".join(f"{d // 2}.{d % 2}" for d in darts))]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("donut", False, 3, _donut_inputs, _run_tour, check_tour,
                 _tour_signature, _tour_pin_row, _tour_size),
        Workload("pool", True, 3, _pool_inputs, _run_tour, check_tour,
                 _tour_signature, _tour_pin_row, _tour_size),
        Workload("ladder", True, 1, _ladder_inputs, _run_tour, check_tour,
                 _tour_signature, _tour_pin_row, _tour_size),
        Workload("kotzig", True, 6, _kotzig_inputs, _run_trail, _check_trail,
                 lambda trail: (trail.darts,), _trail_pin_row,
                 lambda sys_: sys_.graph.node_count),
    )
}


TOUR_WORKLOADS = ("donut", "pool", "ladder")


def pin_key(wl: Workload, seed: int) -> str:
    return str(seed) if wl.seeded else "*"


def rows_digest(rows: list) -> str:
    return _digest(json.dumps(rows))


def inputs_digest(wl: Workload, inputs: list) -> str:
    """Digest of the generated inputs, to check that a fresh interpreter
    builds the same ones."""
    if wl.name == "kotzig":
        parts = [(s.graph.node_count, s.graph.edges, s.forbidden) for s in inputs]
    else:
        parts = [(x.n, sorted(x.support.items()), sorted(c.items())) for x, c in inputs]
    return _digest(repr(parts))


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)
