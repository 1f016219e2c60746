"""Tour construction for square points with an exact 10/7 certificate.

Pipeline: a minimum-cost Hamiltonian cycle H of the support containing all
1-edges, a minimum-cost rainbow 1-tree F*, a minimum T-join completing F* to
a tour J*, the integer bound check 14*min(c_H, c_J) <= 10*(doubled c.x), and
metric shortcutting of the cheaper of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deltamatroid import ham_min_cost
from .graphcore import MultiGraph, eulerian_circuit, metric_closure, walk_cycle
from .halfpoint import EdgeKey, HalfIntegerPoint, SquarePoint, contract, edge_key, square_point
from .tjoin import min_t_join
from .treesel import rainbow

__all__ = ["SupportHam", "TourReport", "hamiltonian_with_ones", "compute_y", "run_tour"]


@dataclass(frozen=True)
class SupportHam:
    """Hamiltonian cycle of the support: edges, canonical cyclic order, cost."""

    edges: frozenset[EdgeKey]
    order: tuple[int, ...]
    cost: int


@dataclass(frozen=True)
class TourReport:
    """Everything TOUR produced, with exact integer costs throughout."""

    hamiltonian: SupportHam
    j_star: dict[EdgeKey, int]
    c_h: int
    c_j: int
    c_x2: int
    bound_holds: bool
    final_cycle: tuple[int, ...]
    final_cost: int


def hamiltonian_with_ones(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> SupportHam:
    """Minimum-cost Hamiltonian cycle of the support containing every 1-edge;
    checks x and costs with square_point first (see hamiltonian)."""
    return hamiltonian(square_point(x, costs))


def hamiltonian(sp: SquarePoint) -> SupportHam:
    """Minimum-cost Hamiltonian cycle of a checked square point's support
    containing every 1-edge.

    An integral point is its own answer; otherwise contract the 1-paths,
    solve on the square graph, and expand the chosen matching edges back to
    the paths they stand for.  The order starts at node 0 and heads to its
    smaller cycle neighbour: on the support graph, edge ids follow the sorted
    keys, so that is node 0's lower-id cycle edge.
    """
    if not sp.decomposition.squares:
        hedges = frozenset(sp.point.support)
    else:
        cp = contract(sp)
        ham = ham_min_cost(cp.square_graph, list(cp.cost))
        expanded: set[EdgeKey] = set()
        for eid in ham.edges:
            u, v = cp.square_graph.graph.edges[eid]
            path = cp.expansion.get(eid, (cp.corner_orig[u], cp.corner_orig[v]))
            expanded.update(edge_key(a, b) for a, b in zip(path, path[1:]))
        hedges = frozenset(expanded)
        if sum(sp.costs[e] for e in hedges) != ham.cost:
            raise AssertionError("expansion changed the cycle cost")
    index = {k: i for i, k in enumerate(sp.keys)}
    ids = frozenset(index[e] for e in hedges)
    _, order = walk_cycle(sp.graph, ids, 0, min(index[e] for e in hedges if e[0] == 0))
    return SupportHam(hedges, tuple(order), sum(sp.costs[e] for e in hedges))


def compute_y(x: HalfIntegerPoint, ham_edges: frozenset[EdgeKey]) -> dict[EdgeKey, int]:
    """The vector 2/3*x - 1/6*(cycle indicator), in integer sixths.

    Values per support edge: half-edge on the cycle 1, half-edge off it 2,
    1-edge on the cycle 3, 1-edge off it 4.
    """
    deg = [0] * x.n
    for e in ham_edges:
        if e not in x.support:
            raise ValueError(f"cycle edge {e} is not a support edge")
        deg[e[0]] += 1
        deg[e[1]] += 1
    if len(ham_edges) != x.n or any(d != 2 for d in deg):
        raise ValueError("not a Hamiltonian cycle of the support")
    return {e: 2 * x2 - (1 if e in ham_edges else 0) for e, x2 in x.support.items()}


def _tour_multigraph(n: int, mult: dict[EdgeKey, int]) -> MultiGraph:
    edges: list[tuple[int, int]] = []
    for e in sorted(mult):
        edges.extend([e] * mult[e])
    return MultiGraph(n, edges)


def _shortcut(sp: SquarePoint, mult: dict[EdgeKey, int]) -> tuple[tuple[int, ...], int]:
    """Walk the tour along its canonical Eulerian circuit, skip nodes already
    visited, and price consecutive survivors by shortest-path distance."""
    n = sp.point.n
    walk = eulerian_circuit(_tour_multigraph(n, mult), 0)
    seen = [False] * n
    cycle: list[int] = []
    for v in walk[:-1]:
        if not seen[v]:
            seen[v] = True
            cycle.append(v)
    dist = metric_closure(sp.weighted)
    total = 0
    for i, u in enumerate(cycle):
        total += dist[u][cycle[(i + 1) % len(cycle)]]
    return tuple(cycle), total


def run_tour(
    x: HalfIntegerPoint, costs: dict[EdgeKey, int], engine: str = "auto"
) -> TourReport:
    """Run the full pipeline on a square point with nonnegative costs.

    The point and costs are checked once, by square_point, and every stage
    works on the checked point.  The returned report always satisfies
    14*min(c_H, c_J) <= 10*c_x2; a violation raises instead, since it can
    only mean a bug here.  engine selects the perfect-matching method for the
    T-join step.
    """
    sp = square_point(x, costs)
    ham = hamiltonian(sp)
    c_x2 = x.cost_x2(costs)

    if not sp.decomposition.squares:
        j_star = {e: 1 for e in ham.edges}
        c_j = ham.cost
    else:
        f_star = rainbow(sp)
        deg = [0] * x.n
        for u, v in f_star.edges:
            deg[u] += 1
            deg[v] += 1
        t_set = [v for v in range(x.n) if deg[v] % 2]
        join = min_t_join(sp.weighted, t_set, engine=engine)
        j_star = {e: 1 for e in f_star.edges}
        for eid in join:
            j_star[sp.keys[eid]] = j_star.get(sp.keys[eid], 0) + 1
        c_j = sum(costs[e] * m for e, m in j_star.items())

    best = min(ham.cost, c_j)
    bound_holds = 14 * best <= 10 * c_x2
    if not bound_holds:
        raise RuntimeError("theorem violated")
    chosen = {e: 1 for e in ham.edges} if ham.cost <= c_j else j_star
    final_cycle, final_cost = _shortcut(sp, chosen)
    return TourReport(
        hamiltonian=ham,
        j_star=j_star,
        c_h=ham.cost,
        c_j=c_j,
        c_x2=c_x2,
        bound_holds=bound_holds,
        final_cycle=final_cycle,
        final_cost=final_cost,
    )
