"""Tour construction for square points with an exact 10/7 certificate.

Pipeline: a minimum-cost Hamiltonian cycle H of the support containing all
1-edges, a minimum-cost rainbow 1-tree F*, a minimum T-join completing F* to
a tour J*, the integer bound check 14*min(c_H, c_J) <= 10*(doubled c.x), and
metric shortcutting of the cheaper of the two.  run_tour checks the point
once with halfpoint.square_point; hamiltonian takes that checked point and
checks that H is a Hamiltonian cycle, so its order is the final cycle; J*
is shortcut along its Eulerian circuit.  Either cycle is priced on the
point's series reduction, with chain offsets for the nodes inside 1-paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deltamatroid import HamCycle, _ham_edges
from .graphcore import MultiGraph, eulerian_circuit, hamiltonian_order, shortest_paths_from
from .halfpoint import EdgeKey, HalfIntegerPoint, SquarePoint, contract, square_point
from .tjoin import _t_join
from .treesel import rainbow

__all__ = ["TourReport", "hamiltonian", "compute_y", "run_tour"]


@dataclass(frozen=True)
class TourReport:
    """Everything TOUR produced, with exact integer costs throughout."""

    hamiltonian: HamCycle
    j_star: dict[EdgeKey, int]
    c_h: int
    c_j: int
    c_x2: int
    bound_holds: bool
    final_cycle: tuple[int, ...]
    final_cost: int


def hamiltonian(sp: SquarePoint) -> HamCycle:
    """Minimum-cost Hamiltonian cycle of a checked square point's support
    containing every 1-edge.

    An integral point is its own answer; otherwise contract the 1-paths,
    solve on the square graph, and take the support edges of the chosen
    edges' chains.  RuntimeError unless they form one Hamiltonian cycle,
    walked by hamiltonian_order: ids follow the sorted keys, so it heads
    from node 0 to its lower cycle neighbour.  The HamCycle names its edges
    by support key.
    """
    if not sp.squares:
        ids = frozenset(range(len(sp.keys)))
    else:
        sg, cost = contract(sp)  # from a checked point, so _ham_edges skips the check
        ids = frozenset(e for r in _ham_edges(sg, cost) for e in sp.reduction.chains[r])
    order = hamiltonian_order(sp.graph, ids)
    if order is None:
        raise RuntimeError("HAM is not a Hamiltonian cycle")
    hedges = frozenset(sp.keys[e] for e in ids)
    return HamCycle(hedges, tuple(order), sum(sp.weighted.weight[e] for e in ids))


def compute_y(x: HalfIntegerPoint, ham_edges: frozenset[EdgeKey]) -> dict[EdgeKey, int]:
    """The vector 2/3*x - 1/6*(cycle indicator), in integer sixths.

    Values per support edge: half-edge on the cycle 1, half-edge off it 2,
    1-edge on the cycle 3, 1-edge off it 4.  ValueError unless ham_edges
    are support edges forming one cycle through every node.
    """
    for e in ham_edges:
        if e not in x.support:
            raise ValueError(f"cycle edge {e} is not a support edge")
    if hamiltonian_order(MultiGraph(x.n, ham_edges), range(len(ham_edges))) is None:
        raise ValueError("not a Hamiltonian cycle of the support")
    return {e: 2 * x2 - (1 if e in ham_edges else 0) for e, x2 in x.support.items()}


def _price(sp: SquarePoint, cycle: list[int]) -> int:
    """Sum of the shortest-path distances between consecutive nodes of cycle,
    the closing pair included, for any order of the nodes.

    A node at place (r, off) in sp.reduction, off from the first end a of
    chain r and L - off from its other end b (L the chain's weight), leaves
    the chain only through a or b; a kept node is its own exit at cost 0.
    So a pair's distance is the least o_u + D(a, b) + o_v over its exit
    pairs, with D the distance between kept nodes, which the reduction
    keeps, and the gap along the chain when the pair is on one: both nodes
    inside it, or one inside it and the other one of its ends.  If twice
    the gap is at most L, the gap is exact and no search runs: any other
    route covers the rest of the chain, which weighs L - gap >= gap.  Every
    other pair runs one search per exit of one node, one inside a chain if
    either is, stopped at the other's exits.  An integral point's reduction
    is one loop at node 0, both ends of its chain.
    """
    red = sp.reduction
    ends, length = red.weighted.graph.edges, red.weighted.weight

    def exits(v: int) -> tuple[int, tuple[tuple[int, int], ...]]:  # chain (-1: kept), exits
        if type(red.place[v]) is int:
            return -1, ((red.place[v], 0),)
        r, off = red.place[v]
        return r, ((ends[r][0], off), (ends[r][1], length[r] - off))

    total, ex = 0, [exits(v) for v in cycle]
    for (r, eu), (s, ev) in zip(ex, ex[1:] + ex[:1]):
        if r < 0:  # the node inside a chain first, if either is one
            (r, eu), (s, ev) = (s, ev), (r, eu)
        if r >= 0 and s == r:
            gap = abs(eu[0][1] - ev[0][1])
        else:  # the gap to v if v is one of the chain's ends
            gap = min((o for a, o in eu if r >= 0 and ev == ((a, 0),)), default=None)
        if gap is None or 2 * gap > length[r]:
            targets = [b for b, _ in ev]
            rows = [(ou, shortest_paths_from(red.weighted, a, targets)[0]) for a, ou in eu]
            best = min(ou + row[b] + ov for ou, row in rows for b, ov in ev)
            gap = best if gap is None else min(gap, best)
        total += gap
    return total


def _shortcut(sp: SquarePoint, mult: dict[EdgeKey, int]) -> tuple[tuple[int, ...], int]:
    """Walk the tour along its canonical Eulerian circuit (edge ids in key
    order), keep each node's first visit, and price that cycle by _price."""
    edges = [e for e in sorted(mult) for _ in range(mult[e])]
    cycle = list(dict.fromkeys(eulerian_circuit(MultiGraph(sp.point.n, edges))))
    return tuple(cycle), _price(sp, cycle)


def run_tour(x: HalfIntegerPoint, costs: dict[EdgeKey, int]) -> TourReport:
    """Run the full pipeline on a square point with nonnegative costs.

    The point and costs are checked once, by square_point, and every stage
    works on the checked point.  An integral point takes the same path: its
    1-edge cycle is F*, T is empty and J* is H.  The returned report always
    has H one cycle through every node and satisfies 14*min(c_H, c_J) <=
    10*c_x2 and the lemmas L1 and L2; a violation raises RuntimeError
    instead, since it can only mean a bug here.  Every cost is summed as a
    Python int, so numpy integer costs cannot overflow.
    """
    sp = square_point(x, costs)
    ham = hamiltonian(sp)
    c_x2 = sum(c * x2 for c, x2 in zip(sp.weighted.weight, x.support.values()))

    f_star = rainbow(sp)
    # T = odd(F*) is on the kept nodes: F* has both edges of a degree-2 node
    t_set = [v for v in sp.reduction.kept
             if sum(sp.keys[d >> 1] in f_star.edges for d in sp.graph.darts_at(v)) % 2]
    join = _t_join(sp.weighted, sp.reduction, t_set)
    j_star = {e: 1 for e in f_star.edges}
    for eid in join:
        j_star[sp.keys[eid]] = j_star.get(sp.keys[eid], 0) + 1
    c_j = f_star.cost + sum(sp.weighted.weight[e] for e in join)
    # the lemmas the bound rests on: x is a convex combination of rainbow
    # 1-trees, and 6y = 4x - H dominates a T-join for T = odd(F*)
    if 2 * f_star.cost > c_x2:
        raise RuntimeError("lemma L1 violated: 2 c(F*) > c_x2")
    if 6 * (c_j - f_star.cost) + ham.cost > 2 * c_x2:
        raise RuntimeError("lemma L2 violated: 6 c(join) + c_H > 2 c_x2")

    best = min(ham.cost, c_j)
    bound_holds = 14 * best <= 10 * c_x2
    if not bound_holds:
        # unreachable once L1 and L2 pass (6 c_J <= 5 c_x2 - c_H, so 14 c_H > 10 c_x2
        # forces 14 c_J < 10 c_x2), but kept: the certificate is never skipped
        raise RuntimeError("theorem violated")
    if ham.cost <= c_j:
        # H's tour multigraph is one cycle; its canonical Euler walk leaves
        # node 0 by the lowest dart, the smaller-key H edge at 0, which is the
        # edge hamiltonian leaves by, and then every node has one unused edge
        # left: shortcutting H gives exactly ham.order
        final_cycle, final_cost = ham.order, _price(sp, list(ham.order))
    else:
        final_cycle, final_cost = _shortcut(sp, j_star)
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
