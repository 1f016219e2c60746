"""Tours, trails and certificates for half-integer points of the subtour
relaxation.

The core objects are half-integer points whose fractional edges form
node-disjoint 4-cycles.  The package validates and classifies such points,
finds minimum-cost Hamiltonian cycles through all their 1-edges, builds
rainbow 1-trees and minimum T-joins, and combines them into a tour whose
cost is certified against the exact integer bound 14*min <= 10*(doubled
objective).  A forbidden-bitransition Eulerian trail solver and the donut
instance family round out the toolbox.
"""

from .deltamatroid import HamCycle, SquareGraph, check_square_graph, ham_min_cost, verify_ham
from .graphcore import (
    DisjointSet,
    MultiGraph,
    WeightedGraph,
    eulerian_circuit,
    global_min_cut,
    metric_closure,
)
from .halfpoint import (
    HalfIntegerPoint,
    PointClass,
    SquarePoint,
    SubtourReport,
    contract,
    edge_key,
    square_point,
    support_graph,
    validate_and_classify,
    validate_subtour,
)
from .instances import (
    DonutInstance,
    everywhere_instance,
    make_donut,
    parse_bts,
    parse_point,
    random_bitransition_system,
    random_costs,
    random_four_regular,
    random_square_graph,
    random_square_point,
    serialize_bts,
    serialize_point,
)
from .kotzig import BitransitionSystem, Trail, blow_up, check_system, find_trail, verify_trail
from .oracles import (
    ExplicitDeltaMatroid,
    SizeCapError,
    SquareDeltaMatroid,
    brute_cuts,
    brute_ham,
    brute_rainbow,
    brute_t_join,
    greedy,
    held_karp,
)
from .tjoin import min_t_join, min_weight_perfect_matching
from .tour import TourReport, compute_y, hamiltonian, run_tour
from .treesel import RainbowOneTree, rainbow

__version__ = "0.1.0"

__all__ = [
    "BitransitionSystem",
    "DisjointSet",
    "DonutInstance",
    "ExplicitDeltaMatroid",
    "HalfIntegerPoint",
    "HamCycle",
    "MultiGraph",
    "PointClass",
    "RainbowOneTree",
    "SizeCapError",
    "SquareDeltaMatroid",
    "SquareGraph",
    "SquarePoint",
    "SubtourReport",
    "TourReport",
    "Trail",
    "WeightedGraph",
    "blow_up",
    "brute_cuts",
    "brute_ham",
    "brute_rainbow",
    "brute_t_join",
    "check_square_graph",
    "check_system",
    "compute_y",
    "contract",
    "edge_key",
    "eulerian_circuit",
    "everywhere_instance",
    "find_trail",
    "global_min_cut",
    "greedy",
    "ham_min_cost",
    "hamiltonian",
    "held_karp",
    "make_donut",
    "metric_closure",
    "min_t_join",
    "min_weight_perfect_matching",
    "parse_bts",
    "parse_point",
    "random_bitransition_system",
    "random_costs",
    "random_four_regular",
    "random_square_graph",
    "random_square_point",
    "rainbow",
    "run_tour",
    "serialize_bts",
    "serialize_point",
    "square_point",
    "support_graph",
    "validate_and_classify",
    "validate_subtour",
    "verify_ham",
    "verify_trail",
]
