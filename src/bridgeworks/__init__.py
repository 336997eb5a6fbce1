"""Optimal bridge insertion between geometric trees.

Core pieces: exact and greedy single-bridge solvers, the one-bridge decision
form, twin (two vertex-disjoint) bridges, forest connection through a hub,
and executable hardness reductions (1-in-3 SAT to complementary vectors to
the one-bridge decision; SAT to 3-SUM / k-SUM; vertex cover to a geometric
distance-decrease budget problem).

Numeric backends: computations stay exact (int / Fraction) when the inputs
are exact, and fall back to float64 with a 1e-9 relative tolerance
otherwise. Set BRIDGEWORKS_BACKEND=rational or =double to force a side.
"""

from .numerics import TOLERANCE, backend_override, is_exact, values_equal
from .geometry import (
    DistanceTable,
    Eccentricities,
    PlanarGraph,
    Point,
    WeightedTree,
    build_distance_table,
    center_vertex,
    euclidean_distance,
    path_vertices,
    segments_intersect,
    segments_properly_cross,
    tree_eccentricities,
    validate_planar,
)
from .bridge import (
    BridgeSolution,
    DecisionWitness,
    ForestConnection,
    approx_greedy,
    bichromatic_closest_pair,
    connect_forest,
    greedy_tightness_instance,
    one_bridge_decide,
    solve_exact,
)
from .twin import (
    TwinBridgeSolution,
    TwinEvaluation,
    brute_force_twin,
    crossing_optimum_instance,
    evaluate_constrained_diameter,
    solve_cases_12,
    solve_cases_34,
    solve_twin,
)
from .io import (
    ParseError,
    gen_random_tree,
    parse_graph,
    parse_sat,
    parse_tree,
    serialize_sat,
    serialize_tree,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the reductions load on first use: no solver needs them
    if name == "reductions":
        import importlib

        return importlib.import_module(".reductions", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "TOLERANCE",
    "backend_override",
    "is_exact",
    "values_equal",
    "DistanceTable",
    "Eccentricities",
    "PlanarGraph",
    "Point",
    "WeightedTree",
    "build_distance_table",
    "center_vertex",
    "euclidean_distance",
    "path_vertices",
    "segments_intersect",
    "segments_properly_cross",
    "tree_eccentricities",
    "validate_planar",
    "BridgeSolution",
    "DecisionWitness",
    "ForestConnection",
    "approx_greedy",
    "bichromatic_closest_pair",
    "connect_forest",
    "greedy_tightness_instance",
    "one_bridge_decide",
    "solve_exact",
    "TwinBridgeSolution",
    "TwinEvaluation",
    "brute_force_twin",
    "crossing_optimum_instance",
    "evaluate_constrained_diameter",
    "solve_cases_12",
    "solve_cases_34",
    "solve_twin",
    "ParseError",
    "gen_random_tree",
    "parse_graph",
    "parse_sat",
    "parse_tree",
    "serialize_sat",
    "serialize_tree",
    "reductions",
    "__version__",
]
