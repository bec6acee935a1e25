"""Local-search solver for the maximum weighted independent set problem."""

from .construct import build_initial_solution, density_radius, greedy_construction, reduction_construction
from .descent import adaptive_descent
from .exchange import RewardTable, composite_search, composite_search_loop, select_module
from .formats import (
    ParseError,
    assign_weights_family_a,
    assign_weights_family_b,
    parse_edgelist,
    parse_metis,
    to_metis,
)
from .graph import Graph, VertexSet, build_graph
from .oracle import brute_force_mwis
from .perturb import perturb_solution, sample_insertion_count
from .reduction import Kernel, lift_solution, reduce_graph
from .region import build_local_graph, region_search
from .solver import SolveResult, SolverConfig, solve
from .state import Incumbent, SolutionState

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "VertexSet",
    "build_graph",
    "Kernel",
    "reduce_graph",
    "lift_solution",
    "SolutionState",
    "Incumbent",
    "density_radius",
    "greedy_construction",
    "reduction_construction",
    "build_initial_solution",
    "sample_insertion_count",
    "perturb_solution",
    "RewardTable",
    "select_module",
    "composite_search",
    "composite_search_loop",
    "adaptive_descent",
    "build_local_graph",
    "region_search",
    "SolverConfig",
    "SolveResult",
    "solve",
    "brute_force_mwis",
    "ParseError",
    "parse_metis",
    "parse_edgelist",
    "to_metis",
    "assign_weights_family_a",
    "assign_weights_family_b",
    "__version__",
]
