"""Optimal multi-agent path finding with vertex capacity constraints.

Eager and lazy SAT encodings over an embedded CDCL core, plus plan
validation, a brute-force optimality oracle, and a benchmark harness.
"""

from .instance import (
    Agent,
    CapacityMap,
    Graph,
    Instance,
    generate_random,
    load_capacities,
    parse_map,
    parse_scenario,
    serialize_map,
    validate_instance,
)
from .pathcalc import UNREACHABLE, bfs_distances, cost_lower_bound
from .mdd import Mdd, compute_horizon
from .cnf import CnfFormula, at_most_k, at_most_one_pairwise, parse_dimacs, to_dimacs
from .satcore import SAT, UNKNOWN, UNSAT, CdclSolver, SatResult
from .encoder import encode_basic, encode_complete, extract_plan
from .plans import Conflict, Plan
from .solvers import (
    Limits,
    SolveReport,
    solve,
    validate_candidate,
)
from .verify import brute_force_optimal, validate_plan

__all__ = [
    "Agent", "CapacityMap", "Graph", "Instance", "generate_random",
    "load_capacities", "parse_map", "parse_scenario", "serialize_map",
    "validate_instance", "UNREACHABLE", "bfs_distances", "cost_lower_bound",
    "Mdd", "compute_horizon", "CnfFormula", "at_most_k",
    "at_most_one_pairwise", "parse_dimacs", "to_dimacs", "SAT", "UNKNOWN",
    "UNSAT", "CdclSolver", "SatResult", "encode_basic", "encode_complete",
    "extract_plan", "Conflict", "Plan", "Limits", "SolveReport", "solve",
    "validate_candidate", "brute_force_optimal", "validate_plan",
]

__version__ = "0.1.0"
