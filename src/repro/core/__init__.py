"""The ADP core: dichotomies, hardness mappings and the unified solver.

This subpackage implements the paper's contributions proper:

* :mod:`repro.core.decidability` -- the algorithmic dichotomy ``IsPtime``
  (Section 4);
* :mod:`repro.core.structures` -- the structural dichotomy of Theorem 3
  (triad-like, strand, non-hierarchical head join of non-dominated
  relations) and all supporting notions;
* :mod:`repro.core.mapping` -- the core hard queries and hardness-preserving
  query mappings (Section 4.2);
* :mod:`repro.core.adp` -- ``ComputeADP`` (Algorithm 2) with its base cases
  and simplification steps in sibling modules;
* :mod:`repro.core.approximation` -- the full-CQ approximation algorithms
  of Theorem 5 (Section 6), run on the greedy heuristics' provenance index;
* :mod:`repro.core.resilience` -- resilience as a special case;
* :mod:`repro.core.selection` -- the selection extension (Section 7.5);
* :mod:`repro.core.bruteforce` -- the exact brute-force baseline of the
  experimental section.
"""

from repro.core.adp import ADPSolver, SolverConfig
from repro.core.approximation import (
    approximation_factor_bound,
    greedy_full_cq,
    primal_dual_full_cq,
)
from repro.core.bruteforce import bruteforce_optimum, bruteforce_solve
from repro.core.decidability import (
    DecisionTrace,
    decide,
    hard_leaf_subqueries,
    is_np_hard,
    is_poly_time,
)
from repro.core.decompose import DecomposeStrategy, decompose_curve
from repro.core.greedy import drastic_curve, greedy_curve
from repro.core.mapping import (
    CORE_QUERIES,
    QPATH,
    QSEESAW,
    QSWING,
    QueryMapping,
    find_core_mapping,
    find_mapping,
    hardness_certificate,
)
from repro.core.resilience import is_resilience_poly_time, resilience, robustness_profile
from repro.core.selection import (
    Selection,
    is_poly_time_with_selection,
    selected_output_size,
    solve_with_selection,
)
from repro.core.singleton import is_singleton, singleton_curve, singleton_relation
from repro.core.solution import ADPInstance, ADPSolution, summarize_removed
from repro.core.structures import (
    StructuralDiagnosis,
    diagnose,
    dominated_relations,
    endogenous_relations,
    exogenous_relations,
    find_strand,
    find_triad,
    find_triad_like,
    has_triad,
    is_hierarchical,
    is_poly_time_structural,
    non_dominated_relations,
)
from repro.core.universe import UniverseStrategy, universe_curve

__all__ = [
    # solver
    "ADPSolver",
    "SolverConfig",
    "ADPInstance",
    "ADPSolution",
    "summarize_removed",
    # dichotomies
    "decide",
    "DecisionTrace",
    "is_poly_time",
    "is_np_hard",
    "hard_leaf_subqueries",
    "is_poly_time_structural",
    "diagnose",
    "StructuralDiagnosis",
    # structures
    "endogenous_relations",
    "exogenous_relations",
    "dominated_relations",
    "non_dominated_relations",
    "find_triad",
    "find_triad_like",
    "find_strand",
    "has_triad",
    "is_hierarchical",
    # mappings
    "CORE_QUERIES",
    "QPATH",
    "QSWING",
    "QSEESAW",
    "QueryMapping",
    "find_mapping",
    "find_core_mapping",
    "hardness_certificate",
    # algorithms
    "bruteforce_solve",
    "bruteforce_optimum",
    "greedy_curve",
    "drastic_curve",
    "singleton_curve",
    "singleton_relation",
    "is_singleton",
    "universe_curve",
    "UniverseStrategy",
    "decompose_curve",
    "DecomposeStrategy",
    # approximation / resilience / selection
    "greedy_full_cq",
    "primal_dual_full_cq",
    "approximation_factor_bound",
    "resilience",
    "is_resilience_poly_time",
    "robustness_profile",
    "Selection",
    "solve_with_selection",
    "is_poly_time_with_selection",
    "selected_output_size",
]
