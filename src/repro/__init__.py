"""repro -- Aggregated Deletion Propagation for counting CQ answers.

A from-scratch Python reproduction of

    Xiao Hu, Shouzhuo Sun, Shweta Patwa, Debmalya Panigrahi, Sudeepa Roy.
    "Aggregated Deletion Propagation for Counting Conjunctive Query Answers."
    VLDB 2020 (arXiv:2010.08694).

The ADP problem: given a self-join-free conjunctive query ``Q``, a database
``D`` and a target ``k``, remove the minimum number of input tuples so that
at least ``k`` tuples disappear from ``Q(D)``.

Quick start
-----------
>>> from repro import Database, Session
>>> d = Database.from_dict(
...     {"Major": ["S", "M"], "Req": ["M", "C"], "NoSeat": ["C"]},
...     {"Major": [("alice", "cs"), ("bob", "cs")],
...      "Req": [("cs", "db"), ("cs", "os")],
...      "NoSeat": [("db",), ("os",)]})
>>> session = Session(d)
>>> q = session.prepare("Qwl(S, C) :- Major(S, M), Req(M, C), NoSeat(C)")
>>> q.is_poly_time
False
>>> session.solve(q, k=2).size
1

A :class:`Session` binds one database and owns its evaluation cache, array
backend and interning tables; a :class:`PreparedQuery` carries the parse,
the dichotomy classification and the join plan, reusable across databases
and targets.  Every evaluation and solve goes through a session; library
functions that take ``(query, database)`` run in the session entered with
``with session.activate():`` (see ``docs/MIGRATION.md``).

Package layout
--------------
``repro.session``    the public entry point: ``Session`` / ``PreparedQuery``
                     (bind once, solve many, mutate incrementally)
``repro.query``      conjunctive-query model (atoms, parser, graph, rewrites)
``repro.data``       in-memory relations / databases / CSV I/O
``repro.engine``     join evaluation with provenance, delta semijoins,
                     dangling-tuple removal, max-flow
``repro.core``       the paper's contribution: dichotomies, hard structures,
                     query mappings, ``ComputeADP``, heuristics,
                     approximations, resilience, selections
``repro.workloads``  synthetic TPC-H-like / SNAP-like / Zipfian generators and
                     the query catalog used in the experiments
``repro.experiments`` the per-figure experiment harness (Figures 7--29)
"""

from repro.core import (
    ADPInstance,
    ADPSolution,
    ADPSolver,
    Selection,
    SolverConfig,
    decide,
    diagnose,
    hardness_certificate,
    is_np_hard,
    is_poly_time,
    is_poly_time_structural,
    is_poly_time_with_selection,
    resilience,
    robustness_profile,
    solve_with_selection,
)
from repro.core.curves import CostCurve
from repro.data import Database, Relation, TupleRef
from repro.query import Atom, ConjunctiveQuery, parse_query
from repro.session import (
    PreparedQuery,
    Session,
    SessionStats,
    WhatIfResult,
    prepare,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # query model
    "Atom",
    "ConjunctiveQuery",
    "parse_query",
    # data model
    "Database",
    "Relation",
    "TupleRef",
    # sessions (the primary API)
    "Session",
    "PreparedQuery",
    "SessionStats",
    "WhatIfResult",
    "prepare",
    "CostCurve",
    # dichotomies
    "is_poly_time",
    "is_np_hard",
    "is_poly_time_structural",
    "decide",
    "diagnose",
    "hardness_certificate",
    # solver
    "ADPSolver",
    "SolverConfig",
    "ADPInstance",
    "ADPSolution",
    # extensions
    "Selection",
    "solve_with_selection",
    "is_poly_time_with_selection",
    "resilience",
    "robustness_profile",
]
