"""The project-invariant rule suite.

===========  ==============================================================
Rule         Invariant
===========  ==============================================================
``REP000``   Suppressions name their rule and carry a justification
             (enforced by the framework itself at parse time).
``REP001``   NumPy is imported only through ``engine/backend.py`` -- the
             backend-parity contract.
``REP002``   Interned relation columns and packed provenance arrays are
             append-only; mutation lives in the whitelisted delta/columnar
             sites.
``REP003``   Lock discipline: guarded fields are touched under their lock,
             no ``await`` runs while a sync lock is held, and the lock
             acquisition graph is cycle-free.
``REP004``   Merge/packing paths never iterate sets (or set-derived dicts)
             whose order could differ across processes.
``REP005``   Engine and storage code is wall-clock- and module-RNG-free.
===========  ==============================================================

``docs/INVARIANTS.md`` is the narrative catalog; this table is the code's
index.  ``ALL_CHECKERS`` is the production suite, in rule order.
"""

from repro.analysis.checkers.backend import BackendIsolationChecker
from repro.analysis.checkers.determinism import DeterministicIterationChecker
from repro.analysis.checkers.locks import LockDisciplineChecker
from repro.analysis.checkers.mutation import AppendOnlyChecker
from repro.analysis.checkers.wallclock import WallClockChecker
from repro.analysis.framework import Checker


def all_checkers() -> "list[Checker]":
    """A fresh production suite (checkers hold per-run state)."""
    return [
        BackendIsolationChecker(),
        AppendOnlyChecker(),
        LockDisciplineChecker(),
        DeterministicIterationChecker(),
        WallClockChecker(),
    ]


#: Every rule ID the suite can emit, including the framework's own REP000.
KNOWN_RULES = ("REP000", "REP001", "REP002", "REP003", "REP004", "REP005")

__all__ = [
    "ALL_RULE_IDS",
    "AppendOnlyChecker",
    "BackendIsolationChecker",
    "DeterministicIterationChecker",
    "KNOWN_RULES",
    "LockDisciplineChecker",
    "WallClockChecker",
    "all_checkers",
]

ALL_RULE_IDS = KNOWN_RULES
