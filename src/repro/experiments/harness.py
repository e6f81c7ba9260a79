"""Generic experiment plumbing.

Every figure of the paper ultimately reports, for a grid of parameters
(input size, removal ratio ρ, skew α, query, method), one of two quantities:

* the **running time** of a method, or
* the **quality** of its solution (number of input tuples removed).

:func:`run_method` produces both for a single grid point, and
:class:`ExperimentResult` is the tidy table the figure functions return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.adp import ratio_target
from repro.core.bruteforce import bruteforce_solve
from repro.core.solution import ADPSolution
from repro.data.database import Database
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.query.cq import ConjunctiveQuery
from repro.session import Session, default_session

#: Method names accepted by :func:`run_method` (the names used in the plots).
METHODS = ("exact", "exact-counting", "greedy", "drastic", "bruteforce")

def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` once and return ``(result, elapsed seconds)``."""
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed


@dataclass
class MethodRun:
    """Outcome of one (query, database, k, method) grid point."""

    method: str
    k: int
    output_size: int
    seconds: float
    solution_size: int
    optimal: bool
    removed_outputs: int

    def as_row(self, **extra) -> Dict[str, object]:
        """The run as a flat report row, with extra grid parameters merged in."""
        row = {
            "method": self.method,
            "k": self.k,
            "output_size": self.output_size,
            "seconds": round(self.seconds, 6),
            "solution_size": self.solution_size,
            "optimal": self.optimal,
            "removed_outputs": self.removed_outputs,
        }
        row.update(extra)
        return row


def target_from_ratio(query: ConjunctiveQuery, database: Database, ratio: float) -> int:
    """``k = ceil(ρ · |Q(D)|)`` with the implicit bound ``k >= 1``."""
    total = evaluate(query, database).output_count()
    if total == 0:
        raise ValueError(f"{query.name} has an empty result; cannot pick k from a ratio")
    return ratio_target(total, ratio)


def run_method(
    query: ConjunctiveQuery,
    database: Database,
    k: int,
    method: str,
    bruteforce_max_candidates: int = 40,
    session: Optional[Session] = None,
) -> MethodRun:
    """Run one method on one instance and record time + quality.

    Runs through a :class:`~repro.session.Session`: pass one explicitly to
    share caches across a whole grid, otherwise the database's implicit
    default session is used (matching the old global-cache behaviour).

    ``method`` is one of :data:`METHODS`:

    * ``"exact"``            -- ComputeADP, reporting mode;
    * ``"exact-counting"``   -- ComputeADP, counting-only mode;
    * ``"greedy"``           -- ComputeADP with GreedyForCQ at hard leaves;
    * ``"drastic"``          -- ComputeADP with DrasticGreedyForFullCQ;
    * ``"bruteforce"``       -- subset enumeration (small instances only).
    """
    run_session = session if session is not None else default_session(database)
    prepared = run_session.prepare(query)
    output_size = run_session.output_size(prepared)

    def solve() -> ADPSolution:
        if method == "bruteforce":
            with run_session.activate():
                return bruteforce_solve(
                    query, database, k, max_candidates=bruteforce_max_candidates
                )
        if method == "exact":
            return run_session.solve(prepared, k)
        if method == "exact-counting":
            return run_session.solve(prepared, k, counting_only=True)
        if method == "greedy":
            return run_session.solve(prepared, k, heuristic="greedy")
        if method == "drastic":
            return run_session.solve(prepared, k, heuristic="drastic")
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")

    solution, seconds = timed(solve)
    assert isinstance(solution, ADPSolution)
    return MethodRun(
        method=method,
        k=k,
        output_size=output_size,
        seconds=seconds,
        solution_size=solution.size,
        optimal=solution.optimal,
        removed_outputs=solution.removed_outputs,
    )


@dataclass
class ExperimentResult:
    """A tidy table of rows for one figure of the paper."""

    figure: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, row: Dict[str, object]) -> None:
        """Append one row."""
        # ExperimentResult.rows is this result table's own list of figure
        # rows, not an interned relation column; nothing shares it.
        self.rows.append(row)  # repro: noqa REP002 -- local result table, not an interned column

    def columns(self) -> List[str]:
        """Column names, in first-seen order across all rows."""
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def series(self, group_by: str, x: str, y: str) -> Dict[object, List[Tuple[object, object]]]:
        """Pivot the rows into plot series ``{group: [(x, y), ...]}``."""
        series: Dict[object, List[Tuple[object, object]]] = {}
        for row in self.rows:
            series.setdefault(row.get(group_by), []).append((row.get(x), row.get(y)))
        return series

    def filter(self, **criteria) -> List[Dict[str, object]]:
        """Rows matching all the given column values."""
        return [
            row
            for row in self.rows
            if all(row.get(column) == value for column, value in criteria.items())
        ]
