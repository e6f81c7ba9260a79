"""``ComputeADP``: the unified ADP solver (Section 7, Algorithm 2).

:class:`ADPSolver` dispatches exactly like Algorithm 2:

1. **Boolean** query -- resilience via the min-cut construction of
   Section 7.1 when the query is triad-free and linearizable, otherwise the
   greedy heuristic (the solution is then flagged as not guaranteed optimal);
2. **Singleton** query (Definition 10) -- the sorting algorithm of
   Section 7.2 (can be disabled via ``use_singleton=False`` to reproduce the
   Figure 28 ablation);
3. query with a **universal attribute** -- the Universe dynamic program
   (Algorithm 4), recursing into this solver for each sub-instance;
4. **disconnected** query -- the Decompose dynamic program (Algorithm 5),
   recursing per connected subquery;
5. otherwise -- the greedy heuristics of Section 7.4 (``GreedyForCQ`` or
   ``DrasticGreedyForFullCQ``), since by Lemma 4 the query is NP-hard.

The solver returns the exact optimum whenever ``IsPtime(Q)`` is true and a
feasible heuristic solution otherwise; the :class:`ADPSolution` it produces
records which case applies (``optimal`` flag and ``method`` string).

Internally every step produces a :class:`~repro.core.curves.CostCurve`
(solutions for all targets up to ``k``), because the Universe/Decompose
dynamic programs need the costs of sub-problems for many targets at once.

All evaluation goes through the columnar witness engine
(:mod:`repro.engine.evaluate`) in the *ambient engine context*: under
``Session.solve`` that is the session's own cache/backend/interners.  One
:class:`QueryResult` is threaded through sizing, feasibility and
verification (:meth:`ADPSolver.solve_in_context`), and the re-evaluations
of identical sub-instances inside the Universe/Decompose recursions are
served from the memoizing evaluation cache rather than re-joining.  Solve
through :meth:`repro.session.Session.solve`, which binds that context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core import greedy as greedy_module
from repro.core.boolean_cq import linear_order, min_cut_curve
from repro.core.curves import INFEASIBLE, CostCurve, constant_zero_curve
from repro.core.decidability import is_poly_time
from repro.core.decompose import DecomposeStrategy, decompose_curve
from repro.core.singleton import is_singleton, singleton_curve
from repro.core.solution import ADPSolution
from repro.core.structures import find_triad_like
from repro.core.universe import UniverseStrategy, universe_curve
from repro.data.database import Database
from repro.engine.evaluate import QueryResult, evaluate_in_context as evaluate
from repro.query.cq import ConjunctiveQuery
from repro.query.graph import QueryGraph

#: Heuristic used at NP-hard leaves ("Greedy" and "Drastic" in the paper's plots).
GREEDY = "greedy"
DRASTIC = "drastic"


def ratio_target(total: int, ratio: float) -> int:
    """``k = max(1, ceil(ratio * total))`` -- the paper's ρ parameter.

    The single home of the ρ-to-``k`` rule (``Session.solve_ratio``, the
    robustness profile and the experiment harness all delegate here).
    Raises ``ValueError`` for ``ratio`` outside ``(0, 1]`` or an empty
    result.
    """
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if total == 0:
        raise ValueError("the query result is empty; nothing to remove")
    return max(1, math.ceil(ratio * total))


@dataclass
class SolverConfig:
    """Tuning knobs of :class:`ADPSolver` (defaults follow the paper).

    Attributes
    ----------
    heuristic:
        ``"greedy"`` (Algorithm 6) or ``"drastic"`` (Algorithm 7) at NP-hard
        leaves.  Drastic only applies to full CQs; on other leaves the solver
        silently falls back to greedy (recorded in the solution stats).
    use_singleton:
        Enable the Singleton base case (Figure 28 ablation).
    universe_strategy, decompose_strategy:
        Strategies for the two simplification steps (Figures 28 and 29).
    endogenous_only:
        Restrict greedy candidates to endogenous relations (Lemma 13).
    counting_only:
        Report only the objective value (size of the deletion set); the
        ``removed`` set is left empty.  Mirrors the paper's "counting
        version", which is considerably more scalable than "reporting".
    """

    heuristic: str = GREEDY
    use_singleton: bool = True
    universe_strategy: UniverseStrategy = UniverseStrategy.COMBINED
    decompose_strategy: DecomposeStrategy = DecomposeStrategy.IMPROVED_DP
    endogenous_only: bool = True
    counting_only: bool = False

    def __post_init__(self) -> None:
        if self.heuristic not in (GREEDY, DRASTIC):
            raise ValueError(f"unknown heuristic {self.heuristic!r}")


class ADPSolver:
    """The unified ADP solver (``ComputeADP``)."""

    def __init__(self, config: Optional[SolverConfig] = None, **overrides):
        """Create a solver.

        ``overrides`` are convenience keyword arguments forwarded to
        :class:`SolverConfig` (e.g. ``ADPSolver(heuristic="drastic")``).
        """
        if config is not None and overrides:
            raise ValueError("pass either a config object or keyword overrides")
        self.config = config or SolverConfig(**overrides)
        self._fallbacks = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve_in_context(
        self,
        query: ConjunctiveQuery,
        database: Database,
        k: int,
        *,
        result: Optional[QueryResult] = None,
        curve: Optional[CostCurve] = None,
    ) -> ADPSolution:
        """Solve within the ambient engine context (the session entry point).

        ``result`` threads one evaluation through sizing, feasibility and
        verification (instead of three ``evaluate`` calls leaning on the
        cache); ``curve`` lets batched callers reuse a cost curve computed
        once at the batch's largest target.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if result is None:
            result = evaluate(query, database)
        total = result.output_count()
        if k > total:
            raise ValueError(f"k={k} exceeds the number of output tuples |Q(D)|={total}")
        if curve is None:
            self._fallbacks = 0
            curve = self._curve(query, database, k)
        cost = curve.cost(k)
        if cost == INFEASIBLE:
            # Heuristic curves can, in pathological cases, fall short of k
            # even though removing everything would reach it; removing every
            # participating tuple is always a feasible (terrible) solution.
            return self._remove_everything(query, k, total, result)
        if self.config.counting_only:
            removed = frozenset()
            removed_outputs = k
        else:
            removed = curve.solution(k)
            removed_outputs = result.outputs_removed_by(removed)
        return ADPSolution(
            query=query,
            k=k,
            removed=removed,
            removed_outputs=removed_outputs,
            optimal=curve.optimal,
            method="exact" if curve.optimal else self.config.heuristic,
            stats={
                "output_size": total,
                "counting_only": self.config.counting_only,
                "heuristic_fallbacks": self._fallbacks,
            },
            objective=int(cost),
        )

    def curve(
        self, query: ConjunctiveQuery, database: Database, kmax: int
    ) -> CostCurve:
        """The cost curve for all targets up to ``kmax`` (Algorithm 2's spine).

        Every dispatch case of ``ComputeADP`` internally produces solutions
        for *all* targets at once; this publishes that curve.  Runs in the
        ambient engine context -- call through :meth:`repro.session.Session.curve`
        to bind a session's cache.
        """
        if kmax < 0:
            raise ValueError(f"kmax must be non-negative, got {kmax}")
        self._fallbacks = 0
        return self._curve(query, database, kmax)

    def is_exact_for(self, query: ConjunctiveQuery) -> bool:
        """Whether this solver returns optimal solutions for ``query``.

        Equivalent to ``IsPtime(query)`` -- the solver is exact exactly on
        the poly-time side of the dichotomy.
        """
        return is_poly_time(query)

    # ------------------------------------------------------------------ #
    # Algorithm 2 dispatch (internal, curve-based)
    # ------------------------------------------------------------------ #
    def _curve(self, query: ConjunctiveQuery, database: Database, kmax: int) -> CostCurve:
        if query.is_boolean:
            return self._boolean_curve(query, database)
        if self.config.use_singleton and is_singleton(query):
            return singleton_curve(query, database)
        if query.universal_attributes():
            return universe_curve(
                query,
                database,
                kmax,
                child_curve=self._curve,
                strategy=self.config.universe_strategy,
            )
        if not QueryGraph(query).is_connected():
            return decompose_curve(
                query,
                database,
                kmax,
                child_curve=self._curve,
                strategy=self.config.decompose_strategy,
            )
        return self._heuristic_curve(query, database, kmax)

    def _boolean_curve(self, query: ConjunctiveQuery, database: Database) -> CostCurve:
        if evaluate(query, database).output_count() == 0:
            return constant_zero_curve()
        if find_triad_like(query) is None:
            order = linear_order(query)
            if order is not None:
                return min_cut_curve(query, database, order)
            # Triad-free but not directly linearizable: the full rewriting of
            # [11] is out of scope (see DESIGN.md); fall back to the greedy
            # heuristic and flag the answer as non-guaranteed.
            self._fallbacks += 1
        return greedy_module.greedy_curve(
            query, database, kmax=1, endogenous_only=self.config.endogenous_only
        )

    def _heuristic_curve(
        self, query: ConjunctiveQuery, database: Database, kmax: int
    ) -> CostCurve:
        if self.config.heuristic == DRASTIC:
            if query.is_full:
                return greedy_module.drastic_curve(query, database)
            self._fallbacks += 1
        return greedy_module.greedy_curve(
            query, database, kmax=kmax, endogenous_only=self.config.endogenous_only
        )

    # ------------------------------------------------------------------ #
    # Last-resort feasible solution
    # ------------------------------------------------------------------ #
    def _remove_everything(
        self, query: ConjunctiveQuery, k: int, total: int, result: QueryResult
    ) -> ADPSolution:
        removed = frozenset(result.participating_refs())
        return ADPSolution(
            query=query,
            k=k,
            removed=frozenset() if self.config.counting_only else removed,
            removed_outputs=total,
            optimal=False,
            method="remove-everything",
            stats={"output_size": total, "counting_only": self.config.counting_only},
            objective=len(removed),
        )

