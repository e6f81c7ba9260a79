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
:meth:`ADPSolver.curve_entry` publishes it as a :class:`CurveEntry` -- the
curve plus the heuristic fallback count and an answer memo keyed by ``(k,
counting_only)``, which travel together so a session can cache them
(:class:`repro.engine.cache.CurveCache`) and the solver keeps no per-call
state.  A warm read-off at an already-verified ``k`` is therefore a lookup:
``solution(k)`` plus one dict read; the service goes further and answers it
from the stable payload it memoized on the same record.

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

import functools
import math
from dataclasses import dataclass, field
from typing import Hashable, Optional

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
from repro.engine.cache import Answer, AnswerMemo
from repro.engine.columnar import QueryResult
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.query.cq import ConjunctiveQuery
from repro.query.graph import QueryGraph

#: Heuristic used at NP-hard leaves ("Greedy" and "Drastic" in the paper's plots).
GREEDY = "greedy"
DRASTIC = "drastic"


def check_target_range(k: Optional[int] = None, ratio: Optional[float] = None) -> None:
    """Raise ``ValueError`` unless ``k >= 1`` and ``ratio`` lies in ``(0, 1]``
    (either may be ``None``: not given).

    The range checks that hold whatever ``|Q(D)|`` is: a caller that answers
    an empty result without solving runs them first, so a target is
    rejected the same way on an empty and on a non-empty result.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if ratio is not None and not 0 < ratio <= 1:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")


def ratio_target(total: int, ratio: float) -> int:
    """``k = max(1, ceil(ratio * total))`` -- the paper's ρ parameter.

    The single home of the ρ-to-``k`` rule (``Session.solve_ratio``, the
    robustness profile and the experiment harness all delegate here).
    Raises ``ValueError`` for ``ratio`` outside ``(0, 1]`` or an empty
    result.
    """
    check_target_range(ratio=ratio)
    if total == 0:
        raise ValueError("the query result is empty; nothing to remove")
    return max(1, math.ceil(ratio * total))


def check_target(k: int, total: int) -> None:
    """Raise ``ValueError`` unless ``1 <= k <= total`` (``total = |Q(D)|``)."""
    check_target_range(k=k)
    if k > total:
        raise ValueError(f"k={k} exceeds the number of output tuples |Q(D)|={total}")


@dataclass(frozen=True)
class CurveEntry:
    """A cost curve computed at ``kmax`` and what the read-off needs beside it.

    The curve answers every target ``k <= kmax`` (it may report
    ``max_gain() > kmax``: greedy curves overshoot).  ``heuristic_fallbacks``
    counts the NP-hard leaves where the configured heuristic did not apply
    (drastic on a non-full query, a Boolean query without a linear order).

    ``answers`` is the entry's answer memo
    (:class:`~repro.engine.cache.AnswerMemo`), keyed by ``(k,
    counting_only)``: :meth:`ADPSolver.solve_in_context` stores the count
    ``|outputs removed by solution(k)|`` it verified once with
    ``QueryResult.outputs_removed_by``, and the service adds the stable solve
    payload it rendered from that answer.  A cached entry belongs to one
    database version and is dropped on every (exclusive) mutation, so an
    answer never outlives the result it was verified against; concurrent
    readers can only race to store equal answers.
    """

    kmax: int
    curve: CostCurve
    heuristic_fallbacks: int
    answers: AnswerMemo = field(default_factory=AnswerMemo, compare=False, repr=False)


class _Tally:
    """Heuristic fallbacks counted during one curve computation."""

    __slots__ = ("fallbacks",)

    def __init__(self) -> None:
        self.fallbacks = 0


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
        curve: Optional[CurveEntry] = None,
    ) -> ADPSolution:
        """Solve within the ambient engine context (the session entry point).

        ``result`` threads one evaluation through sizing, feasibility and
        verification (instead of three ``evaluate`` calls leaning on the
        cache); ``curve`` lets callers read the answer off an entry computed
        once at a target ``>= k`` (a batch's largest target, or the
        session's curve cache); the entry's answer memo makes the
        verification run once per ``k``.
        """
        if result is None:
            result = evaluate(query, database)
        total = result.output_count()
        check_target(k, total)
        entry = curve if curve is not None else self.curve_entry(query, database, k)
        cost_curve = entry.curve
        cost = cost_curve.cost(k)
        if cost == INFEASIBLE:
            # Heuristic curves can, in pathological cases, fall short of k
            # even though removing everything would reach it; removing every
            # participating tuple is always a feasible (terrible) solution.
            return self._remove_everything(query, k, total, result)
        if self.config.counting_only:
            removed = frozenset()
            removed_outputs = k
        else:
            removed = cost_curve.solution(k)
            answer = entry.answers.get((k, False))
            if answer is None:
                answer = entry.answers.put(
                    (k, False), Answer(result.outputs_removed_by(removed))
                )
            removed_outputs = answer.removed_outputs
        return ADPSolution(
            query=query,
            k=k,
            removed=removed,
            removed_outputs=removed_outputs,
            optimal=cost_curve.optimal,
            method="exact" if cost_curve.optimal else self.config.heuristic,
            stats={
                "output_size": total,
                "counting_only": self.config.counting_only,
                "heuristic_fallbacks": entry.heuristic_fallbacks,
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
        return self.curve_entry(query, database, kmax).curve

    def curve_entry(
        self, query: ConjunctiveQuery, database: Database, kmax: int
    ) -> CurveEntry:
        """:meth:`curve` plus the fallback count, as one cacheable entry."""
        if kmax < 0:
            raise ValueError(f"kmax must be non-negative, got {kmax}")
        tally = _Tally()
        curve = self._curve(query, database, kmax, tally)
        return CurveEntry(kmax, curve, tally.fallbacks)

    def curve_key(self) -> Hashable:
        """What identifies this solver's curves in a curve cache.

        The solver class plus every :class:`SolverConfig` field that shapes
        a curve; ``counting_only`` only changes the read-off, so solvers
        differing only there share curves.
        """
        config = self.config
        return (
            type(self),
            config.heuristic,
            config.use_singleton,
            config.universe_strategy,
            config.decompose_strategy,
            config.endogenous_only,
        )

    def is_exact_for(self, query: ConjunctiveQuery) -> bool:
        """Whether this solver returns optimal solutions for ``query``.

        Equivalent to ``IsPtime(query)`` -- the solver is exact exactly on
        the poly-time side of the dichotomy.
        """
        return is_poly_time(query)

    # ------------------------------------------------------------------ #
    # Algorithm 2 dispatch (internal, curve-based)
    # ------------------------------------------------------------------ #
    def _curve(
        self,
        query: ConjunctiveQuery,
        database: Database,
        kmax: int,
        tally: Optional[_Tally] = None,
    ) -> CostCurve:
        if tally is None:  # a bare recursion hook: the count is not wanted
            tally = _Tally()
        if query.is_boolean:
            return self._boolean_curve(query, database, tally)
        if self.config.use_singleton and is_singleton(query):
            return singleton_curve(query, database)
        child_curve = functools.partial(self._curve, tally=tally)
        if query.universal_attributes():
            return universe_curve(
                query,
                database,
                kmax,
                child_curve=child_curve,
                strategy=self.config.universe_strategy,
            )
        if not QueryGraph(query).is_connected():
            return decompose_curve(
                query,
                database,
                kmax,
                child_curve=child_curve,
                strategy=self.config.decompose_strategy,
            )
        return self._heuristic_curve(query, database, kmax, tally)

    def _boolean_curve(
        self, query: ConjunctiveQuery, database: Database, tally: _Tally
    ) -> CostCurve:
        if evaluate(query, database).output_count() == 0:
            return constant_zero_curve()
        if find_triad_like(query) is None:
            order = linear_order(query)
            if order is not None:
                return min_cut_curve(query, database, order)
            # Triad-free but not directly linearizable: the full rewriting of
            # [11] is out of scope (see DESIGN.md); fall back to the greedy
            # heuristic and flag the answer as non-guaranteed.
            tally.fallbacks += 1
        return greedy_module.greedy_curve(
            query, database, kmax=1, endogenous_only=self.config.endogenous_only
        )

    def _heuristic_curve(
        self, query: ConjunctiveQuery, database: Database, kmax: int, tally: _Tally
    ) -> CostCurve:
        if self.config.heuristic == DRASTIC:
            if query.is_full:
                return greedy_module.drastic_curve(query, database)
            tally.fallbacks += 1
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

