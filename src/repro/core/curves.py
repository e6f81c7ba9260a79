"""Cost curves: solutions to ``ADP(Q, D, k)`` for *all* ``k`` at once.

The recursive steps of ``ComputeADP`` (Universe, Algorithm 4, and Decompose,
Algorithm 5) are dynamic programs that query the cost of sub-problems
``ADP(Q', D', m)`` for *many* values of ``m``.  Re-running a solver from
scratch per ``m`` would be wasteful: every base case of the paper naturally
produces the whole cost profile in one pass (a sorted prefix structure for
Singleton, greedy picks for the heuristics, a single cut for Boolean).

A :class:`CostCurve` therefore represents the function

    ``k  ↦  (minimum number of input tuples to delete >= k outputs,
             one deletion set achieving it)``

for ``k`` from 0 up to the number of outputs the curve can remove.  Three
implementations cover every algorithm in the library:

* :class:`PrefixCurve` -- an ordered list of *picks* ``(refs, gain)``; the
  answer for ``k`` is the shortest prefix whose gains sum to at least ``k``.
  Singleton (both cases), the greedy heuristics, per-relation Drastic
  profiles and the Boolean min-cut all fit this shape.
  :class:`TidPrefixCurve` is the same curve over packed tid/gain columns
  (Singleton case 1, per-relation Drastic profiles).
* :class:`MinCurve` -- the pointwise minimum of several curves (used by
  DrasticGreedy, which picks the best endogenous relation per ``k``).
* :class:`TableCurve` -- an explicit cost table plus a solution
  reconstruction callback; produced by the Universe / Decompose dynamic
  programs.

``cost(k)`` returns ``math.inf`` when the curve cannot remove ``k`` outputs
(e.g. ``k`` larger than ``|Q(D)|``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.data.relation import Row, TupleRef
from repro.engine.backend import Column, as_id_list, backend_of_column

INFEASIBLE = math.inf

#: One unit of work for a :class:`PrefixCurve`: delete ``refs`` and gain
#: ``gain`` removed output tuples.
Pick = Tuple[Tuple[TupleRef, ...], int]


class CostCurve:
    """Abstract interface; see the module docstring."""

    #: Whether cost(k) is the true optimum for every supported ``k``.
    optimal: bool = True

    def max_gain(self) -> int:
        """The largest number of outputs this curve can remove."""
        raise NotImplementedError

    def cost(self, k: int) -> float:
        """Minimum number of deleted input tuples to remove >= ``k`` outputs."""
        raise NotImplementedError

    def solution(self, k: int) -> FrozenSet[TupleRef]:
        """A deletion set achieving :meth:`cost` for ``k``."""
        raise NotImplementedError

    # Convenience -------------------------------------------------------- #
    def feasible(self, k: int) -> bool:
        """Whether the curve can remove at least ``k`` outputs."""
        return k <= self.max_gain()


class PrefixCurve(CostCurve):
    """A curve defined by an ordered sequence of picks.

    Parameters
    ----------
    picks:
        ``(refs, gain)`` pairs, already in the order they should be taken
        (sorted by decreasing gain for Singleton case 1, by increasing cost
        for Singleton case 2, in greedy order for the heuristics, ...).
        Picks with ``gain == 0`` are dropped.
    optimal:
        Whether prefixes of this order are optimal for every ``k``.
    """

    def __init__(self, picks: Sequence[Pick], optimal: bool = True):
        self._picks: List[Pick] = [
            (tuple(refs), int(gain)) for refs, gain in picks if gain > 0
        ]
        self.optimal = optimal
        self._cumulative_gain: List[int] = []
        self._cumulative_cost: List[int] = []
        total_gain = 0
        total_cost = 0
        for refs, gain in self._picks:
            total_gain += gain
            total_cost += len(refs)
            self._cumulative_gain.append(total_gain)
            self._cumulative_cost.append(total_cost)

    def max_gain(self) -> int:
        cumulative = self._cumulative_gain
        return int(cumulative[-1]) if len(cumulative) else 0

    def _prefix_for(self, k: int) -> Optional[int]:
        """The number of picks needed to reach gain ``k`` (None if infeasible)."""
        if k <= 0:
            return 0
        if k > self.max_gain():
            return None
        return bisect_left(self._cumulative_gain, k) + 1

    def cost(self, k: int) -> float:
        prefix = self._prefix_for(k)
        if prefix is None:
            return INFEASIBLE
        if prefix == 0:
            return 0
        return self._cumulative_cost[prefix - 1]

    def solution(self, k: int) -> FrozenSet[TupleRef]:
        prefix = self._prefix_for(k)
        if prefix is None:
            raise ValueError(f"cannot remove {k} outputs (max {self.max_gain()})")
        refs: List[TupleRef] = []
        for picked_refs, _gain in self._picks[:prefix]:
            refs.extend(picked_refs)
        return frozenset(refs)

    def picks(self) -> List[Pick]:
        """The (filtered) pick sequence, for introspection and tests."""
        return list(self._picks)


class TidPrefixCurve(PrefixCurve):
    """A :class:`PrefixCurve` of one-tuple picks held as packed columns.

    Pick ``i`` deletes ``TupleRef(relation, rows[tids[i]])`` and gains
    ``gains[i]``; ``tids`` and ``gains`` are backend columns (lists or
    ``int64`` arrays) and ``rows`` is one relation's ``tid -> row`` table.
    Every pick costs one tuple, so ``cost(k)`` is the prefix length, and
    :class:`TupleRef` objects are built only for the prefix a caller reads.
    """

    def __init__(
        self,
        relation: str,
        rows: Sequence[Row],
        tids: Column,
        gains: Column,
        optimal: bool = True,
    ):
        self._relation = relation
        self._rows = rows
        self._tids = tids
        self._gains = gains
        self._cumulative_gain = backend_of_column(gains).cumsum(gains)
        self.optimal = optimal

    def cost(self, k: int) -> float:
        prefix = self._prefix_for(k)
        return INFEASIBLE if prefix is None else prefix

    def solution(self, k: int) -> FrozenSet[TupleRef]:
        prefix = self._prefix_for(k)
        if prefix is None:
            raise ValueError(f"cannot remove {k} outputs (max {self.max_gain()})")
        relation, rows = self._relation, self._rows
        return frozenset(
            TupleRef(relation, rows[tid]) for tid in as_id_list(self._tids[:prefix])
        )

    def picks(self) -> List[Pick]:
        relation, rows = self._relation, self._rows
        return [
            ((TupleRef(relation, rows[tid]),), gain)
            for tid, gain in zip(as_id_list(self._tids), as_id_list(self._gains))
        ]


class MinCurve(CostCurve):
    """Pointwise minimum of several curves.

    ``cost(k)`` is the smallest cost among the member curves that can remove
    ``k`` outputs; ``solution(k)`` comes from the curve achieving it.  The
    result is optimal only if every member curve is optimal *and* members
    jointly dominate every alternative -- callers set ``optimal``
    explicitly (DrasticGreedy sets it to ``False``).
    """

    def __init__(self, curves: Sequence[CostCurve], optimal: bool = False):
        if not curves:
            raise ValueError("MinCurve needs at least one member curve")
        self._curves = list(curves)
        self.optimal = optimal

    def max_gain(self) -> int:
        return max(curve.max_gain() for curve in self._curves)

    def cost(self, k: int) -> float:
        return min(curve.cost(k) for curve in self._curves)

    def solution(self, k: int) -> FrozenSet[TupleRef]:
        best_curve = None
        best_cost = INFEASIBLE
        for curve in self._curves:
            candidate = curve.cost(k)
            if candidate < best_cost:
                best_cost = candidate
                best_curve = curve
        if best_curve is None:
            raise ValueError(f"cannot remove {k} outputs (max {self.max_gain()})")
        return best_curve.solution(k)


class TableCurve(CostCurve):
    """A curve backed by an explicit cost table and a reconstruction callback.

    Parameters
    ----------
    costs:
        ``costs[k]`` is the optimal cost for target ``k`` (``math.inf`` when
        infeasible); ``costs[0]`` must be 0.
    solution_builder:
        Callable mapping ``k`` to a deletion set achieving ``costs[k]``
        (called lazily, only when a solution is actually requested).
    optimal:
        Whether the table holds true optima.
    """

    def __init__(
        self,
        costs: Sequence[float],
        solution_builder: Callable[[int], FrozenSet[TupleRef]],
        optimal: bool = True,
    ):
        if not costs or costs[0] != 0:
            raise ValueError("costs[0] must exist and be 0")
        self._costs = list(costs)
        self._solution_builder = solution_builder
        self.optimal = optimal

    def max_gain(self) -> int:
        feasible = [k for k, cost in enumerate(self._costs) if cost != INFEASIBLE]
        return max(feasible) if feasible else 0

    def cost(self, k: int) -> float:
        if k <= 0:
            return 0
        if k >= len(self._costs):
            return INFEASIBLE
        return self._costs[k]

    def solution(self, k: int) -> FrozenSet[TupleRef]:
        if k <= 0:
            return frozenset()
        if self.cost(k) == INFEASIBLE:
            raise ValueError(f"cannot remove {k} outputs (max {self.max_gain()})")
        return self._solution_builder(k)


def constant_zero_curve() -> PrefixCurve:
    """A curve that can only handle ``k = 0`` (empty query result)."""
    return PrefixCurve([], optimal=True)
