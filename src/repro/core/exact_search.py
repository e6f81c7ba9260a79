"""Branch-and-bound exact search for NP-hard instances.

The paper's exact baseline ("BruteForce", Section 8.2) enumerates subsets of
input tuples in increasing size.  That is fine for calibrating heuristics on
tiny inputs but wasteful: it re-examines the same hopeless branches over and
over.  This module adds a considerably stronger exact solver that is still
guaranteed optimal on *every* self-join-free CQ (easy or hard):

* the instance is reduced to a **partial hitting-set** problem over the
  witness sets of the still-alive output tuples (delete at least one tuple of
  every witness of an output to kill it; kill at least ``k`` outputs);
* a depth-first branch-and-bound explores candidate deletions in decreasing
  profit order, pruning with two admissible lower bounds:

  1. if even deleting the ``r`` highest-profit remaining candidates cannot
     reach the residual target, the branch dies (profit bound);
  2. the running best solution size bounds the depth (cost bound).

It remains exponential in the worst case (the problem is NP-hard), but it
solves instances that are far out of reach of plain subset enumeration and is
used by the test-suite as an independent optimum oracle on medium-sized
hard instances.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from repro.core.adp import check_target
from repro.core.greedy import candidate_order
from repro.core.solution import ADPSolution
from repro.core.structures import endogenous_relations
from repro.data.database import Database
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.engine.provenance import ProvenanceIndex
from repro.query.cq import ConjunctiveQuery


class _SearchState:
    """Mutable search state shared across the branch-and-bound recursion."""

    def __init__(self, node_limit: int):
        self.node_limit = node_limit
        self.nodes = 0
        self.best_size: Optional[int] = None
        self.best_removed: FrozenSet[int] = frozenset()


def _upper_profit_bound(index: ProvenanceIndex, candidates: Sequence[int], budget: int) -> int:
    """Optimistic gain of deleting the ``budget`` best remaining candidates.

    The bound uses :meth:`ProvenanceIndex.touched_outputs_id`, not
    :meth:`ProvenanceIndex.profit_id`: an output can only die if at least
    one deleted tuple touches it, so the number of outputs killed by any set
    ``S`` is at most ``sum(touched_outputs_id(t) for t in S)`` (a union
    bound).  Per-tuple *profits* would not be admissible here -- on queries
    with projections they are super-additive (two deletions can jointly kill
    an output that neither kills alone).
    """
    touches = sorted((index.touched_outputs_id(rid) for rid in candidates), reverse=True)
    return sum(touches[:budget])


def branch_and_bound_solve(
    query: ConjunctiveQuery,
    database: Database,
    k: int,
    endogenous_only: bool = True,
    node_limit: int = 200_000,
) -> ADPSolution:
    """Solve ``ADP(Q, D, k)`` exactly by branch and bound.

    Parameters
    ----------
    query, database, k:
        The instance (``1 <= k <= |Q(D)|``).
    endogenous_only:
        Restrict candidate deletions to endogenous relations (safe by the
        exchange argument of Lemma 13).
    node_limit:
        Abort with ``RuntimeError`` after exploring this many search nodes
        (protection against accidentally huge instances).

    Returns
    -------
    ADPSolution
        An optimal solution (``optimal=True``, ``method="branch-and-bound"``).
    """
    result = evaluate(query, database)
    check_target(k, result.output_count())

    # The search runs on the index's dense ref IDs (rids); ties are broken
    # by ``repr(TupleRef)`` through each rid's rank in candidate_order.
    index = ProvenanceIndex(result)
    candidates = candidate_order(
        index, endogenous_relations(query) if endogenous_only else index.relation_names()
    )
    rank = [0] * index.ref_count()
    for place, rid in enumerate(candidates):
        rank[rid] = place
    # Stable, profit-descending order gives the search good first solutions.
    candidates.sort(key=lambda rid: -index.profit_id(rid))

    state = _SearchState(node_limit)

    # A greedy solution seeds the incumbent so pruning bites immediately.
    greedy_removed: List[int] = []
    while index.removed_output_count() < k:
        taken = set(greedy_removed)
        best = max(
            (rid for rid in candidates if rid not in taken),
            key=lambda rid: (index.profit_id(rid), index.witness_gain_id(rid), rank[rid]),
            default=None,
        )
        if best is None:
            break
        index.remove_id(best)
        greedy_removed.append(best)
    if index.removed_output_count() >= k:
        state.best_size = len(greedy_removed)
        state.best_removed = frozenset(greedy_removed)
    for rid in greedy_removed:
        index.restore_id(rid)

    chosen: List[int] = []

    def recurse(position: int) -> None:
        state.nodes += 1
        if state.nodes > state.node_limit:
            raise RuntimeError(
                f"branch-and-bound exceeded node_limit={state.node_limit}"
            )
        removed_outputs = index.removed_output_count()
        if removed_outputs >= k:
            if state.best_size is None or len(chosen) < state.best_size:
                state.best_size = len(chosen)
                state.best_removed = frozenset(chosen)
            return
        if state.best_size is not None and len(chosen) + 1 > state.best_size:
            return
        remaining = candidates[position:]
        if not remaining:
            return
        budget = (state.best_size - len(chosen)) if state.best_size is not None else len(remaining)
        budget = min(budget, len(remaining))
        if budget <= 0:
            return
        if removed_outputs + _upper_profit_bound(index, remaining, budget) < k:
            return
        # ``remaining`` holds no chosen rid: every pick lies before ``position``.
        for offset, rid in enumerate(remaining):
            if state.best_size is not None and len(chosen) + 1 >= state.best_size:
                # Any completion through this branch has size >= the incumbent.
                break
            # Branch: take rid; the "skip rid" branch is the next iteration.
            index.remove_id(rid)
            chosen.append(rid)
            recurse(position + offset + 1)
            chosen.pop()
            index.restore_id(rid)

    recurse(0)

    if state.best_size is None:
        raise RuntimeError("branch-and-bound failed to find a feasible solution")
    removed = frozenset(index.ref_at(rid) for rid in state.best_removed)
    return ADPSolution(
        query=query,
        k=k,
        removed=removed,
        removed_outputs=result.outputs_removed_by(removed),
        optimal=True,
        method="branch-and-bound",
        stats={"nodes": state.nodes, "candidates": len(candidates)},
    )


def branch_and_bound_optimum(
    query: ConjunctiveQuery, database: Database, k: int, **kwargs
) -> int:
    """The optimal objective value only (convenience wrapper)."""
    return branch_and_bound_solve(query, database, k, **kwargs).size
