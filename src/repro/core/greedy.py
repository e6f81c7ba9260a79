"""Greedy heuristics for NP-hard queries (Section 7.4).

Two heuristics are implemented:

* :func:`greedy_curve` -- ``GreedyForCQ`` (Algorithm 6): repeatedly delete
  the input tuple that removes the most still-alive output tuples, restricted
  (by default) to endogenous relations, which is justified by Lemma 13.  The
  picks do not depend on the target ``k``, so a single run produces a full
  :class:`~repro.core.curves.PrefixCurve`.  Compared to the paper's pseudo
  code, ties on the number of removed outputs are broken by the number of
  removed *witnesses* (full-join rows); this refinement matters only when all
  profits are zero (e.g. boolean queries, where several tuples must fall
  before the single output disappears) and never changes the behaviour on
  full CQs.

* :func:`drastic_curve` -- ``DrasticGreedyForFullCQ`` (Algorithm 7): for each
  endogenous relation, compute every tuple's profit once (for a full CQ the
  witnesses removed by tuples of the same relation are disjoint outputs),
  sort decreasingly, and take the shortest prefix reaching ``k``; the
  relation giving the smallest prefix wins.  Only valid for full CQs -- with
  projections the per-relation profits are no longer additive, which is why
  the paper (and this library) refuse to apply it there.

Both heuristics run on the columnar engine's packed provenance: candidates
are dense ref IDs scanned through :class:`~repro.engine.provenance.
ProvenanceIndex`'s integer API, and the scan prunes with the invariant
``profit(t) <= witness_gain(t)`` (the witness gain is maintained
incrementally and is O(1) to read), which skips the expensive profit
computation for candidates that provably cannot beat the current best.  The
pruning never changes which tuple is picked, so the produced curves are
identical to an unpruned scan's.

``GreedyForCQ`` achieves an ``O(log k)`` approximation on full CQs (it is the
greedy partial-set-cover algorithm of Theorem 5); neither heuristic has a
guarantee in the presence of projections.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.curves import MinCurve, PrefixCurve
from repro.core.structures import endogenous_relations
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import backend_of_column
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.engine.provenance import ProvenanceIndex
from repro.obs.trace import span
from repro.query.cq import ConjunctiveQuery


def greedy_curve(
    query: ConjunctiveQuery,
    database: Database,
    kmax: Optional[int] = None,
    endogenous_only: bool = True,
) -> PrefixCurve:
    """``GreedyForCQ`` as a cost curve (heuristic, ``optimal=False``).

    Parameters
    ----------
    query, database:
        The instance.
    kmax:
        Stop once at least ``kmax`` outputs have been removed; defaults to
        all of ``|Q(D)|``.
    endogenous_only:
        Restrict candidate deletions to endogenous relations (Lemma 13).
        Setting this to ``False`` reproduces the unrestricted variant used in
        the ablation benchmark.
    """
    result = evaluate(query, database)
    total = result.output_count()
    if total == 0:
        return PrefixCurve([], optimal=True)
    target = total if kmax is None else min(kmax, total)

    picks: List[Tuple[Tuple[TupleRef, ...], int]] = []
    pending: List[TupleRef] = []
    removed_outputs = 0
    batch_profits = False
    with span("solver.greedy") as gsp:
        with span("engine.provenance.index") as isp:
            index = ProvenanceIndex(result)
            if isp:
                isp.set(refs=index.ref_count(), outputs=total)
        if endogenous_only:
            allowed = set(endogenous_relations(query))
            candidates = [
                rid
                for rid in range(index.ref_count())
                if index.ref_at(rid).relation in allowed
            ]
        else:
            candidates = list(range(index.ref_count()))
        candidates.sort(key=lambda rid: repr(index.ref_at(rid)))
        if gsp:
            gsp.set(target=target, candidates=len(candidates))
        while removed_outputs < target:
            best_rid = -1
            best_profit = -1
            best_gain = -1
            exhausted: Optional[List[int]] = None
            # One batched gather per round (a NumPy `take` on the vectorized
            # index) instead of one scalar witness_gain_id call per candidate.
            gains = index.gains_for(candidates)
            profit_calls = 0
            profits = index.profits_for(candidates) if batch_profits else None
            if profits is not None:
                # Batched scan: profits for every candidate were computed in
                # one group-by; the pick is the earliest candidate maximizing
                # (profit, gain) -- exactly what the pruned scan selects.
                for position, rid in enumerate(candidates):
                    gain = gains[position]
                    if gain == 0:
                        if exhausted is None:
                            exhausted = []
                        exhausted.append(rid)
                        continue
                    profit = profits[position]
                    if profit > best_profit or (
                        profit == best_profit and gain > best_gain
                    ):
                        best_profit = profit
                        best_gain = gain
                        best_rid = rid
            else:
                for rid, gain in zip(candidates, gains):
                    if gain == 0:
                        # All witnesses of this tuple are already dead (in
                        # particular every previously picked tuple): it can
                        # never make progress again, so drop it from future
                        # scans.
                        if exhausted is None:
                            exhausted = []
                        exhausted.append(rid)
                        continue
                    # profit <= witness gain, so a candidate whose gain cannot
                    # beat the incumbent key (profit, gain) cannot be
                    # selected: skip the profit computation.  This never
                    # changes the picked tuple.
                    if gain < best_profit or (
                        gain == best_profit and gain <= best_gain
                    ):
                        continue
                    profit = index.profit_id(rid)
                    profit_calls += 1
                    if profit > best_profit or (
                        profit == best_profit and gain > best_gain
                    ):
                        best_profit = profit
                        best_gain = gain
                        best_rid = rid
                # Projections blunt the witness-gain pruning bound (gains stay
                # large while profits collapse), degenerating the scan into
                # one profit query per candidate per round; from the round
                # where that happens, a single batched group-by is cheaper.
                # Both scans pick the same tuple, so the curve is unchanged.
                if profit_calls > max(256, len(candidates) // 4):
                    batch_profits = True
            if exhausted:
                dead = set(exhausted)
                candidates = [rid for rid in candidates if rid not in dead]
            if best_rid < 0:
                # No candidate can make progress (can only happen when
                # candidates are restricted and exogenous tuples would be
                # needed, which Lemma 13 rules out; guarded for safety).
                break
            gained = index.remove_id(best_rid)
            removed_outputs += gained
            best_ref = index.ref_at(best_rid)
            if gained > 0:
                picks.append((tuple(pending) + (best_ref,), gained))
                pending = []
            else:
                pending.append(best_ref)
        if gsp:
            gsp.set(picks=len(picks), removed_outputs=removed_outputs)
    return PrefixCurve(picks, optimal=False)


def drastic_curve(
    query: ConjunctiveQuery,
    database: Database,
) -> MinCurve:
    """``DrasticGreedyForFullCQ`` as a cost curve (heuristic).

    Raises ``ValueError`` when the query has projections (non-output
    attributes): the per-relation profit bookkeeping is only additive for
    full CQs.
    """
    if not query.is_full:
        raise ValueError(
            "DrasticGreedyForFullCQ only applies to full CQs "
            f"({query.name} has existential attributes "
            f"{sorted(query.existential_attributes)})"
        )
    result = evaluate(query, database)
    if result.output_count() == 0:
        return MinCurve([PrefixCurve([], optimal=True)], optimal=True)

    # For a full CQ every witness is a distinct output tuple, so a tuple's
    # profit is simply the number of witnesses it participates in, and tuples
    # of the same relation remove disjoint outputs.
    with span("solver.drastic") as dsp:
        profits: Dict[str, Dict[TupleRef, int]] = {}
        prov = result.provenance
        # Per-atom profit histogram through the backend's bincount kernel
        # (np.bincount over the packed tid column; a C-speed list
        # accumulation on the Python backend) -- no per-witness dict churn.
        for position, name in enumerate(prov.atom_names):
            column = prov.ref_columns[position]
            backend = backend_of_column(column)
            counts = backend.bincount(column, len(prov.indexes[position]))
            view = prov.refs_for_atom(position)
            if backend.is_numpy:
                nonzero = backend.np.nonzero(counts)[0]
                profits[name] = {
                    view[tid]: int(counts[tid]) for tid in nonzero.tolist()
                }
            else:
                profits[name] = {
                    view[tid]: count
                    for tid, count in enumerate(counts)
                    if count
                }
        witness_count = prov.witness_count()
        for vacuum_ref in prov.vacuum_refs:
            profits[vacuum_ref.relation] = {vacuum_ref: witness_count}

        curves: List[PrefixCurve] = []
        for relation_name in endogenous_relations(query):
            per_tuple = profits.get(relation_name, {})
            picks = [((ref,), profit) for ref, profit in per_tuple.items()]
            picks.sort(key=lambda pick: (-pick[1], repr(pick[0])))
            curves.append(PrefixCurve(picks, optimal=False))
        if not curves:  # pragma: no cover - every query has an endogenous relation
            curves.append(PrefixCurve([], optimal=False))
        if dsp:
            dsp.set(relations=len(curves))
        return MinCurve(curves, optimal=False)
