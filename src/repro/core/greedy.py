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
  witnesses removed by tuples of the same relation are disjoint outputs:
  one ``bincount`` of the packed tid column), sort decreasingly, and take
  the shortest prefix reaching ``k``; the relation giving the smallest
  prefix wins.  Only valid for full CQs -- with
  projections the per-relation profits are no longer additive, which is why
  the paper (and this library) refuse to apply it there.

Both heuristics run on the columnar engine's packed provenance: candidates
are dense ref IDs handled through :class:`~repro.engine.provenance.
ProvenanceIndex`'s integer API, and ties are broken by ``repr(TupleRef)``
order without building a :class:`~repro.data.relation.TupleRef` per tuple
(:func:`candidate_order`): relations compare by ``f"{name!r}, values="`` and
a relation's tuples by ``repr(row)``, computed over the candidates only.
Only the picks a curve returns ever become ``TupleRef`` objects.  One greedy
round picks the earliest candidate (in that order) maximizing ``(profit,
witness gain)``, and the index's kernel decides how:

* **vector** (NumPy index): a few array passes -- one gather of the gains,
  one gather of the profits the index keeps current through every removal
  (:meth:`~repro.engine.provenance.ProvenanceIndex.profits_for`), one
  masked ``argmax``;
* **scan** (pure-Python index, the parity reference): a scalar scan that
  prunes with the invariant ``profit(t) <= witness_gain(t)`` (the witness
  gain is maintained incrementally and is O(1) to read), skipping the
  profit computation for candidates that provably cannot beat the current
  best.

Both select the same tuple every round, so the produced curves are
identical across kernels.

``GreedyForCQ`` achieves an ``O(log k)`` approximation on full CQs (it is the
greedy partial-set-cover algorithm of Theorem 5); neither heuristic has a
guarantee in the presence of projections.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.curves import MinCurve, PrefixCurve, TidPrefixCurve
from repro.core.structures import endogenous_relations
from repro.data.database import Database
from repro.data.relation import Row, TupleRef
from repro.engine.backend import as_id_list, backend_of_column
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
    rounds = 0
    with span("solver.greedy") as gsp:
        with span("engine.provenance.index") as isp:
            index = ProvenanceIndex(result)
            if isp:
                isp.set(refs=index.ref_count(), outputs=total)
        relations = (
            endogenous_relations(query) if endogenous_only
            else index.relation_names()
        )
        candidates: Any = candidate_order(index, relations)
        if index.vectorized:
            np = backend_of_column(result.ref_columns[0]).np
            candidates = np.asarray(candidates, dtype=np.int64)
        if gsp:
            gsp.set(
                target=target,
                candidates=len(candidates),
                kernel="vector" if index.vectorized else "scan",
            )
        while removed_outputs < target:
            rounds += 1
            if index.vectorized:
                best_rid, candidates = _vector_round(index, candidates)
            else:
                best_rid, candidates = _scan_round(index, candidates)
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
            gsp.set(picks=len(picks), removed_outputs=removed_outputs, rounds=rounds)
    return PrefixCurve(picks, optimal=False)


def _relation_key(name: str) -> str:
    """What ``repr(TupleRef(name, row))`` orders relations by.

    The repr is ``f"TupleRef(relation={name!r}, values={row!r})"``.  A
    string repr ends at its first unescaped quote, so ``f"{name!r}, values="``
    of one name is never a proper prefix of another's: relations compare by
    this key alone, whatever their rows.
    """
    return f"{name!r}, values="


def repr_order(rows: Sequence[Row]) -> List[int]:
    """Positions of ``rows`` in ``repr(TupleRef(name, row))`` order.

    Within one relation the reprs share their prefix, so they compare by
    ``repr(row) + ")"``; the sort is stable, so equal reprs keep their
    position order exactly as sorting whole ``TupleRef`` reprs would.
    """
    keys = [f"{row!r})" for row in rows]
    return sorted(range(len(keys)), key=keys.__getitem__)


def candidate_order(index: ProvenanceIndex, relations: Iterable[str]) -> List[int]:
    """The rids of ``relations``' participating tuples, ordered exactly as
    ``sorted(rids, key=lambda rid: repr(index.ref_at(rid)))``.

    Relations sort by :func:`_relation_key`, then each relation's rids by
    :func:`repr_order` over its candidate rows only -- no :class:`TupleRef`
    is built.
    """
    order: List[int] = []
    for name in sorted(set(relations), key=_relation_key):
        rids, rows = index.relation_rows(name)
        order.extend(rids[i] for i in repr_order(rows))
    return order


def _vector_round(index: ProvenanceIndex, candidates: Any) -> Tuple[int, Any]:
    """One greedy round on the NumPy index: ``(picked rid or -1, candidates)``.

    Candidates whose witness gain fell to 0 can never make progress again
    (every previous pick among them) and are dropped for later rounds.
    """
    gains = index.gains_for(candidates)
    live = gains > 0
    if not live.all():
        candidates = candidates[live]
        gains = gains[live]
    if not candidates.size:
        return -1, candidates
    profits = index.profits_for(candidates)
    # Live gains are >= 1, so zeroing the gains off the best profit keeps
    # them out of the argmax, whose first maximum is then the earliest
    # candidate with the best gain among the best profits: the scan's pick.
    tied = gains * (profits == profits.max())
    return int(candidates[int(tied.argmax())]), candidates


def _scan_round(index: ProvenanceIndex, candidates: List[int]) -> Tuple[int, List[int]]:
    """One greedy round on the Python index: the pruned scalar scan."""
    best_rid = -1
    best_profit = -1
    best_gain = -1
    exhausted: Optional[List[int]] = None
    for rid, gain in zip(candidates, index.gains_for(candidates)):
        if gain == 0:
            # All witnesses of this tuple are already dead (in particular
            # every previously picked tuple): it can never make progress
            # again, so drop it from future scans.
            if exhausted is None:
                exhausted = []
            exhausted.append(rid)
            continue
        # profit <= witness gain, so a candidate whose gain cannot beat the
        # incumbent key (profit, gain) cannot be selected: skip the profit
        # computation.  This never changes the picked tuple.
        if gain < best_profit or (gain == best_profit and gain <= best_gain):
            continue
        profit = index.profit_id(rid)
        if profit > best_profit or (profit == best_profit and gain > best_gain):
            best_profit = profit
            best_gain = gain
            best_rid = rid
    if exhausted:
        dead = set(exhausted)
        candidates = [rid for rid in candidates if rid not in dead]
    return best_rid, candidates


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
        curves: List[PrefixCurve] = []
        for relation_name in endogenous_relations(query):
            position = result.atom_position(relation_name)
            if position is None:
                # A vacuum relation: its one tuple sits in every witness.
                picks = [
                    ((ref,), result.witness_count())
                    for ref in result.vacuum_refs
                    if ref.relation == relation_name
                ]
                curves.append(PrefixCurve(picks, optimal=False))
                continue
            # Per-tid profit histogram (np.bincount over the packed tid
            # column; a C-speed list accumulation on the Python backend),
            # ordered by (-profit, repr) with the repr rank computed over the
            # participating tids only.
            column = result.ref_columns[position]
            backend = backend_of_column(column)
            index = result.indexes[position]
            profits = backend.bincount(column, len(index))
            participating = [
                tid for tid, profit in enumerate(as_id_list(profits)) if profit
            ]
            rows = index.rows
            rank = [0] * len(index)
            for place, i in enumerate(repr_order([rows[tid] for tid in participating])):
                rank[participating[i]] = place
            tids = backend.order_by_count(profits, backend.id_column(rank))
            curves.append(
                TidPrefixCurve(
                    relation_name, rows, tids, backend.take(profits, tids),
                    optimal=False,
                )
            )
        if not curves:  # pragma: no cover - every query has an endogenous relation
            curves.append(PrefixCurve([], optimal=False))
        if dsp:
            dsp.set(relations=len(curves))
        return MinCurve(curves, optimal=False)
