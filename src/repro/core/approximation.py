"""Approximation algorithms for ADP on full CQs (Section 6 / Theorem 5).

For a *full* CQ every output tuple has exactly one witness, so ADP is an
instance of Partial Set Cover: sets correspond to input tuples, elements to
output tuples (= witnesses), and the set of an input tuple contains the
witnesses that use it.  Every element belongs to exactly ``p`` sets (one
tuple per relation participates in its witness), so PSC's greedy
``O(log k)`` and primal-dual ``f``-approximations [Gandhi, Khuller,
Srinivasan 2004] yield ``O(log k)`` and ``p``-approximations for ADP
(Theorem 5).

Both run on the provenance index the greedy heuristics build; no separate
set system is materialized:

* :func:`greedy_full_cq` reads its picks off ``GreedyForCQ`` (Algorithm 6)
  over every relation.  On a full CQ a tuple's profit equals its witness
  gain, the number of still-uncovered elements of its set, and both
  algorithms take the first maximum in ``repr(TupleRef)`` order, so
  Algorithm 6 *is* the PSC greedy.
* :func:`primal_dual_full_cq` runs over dense rids (sets) and witness IDs
  (elements) of a :class:`~repro.engine.provenance.ProvenanceIndex`.  Its
  element walk does not reach Theorem 5's ``p`` bound on every instance:
  for *partial* cover an optimal solution need not cover the walked
  elements (``tests/core/test_approximation.py`` pins a counterexample).

For general CQs (with projections) no such guarantee is possible: already
``Qswing`` is hard to approximate within ``Ω(n^ε)`` under standard
assumptions (Lemma 10), which is why the library only exposes these
approximations for full CQs and raises otherwise.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.adp import check_target
from repro.core.greedy import candidate_order, greedy_curve
from repro.core.solution import ADPSolution
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.columnar import QueryResult
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.engine.provenance import ProvenanceIndex
from repro.obs.trace import span
from repro.query.cq import ConjunctiveQuery


def _full_cq_result(
    query: ConjunctiveQuery, database: Database, k: int
) -> QueryResult:
    """Evaluate a full CQ and check ``1 <= k <= |Q(D)|``.

    Raises ``ValueError`` when the query has existential attributes or the
    target is out of range.
    """
    if not query.is_full:
        raise ValueError(
            "the set-cover reduction of Theorem 5 requires a full CQ; "
            f"{query.name} projects out {sorted(query.existential_attributes)}"
        )
    result = evaluate(query, database)
    check_target(k, result.output_count())
    return result


def _to_solution(
    result: QueryResult,
    k: int,
    removed: FrozenSet[TupleRef],
    method: str,
) -> ADPSolution:
    return ADPSolution(
        query=result.query,
        k=k,
        removed=removed,
        removed_outputs=result.outputs_removed_by(removed),
        optimal=False,
        method=method,
        stats={"approximation": True},
    )


def greedy_full_cq(
    query: ConjunctiveQuery, database: Database, k: int
) -> ADPSolution:
    """The ``O(log k)``-approximation for full CQs (greedy partial set cover)."""
    result = _full_cq_result(query, database, k)
    curve = greedy_curve(query, database, kmax=k, endogenous_only=False)
    return _to_solution(result, k, curve.solution(k), method="psc-greedy")


def primal_dual_full_cq(
    query: ConjunctiveQuery, database: Database, k: int
) -> ADPSolution:
    """Primal-dual partial set cover for full CQs (Theorem 5's second
    algorithm; every element lies in ``p`` sets, ``p`` the relation count).

    For unit costs the primal-dual guesses the first set of an optimal
    solution, trying every candidate rid in ``repr(TupleRef)`` order; then
    it walks the elements (witness IDs, in ``repr`` order) and, at each
    still-uncovered one, buys every set containing it (raising its dual
    until they are all tight), stopping as soon as ``k`` elements are
    covered.  The smallest cover over all guesses wins, the first on ties.
    The walk can exceed ``p`` times the optimum (see the module docstring).
    """
    result = _full_cq_result(query, database, k)
    index = ProvenanceIndex(result)
    witness_count = result.witness_count()
    with span("solver.setcover.primal_dual") as psp:
        if psp:
            psp.set(sets=index.ref_count(), elements=witness_count, target=k)
        guesses = candidate_order(index, index.relation_names())
        rank = [0] * index.ref_count()
        for place, rid in enumerate(guesses):
            rank[rid] = place
        ref_witnesses = [index.ref_witnesses(rid) for rid in range(index.ref_count())]
        containing = [
            sorted(index.witness_rids(wid), key=rank.__getitem__)
            for wid in range(witness_count)
        ]
        elements = sorted(range(witness_count), key=repr)
        best: Optional[List[int]] = None
        for guess in guesses:
            chosen = [guess]
            covered = bytearray(witness_count)
            count = _cover(covered, ref_witnesses[guess])
            for wid in elements:
                if count >= k:
                    break
                if covered[wid]:
                    continue
                # No chosen set holds an uncovered element, so every set
                # containing it is bought.
                for rid in containing[wid]:
                    chosen.append(rid)
                    count += _cover(covered, ref_witnesses[rid])
                    if count >= k:
                        break
            # k <= W, so every guess ends up covering k elements.
            if best is None or len(chosen) < len(best):
                best = chosen
        assert best is not None
        if psp:
            psp.set(chosen=len(best))
    removed = frozenset(index.ref_at(rid) for rid in best)
    return _to_solution(result, k, removed, method="psc-primal-dual")


def _cover(covered: bytearray, wids: Sequence[int]) -> int:
    """Mark ``wids`` covered; returns how many were not covered before."""
    gained = 0
    for wid in wids:
        if not covered[wid]:
            covered[wid] = 1
            gained += 1
    return gained


def approximation_factor_bound(query: ConjunctiveQuery, k: int) -> Tuple[float, int]:
    """The two guarantees of Theorem 5 for a full CQ: ``(H_k, p)``.

    ``H_k`` is the ``k``-th harmonic number (the greedy bound) and ``p`` the
    number of relations (the primal-dual bound).
    """
    if not query.is_full:
        raise ValueError("approximation guarantees only hold for full CQs")
    harmonic = sum(1.0 / i for i in range(1, max(k, 1) + 1))
    return harmonic, len(query.atoms)
