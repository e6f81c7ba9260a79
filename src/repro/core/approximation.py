"""Approximation algorithms for ADP on full CQs (Section 6 / Theorem 5).

For a *full* CQ every output tuple has exactly one witness, so ADP is an
instance of Partial Set Cover: sets correspond to input tuples, elements to
output tuples, and the set of an input tuple contains the outputs whose
witness uses it.  Every element belongs to exactly ``p`` sets (one tuple per
relation participates in its witness), so PSC's greedy ``O(log k)`` and
primal-dual ``f``-approximations yield ``O(log k)`` and ``p``-approximations
for ADP (Theorem 5).

For general CQs (with projections) no such guarantee is possible: already
``Qswing`` is hard to approximate within ``Ω(n^ε)`` under standard
assumptions (Lemma 10), which is why the library only exposes these
approximations for full CQs and raises otherwise.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.solution import ADPSolution
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.engine.setcover import (
    PartialSetCoverInstance,
    greedy_partial_cover,
    primal_dual_partial_cover,
    sets_from_packed_provenance,
)
from repro.query.cq import ConjunctiveQuery


def full_cq_cover_instance(
    query: ConjunctiveQuery, database: Database, k: int
) -> PartialSetCoverInstance:
    """The Partial Set Cover instance of Theorem 5 for a full CQ.

    Sets are keyed by :class:`~repro.data.relation.TupleRef`; elements are
    the indices of the output tuples (= witnesses, since the query is full).
    Raises ``ValueError`` when the query has existential attributes.
    """
    if not query.is_full:
        raise ValueError(
            "the set-cover reduction of Theorem 5 requires a full CQ; "
            f"{query.name} projects out {sorted(query.existential_attributes)}"
        )
    result = evaluate(query, database)
    return PartialSetCoverInstance(
        sets_from_packed_provenance(result.provenance), target=k
    )


def _to_solution(
    query: ConjunctiveQuery,
    database: Database,
    k: int,
    chosen: List[TupleRef],
    method: str,
) -> ADPSolution:
    removed = frozenset(chosen)
    removed_outputs = evaluate(query, database).outputs_removed_by(removed)
    return ADPSolution(
        query=query,
        k=k,
        removed=removed,
        removed_outputs=removed_outputs,
        optimal=False,
        method=method,
        stats={"approximation": True},
    )


def greedy_full_cq(
    query: ConjunctiveQuery, database: Database, k: int
) -> ADPSolution:
    """The ``O(log k)``-approximation for full CQs (greedy partial set cover)."""
    instance = full_cq_cover_instance(query, database, k)
    chosen = greedy_partial_cover(instance)
    return _to_solution(query, database, k, chosen, method="psc-greedy")


def primal_dual_full_cq(
    query: ConjunctiveQuery, database: Database, k: int
) -> ADPSolution:
    """The ``p``-approximation for full CQs (primal-dual partial set cover).

    ``p`` is the number of relations of the query (every output tuple's
    witness uses exactly one tuple per relation, so the element frequency of
    the PSC instance is ``p``).
    """
    instance = full_cq_cover_instance(query, database, k)
    chosen = primal_dual_partial_cover(instance)
    return _to_solution(query, database, k, chosen, method="psc-primal-dual")


def approximation_factor_bound(query: ConjunctiveQuery, k: int) -> Tuple[float, int]:
    """The two guarantees of Theorem 5 for a full CQ: ``(H_k, p)``.

    ``H_k`` is the ``k``-th harmonic number (the greedy bound) and ``p`` the
    number of relations (the primal-dual bound).
    """
    if not query.is_full:
        raise ValueError("approximation guarantees only hold for full CQs")
    harmonic = sum(1.0 / i for i in range(1, max(k, 1) + 1))
    return harmonic, len(query.atoms)
