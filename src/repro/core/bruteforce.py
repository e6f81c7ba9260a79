"""Brute-force baseline (Section 8, "BruteForce").

The paper's baseline enumerates subsets of input tuples in increasing size
and stops at the first subset whose removal deletes at least ``k`` output
tuples; it is the ground truth the heuristics are compared against in
Figures 12 and 13 and the reference the test-suite uses on tiny instances.

Two safe prunings are applied (both preserve optimality):

* only tuples that participate in at least one witness are candidates
  (deleting a dangling tuple never changes the output);
* by default only tuples of *endogenous* relations are candidates: the
  exchange argument of Lemma 13 shows that any solution using a tuple of an
  exogenous relation can be replaced, at no extra cost, by one using the
  corresponding tuple of a dominating endogenous relation.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Tuple

from repro.core.solution import ADPSolution
from repro.core.structures import endogenous_relations
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.query.cq import ConjunctiveQuery


def bruteforce_solve(
    query: ConjunctiveQuery,
    database: Database,
    k: int,
    endogenous_only: bool = True,
    candidates: Optional[Iterable[TupleRef]] = None,
    max_candidates: int = 30,
) -> ADPSolution:
    """Solve ``ADP(Q, D, k)`` exactly by subset enumeration.

    Parameters
    ----------
    query, database, k:
        The instance; ``1 <= k <= |Q(D)|`` is required.
    endogenous_only:
        Restrict candidates to endogenous relations (optimality preserved by
        Lemma 13).
    candidates:
        Optional explicit candidate pool, overriding the default.
    max_candidates:
        Guard rail: enumeration is exponential, so instances with more than
        this many candidate tuples are rejected with ``ValueError`` rather
        than silently running forever.  Benchmarks that need larger pools
        (Figure 12 uses a few hundred tuples but tiny ``k``) can raise it.

    Returns
    -------
    ADPSolution
        An optimal solution (``optimal=True``, ``method="bruteforce"``).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    result = evaluate(query, database)
    total = result.output_count()
    if k > total:
        raise ValueError(f"k={k} exceeds |Q(D)|={total}")

    if candidates is None:
        pool = list(result.participating_refs())
        if endogenous_only:
            allowed = set(endogenous_relations(query))
            pool = [ref for ref in pool if ref.relation in allowed]
    else:
        pool = list(candidates)
    pool.sort(key=repr)
    if len(pool) > max_candidates:
        raise ValueError(
            f"{len(pool)} candidate tuples exceed max_candidates={max_candidates}; "
            "brute force would enumerate too many subsets"
        )

    # Subset evaluation oracle: each candidate becomes one arbitrary-precision
    # bitmask over the witnesses; the outputs killed by a subset are counted
    # with word-level AND/OR instead of per-witness set intersections, which
    # is what makes the enumeration tolerable at benchmark sizes.
    prov = result.provenance
    candidate_masks = prov.witness_masks_for(pool)
    output_masks = prov.output_masks()

    def outputs_removed(subset: Tuple[int, ...]) -> int:
        killed = 0
        for i in subset:
            killed |= candidate_masks[i]
        return sum(1 for mask in output_masks if mask & killed == mask)

    checked = 0
    indices = range(len(pool))
    for size in range(0, len(pool) + 1):
        for subset in combinations(indices, size):
            checked += 1
            removed_outputs = outputs_removed(subset)
            if removed_outputs >= k:
                return ADPSolution(
                    query=query,
                    k=k,
                    removed=frozenset(pool[i] for i in subset),
                    removed_outputs=removed_outputs,
                    optimal=True,
                    method="bruteforce",
                    stats={"subsets_checked": checked, "candidates": len(pool)},
                )
    # Removing every candidate removes every output, so this is unreachable
    # for valid k; kept for defensive completeness.
    raise RuntimeError("brute force failed to find a feasible subset")


def bruteforce_optimum(
    query: ConjunctiveQuery, database: Database, k: int, **kwargs
) -> int:
    """The optimal objective value only (convenience for tests)."""
    return bruteforce_solve(query, database, k, **kwargs).size
