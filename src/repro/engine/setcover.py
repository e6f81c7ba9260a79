"""Partial set cover.

Section 6.1 of the paper reduces ADP on a *full* CQ to the Partial Set Cover
problem (PSC, Definition 9): sets are input tuples, elements are output
tuples, and the set of an input tuple contains the output tuples whose
(unique) witness uses it.  PSC admits an ``O(log k)`` greedy approximation
and a ``p`` (element frequency) primal-dual approximation
[Gandhi, Khuller, Srinivasan 2004]; Theorem 5 transfers both to ADP on full
CQs.

This module implements the PSC substrate independently of queries so it can
be unit- and property-tested on its own:

* :func:`greedy_partial_cover` -- the classical greedy: repeatedly pick the
  set covering the most still-uncovered elements until at least ``k``
  elements are covered.
* :func:`primal_dual_partial_cover` -- a primal-dual / local-ratio style
  algorithm for unit costs: it guesses the first set of an optimal solution
  (trying every candidate), then repeatedly picks an uncovered element and
  adds *all* sets containing it, stopping as soon as the coverage target is
  met, and returns the best solution found over all guesses.  For unit costs
  and maximum element frequency ``f`` this is an ``f``-approximation, which
  instantiates to the ``p``-approximation of Theorem 5 (each output tuple of
  a full CQ with ``p`` relations belongs to exactly ``p`` sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.engine.backend import as_id_list
from repro.engine.columnar import ColumnarProvenance
from repro.obs.trace import span


@dataclass
class PartialSetCoverInstance:
    """A partial set cover instance.

    Parameters
    ----------
    sets:
        ``{set id: elements}``.  Elements can be any hashable values.
    target:
        Minimum number of elements that must be covered (``k'`` in the
        paper's Definition 9).
    """

    sets: Dict[Hashable, FrozenSet[Hashable]]
    target: int

    def __post_init__(self) -> None:
        # Normalize lazily-supplied iterables, but do not re-copy mappings
        # that already hold frozensets (the column-driven builders produce
        # those directly; re-freezing every element set doubled the build
        # cost of large instances for nothing).
        if any(type(value) is not frozenset for value in self.sets.values()):
            self.sets = {key: frozenset(value) for key, value in self.sets.items()}
        if self.target < 0:
            raise ValueError("target must be non-negative")

    @property
    def universe(self) -> FrozenSet[Hashable]:
        """All elements appearing in at least one set."""
        if not self.sets:
            return frozenset()
        return frozenset().union(*self.sets.values())

    def max_frequency(self) -> int:
        """The maximum number of sets any single element belongs to."""
        counts: Dict[Hashable, int] = {}
        for elements in self.sets.values():
            for element in elements:
                counts[element] = counts.get(element, 0) + 1
        return max(counts.values(), default=0)

    def coverage(self, chosen: Iterable[Hashable]) -> int:
        """Number of elements covered by the chosen sets."""
        covered: Set[Hashable] = set()
        for key in chosen:
            covered |= self.sets[key]
        return len(covered)

    def is_feasible(self, chosen: Iterable[Hashable]) -> bool:
        """Whether the chosen sets cover at least ``target`` elements."""
        return self.coverage(chosen) >= self.target

    def validate(self) -> None:
        """Raise ``ValueError`` if the target exceeds the universe size."""
        if self.target > len(self.universe):
            raise ValueError(
                f"target {self.target} exceeds universe size {len(self.universe)}"
            )


def greedy_partial_cover(instance: PartialSetCoverInstance) -> List[Hashable]:
    """Greedy partial set cover (``O(log k)`` approximation, unit costs).

    Ties are broken by set id (sorted by ``repr``) so the algorithm is
    deterministic.  Raises ``ValueError`` when the instance is infeasible.
    """
    instance.validate()
    with span("solver.setcover.greedy") as gsp:
        if gsp:
            gsp.set(sets=len(instance.sets), target=instance.target)
        uncovered_needed = instance.target
        covered: Set[Hashable] = set()
        chosen: List[Hashable] = []
        remaining = dict(instance.sets)
        while len(covered) < instance.target:
            best_key = None
            best_gain = 0
            for key in sorted(remaining, key=repr):
                gain = len(remaining[key] - covered)
                if gain > best_gain:
                    best_gain = gain
                    best_key = key
            if best_key is None:
                raise ValueError("instance is infeasible: cannot reach the target")
            chosen.append(best_key)
            covered |= remaining.pop(best_key)
        del uncovered_needed
        if gsp:
            gsp.set(chosen=len(chosen))
        return chosen


def primal_dual_partial_cover(instance: PartialSetCoverInstance) -> List[Hashable]:
    """Primal-dual-style partial set cover for unit costs.

    See the module docstring for the algorithm.  Returns a feasible solution;
    raises ``ValueError`` when the instance is infeasible.
    """
    instance.validate()
    if instance.target == 0:
        return []

    with span("solver.setcover.primal_dual") as psp:
        if psp:
            psp.set(sets=len(instance.sets), target=instance.target)
        sorted_keys = sorted(instance.sets, key=repr)
        # Elements sorted deterministically for reproducible element picking.
        best: Optional[List[Hashable]] = None

        # index: element -> sets containing it
        containing: Dict[Hashable, List[Hashable]] = {}
        for key in sorted_keys:
            for element in instance.sets[key]:
                containing.setdefault(element, []).append(key)

        for guess in sorted_keys:
            chosen: List[Hashable] = [guess]
            covered: Set[Hashable] = set(instance.sets[guess])
            if len(covered) < instance.target:
                # Primal-dual phase: pick an uncovered element, buy every set
                # containing it (raising its dual until all of them are tight).
                for element in sorted(containing, key=repr):
                    if len(covered) >= instance.target:
                        break
                    if element in covered:
                        continue
                    for key in containing[element]:
                        if key not in chosen:
                            chosen.append(key)
                            covered |= instance.sets[key]
                            if len(covered) >= instance.target:
                                break
            if len(covered) >= instance.target:
                if best is None or len(chosen) < len(best):
                    best = chosen
        if best is None:
            raise ValueError("instance is infeasible: cannot reach the target")
        if psp:
            psp.set(chosen=len(best))
        return best


def sets_from_witnesses(
    witness_refs: Iterable[Tuple[Hashable, ...]],
) -> Dict[Hashable, FrozenSet[Hashable]]:
    """Build PSC sets from full-CQ witnesses.

    Each witness (one output tuple of a full CQ) is identified by its index;
    every input tuple reference appearing in witness ``i`` gets element ``i``
    added to its set.  This is the reduction used by Theorem 5.
    """
    sets: Dict[Hashable, Set[int]] = {}
    for index, refs in enumerate(witness_refs):
        for ref in refs:
            sets.setdefault(ref, set()).add(index)
    return {key: frozenset(value) for key, value in sets.items()}


def sets_from_packed_provenance(
    provenance: ColumnarProvenance,
) -> Dict[Hashable, FrozenSet[Hashable]]:
    """Build the Theorem 5 PSC sets straight from packed provenance columns.

    Equivalent to :func:`sets_from_witnesses` over the materialized witness
    list, but column-driven on both backends: each atom's sets come from the
    provenance's (cached) postings index -- one group-by per ``tid`` column
    (CSR rows read as views of one stable argsort on the NumPy backend, one
    setdefault pass on the Python backend) instead of one Python
    ``set.add`` per witness element.  Repeated reductions over the same
    evaluation therefore share the grouping work with the delta-semijoin
    machinery, and no intermediate per-element ``set`` objects are built
    before the final freeze.
    """
    sets: Dict[Hashable, FrozenSet[Hashable]] = {}
    for position in range(provenance.atom_count()):
        view = provenance.refs_for_atom(position)
        for tid, positions in provenance.postings_for_atom(position).items():
            sets[view[tid]] = frozenset(as_id_list(positions))
    if provenance.vacuum_refs and provenance.witness_count():
        every = frozenset(range(provenance.witness_count()))
        for vacuum_ref in provenance.vacuum_refs:
            sets[vacuum_ref] = every
    return sets

