"""Incremental witness-level provenance.

The greedy heuristics (Algorithms 6 and 7) repeatedly ask questions of the
form "if I additionally delete input tuple ``t``, how many *more* output
tuples disappear?".  Re-running the query after every candidate deletion --
what the paper's Java/PostgreSQL implementation does via SQL -- would be
prohibitively slow in pure Python, so this module maintains the witness
provenance produced by :meth:`repro.engine.evaluate.EngineContext.evaluate`
incrementally:

* every output tuple keeps a count of *alive* witnesses (witnesses none of
  whose input tuples have been deleted);
* every input tuple knows the witnesses it participates in;
* deleting a tuple decrements alive counts and reports the outputs whose
  count reached zero;
* ``profit(t)`` computes, without mutating anything, how many still-alive
  outputs would die if ``t`` were deleted (i.e. outputs all of whose alive
  witnesses contain ``t``).

Since the columnar-engine rewrite the index works on dense integers: every
participating input tuple gets a *ref ID* (``rid``), witnesses are numbered
``0..W-1``, and all bookkeeping lives in parallel ``int`` lists built
straight from the packed provenance columns -- no ``Witness`` objects, no
``TupleRef`` hashing on the hot path.  The classic ``TupleRef``-keyed API is
preserved as a thin translation layer; the greedy loops use the ``*_id``
methods directly.  Per-tuple *witness gains* (alive witnesses containing the
tuple) are additionally maintained incrementally, which both makes
``witness_gain`` O(1) and gives the greedy scan a sound upper bound on
profit (``profit(t) <= witness_gain(t)``).

The index is also the basis of solution verification
(:meth:`ProvenanceIndex.outputs_removed_by`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.data.relation import TupleRef
from repro.engine.backend import Column, backend_of_column, is_ndarray
from repro.engine.evaluate import QueryResult


#: Witness-list length below which the scalar loops beat the array kernels
#: (per-call NumPy overhead is ~tens of µs; the greedy scan issues profit
#: queries for every surviving candidate each round).
_SMALL_WIDS = 48


class _CsrView:
    """``rid -> witness positions`` as zero-copy slices of one CSR pair.

    Replaces a list of per-rid ndarrays: building tens of thousands of small
    array objects (``np.split``) costs more than the grouping itself, while
    slicing on access is allocation-free.
    """

    __slots__ = ("flat", "offsets")

    def __init__(self, flat: Column, offsets: Column) -> None:
        self.flat = flat
        self.offsets = offsets

    def __getitem__(self, rid: int) -> Column:
        offsets = self.offsets
        return self.flat[offsets[rid]:offsets[rid + 1]]

    def __len__(self) -> int:
        return len(self.offsets) - 1


class ProvenanceIndex:
    """Incremental deletion index over the witnesses of a query result.

    Dual-kernel: when the result's packed provenance is NumPy-backed
    (``int64`` ndarray columns), the index builds its dense arrays with
    vectorized factorize/group-by passes and answers profits, gains and
    removals through ``bincount``/``unique``/scatter kernels; otherwise the
    original pure-Python list bookkeeping runs.  Every quantity is an exact
    count either way, so the greedy heuristics' picks (and hence whole cost
    curves) are identical across kernels -- the backend-parity suite pins
    this down.
    """

    def __init__(self, result: QueryResult) -> None:
        self.result = result
        #: dense rid -> TupleRef (participating tuples only, vacuum included)
        self._refs: List[TupleRef] = []
        #: rid -> witness IDs containing the tuple
        self._ref_witnesses: List[List[int]] = []
        #: witness ID -> rids it contains (for incremental gain updates)
        self._witness_rids: List[List[int]] = []
        prov = result.provenance
        np = None
        if prov.atom_count() and is_ndarray(prov.ref_columns[0]):
            np = backend_of_column(prov.ref_columns[0]).np
        #: NumPy handle when the vectorized kernels are active, else ``None``.
        self._np = np
        self._totals = None  # lazy per-output witness totals (initial_profit)
        if np is not None:
            self._build_from_columnar_numpy(result, np)
            self._hits = np.zeros(len(self._witness_output), dtype=np.int64)
            self._alive_witnesses = np.bincount(
                self._witness_output, minlength=result.output_count()
            )
            # CSR counts double as the initial witness gains (every witness
            # starts alive); diff of offsets, copied since gains mutate.
            self._gain = np.diff(self._rw_offsets)
            self._removed_flags = np.zeros(len(self._refs), dtype=bool)
        else:
            self._build_from_columnar(result)
            self._hits = [0] * len(self._witness_rids)
            self._alive_witnesses = [0] * result.output_count()
            for out in self._witness_output:
                self._alive_witnesses[out] += 1
            #: rid -> number of still-alive witnesses containing the tuple
            self._gain = [len(wids) for wids in self._ref_witnesses]
            self._removed_flags = [False] * len(self._refs)
        self._ref_ids: Dict[TupleRef, int] = {
            ref: rid for rid, ref in enumerate(self._refs)
        }
        self._removed_refs: Set[TupleRef] = set()
        self._dead_outputs: int = 0
        # Outputs with no witnesses at all never existed; by construction the
        # evaluate() result only lists outputs with >= 1 witness.

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_from_columnar(self, result: QueryResult) -> None:
        """Build the dense arrays straight from the packed ID columns."""
        prov = result.provenance
        witness_count = prov.witness_count()
        self._witness_output = list(prov.witness_outputs)
        self._witness_rids = [[] for _ in range(witness_count)]
        refs = self._refs
        ref_witnesses = self._ref_witnesses
        witness_rids = self._witness_rids
        for position in range(prov.atom_count()):
            column = prov.ref_columns[position]
            view = prov.refs_for_atom(position)
            local: Dict[int, int] = {}
            get = local.get
            for w, tid in enumerate(column):
                rid = get(tid)
                if rid is None:
                    rid = len(refs)
                    local[tid] = rid
                    refs.append(view[tid])
                    ref_witnesses.append([])
                ref_witnesses[rid].append(w)
                witness_rids[w].append(rid)
        if witness_count:
            for vacuum_ref in prov.vacuum_refs:
                rid = len(refs)
                refs.append(vacuum_ref)
                ref_witnesses.append(list(range(witness_count)))
                for wids in witness_rids:
                    wids.append(rid)

    def _build_from_columnar_numpy(self, result: QueryResult, np: Any) -> None:
        """Vectorized build: factorize each packed column into dense rids.

        Produces the exact state ``_build_from_columnar`` would: rids in
        first-occurrence order per atom (then the vacuum refs), and witness
        lists ascending per rid.  The per-witness rid rows live in one
        ``(W, atoms)`` matrix instead of W Python lists.
        """
        prov = result.provenance
        witness_count = prov.witness_count()
        self._witness_output = np.asarray(prov.witness_outputs, dtype=np.int64)
        refs = self._refs
        rid_columns = []
        flats = []
        counts_list = []
        base = 0
        for position in range(prov.atom_count()):
            column = prov.ref_columns[position]
            view = prov.refs_for_atom(position)
            uniq, first_index = np.unique(column, return_index=True)
            order = np.argsort(first_index, kind="stable")
            uniq_first = uniq[order]  # tids in first-occurrence order
            lookup = np.zeros(max(len(view), 1), dtype=np.int64)
            lookup[uniq_first] = np.arange(uniq_first.size, dtype=np.int64)
            local = lookup[column]  # dense local rids, first-occurrence order
            rid_columns.append(local + base if base else local)
            # CSR grouping: witness positions sorted by rid, ascending
            # within each rid (stable argsort) -- no per-rid array objects.
            flats.append(np.argsort(local, kind="stable"))
            counts_list.append(np.bincount(local, minlength=int(uniq_first.size)))
            refs.extend(view[tid] for tid in uniq_first.tolist())
            base += int(uniq_first.size)
        if witness_count:
            for vacuum_ref in prov.vacuum_refs:
                refs.append(vacuum_ref)
                flats.append(np.arange(witness_count, dtype=np.int64))
                counts_list.append(np.asarray([witness_count], dtype=np.int64))
                rid_columns.append(np.full(witness_count, base, dtype=np.int64))
                base += 1
        if flats:
            flat = np.concatenate(flats)
            counts = np.concatenate(counts_list)
        else:  # pragma: no cover - zero-atom provenance takes the list path
            flat = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        #: CSR layout of ``rid -> witness positions``: rid's witnesses are
        #: ``_rw_flat[_rw_offsets[rid] : _rw_offsets[rid + 1]]``.
        self._rw_flat = flat
        self._rw_offsets = offsets
        if rid_columns:
            self._witness_rid_matrix = np.stack(rid_columns, axis=1)
        else:
            self._witness_rid_matrix = np.empty((witness_count, 0), dtype=np.int64)
        # ``_witness_rids``/``_ref_witnesses`` keep their indexing contract
        # (``[wid]`` -> rids, ``[rid]`` -> wids) as zero-copy array views.
        self._witness_rids = self._witness_rid_matrix
        self._ref_witnesses = _CsrView(flat, offsets)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def removed(self) -> Set[TupleRef]:
        """The tuples deleted so far (a copy)."""
        return set(self._removed_refs)

    def is_removed(self, ref: TupleRef) -> bool:
        """Whether ``ref`` has been deleted (no copy, unlike :attr:`removed`)."""
        return ref in self._removed_refs

    def total_outputs(self) -> int:
        """``|Q(D)|`` of the original (un-deleted) instance."""
        return self.result.output_count()

    def removed_output_count(self) -> int:
        """How many output tuples have been deleted so far."""
        return self._dead_outputs

    def alive_output_count(self) -> int:
        """How many output tuples survive the deletions so far."""
        return self.total_outputs() - self._dead_outputs

    def is_alive(self, output_id: int) -> bool:
        """Whether output ``output_id`` still has at least one alive witness."""
        return self._alive_witnesses[output_id] > 0

    def participating_refs(self) -> List[TupleRef]:
        """All input tuples that participate in at least one witness."""
        return list(self._refs)

    def refs_of_relation(self, relation: str) -> List[TupleRef]:
        """Participating input tuples belonging to one relation."""
        return [ref for ref in self._refs if ref.relation == relation]

    # ------------------------------------------------------------------ #
    # Dense-ID API (the hot path of the greedy heuristics)
    # ------------------------------------------------------------------ #
    def ref_count(self) -> int:
        """How many distinct participating tuples the index tracks."""
        return len(self._refs)

    def ref_at(self, rid: int) -> TupleRef:
        """The :class:`TupleRef` for a dense ref ID."""
        return self._refs[rid]

    def profit_id(self, rid: int) -> int:
        """:meth:`profit` over a dense ref ID."""
        if self._removed_flags[rid]:
            return 0
        np = self._np
        if np is not None:
            wids = self._ref_witnesses[rid]
            if wids.size > _SMALL_WIDS:
                alive_wids = wids[self._hits[wids] == 0]
                if not alive_wids.size:
                    return 0
                outs, counts = np.unique(
                    self._witness_output[alive_wids], return_counts=True
                )
                return int(np.count_nonzero(counts == self._alive_witnesses[outs]))
            # Small witness lists: the fixed cost of the array kernels
            # (~tens of µs) dwarfs a short scalar loop.  The greedy scan
            # asks for profits of *every* surviving candidate, and most
            # candidates touch a handful of witnesses.
            wids = wids.tolist()
        else:
            wids = self._ref_witnesses[rid]
        per_output: Dict[int, int] = {}
        get = per_output.get
        hits = self._hits
        witness_output = self._witness_output
        for wid in wids:  # alive witnesses only
            if hits[wid] == 0:
                out = witness_output[wid]
                per_output[out] = get(out, 0) + 1
        alive = self._alive_witnesses
        return sum(1 for out, count in per_output.items() if count == alive[out])

    def witness_gain_id(self, rid: int) -> int:
        """:meth:`witness_gain` over a dense ref ID -- O(1)."""
        if self._removed_flags[rid]:
            return 0
        return int(self._gain[rid])

    def gains_for(self, rids: List[int]) -> List[int]:
        """:meth:`witness_gain_id` for many rids at once (one gather).

        The greedy scan reads every candidate's gain each round; fetching
        them as one ``take`` (NumPy) instead of one scalar indexing call per
        candidate keeps the scan itself off the per-element hot path.
        """
        np = self._np
        if np is not None:
            rid_array = np.asarray(rids, dtype=np.int64)
            gains = self._gain[rid_array]
            gains[self._removed_flags[rid_array]] = 0
            return gains.tolist()
        gain = self._gain
        removed = self._removed_flags
        return [0 if removed[rid] else gain[rid] for rid in rids]

    def profits_for(self, rids: Sequence[int]) -> Optional[List[int]]:
        """Batched :meth:`profit_id` for many rids (one group-by), or ``None``.

        ``None`` signals the caller to fall back to per-rid queries (Python
        kernels, or a pair-key space too large for the ``int64`` encode).
        The batch costs ``O(alive witnesses * atoms)`` regardless of how
        many rids are asked, so callers should use it only when the
        per-candidate pruning stops paying off -- the greedy scan switches
        adaptively.  Values are exactly ``[profit_id(rid) for rid in rids]``.
        """
        np = self._np
        if np is None:
            return None
        n_out = self.total_outputs()
        if n_out == 0 or len(self._refs) * n_out >= 2**62:  # pragma: no cover
            return None
        alive_positions = np.nonzero(self._hits == 0)[0]
        rid_rows = self._witness_rid_matrix[alive_positions]
        outs = self._witness_output[alive_positions]
        keys = rid_rows * n_out + outs[:, None]
        pair_keys, pair_counts = np.unique(keys.ravel(), return_counts=True)
        pair_outs = pair_keys % n_out
        kills = pair_counts == self._alive_witnesses[pair_outs]
        profit_all = np.zeros(len(self._refs), dtype=np.int64)
        np.add.at(profit_all, (pair_keys // n_out)[kills], 1)
        profit_all[self._removed_flags] = 0
        return profit_all[np.asarray(rids, dtype=np.int64)].tolist()

    def touched_outputs_id(self, rid: int) -> int:
        """:meth:`touched_outputs` over a dense ref ID."""
        if self._removed_flags[rid]:
            return 0
        np = self._np
        if np is not None:
            wids = self._ref_witnesses[rid]
            if wids.size > _SMALL_WIDS:
                alive_wids = wids[self._hits[wids] == 0]
                if not alive_wids.size:
                    return 0
                outs = np.unique(self._witness_output[alive_wids])
                return int(np.count_nonzero(self._alive_witnesses[outs] > 0))
            wids = wids.tolist()
        else:
            wids = self._ref_witnesses[rid]
        outputs = set()
        hits = self._hits
        witness_output = self._witness_output
        alive = self._alive_witnesses
        for wid in wids:
            if hits[wid] == 0:
                out = witness_output[wid]
                if alive[out] > 0:
                    outputs.add(out)
        return len(outputs)

    def remove_id(self, rid: int) -> int:
        """:meth:`remove` over a dense ref ID."""
        if self._removed_flags[rid]:
            return 0
        self._removed_flags[rid] = True
        self._removed_refs.add(self._refs[rid])
        np = self._np
        if np is not None:
            wids = self._ref_witnesses[rid]
            self._hits[wids] += 1  # wids are distinct: no scatter needed
            newly_dead = wids[self._hits[wids] == 1]
            killed = 0
            if newly_dead.size:
                np.subtract.at(
                    self._gain, self._witness_rid_matrix[newly_dead].ravel(), 1
                )
                outs = self._witness_output[newly_dead]
                np.subtract.at(self._alive_witnesses, outs, 1)
                killed = int(
                    np.count_nonzero(self._alive_witnesses[np.unique(outs)] == 0)
                )
            self._dead_outputs += killed
            return killed
        killed = 0
        hits = self._hits
        gain = self._gain
        alive = self._alive_witnesses
        witness_output = self._witness_output
        witness_rids = self._witness_rids
        for wid in self._ref_witnesses[rid]:
            hits[wid] += 1
            if hits[wid] == 1:
                for other in witness_rids[wid]:
                    gain[other] -= 1
                out = witness_output[wid]
                alive[out] -= 1
                if alive[out] == 0:
                    killed += 1
        self._dead_outputs += killed
        return killed

    def restore_id(self, rid: int) -> int:
        """:meth:`restore` over a dense ref ID."""
        if not self._removed_flags[rid]:
            return 0
        self._removed_flags[rid] = False
        self._removed_refs.discard(self._refs[rid])
        np = self._np
        if np is not None:
            wids = self._ref_witnesses[rid]
            self._hits[wids] -= 1
            newly_alive = wids[self._hits[wids] == 0]
            revived = 0
            if newly_alive.size:
                np.add.at(
                    self._gain, self._witness_rid_matrix[newly_alive].ravel(), 1
                )
                outs = self._witness_output[newly_alive]
                # Count transitions 0 -> alive *before* re-incrementing.
                revived = int(
                    np.count_nonzero(self._alive_witnesses[np.unique(outs)] == 0)
                )
                np.add.at(self._alive_witnesses, outs, 1)
            self._dead_outputs -= revived
            return revived
        revived = 0
        hits = self._hits
        gain = self._gain
        alive = self._alive_witnesses
        witness_output = self._witness_output
        witness_rids = self._witness_rids
        for wid in self._ref_witnesses[rid]:
            hits[wid] -= 1
            if hits[wid] == 0:
                for other in witness_rids[wid]:
                    gain[other] += 1
                out = witness_output[wid]
                if alive[out] == 0:
                    revived += 1
                alive[out] += 1
        self._dead_outputs -= revived
        return revived

    # ------------------------------------------------------------------ #
    # Queries (TupleRef API, preserved)
    # ------------------------------------------------------------------ #
    def profit(self, ref: TupleRef) -> int:
        """How many *additional* outputs die if ``ref`` is deleted now.

        This is the quantity ``p(t) = |Q(D - S)| - |Q(D - S - t)|`` of
        Algorithm 6, computed against the current deletion state ``S``.
        """
        rid = self._ref_ids.get(ref)
        return 0 if rid is None else self.profit_id(rid)

    def witness_gain(self, ref: TupleRef) -> int:
        """How many still-alive witnesses die if ``ref`` is deleted now.

        Used as a tie-breaker by the greedy heuristic: when no single tuple
        can remove a whole output (all profits are zero, e.g. on boolean
        queries), making progress on witnesses is the sensible secondary
        objective.
        """
        rid = self._ref_ids.get(ref)
        return 0 if rid is None else self.witness_gain_id(rid)

    def touched_outputs(self, ref: TupleRef) -> int:
        """How many still-alive outputs have an alive witness containing ``ref``.

        This is an upper bound on the number of outputs that deleting ``ref``
        can contribute to killing (it equals :meth:`profit` for full CQs) and
        is sub-additive across tuples, which makes it an admissible pruning
        bound for the branch-and-bound exact solver.
        """
        rid = self._ref_ids.get(ref)
        return 0 if rid is None else self.touched_outputs_id(rid)

    def initial_profit(self, ref: TupleRef) -> int:
        """Profit of ``ref`` against the *original* instance (no deletions).

        For a full CQ this is simply the number of witnesses containing
        ``ref`` (each witness is a distinct output tuple); used by
        ``DrasticGreedyForFullCQ`` (Algorithm 7).
        """
        rid = self._ref_ids.get(ref)
        if rid is None:
            return 0
        np = self._np
        if np is not None:
            outs, counts = np.unique(
                self._witness_output[self._ref_witnesses[rid]], return_counts=True
            )
            totals = self._total_witnesses_per_output()
            return int(np.count_nonzero(counts == totals[outs]))
        per_output: Dict[int, int] = {}
        for wid in self._ref_witnesses[rid]:
            out = self._witness_output[wid]
            per_output[out] = per_output.get(out, 0) + 1
        total_per_output = self._total_witnesses_per_output()
        return sum(
            1
            for out, count in per_output.items()
            if count == total_per_output[out]
        )

    def _total_witnesses_per_output(self) -> Column:
        totals = self._totals
        if totals is None:
            np = self._np
            if np is not None:
                totals = np.bincount(
                    self._witness_output, minlength=self.total_outputs()
                )
            else:
                totals = [0] * self.total_outputs()
                for out in self._witness_output:
                    totals[out] += 1
            self._totals = totals
        return totals

    def outputs_removed_by(self, removed: Iterable[TupleRef]) -> int:
        """Stateless verification: outputs killed by deleting ``removed``.

        Does not look at (or change) the incremental deletion state.
        """
        return self.result.outputs_removed_by(removed)

    # ------------------------------------------------------------------ #
    # Mutation (TupleRef API, preserved)
    # ------------------------------------------------------------------ #
    def remove(self, ref: TupleRef) -> int:
        """Delete one input tuple; returns how many outputs died as a result."""
        rid = self._ref_ids.get(ref)
        if rid is None:
            # Dangling/unknown tuples participate in no witness: deleting
            # them never changes the output, but record them so restore() and
            # the removed set stay consistent with the old behaviour.
            self._removed_refs.add(ref)
            return 0
        return self.remove_id(rid)

    def remove_many(self, refs: Iterable[TupleRef]) -> int:
        """Delete several tuples; returns the total number of outputs killed."""
        return sum(self.remove(ref) for ref in refs)

    def restore(self, ref: TupleRef) -> int:
        """Undo the deletion of ``ref``; returns how many outputs came back."""
        rid = self._ref_ids.get(ref)
        if rid is None:
            self._removed_refs.discard(ref)
            return 0
        return self.restore_id(rid)

    def reset(self) -> None:
        """Undo every deletion."""
        for ref in list(self._removed_refs):
            self.restore(ref)
