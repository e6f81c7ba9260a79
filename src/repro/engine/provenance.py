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
* ``profit_id(t)`` answers, without mutating anything, how many
  still-alive outputs would die if ``t`` were deleted (i.e. outputs all of
  whose alive witnesses contain ``t``).

The index works on dense integers only: every participating input tuple
gets a *ref ID* (``rid``), witnesses are numbered ``0..W-1``, and all
bookkeeping lives in parallel ``int`` columns.  The index builds no
witness incidence of its own: it reads each atom's
:meth:`~repro.engine.columnar.QueryResult.postings_for_atom`, the
``tid -> witness positions`` index the result keeps for its lifetime (and
the delta engine carries across mutations), so a greedy solve, the
verification of its answer and a later what-if share one build.  Rids are
allocated atom by atom -- each atom's participating tuples in ascending
tid order, then the vacuum refs -- so the index keeps only each atom's
first rid and its ``rid -> tid`` column.  On the NumPy kernel the rid CSR
is the atoms' postings orders laid end to end; on the Python kernel a
rid's witness list is the postings list itself, shared and never written.
Callers walk candidates with :meth:`ProvenanceIndex.relation_rows` and
build a :class:`~repro.data.relation.TupleRef` only for the rids they
return (:meth:`ProvenanceIndex.ref_at`): a cold greedy solve builds
``TupleRef`` objects only for the tuples it picks.  Per-tuple *witness
gains* (alive witnesses containing the tuple) are additionally maintained
incrementally: :meth:`ProvenanceIndex.gains_for` reads them in one gather,
and they give the greedy scan both its tie-breaker and a sound upper bound
on profit (``profit_id(t) <= gain(t)``).  The index only ever removes
tuples; a caller that wants a clean deletion state builds a fresh
``ProvenanceIndex(result)``.  The NumPy kernel also maintains every
tuple's profit: building the index counts alive witnesses per ``(output,
ref)`` pair (a pair *kills* its output when that count equals the output's
alive count) and each tuple's killing pairs, and
:meth:`ProvenanceIndex.remove_id` then revisits only the pairs of the
outputs that lost a witness -- of those, only the ones whose count was
high enough to kill before or after -- so a profit is one read and a
greedy round's profits are one gather.

Stateless verification of a finished solution is
:meth:`repro.engine.columnar.QueryResult.outputs_removed_by`, which counts
dead witnesses through the same postings
(:meth:`~repro.engine.columnar.QueryResult.deletion_counts`, also behind
:func:`repro.engine.delta.delta_counts`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Sequence, Tuple, cast

from repro.data.relation import Row, TupleRef
from repro.engine.backend import (
    Column,
    CsrPostings,
    as_id_list,
    backend_of_column,
    expand_runs,
    is_ndarray,
)
from repro.engine.columnar import QueryResult


class ProvenanceIndex:
    """Incremental deletion index over the witnesses of a query result.

    Dual-kernel: when the result's packed provenance is NumPy-backed
    (``int64`` ndarray columns), the index numbers the CSR postings' rows
    into dense arrays, maintains every rid's gain and profit, and answers
    profits and gains as gathers (:attr:`vectorized`);
    otherwise the pure-Python list bookkeeping runs over the dict
    postings.  Every quantity is an exact
    count either way, so the greedy heuristics' picks (and hence whole cost
    curves) are identical across kernels -- the backend-parity suite pins
    this down.
    """

    def __init__(self, result: QueryResult) -> None:
        self.result = result
        #: per atom: the rid of its first participating tuple ...
        self._atom_bases: List[int] = []
        #: ... and its ``local rid -> tid`` column (ascending tids).
        self._atom_tids: List[Column] = []
        #: vacuum refs take the rids after every atom's (only when there is
        #: a witness for them to participate in).
        self._vacuum: Tuple[TupleRef, ...] = (
            tuple(result.vacuum_refs) if result.witness_count() else ()
        )
        np = None
        if result.atom_count() and is_ndarray(result.ref_columns[0]):
            np = backend_of_column(result.ref_columns[0]).np
        #: NumPy handle when the vectorized kernels are active, else ``None``.
        self._np = np
        if np is not None:
            self._read_csr_postings(result, np)
            self._hits = np.zeros(len(self._witness_output), dtype=np.int64)
            self._alive_witnesses = np.bincount(
                self._witness_output, minlength=result.output_count()
            )
            # CSR counts double as the initial witness gains (every witness
            # starts alive); diff of offsets, copied since gains mutate.
            self._gain = np.diff(self._rw_offsets)
            self._removed_flags = np.zeros(self._ref_total, dtype=bool)
            self._build_pairs()
        else:
            self._read_dict_postings(result)
            self._hits = [0] * len(self._witness_rids)
            self._alive_witnesses = [0] * result.output_count()
            for out in self._witness_output:
                self._alive_witnesses[out] += 1
            #: rid -> number of still-alive witnesses containing the tuple
            self._gain = [len(wids) for wids in self._ref_witnesses]
            self._removed_flags = [False] * self._ref_total
        # Outputs with no witnesses at all never existed; by construction the
        # evaluate() result only lists outputs with >= 1 witness.

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _read_dict_postings(self, result: QueryResult) -> None:
        """Number each atom's postings keys (dict of lists) into rids.

        Rid ``base + i`` is the atom's ``i``-th participating tid in
        ascending order, and its witness list *is* that tid's postings list:
        shared with the provenance, so the index never writes it.
        """
        witness_count = result.witness_count()
        self._witness_output = list(result.witness_outputs)
        #: rid -> witness IDs containing the tuple (ascending)
        self._ref_witnesses: List[List[int]] = []
        ref_witnesses = self._ref_witnesses
        rid_columns: List[List[int]] = []
        for position in range(result.atom_count()):
            postings = cast(Dict[int, List[int]], result.postings_for_atom(position))
            tids = sorted(postings)
            base = len(ref_witnesses)
            rid_of_tid = dict(zip(tids, range(base, base + len(tids))))
            self._atom_bases.append(base)
            self._atom_tids.append(tids)
            ref_witnesses.extend(map(postings.__getitem__, tids))
            rid_columns.append(
                list(map(rid_of_tid.__getitem__, result.ref_columns[position]))
            )
        self._vacuum_base = len(ref_witnesses)
        for _vacuum_ref in self._vacuum:
            rid_columns.append([len(ref_witnesses)] * witness_count)
            ref_witnesses.append(list(range(witness_count)))
        self._ref_total = len(ref_witnesses)
        #: witness ID -> rids it contains (for incremental gain updates)
        self._witness_rids: Any = (
            list(zip(*rid_columns)) if rid_columns else [()] * witness_count
        )

    def _read_csr_postings(self, result: QueryResult, np: Any) -> None:
        """Number each atom's CSR postings rows into rids (NumPy kernel).

        The rids of an atom are its CSR's non-empty rows (ascending tids),
        so the rid CSR is every atom's ``order`` plus its non-empty rows'
        counts, and ``cumsum(counts > 0) - 1 + base`` maps a tid to its rid.
        The per-witness rid rows live in one ``(W, atoms)`` matrix.
        """
        witness_count = result.witness_count()
        self._witness_output = np.asarray(result.witness_outputs, dtype=np.int64)
        rid_columns = []
        flats = []
        counts_list = []
        base = 0
        for position in range(result.atom_count()):
            csr = cast(CsrPostings, result.postings_for_atom(position))
            counts = np.diff(csr.offsets)
            present = counts > 0
            rid_of_tid = np.cumsum(present) - 1 + base
            rid_columns.append(rid_of_tid[result.ref_columns[position]])
            flats.append(csr.order)
            counts_list.append(counts[present])
            tids = np.flatnonzero(present)
            self._atom_bases.append(base)
            self._atom_tids.append(tids)
            base += int(tids.size)
        self._vacuum_base = base
        if witness_count:
            for _vacuum_ref in self._vacuum:
                flats.append(np.arange(witness_count, dtype=np.int64))
                counts_list.append(np.asarray([witness_count], dtype=np.int64))
                rid_columns.append(np.full(witness_count, base, dtype=np.int64))
                base += 1
        self._ref_total = base
        counts = np.concatenate(counts_list)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        #: CSR layout of ``rid -> witness positions``: rid's witnesses are
        #: ``_rw_flat[_rw_offsets[rid] : _rw_offsets[rid + 1]]``.
        self._rw_flat = np.concatenate(flats)
        self._rw_offsets = offsets
        self._witness_rid_matrix = np.stack(rid_columns, axis=1)
        # ``_witness_rids``/``_ref_witnesses`` keep their indexing contract
        # (``[wid]`` -> rids, ``[rid]`` -> wids) as zero-copy array views.
        self._witness_rids = self._witness_rid_matrix
        self._ref_witnesses = CsrPostings(self._rw_flat, offsets)

    def _build_pairs(self) -> None:
        """Factorize every witness's ``(output, rid)`` pairs and count every
        rid's profit (NumPy kernel, at build time: every witness alive).

        A witness holds distinct rids, so a pair's alive count is the number
        of alive witnesses of that output containing that tuple; deleting
        the tuple kills the output exactly when that count equals the
        output's alive-witness count (the pair *kills*), and a rid's profit
        is its number of killing pairs.  ``_run_order`` lists the pairs by
        output, then by alive count at build time, descending, and
        ``_run_key`` is each listed pair's ``output * (W + 1) + (W -
        count)``, ascending: the pairs of one output whose build-time count
        reaches ``c`` are a prefix of its run (:meth:`_remove_pairs` visits
        only that prefix).  Both encodes stay below ``2**62`` up to
        ``2**29`` witnesses of 16 atoms.
        """
        np = self._np
        refs = self._ref_total
        radix = len(self._witness_output) + 1
        keys = self._witness_output[:, None] * refs + self._witness_rid_matrix
        pair_keys, inverse = np.unique(keys.ravel(), return_inverse=True)
        #: ``(W, atoms)`` matrix of (output, ref) pair ids per witness.
        self._witness_pairs = inverse.reshape(keys.shape)
        #: per pair: its rid and its count of alive witnesses.
        self._pair_rid = pair_keys % refs
        pair_output = pair_keys // refs
        pair_alive = np.bincount(self._witness_pairs.ravel(), minlength=pair_keys.size)
        self._pair_alive = pair_alive
        run_key = pair_output * radix + (radix - 1 - pair_alive)
        #: the pairs' run order and its (ascending) sort keys.
        self._run_order = np.argsort(run_key, kind="stable")
        self._run_key = run_key[self._run_order]
        kills = pair_alive == self._alive_witnesses[pair_output]
        #: rid -> number of killing pairs: its maintained profit.
        self._profit = np.bincount(self._pair_rid[kills], minlength=refs)

    def _remove_pairs(self, dead: Any, outs: Any) -> int:
        """Retire witnesses ``dead`` (of outputs ``outs``) from the pair
        counts and the maintained profits; returns how many outputs died.

        Only the pairs of an output that lost a witness can change kill
        status.  Counts never grow, so a pair whose build-time count is
        below ``c`` never again equals an alive count ``c``.  The pairs that
        killed before (count = the old alive count) and those that kill
        after (count = the new one; none once the output died) therefore
        all lie in the prefix of the output's run whose build-time count
        reaches the new alive count (the old one for a dead output).  Each
        status flip moves its rid's profit by one.
        """
        np = self._np
        alive = self._alive_witnesses
        affected, lost = np.unique(outs, return_counts=True)
        before = alive[affected]
        after = before - lost
        floor = np.where(after > 0, after, before)
        radix = len(self._witness_output) + 1
        base = affected * radix
        key = self._run_key
        starts = np.searchsorted(key, base)
        lengths = np.searchsorted(key, base + (radix - 1 - floor), side="right") - starts
        pairs = self._run_order[expand_runs(starts, lengths)]
        pair_alive = self._pair_alive
        killed_before = pair_alive[pairs] == np.repeat(before, lengths)
        np.subtract.at(pair_alive, self._witness_pairs[dead].ravel(), 1)
        alive[affected] = after
        # A dead output has no killing pair: compare against -1.
        killed_after = pair_alive[pairs] == np.repeat(
            np.where(after > 0, after, -1), lengths
        )
        profit = self._profit
        rids = self._pair_rid
        np.add.at(profit, rids[pairs[killed_after & ~killed_before]], 1)
        np.subtract.at(profit, rids[pairs[killed_before & ~killed_after]], 1)
        return int(np.count_nonzero(after == 0))

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def vectorized(self) -> bool:
        """Whether the NumPy kernels are active (ndarray provenance)."""
        return self._np is not None

    def relation_rows(self, relation: str) -> Tuple[range, List[Row]]:
        """``(rids, rows)``: one relation's participating tuples, as rows.

        Rid ``rids[i]`` is the stored row ``rows[i]`` of ``relation``; the
        rids of a relation are contiguous (empty for an unknown relation).
        This is how callers walk a relation's candidates without building a
        :class:`TupleRef` per tuple.
        """
        position = self.result.atom_position(relation)
        if position is None:
            for offset, ref in enumerate(self._vacuum):
                if ref.relation == relation:
                    rid = self._vacuum_base + offset
                    return range(rid, rid + 1), [ref.values]
            return range(0), []
        base = self._atom_bases[position]
        tids = as_id_list(self._atom_tids[position])
        rows = self.result.indexes[position].rows
        return range(base, base + len(tids)), [rows[tid] for tid in tids]

    def relation_names(self) -> List[str]:
        """Relations with participating tuples, in rid order."""
        names = list(self.result.atom_names) if self._ref_total else []
        return names + [ref.relation for ref in self._vacuum]

    # ------------------------------------------------------------------ #
    # Dense-ID queries and mutation
    # ------------------------------------------------------------------ #
    def ref_count(self) -> int:
        """How many distinct participating tuples the index tracks."""
        return self._ref_total

    def ref_at(self, rid: int) -> TupleRef:
        """The :class:`TupleRef` for a dense ref ID (built on demand)."""
        if rid >= self._vacuum_base:
            return self._vacuum[rid - self._vacuum_base]
        position = bisect_right(self._atom_bases, rid) - 1
        index = self.result.indexes[position]
        tid = int(self._atom_tids[position][rid - self._atom_bases[position]])
        return TupleRef(index.name, index.rows[tid])

    def ref_witnesses(self, rid: int) -> List[int]:
        """The witness IDs containing tuple ``rid``, ascending (a fresh list)."""
        return as_id_list(self._ref_witnesses[rid])

    def witness_rids(self, wid: int) -> List[int]:
        """The rids of witness ``wid``'s tuples, one per atom then the vacuum
        refs (a fresh list)."""
        return as_id_list(self._witness_rids[wid])

    def profit_id(self, rid: int) -> int:
        """How many *additional* outputs die if tuple ``rid`` is deleted now.

        This is the quantity ``p(t) = |Q(D - S)| - |Q(D - S - t)|`` of
        Algorithm 6, computed against the current deletion state ``S``.
        """
        if self._removed_flags[rid]:
            return 0
        if self._np is not None:
            return int(self._profit[rid])
        per_output: Dict[int, int] = {}
        get = per_output.get
        hits = self._hits
        witness_output = self._witness_output
        for wid in self._ref_witnesses[rid]:  # alive witnesses only
            if hits[wid] == 0:
                out = witness_output[wid]
                per_output[out] = get(out, 0) + 1
        alive = self._alive_witnesses
        return sum(1 for out, count in per_output.items() if count == alive[out])

    def gains_for(self, rids: Sequence[int]) -> Column:
        """How many still-alive witnesses die if each of ``rids`` is deleted
        now (0 for a removed rid), in one gather.

        The greedy heuristic's tie-breaker: when no single tuple can remove
        a whole output (all profits are zero, e.g. on boolean queries),
        making progress on witnesses is the sensible secondary objective.
        The greedy round reads every candidate's gain; fetching them as one
        ``take`` (NumPy) instead of one scalar indexing call per candidate
        keeps the round off the per-element hot path.  The NumPy kernel
        returns an ``int64`` array, the Python kernel a list.
        """
        np = self._np
        if np is not None:
            rid_array = np.asarray(rids, dtype=np.int64)
            gains = self._gain[rid_array]
            gains[self._removed_flags[rid_array]] = 0
            return gains
        gain = self._gain
        removed = self._removed_flags
        return [0 if removed[rid] else gain[rid] for rid in rids]

    def profits_for(self, rids: Sequence[int]) -> Column:
        """Batched :meth:`profit_id`: exactly ``[profit_id(r) for r in rids]``.

        On the NumPy kernel this is one gather of the maintained profits
        (counted with the index, kept current by :meth:`remove_id`),
        returned as an ``int64`` array.  The Python kernel loops over
        :meth:`profit_id`.
        """
        np = self._np
        if np is None:
            return [self.profit_id(rid) for rid in rids]
        # Removed tuples have no alive witness left, so no pair of theirs
        # kills and their profit is 0.
        return self._profit[np.asarray(rids, dtype=np.int64)]

    def remove_id(self, rid: int) -> int:
        """Delete tuple ``rid``; returns how many outputs died as a result
        (0 if it was already deleted)."""
        if self._removed_flags[rid]:
            return 0
        self._removed_flags[rid] = True
        np = self._np
        if np is not None:
            wids = self._ref_witnesses[rid]
            self._hits[wids] += 1  # wids are distinct: no scatter needed
            newly_dead = wids[self._hits[wids] == 1]
            if not newly_dead.size:
                return 0
            np.subtract.at(self._gain, self._witness_rid_matrix[newly_dead].ravel(), 1)
            return self._remove_pairs(newly_dead, self._witness_output[newly_dead])
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
        return killed
