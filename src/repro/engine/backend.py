"""Array-backend selection for the columnar engine.

The columnar rewrite removed per-row object allocation, but every hot kernel
(the build/probe join, provenance bookkeeping, profit scans, delta semijoins)
still walked plain Python lists one element at a time.
This module introduces the *array backend* abstraction that lets those
kernels run over dense ``int64`` NumPy arrays instead:

* :class:`PythonBackend` -- the existing pure-Python kernels, always
  available.  It remains the **parity oracle**: every NumPy kernel must
  produce byte-identical results (same witness order, same tie-breaking,
  same packed layout).
* :class:`NumpyBackend` -- vectorized kernels over ``numpy.int64`` ID
  columns and ``dtype=object`` value columns.  Value columns keep the
  original Python objects, so output rows, ``TupleRef`` contents and every
  ``repr``-based tie-break are bit-for-bit unchanged.

NumPy is an **optional** dependency (the ``fast`` extra): when it is not
importable -- or disabled via the ``REPRO_NO_NUMPY`` environment variable,
which the test-suite uses to exercise the fallback on machines that do have
NumPy -- ``"auto"`` silently resolves to the Python backend, while an
explicit ``"numpy"`` request raises.

Selection happens once, at :class:`~repro.session.Session` (or
:class:`~repro.engine.evaluate.EngineContext`) construction:
``Session(db, backend="numpy"|"python"|"auto")``.  Consumers downstream of
the join do not carry a backend handle around; they dispatch on the column
type via :func:`is_ndarray` / :func:`backend_of_column`, so a provenance
payload always gets the kernels matching its own representation (mixed
pipelines -- e.g. a NumPy evaluation feeding a hand-built row result --
just work).
"""

from __future__ import annotations

import os
import struct
from itertools import accumulate
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

#: A packed column: a plain Python list or a ``numpy.ndarray`` -- typed as
#: ``Any`` because NumPy is optional and kernels dispatch at runtime via
#: :func:`is_ndarray`.
Column = Any

#: Resolved lazily so the module imports cleanly without NumPy and so tests
#: can monkeypatch it to exercise the fallback.
_np: Optional[Any] = None
_NUMPY_CHECKED = False


def _load_numpy() -> Optional[Any]:
    """Import NumPy once, honouring the ``REPRO_NO_NUMPY`` kill switch."""
    global _np, _NUMPY_CHECKED
    if _NUMPY_CHECKED:
        return _np
    _NUMPY_CHECKED = True
    if os.environ.get("REPRO_NO_NUMPY", "").strip().lower() in ("1", "true", "yes"):
        _np = None
        return _np
    try:
        import numpy
    except ImportError:
        _np = None
    else:
        _np = numpy
    return _np


def numpy_available() -> bool:
    """Whether the NumPy backend can be constructed in this interpreter."""
    return _load_numpy() is not None


class PythonBackend:
    """Pure-Python kernels over plain lists (always available; parity oracle)."""

    name = "python"
    is_numpy = False

    # -- column constructors ------------------------------------------------ #
    def id_range(self, n: int) -> List[int]:
        return list(range(n))

    def empty_ids(self) -> List[int]:
        return []

    def id_column(self, values: Sequence[int]) -> List[int]:
        return list(values)

    def object_column(self, values: Sequence[object]) -> List[object]:
        return list(values)

    def id_column_from_buffer(self, buffer: Union[bytes, memoryview]) -> List[int]:
        """Decode a little-endian ``int64`` byte buffer into an ID column.

        The snapshot format (:mod:`repro.storage`) stores integer columns as
        raw ``<i8`` bytes; this is the pure-Python decode path.
        """
        count = len(buffer) // 8
        return list(struct.unpack(f"<{count}q", buffer))

    # -- gathers ------------------------------------------------------------ #
    def take(self, column: Column, selection: Sequence[int]) -> List[object]:
        return [column[i] for i in selection]

    def scatter(self, positions: Column, values: Column, size: int) -> List[int]:
        """``out[positions[i]] = values[i]`` over ``size`` zeros."""
        out = [0] * size
        for position, value in zip(positions, values):
            out[position] = value
        return out

    # -- counting ----------------------------------------------------------- #
    def bincount(self, column: Column, size: int) -> List[int]:
        counts = [0] * size
        for value in column:
            counts[value] += 1
        return counts

    def cumsum(self, column: Column) -> List[int]:
        return list(accumulate(column))

    def order_by_count(self, counts: Column, tiebreak: Column) -> List[int]:
        """The positions with a nonzero count: count descending, then
        ``tiebreak`` ascending."""
        return sorted(
            (i for i, count in enumerate(counts) if count),
            key=lambda i: (-counts[i], tiebreak[i]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PythonBackend()"


class NumpyBackend:
    """Vectorized kernels over ``numpy.int64`` ID columns.

    ``gated=True`` (what ``"auto"`` resolves to) lets the engine route
    sub-:data:`MIN_VECTOR_TUPLES` evaluations to the Python kernels.
    """

    name = "numpy"
    is_numpy = True

    def __init__(self, gated: bool = False) -> None:
        np = _load_numpy()
        if np is None:
            raise RuntimeError(
                "the numpy backend was requested but numpy is not importable "
                "(install the 'fast' extra: pip install repro-adp[fast])"
            )
        self.np = np
        self.gated = gated

    # -- column constructors ------------------------------------------------ #
    def id_range(self, n: int) -> Column:
        return self.np.arange(n, dtype=self.np.int64)

    def empty_ids(self) -> Column:
        return self.np.empty(0, dtype=self.np.int64)

    def id_column(self, values: Sequence[int]) -> Column:
        return self.np.asarray(values, dtype=self.np.int64)

    def object_column(self, values: Sequence[object]) -> Column:
        column = self.np.empty(len(values), dtype=object)
        column[:] = values
        return column

    def id_column_from_buffer(self, buffer: Union[bytes, memoryview]) -> Column:
        """Decode a little-endian ``int64`` byte buffer into an ID column.

        ``frombuffer`` returns a (read-only) view over the caller's buffer --
        when that buffer is a slice of a memory-mapped snapshot file this is
        the zero-copy load path: the column aliases the page cache and the
        mapping stays alive for as long as the array references it.
        """
        return self.np.frombuffer(buffer, dtype="<i8")

    # -- gathers ------------------------------------------------------------ #
    def take(self, column: Column, selection: Column) -> Column:
        return column.take(selection)

    def scatter(self, positions: Column, values: Column, size: int) -> Column:
        """``out[positions[i]] = values[i]`` over ``size`` zeros.

        Repeated positions must carry equal values (which write lands is
        unspecified)."""
        out = self.np.zeros(size, dtype=self.np.int64)
        out[positions] = values
        return out

    # -- counting ----------------------------------------------------------- #
    def bincount(self, column: Column, size: int) -> Column:
        return self.np.bincount(column, minlength=size)

    def cumsum(self, column: Column) -> Column:
        return self.np.cumsum(column)

    def order_by_count(self, counts: Column, tiebreak: Column) -> Column:
        """The positions with a nonzero count: count descending, then
        ``tiebreak`` ascending."""
        np = self.np
        nonzero = np.flatnonzero(counts)
        return nonzero[np.lexsort((tiebreak[nonzero], -counts[nonzero]))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NumpyBackend()"


#: Cost-model floor for the ``"auto"``-selected NumPy kernels.  Array
#: kernels pay a fixed per-call overhead (~µs each), so below this many
#: input tuples the pure-Python loops win outright; since the two backends
#: produce byte-identical results, dropping to the Python kernels on small
#: inputs is purely an internal routing decision.  An explicit ``backend="numpy"``
#: request is honoured at every size (``gated=False``) so A/B comparisons
#: and the parity suite always exercise the vectorized kernels.
MIN_VECTOR_TUPLES = 1024

#: Backend singletons: one per process is plenty (backends are stateless).
_PYTHON_BACKEND = PythonBackend()
_NUMPY_BACKEND: Optional[NumpyBackend] = None
_NUMPY_BACKEND_AUTO: Optional[NumpyBackend] = None

#: What ``resolve_backend`` accepts.
BACKEND_NAMES = ("auto", "python", "numpy")

#: A resolved backend instance (what ``resolve_backend`` returns).
Backend = Union[PythonBackend, NumpyBackend]

BackendLike = Union[str, PythonBackend, NumpyBackend, None]


def python_backend() -> PythonBackend:
    """The shared :class:`PythonBackend` instance."""
    return _PYTHON_BACKEND


def gated_backend(backend: Backend, total_tuples: int) -> Backend:
    """The backend an evaluation over ``total_tuples`` input tuples runs on.

    The one owner of the :data:`MIN_VECTOR_TUPLES` rule: a gated
    (``"auto"``-selected) NumPy backend below the floor is demoted to the
    Python kernels; every other backend runs as requested.
    """
    if (
        backend.is_numpy
        and getattr(backend, "gated", False)
        and total_tuples < MIN_VECTOR_TUPLES
    ):
        return _PYTHON_BACKEND
    return backend


def resolve_backend(spec: BackendLike) -> Union[PythonBackend, NumpyBackend]:
    """Resolve a backend spec (``"auto"``/``"python"``/``"numpy"``/instance).

    ``"auto"`` (and ``None``) picks NumPy when importable -- with the
    small-input gate enabled -- and falls back to pure Python otherwise; an
    explicit ``"numpy"`` raises when NumPy is missing, so a session that
    *requires* the fast path fails loudly.
    """
    global _NUMPY_BACKEND, _NUMPY_BACKEND_AUTO
    if isinstance(spec, (PythonBackend, NumpyBackend)):
        return spec
    if spec is None or spec == "auto":
        if not numpy_available():
            return _PYTHON_BACKEND
        if _NUMPY_BACKEND_AUTO is None:
            _NUMPY_BACKEND_AUTO = NumpyBackend(gated=True)
        return _NUMPY_BACKEND_AUTO
    if spec == "python":
        return _PYTHON_BACKEND
    if spec == "numpy":
        if _NUMPY_BACKEND is None:
            _NUMPY_BACKEND = NumpyBackend()
        return _NUMPY_BACKEND
    raise ValueError(
        f"unknown backend {spec!r} (expected one of {', '.join(BACKEND_NAMES)})"
    )


# --------------------------------------------------------------------------- #
# Column-type dispatch for downstream consumers
# --------------------------------------------------------------------------- #
def is_ndarray(column: Column) -> bool:
    """Whether a packed column is a NumPy array (vs a plain list).

    Downstream kernels (provenance index, delta semijoins, set cover)
    dispatch on the payload they were handed rather than on
    ambient session state, so results flow freely between sessions of
    different backends.
    """
    np = _np  # only ever true when numpy was actually loaded
    return np is not None and isinstance(column, np.ndarray)


def backend_of_column(column: Column) -> Union[PythonBackend, NumpyBackend]:
    """The backend whose kernels match one packed column's representation."""
    return resolve_backend("numpy") if is_ndarray(column) else _PYTHON_BACKEND


def as_id_list(column: Column) -> List[int]:
    """A packed ID column as a plain list of Python ints.

    The normalization used at representation boundaries (parity assertions,
    bitmask kernels that must not overflow ``int64``).
    """
    if is_ndarray(column):
        return column.tolist()
    return list(column)


def id_column_to_bytes(column: Column) -> bytes:
    """Serialize a packed ID column as little-endian ``int64`` bytes.

    The inverse of ``Backend.id_column_from_buffer``: both backends produce
    the same bytes for the same values, so snapshots written by a NumPy
    session load bit-for-bit identically in a pure-Python one (and vice
    versa).
    """
    if is_ndarray(column):
        np = _np
        return np.ascontiguousarray(column, dtype="<i8").tobytes()
    return struct.pack(f"<{len(column)}q", *column)


class Postings(Protocol):
    """``tid -> ascending witness positions`` for one atom (postings index).

    A plain ``dict`` of lists on the Python backend, a :class:`CsrPostings`
    on the NumPy backend.  ``get`` returns ``None`` for a tid without
    witnesses, and ``len`` counts the tids that have some.
    """

    def get(self, tid: int, /) -> Optional[Column]: ...

    def items(self) -> Iterable[Tuple[int, Column]]: ...

    def __len__(self) -> int: ...


class CsrPostings:
    """Postings as compressed sparse rows: one position array plus offsets.

    Row ``t`` (a tid of a provenance's postings, a group id of a NumPy
    hash-join build side, or a dense rid of the
    :mod:`repro.engine.provenance` index, whose rid CSR is the postings'
    ``order`` arrays end to end over their non-empty rows) holds
    ``order[offsets[t]:offsets[t + 1]]``: ascending positions, read as a
    view.  Built from an ID column (:meth:`from_column`) that is one stable
    argsort plus one ``bincount``; no per-row object exists until a caller
    asks for one -- building tens of thousands of small arrays (``np.split``)
    costs far more than the grouping itself.
    """

    __slots__ = ("order", "offsets")

    def __init__(self, order: Column, offsets: Column) -> None:
        self.order = order
        self.offsets = offsets

    @classmethod
    def from_column(cls, column: Column) -> "CsrPostings":
        """``value -> positions holding it`` for one ``int64`` ID column."""
        np = _np
        counts = np.bincount(column)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(np.argsort(column, kind="stable"), offsets)

    def compressed(self, alive: Column) -> "CsrPostings":
        """The postings of ``column[alive]``, derived without a sort.

        ``alive`` is a boolean mask over the positions.  Survivors keep
        their rows and relative order and are renumbered by their rank
        among the survivors; a row's new offset is the survivor count
        before its old one.
        """
        np = _np
        order = self.order
        kept = alive[order]
        prefix = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(kept, out=prefix[1:])
        rank = np.cumsum(alive) - 1
        return CsrPostings(rank[order[kept]], prefix[self.offsets])

    def appended(self, tids: Column) -> "CsrPostings":
        """The postings of ``column + tids`` (positions appended at the end).

        The appended positions are spliced in at the end of their rows --
        only the batch is sorted -- and the offsets grow by the batch's
        running per-row counts, past the old row range if a tid is new.
        """
        np = _np
        order, offsets = self.order, self.offsets
        tids = np.asarray(tids, dtype=np.int64)
        rows = offsets.size - 1
        if tids.size:
            rows = max(rows, int(tids.max()) + 1)
        grown = np.full(rows + 1, order.size, dtype=np.int64)
        grown[: offsets.size] = offsets
        by_tid = np.argsort(tids, kind="stable")
        # Equal insertion indices keep the batch's (ascending) order.
        new_order = np.insert(
            order, grown[tids[by_tid] + 1], order.size + by_tid
        )
        grown[1:] += np.cumsum(np.bincount(tids, minlength=rows))
        return CsrPostings(new_order, grown)

    def __getitem__(self, row: int) -> Column:
        """Row ``row``'s positions, unchecked (callers index valid rows)."""
        offsets = self.offsets
        return self.order[offsets[row]:offsets[row + 1]]

    def get(self, tid: int, /) -> Optional[Column]:
        """A view of ``tid``'s positions, or ``None`` when it has none."""
        offsets = self.offsets
        if 0 <= tid < offsets.size - 1 and offsets[tid] < offsets[tid + 1]:
            return self[tid]
        return None

    def _rows(self) -> Column:
        """The rows holding at least one position, ascending."""
        return _np.flatnonzero(_np.diff(self.offsets))

    def items(self) -> Iterator[Tuple[int, Column]]:
        """``(tid, positions view)`` for every tid with positions, ascending."""
        order = self.order
        offsets = self.offsets.tolist()
        for tid in self._rows().tolist():
            yield tid, order[offsets[tid]:offsets[tid + 1]]

    def __len__(self) -> int:
        return int(self._rows().size)

    def gather(self, tids: Sequence[int]) -> Column:
        """All positions of ``tids`` in one pass (duplicates kept).

        The concatenation of ``get(t)`` over ``tids`` in order; tids out of
        range or without positions contribute nothing.
        """
        np = _np
        offsets = self.offsets
        wanted = np.asarray(tids, dtype=np.int64)
        wanted = wanted[(wanted >= 0) & (wanted < offsets.size - 1)]
        starts = offsets[wanted]
        return self.order[expand_runs(starts, offsets[wanted + 1] - starts)]


def expand_runs(starts: Column, lengths: Column) -> Column:
    """The positions ``starts[r], ..., starts[r] + lengths[r] - 1`` of every
    run ``r``, run after run, as one ``int64`` array (zero-length runs
    contribute nothing).

    Output slot ``i`` of run ``r`` is ``starts[r] + i - run_start[r]``,
    where ``run_start[r]`` is the run's first output slot: one ``repeat``
    plus one ``arange``, with no per-run Python work.
    """
    np = _np
    run_starts = np.cumsum(lengths) - lengths
    shift = np.repeat(starts - run_starts, lengths)
    return np.arange(shift.size, dtype=np.int64) + shift


def factorize_codes(columns: Sequence[Tuple[Column, int]]) -> Tuple[Column, Column]:
    """``(first_index, inverse)``: the distinct rows of integer code columns.

    Each ``(codes, radix)`` column holds dense codes in ``[0, radix)`` (a
    :meth:`~repro.engine.columnar.RelationIndex.value_codes` column gathered
    per row); all columns have one length.  The columns combine into one
    mixed-radix ``int64`` word per row, so two rows are equal **iff** their
    words are, and one ``np.unique`` groups them.  Groups are numbered in
    ascending word order: ``inverse[i]`` is row ``i``'s group and
    ``first_index[g]`` the first row of group ``g``
    (:func:`rank_first_occurrence` renumbers them by first occurrence).
    A prefix word whose range times the next radix would reach ``2**62`` is
    first re-densified to its distinct values, so the encode cannot wrap.
    """
    np = _np
    word = None
    word_range = 1
    for codes, radix in columns:
        if word is None:
            word = codes
        else:
            if word_range * radix >= 2**62:
                distinct, word = np.unique(word, return_inverse=True)
                word_range = distinct.size
            word = word * radix + codes
        word_range *= radix
    _distinct, first_index, inverse = np.unique(
        word, return_index=True, return_inverse=True
    )
    return first_index, inverse


def rank_first_occurrence(first_index: Column, inverse: Column) -> Tuple[Column, Column]:
    """``(gids, firsts)``: :func:`factorize_codes`' groups renumbered by first
    occurrence -- the order a dict fills in, row by row.

    ``gids[i]`` is row ``i``'s group rank and ``firsts[g]`` the first row
    of rank ``g`` (ascending).
    """
    np = _np
    group_order = np.argsort(first_index)  # first rows are distinct
    rank = np.empty(first_index.size, dtype=np.int64)
    rank[group_order] = np.arange(first_index.size, dtype=np.int64)
    return rank[inverse], first_index[group_order]


def group_positions(column: Column) -> Postings:
    """``value -> positions holding it`` for one ID column (postings build).

    Positions are ascending within each value.  The Python path returns a
    dict of lists; the NumPy path returns :class:`CsrPostings`.
    """
    if is_ndarray(column):
        return CsrPostings.from_column(column)
    postings: Dict[int, List[int]] = {}
    setdefault = postings.setdefault
    for position, value in enumerate(column):
        setdefault(value, []).append(position)
    return postings


__all__ = [
    "BACKEND_NAMES",
    "CsrPostings",
    "NumpyBackend",
    "Postings",
    "PythonBackend",
    "as_id_list",
    "backend_of_column",
    "expand_runs",
    "factorize_codes",
    "gated_backend",
    "group_positions",
    "id_column_to_bytes",
    "is_ndarray",
    "numpy_available",
    "python_backend",
    "rank_first_occurrence",
    "resolve_backend",
]
