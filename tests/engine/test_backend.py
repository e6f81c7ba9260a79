"""Unit tests for the array-backend layer (:mod:`repro.engine.backend`).

The NumPy kernels must be drop-in replacements for the Python ones: same
values, same ordering, Python ints at every API boundary.  Selection rules
("auto" falls back without NumPy, explicit "numpy" raises) are what the
no-NumPy CI leg relies on.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import backend as backend_module
from repro.engine.backend import (
    as_id_list,
    backend_of_column,
    expand_runs,
    factorize_codes,
    group_positions,
    is_ndarray,
    numpy_available,
    python_backend,
    rank_first_occurrence,
    resolve_backend,
)

from tests.conftest import repro_test_seed

numpy = pytest.importorskip("numpy") if numpy_available() else None
requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


# --------------------------------------------------------------------------- #
# Selection rules
# --------------------------------------------------------------------------- #
def test_python_backend_always_resolves():
    assert resolve_backend("python") is python_backend()
    assert resolve_backend(python_backend()) is python_backend()


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("cupy")


@requires_numpy
def test_auto_prefers_numpy_and_is_gated():
    resolved = resolve_backend("auto")
    assert resolved.name == "numpy"
    assert resolved.gated is True
    # An explicit request is never gated: A/B runs always vectorize.
    assert resolve_backend("numpy").gated is False


def test_auto_falls_back_without_numpy(monkeypatch):
    monkeypatch.setattr(backend_module, "_np", None)
    monkeypatch.setattr(backend_module, "_NUMPY_CHECKED", True)
    assert resolve_backend("auto") is python_backend()
    assert not numpy_available()
    with pytest.raises(RuntimeError, match="numpy backend was requested"):
        backend_module.NumpyBackend()


def test_repro_no_numpy_environment_kill_switch(monkeypatch):
    monkeypatch.setattr(backend_module, "_np", None)
    monkeypatch.setattr(backend_module, "_NUMPY_CHECKED", False)
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert not numpy_available()
    assert resolve_backend("auto") is python_backend()


# --------------------------------------------------------------------------- #
# Kernel parity
# --------------------------------------------------------------------------- #
def test_python_kernels_basic():
    backend = python_backend()
    assert backend.id_range(4) == [0, 1, 2, 3]
    assert backend.empty_ids() == []
    assert backend.take([10, 20, 30], [2, 0, 2]) == [30, 10, 30]
    assert backend.bincount([0, 2, 2, 1], 4) == [1, 1, 2, 0]
    assert backend.scatter([2, 0, 2], [7, 8, 7], 4) == [8, 0, 7, 0]
    assert backend.cumsum([3, 0, 2]) == [3, 3, 5]
    # Nonzero counts by count descending, ties by tiebreak ascending.
    assert backend.order_by_count([2, 0, 5, 2, 1], [4, 0, 1, 3, 2]) == [2, 3, 0, 4]
    assert not is_ndarray([1, 2, 3])
    assert backend_of_column([1, 2]) is backend
    assert as_id_list([3, 1]) == [3, 1]


@requires_numpy
def test_numpy_kernels_match_python():
    py = python_backend()
    np_backend = resolve_backend("numpy")
    values = [5, 1, 5, 0, 3, 3, 5]
    column = np_backend.id_column(values)
    assert is_ndarray(column)
    assert backend_of_column(column).name == "numpy"
    assert as_id_list(column) == values
    assert all(type(v) is int for v in as_id_list(column))
    assert list(np_backend.id_range(5)) == py.id_range(5)
    assert np_backend.bincount(column, 6).tolist() == py.bincount(values, 6)
    selection = np_backend.id_column([6, 0, 3])
    assert np_backend.take(column, selection).tolist() == py.take(values, [6, 0, 3])
    positions = [4, 1, 4, 0]
    assert np_backend.scatter(
        np_backend.id_column(positions), column[:4], 6
    ).tolist() == py.scatter(positions, values[:4], 6)
    assert np_backend.cumsum(column).tolist() == py.cumsum(values)
    counts = [2, 0, 5, 2, 1, 2]
    tiebreak = [4, 0, 1, 3, 2, 5]
    assert np_backend.order_by_count(
        np_backend.id_column(counts), np_backend.id_column(tiebreak)
    ).tolist() == py.order_by_count(counts, tiebreak) == [2, 3, 0, 5, 4]


#: Random ID columns over an interning table of ``size`` tids.  Tables
#: may be longer than ``max(column) + 1`` (interned rows with no witness),
#: columns may be empty.
id_columns = st.integers(min_value=1, max_value=12).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.lists(st.integers(min_value=0, max_value=size - 1), max_size=40),
    )
)


def _assert_postings_answer(np_postings, values, probes, size):
    """``np_postings`` answers exactly like the dict of lists over
    ``values`` -- and like a fresh ``from_column`` of them -- for every
    tid of the ``size``-row table, of the values' own range and beyond."""
    py_postings = group_positions(values)
    fresh = group_positions(resolve_backend("numpy").id_column(values))
    assert len(np_postings) == len(py_postings) == len(fresh)
    np_items = list(np_postings.items())
    # Ascending key iteration, ascending positions per key.
    assert [key for key, _ in np_items] == sorted(py_postings)
    assert all(type(key) is int for key, _ in np_items)
    assert [
        (key, as_id_list(positions)) for key, positions in np_items
    ] == [(key, as_id_list(positions)) for key, positions in fresh.items()]
    for key, positions in np_items:
        assert as_id_list(positions) == py_postings[key]
        assert py_postings[key] == sorted(py_postings[key])
    # Every tid of the table and beyond it (absent, negative, out of range).
    top = max(values, default=0)
    for tid in range(-2, max(size, top + 1) + 3):
        expected = py_postings.get(tid)
        got = np_postings.get(tid)
        if expected is None:
            assert got is None
            assert fresh.get(tid) is None
        else:
            assert as_id_list(got) == expected
    gathered = np_postings.gather(probes)
    assert as_id_list(gathered) == [
        position for tid in probes for position in py_postings.get(tid, [])
    ]
    assert as_id_list(gathered) == as_id_list(fresh.gather(probes))


@requires_numpy
@settings(max_examples=150, deadline=None)
@given(
    case=st.one_of(
        id_columns,
        st.tuples(st.just(0), st.just([])),
        st.integers(min_value=0, max_value=5).map(lambda v: (v + 1, [v] * 7)),
    ),
    probes=st.lists(st.integers(min_value=-3, max_value=20), max_size=8),
    data=st.data(),
)
def test_group_positions_parity(case, probes, data):
    """CSR postings (numpy) answer exactly like the dict of lists (python),
    and so do the two sort-free derivations of a built CSR: a filter
    (``compressed``) and an append (``appended``)."""
    size, values = case
    np_postings = group_positions(resolve_backend("numpy").id_column(values))
    _assert_postings_answer(np_postings, values, probes, size)

    # Filter: any mask, plus the all-dead and none-dead extremes.
    alive = data.draw(
        st.one_of(
            st.lists(st.booleans(), min_size=len(values), max_size=len(values)),
            st.just([False] * len(values)),
            st.just([True] * len(values)),
        ),
        label="alive",
    )
    survivors = [tid for tid, keep in zip(values, alive) if keep]
    compressed = np_postings.compressed(numpy.array(alive, dtype=bool))
    _assert_postings_answer(compressed, survivors, probes, size)

    # Append: duplicate batch tids and tids past the old maximum included.
    batch = data.draw(
        st.lists(st.integers(min_value=0, max_value=size + 3), max_size=12),
        label="batch",
    )
    appended = np_postings.appended(resolve_backend("numpy").id_column(batch))
    _assert_postings_answer(appended, values + batch, probes, size)
    # Derivations compose (a migrated result is filtered, then grown).
    regrown = compressed.appended(resolve_backend("numpy").id_column(batch))
    _assert_postings_answer(regrown, survivors + batch, probes, size)


def _dict_factorization(rows):
    """Row-by-row reference: ``(gids, firsts)`` in first-occurrence order."""
    gid_of = {}
    gids = []
    firsts = []
    for position, row in enumerate(rows):
        gid = gid_of.get(row)
        if gid is None:
            gid = gid_of[row] = len(firsts)
            firsts.append(position)
        gids.append(gid)
    return gids, firsts


#: Radix sets: the prefix word is re-densified before the second column,
#: before the third, before both, or (the last, whose product stays below
#: ``2**62``) not at all.
RADICES = (
    (2**40, 2**30),
    (2**25, 2**25, 2**25),
    (3, 2**61, 5),
    (7, 11, 13),
)


@requires_numpy
@pytest.mark.parametrize("radices", RADICES, ids=lambda r: "x".join(map(str, r)))
def test_factorize_codes_matches_a_dict_factorization(radices, monkeypatch):
    """Groups and first-occurrence ranks of mixed-radix code words equal a
    Python dict factorization of the code rows, also when the radix product
    overflows ``int64`` and the prefix word must be re-densified."""
    rng = random.Random(repro_test_seed())
    unique_calls = []
    real_unique = numpy.unique

    def counting_unique(*args, **kwargs):
        unique_calls.append(kwargs)
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(numpy, "unique", counting_unique)
    for size in (0, 1, 2, 50, 400):
        # A few distinct codes per column, spread over the whole radix, so
        # rows repeat and words use the high digits.
        pools = [
            [rng.randrange(radix) for _ in range(rng.randint(1, 4))]
            + [0, radix - 1]
            for radix in radices
        ]
        rows = [tuple(rng.choice(pool) for pool in pools) for _ in range(size)]
        columns = [
            (numpy.asarray([row[c] for row in rows], dtype=numpy.int64), radix)
            for c, radix in enumerate(radices)
        ]
        unique_calls.clear()
        first_index, inverse = factorize_codes(columns)
        densified = len(unique_calls) - 1
        assert (densified > 0) == (math.prod(radices) >= 2**62)
        expected_gids, expected_firsts = _dict_factorization(rows)
        # Unranked: one group per distinct row, each naming its first row.
        assert inverse.shape == (size,)
        assert first_index.size == len(expected_firsts)
        assert sorted(first_index.tolist()) == expected_firsts
        assert [rows[f] for f in first_index[inverse].tolist()] == rows
        gids, firsts = rank_first_occurrence(first_index, inverse)
        assert gids.tolist() == expected_gids
        assert firsts.tolist() == expected_firsts


def _expanded(starts, lengths):
    return [start + i for start, length in zip(starts, lengths) for i in range(length)]


@requires_numpy
def test_expand_runs_matches_a_list_reference():
    """``expand_runs`` lists each run's positions in run order; zero-length
    runs (first, last, repeated) contribute nothing."""
    rng = random.Random(repro_test_seed())
    cases = [([], []), ([4], [0]), ([3, 9, 3], [0, 2, 0]), ([5, 0], [3, 0])]
    for _ in range(30):
        runs = rng.randrange(8)
        cases.append(
            (
                [rng.randrange(50) for _ in range(runs)],
                [rng.choice((0, 0, 1, 2, 5)) for _ in range(runs)],
            )
        )
    for starts, lengths in cases:
        got = expand_runs(
            numpy.asarray(starts, dtype=numpy.int64),
            numpy.asarray(lengths, dtype=numpy.int64),
        )
        assert got.dtype == numpy.int64
        assert got.tolist() == _expanded(starts, lengths)


@requires_numpy
def test_object_columns_preserve_identity():
    np_backend = resolve_backend("numpy")
    values = ["a", ("b", 1), 2.5]
    column = np_backend.object_column(values)
    assert column.dtype == object
    for original, stored in zip(values, column):
        assert stored is original


# --------------------------------------------------------------------------- #
# Session-level selection
# --------------------------------------------------------------------------- #
def test_session_backend_property():
    from repro.data.database import Database
    from repro.session import Session

    db = Database.from_dict({"R": ["A"]}, {"R": [(1,)]})
    with Session(db, backend="python") as session:
        assert session.backend == "python"
    expected = "numpy" if numpy_available() else "python"
    with Session(db) as session:
        assert session.backend == expected


@requires_numpy
def test_explicit_numpy_vectorizes_small_inputs():
    """The auto gate must not apply to an explicit backend="numpy"."""
    from repro.data.database import Database
    from repro.session import Session

    db = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [(1,), (2,)], "R2": [(1, 10), (2, 20), (2, 21)]},
    )
    with Session(db, backend="numpy") as session:
        result = session.evaluate("Q(A, B) :- R1(A), R2(A, B)")
        assert is_ndarray(result.ref_columns[0])
        assert is_ndarray(result.witness_outputs)
    with Session(db, backend="auto") as session:
        result = session.evaluate("Q(A, B) :- R1(A), R2(A, B)")
        # 5 input tuples sit far below MIN_VECTOR_TUPLES: the gated auto
        # backend routes to the Python kernels.
        assert not is_ndarray(result.ref_columns[0])


def test_session_rejects_unknown_backend():
    from repro.data.database import Database
    from repro.session import Session

    db = Database.from_dict({"R": ["A"]}, {"R": [(1,)]})
    with pytest.raises(ValueError, match="unknown backend"):
        Session(db, backend="bogus")
