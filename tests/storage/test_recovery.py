"""Store-level recovery: byte-identical reloads, compaction, degradation."""

import gc

import pytest

from repro.data.relation import TupleRef
from repro.session import Session
from repro.storage import (
    DatabaseStore,
    OP_DELETE,
    OP_INSERT,
    SnapshotCorruptError,
    StorageUnavailableError,
)

from tests.storage.conftest import (
    BACKENDS,
    QUERY,
    SEED,
    apply_batch,
    fingerprint,
    make_db,
    mutation_batches,
    reference_session,
)


def _run_workload(tmp_path, backend, compact_after):
    """Register + evaluate + run every batch through the write-through path."""
    store = DatabaseStore(tmp_path, compact_after=compact_after)
    session = Session(make_db(), backend=backend)
    session.evaluate(QUERY)
    store.initialize("db", session, 1)
    version = 1
    for op, refs in mutation_batches():
        apply_batch(session, op, refs)
        version += 1
        store.record_mutation(
            "db", session, OP_INSERT if op == "insert" else OP_DELETE, refs, version
        )
    store.close()
    session.close()
    return version


@pytest.mark.parametrize("compact_after", [2, 100])
@pytest.mark.parametrize("backend", BACKENDS)
def test_reload_is_byte_identical(tmp_path, backend, compact_after):
    version = _run_workload(tmp_path, backend, compact_after)
    store = DatabaseStore(tmp_path, compact_after=compact_after)
    recovered = store.load("db", backend=backend)
    assert recovered.version == version
    if compact_after == 100:
        # Nothing ever compacted: the whole trace replays from the log.
        assert recovered.replayed_records == len(mutation_batches())
    with reference_session(backend, len(mutation_batches())) as reference:
        assert fingerprint(recovered.session) == fingerprint(reference)
    recovered.session.close()
    store.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovered_cache_is_warm(tmp_path, backend):
    """The first post-recovery evaluate hits the restored provenance."""
    _run_workload(tmp_path, backend, compact_after=2)
    store = DatabaseStore(tmp_path, compact_after=2)
    recovered = store.load("db", backend=backend)
    before = recovered.session.stats.cache_hits
    recovered.session.evaluate(QUERY)
    assert recovered.session.stats.cache_hits == before + 1
    recovered.session.close()
    store.close()


def test_durability_continues_after_recovery(tmp_path):
    version = _run_workload(tmp_path, "python", compact_after=3)
    store = DatabaseStore(tmp_path, compact_after=3)
    recovered = store.load("db")
    extra = [TupleRef("R1", (999, 1))]
    recovered.session.apply_insertions(extra)
    store.record_mutation("db", recovered.session, OP_INSERT, extra, version + 1)
    recovered.session.close()
    store.close()
    again = DatabaseStore(tmp_path).load("db")
    assert again.version == version + 1
    assert (999, 1) in set(again.database.relation("R1"))
    again.session.close()


def test_multiple_databases_per_store(tmp_path):
    store = DatabaseStore(tmp_path, compact_after=3)
    for name, seed in (("alpha", SEED), ("beta", SEED + 17)):
        session = Session(make_db(seed))
        session.evaluate(QUERY)
        store.initialize(name, session, 1)
        session.close()
    assert store.names() == ["alpha", "beta"]
    assert store.exists("alpha") and not store.exists("gamma")
    store.remove("alpha")
    assert store.names() == ["beta"]
    store.close()


def test_corrupt_snapshot_raises(tmp_path):
    _run_workload(tmp_path, "python", compact_after=100)
    snapshot = tmp_path / "db" / "snapshot.bin"
    data = bytearray(snapshot.read_bytes())
    data[len(data) // 2] ^= 0xFF
    snapshot.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorruptError):
        DatabaseStore(tmp_path).load("db")


@pytest.mark.parametrize("enabled", [True, False])
def test_load_restores_the_collector_state(tmp_path, enabled):
    """Recovery pauses the cyclic collector, then restores its prior state
    -- after a successful load and after a failed one."""
    _run_workload(tmp_path, "python", compact_after=100)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        DatabaseStore(tmp_path).load("db").session.close()
        assert gc.isenabled() is enabled
        (tmp_path / "db" / "snapshot.bin").write_bytes(b"torn")
        with pytest.raises(SnapshotCorruptError):
            DatabaseStore(tmp_path).load("db")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_log_failure_degrades_the_store(tmp_path, monkeypatch):
    store = DatabaseStore(tmp_path, compact_after=100)
    session = Session(make_db())
    session.evaluate(QUERY)
    store.initialize("db", session, 1)

    def boom(record):
        raise OSError("disk full")

    state = store._state("db")
    monkeypatch.setattr(state.log, "append", boom)
    refs = [TupleRef("R1", (999, 1))]
    session.apply_insertions(refs)
    with pytest.raises(StorageUnavailableError):
        store.record_mutation("db", session, OP_INSERT, refs, 2)
    assert store.degraded
    assert "disk full" in (store.degraded_reason or "")
    # Degraded mode fails fast, even for healthy databases.
    with pytest.raises(StorageUnavailableError):
        store.record_mutation("db", session, OP_INSERT, refs, 3)
    with pytest.raises(StorageUnavailableError):
        store.initialize("other", session, 1)
    with pytest.raises(StorageUnavailableError):
        store.flush("db", session, 2)
    # The acknowledged prefix is still recoverable from a fresh store.
    session.close()
    store.close()
    recovered = DatabaseStore(tmp_path).load("db")
    assert recovered.version == 1
    assert not DatabaseStore(tmp_path).degraded
    recovered.session.close()


# --------------------------------------------------------------------------- #
# One table per relation: liveness survives compaction and a later flush
# --------------------------------------------------------------------------- #
Q6_TEXT = "Q6(A, B) :- R1(A), R2(A, B)"
QH_TEXT = "Qh(A) :- R1(A), R2(A, B), R3(B)"


def _zipf_db():
    from repro.workloads.zipf import generate_zipf_path

    return generate_zipf_path(r2_tuples=300, alpha=0.5, seed=3)


def _answer(result):
    return (
        {w.refs for w in result.witnesses},
        set(result.output_rows),
        result.witness_count(),
        result.output_count(),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_uncached_query_after_compacted_deletion_sees_no_dead_rows(tmp_path, backend):
    """Delete, compact, recover, then evaluate a query that was never cached:
    the recovered tables keep the deleted rows interned but dead, and the
    join must not match them."""
    database = _zipf_db()
    deleted = sorted(database.relation("R2").refs(), key=repr)[:40]
    store = DatabaseStore(tmp_path, compact_after=1)
    session = Session(database, backend=backend)
    session.evaluate(Q6_TEXT)
    store.initialize("db", session, 1)
    assert session.apply_deletions(deleted) == 40
    store.record_mutation("db", session, OP_DELETE, deleted, 2)  # compacts
    assert store.compactions_total == 1
    uninterrupted = _answer(session.evaluate(QH_TEXT))
    store.close()
    session.close()

    store = DatabaseStore(tmp_path)
    recovered = store.load("db", backend=backend)
    assert recovered.replayed_records == 0
    answer = _answer(recovered.session.evaluate(QH_TEXT))
    with Session(recovered.database.copy(), backend=backend) as fresh:
        assert answer == _answer(fresh.evaluate(QH_TEXT))
    assert answer == uninterrupted
    used = {ref for refs in answer[0] for ref in refs}
    assert not used & set(deleted)
    recovered.session.close()
    store.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_flush_after_delete_insert_keeps_every_cached_result(tmp_path, backend):
    """A query evaluated after a delete and an insert shares the tables the
    migrated results index, so a flush persists both and reload is warm."""
    database = _zipf_db()
    deleted = sorted(database.relation("R2").refs(), key=repr)[:40]
    inserted = deleted[:15] + [
        TupleRef("R2", (ref.values[0], f"fresh{i}")) for i, ref in enumerate(deleted[15:25])
    ]
    store = DatabaseStore(tmp_path)
    session = Session(database, backend=backend)
    session.evaluate(Q6_TEXT)
    store.initialize("db", session, 1)
    session.apply_deletions(deleted)
    session.apply_insertions(inserted)
    answers = {text: _answer(session.evaluate(text)) for text in (Q6_TEXT, QH_TEXT)}
    store.flush("db", session, 3)
    store.close()
    session.close()

    store = DatabaseStore(tmp_path)
    recovered = store.load("db", backend=backend)
    for text in (Q6_TEXT, QH_TEXT):
        before = recovered.session.stats
        answer = _answer(recovered.session.evaluate(text))
        after = recovered.session.stats
        assert after.cache_hits == before.cache_hits + 1, text
        assert after.joins == before.joins, text
        assert answer == answers[text], text
    recovered.session.close()
    store.close()
