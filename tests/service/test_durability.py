"""Durability through the service tier: eviction, rehydration, degradation.

The regression this file exists for: before the durability layer, LRU
eviction closed a mutated session and re-registering the same name silently
rebound it to the *caller's* fresh database -- every acknowledged mutation
(and the version clients cached against) was gone.  With a store attached,
eviction flushes to disk and both ``get`` and ``register`` rehydrate the
evicted state at its last acknowledged version.
"""

import threading
import time

import pytest

from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.service.registry import SessionRegistry
from repro.storage import DatabaseStore, StorageUnavailableError

from tests.service.conftest import JsonClient

QUERY = "Q(a, c) :- R1(a, b), R2(b, c)"


def make_db(rows=24):
    r1 = Relation("R1", ("a", "b"), [(i, i % 5) for i in range(rows)])
    r2 = Relation("R2", ("b", "c"), [(i % 5, i % 3) for i in range(rows)])
    return Database([r1, r2])


def wire_db(rows=24):
    return {
        "schema": {"R1": ["a", "b"], "R2": ["b", "c"]},
        "rows": {
            "R1": [[i, i % 5] for i in range(rows)],
            "R2": [[i % 5, i % 3] for i in range(rows)],
        },
    }


# --------------------------------------------------------------------------- #
# Registry-level
# --------------------------------------------------------------------------- #
def test_lru_eviction_preserves_mutation_history(tmp_path):
    """Solve, mutate, evict via LRU pressure, re-open: nothing is lost."""
    registry = SessionRegistry(
        2, store=DatabaseStore(tmp_path, compact_after=64)
    )
    entry = registry.register("target", make_db())
    baseline = set(entry.session.evaluate(QUERY).output_rows)
    removed, version = registry.apply_deletions(
        "target", [TupleRef("R1", (0, 0))]
    )
    assert removed == 1 and version == 2
    expected = set(entry.session.evaluate(QUERY).output_rows)
    assert expected != baseline  # the deletion genuinely changed the answer
    # Two more registrations overflow capacity=2 and evict "target".
    registry.register("filler1", make_db())
    registry.register("filler2", make_db())
    assert "target" not in registry
    assert entry.session.closed
    assert registry.evictions_total == 1
    # Re-open by name: back at the evicted version with the evicted answer.
    reopened = registry.get("target")
    assert reopened.version == 2
    assert set(reopened.session.evaluate(QUERY).output_rows) == expected
    assert registry.rehydrations_total == 1
    registry.close()


def test_register_rehydrates_evicted_name_instead_of_rebinding(tmp_path):
    """Re-registration of an evicted name must not reset its history."""
    registry = SessionRegistry(2, store=DatabaseStore(tmp_path))
    registry.register("target", make_db())
    registry.apply_insertions("target", [TupleRef("R1", (900, 1))])
    registry.register("filler1", make_db())
    registry.register("filler2", make_db())
    assert "target" not in registry
    # A client naively re-registering (e.g. after a 404-triggered retry)
    # gets the durable state back, not its freshly supplied database.
    entry = registry.register("target", make_db())
    assert entry.version == 2
    assert (900, 1) in set(entry.database.relation("R1"))
    # replace=True is the explicit reset and wipes the durable state too.
    entry = registry.register("target", make_db(), replace=True)
    assert (900, 1) not in set(entry.database.relation("R1"))
    registry.close()


def test_registry_without_store_keeps_legacy_semantics(tmp_path):
    """No data dir, no behavior change: eviction still simply closes."""
    registry = SessionRegistry(1)
    registry.register("a", make_db())
    registry.register("b", make_db())
    with pytest.raises(KeyError):
        registry.get("a")
    with pytest.raises(KeyError):
        registry.drop("a")
    registry.close()


def test_drop_removes_durable_state(tmp_path):
    store = DatabaseStore(tmp_path)
    registry = SessionRegistry(2, store=store)
    registry.register("target", make_db())
    assert store.exists("target")
    registry.drop("target")
    assert not store.exists("target")
    with pytest.raises(KeyError):
        registry.get("target")
    # Dropping a non-resident persisted name also works (evict first).
    registry.register("target", make_db())
    registry.register("f1", make_db())
    registry.register("f2", make_db())
    assert "target" not in registry and store.exists("target")
    registry.drop("target")
    assert not store.exists("target")
    registry.close()


def test_degraded_store_rejects_registration(tmp_path, monkeypatch):
    store = DatabaseStore(tmp_path)
    registry = SessionRegistry(4, store=store)
    monkeypatch.setattr(
        store, "initialize", lambda *a, **k: (_ for _ in ()).throw(
            StorageUnavailableError("disk on fire")
        )
    )
    with pytest.raises(StorageUnavailableError):
        registry.register("doomed", make_db())
    # The failed registration rolled back: the name is not half-resident.
    assert "doomed" not in registry
    registry.close()


def test_close_flushes_for_warm_restart(tmp_path):
    registry = SessionRegistry(4, store=DatabaseStore(tmp_path, compact_after=64))
    registry.register("target", make_db())
    registry.apply_insertions("target", [TupleRef("R1", (900, 1))])
    registry.close()
    # A fresh registry (new process) reopens at the acknowledged version
    # with zero log records to replay -- close() compacted.
    store = DatabaseStore(tmp_path, compact_after=64)
    registry = SessionRegistry(4, store=store)
    entry = registry.get("target")
    assert entry.version == 2
    assert store.replayed_records_total == 0
    registry.close()


def _persisted_registry(tmp_path):
    """A fresh registry over a store holding ``target`` (not resident)."""
    registry = SessionRegistry(4, store=DatabaseStore(tmp_path))
    registry.register("target", make_db())
    registry.apply_insertions("target", [TupleRef("R1", (900, 1))])
    registry.close()
    return SessionRegistry(4, store=DatabaseStore(tmp_path))


def _race_get(registry, threads=8):
    """``registry.get("target")`` from ``threads`` threads at once."""
    start = threading.Barrier(threads)
    outcomes = []

    def get():
        start.wait(timeout=10)
        try:
            outcomes.append(registry.get("target"))
        except OSError as exc:  # the outcome under test
            outcomes.append(exc)

    workers = [threading.Thread(target=get) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
    assert not any(worker.is_alive() for worker in workers)
    return outcomes


def test_concurrent_gets_share_one_rehydration(tmp_path, monkeypatch):
    registry = _persisted_registry(tmp_path)
    store = registry.store
    original = store.load
    loads = []

    def slow_load(*args, **kwargs):
        loads.append(1)
        time.sleep(0.2)  # every other caller arrives while this loads
        return original(*args, **kwargs)

    monkeypatch.setattr(store, "load", slow_load)
    outcomes = _race_get(registry)
    assert len(loads) == 1
    assert len({id(entry) for entry in outcomes}) == 1
    assert outcomes[0].version == 2
    assert registry.rehydrations_total == 1
    registry.close()


def test_a_failed_rehydration_wakes_every_waiter(tmp_path, monkeypatch):
    registry = _persisted_registry(tmp_path)
    store = registry.store
    original = store.load
    loads = []

    def failing_load(*args, **kwargs):
        loads.append(1)
        time.sleep(0.2)
        raise OSError("disk went away")

    monkeypatch.setattr(store, "load", failing_load)
    outcomes = _race_get(registry)
    assert len(loads) == 1
    assert len(outcomes) == 8
    assert all(isinstance(o, OSError) for o in outcomes)
    # The failure is not remembered: the next caller loads afresh.
    monkeypatch.setattr(store, "load", original)
    assert registry.get("target").version == 2
    registry.close()


# --------------------------------------------------------------------------- #
# HTTP-level
# --------------------------------------------------------------------------- #
def test_rehydration_never_stalls_the_event_loop(
    tmp_path, service_runner, monkeypatch
):
    """/healthz answers while a persisted database loads for a solve."""
    data_dir = str(tmp_path / "data")
    runner = service_runner(data_dir=data_dir)
    client = JsonClient(runner.service.config.host, runner.port)
    assert client.post("/v1/databases", {"name": "db1", **wire_db()})[0] == 200
    client.close()
    runner.close()

    restarted = service_runner(data_dir=data_dir)
    store = restarted.service.store
    original = store.load
    loading, release = threading.Event(), threading.Event()

    def held_load(*args, **kwargs):
        loading.set()
        assert release.wait(30)
        return original(*args, **kwargs)

    monkeypatch.setattr(store, "load", held_load)
    solved = {}

    def solve():
        worker = JsonClient(restarted.service.config.host, restarted.port)
        try:
            solved["status"], solved["body"], _ = worker.post(
                "/v1/solve", {"database": "db1", "query": QUERY, "k": 2}
            )
        finally:
            worker.close()

    solver = threading.Thread(target=solve)
    solver.start()
    client = JsonClient(restarted.service.config.host, restarted.port, timeout=5.0)
    try:
        assert loading.wait(10)
        status, health, _ = client.get("/healthz")  # answered mid-load
        assert status == 200 and health["storage"]["rehydrations_total"] == 0
    finally:
        release.set()
        solver.join(timeout=30)
        client.close()
    assert not solver.is_alive()
    assert solved["status"] == 200, solved
    assert solved["body"]["version"] == 1


def test_service_restart_preserves_databases(tmp_path, service_runner):
    data_dir = str(tmp_path / "data")
    runner = service_runner(data_dir=data_dir)
    client = JsonClient(runner.service.config.host, runner.port)
    status, _, _ = client.post(
        "/v1/databases", {"name": "db1", **wire_db()}
    )
    assert status == 200
    status, payload, _ = client.post(
        "/v1/apply_deletions",
        {"database": "db1", "refs": [["R1", [0, 0]]]},
    )
    assert status == 200 and payload["version"] == 2
    status, before, _ = client.post(
        "/v1/solve", {"database": "db1", "query": QUERY, "k": 2}
    )
    assert status == 200
    client.close()
    runner.close()

    restarted = service_runner(data_dir=data_dir)
    client = JsonClient(restarted.service.config.host, restarted.port)
    status, health, _ = client.get("/healthz")
    assert status == 200
    assert health["storage"]["persisted"] == 1
    status, after, _ = client.post(
        "/v1/solve", {"database": "db1", "query": QUERY, "k": 2}
    )
    assert status == 200
    assert after["version"] == 2
    assert after["output_size"] == before["output_size"]
    status, health, _ = client.get("/healthz")
    assert health["storage"]["rehydrations_total"] == 1
    assert health["storage"]["recovered_total"] == 1
    client.close()


def test_degraded_storage_maps_to_503_with_retry_after(
    tmp_path, service_runner, monkeypatch
):
    runner = service_runner(data_dir=str(tmp_path / "data"))
    client = JsonClient(runner.service.config.host, runner.port)
    status, _, _ = client.post("/v1/databases", {"name": "db1", **wire_db()})
    assert status == 200
    store = runner.service.store
    state = store._state("db1")
    monkeypatch.setattr(
        state.log,
        "append",
        lambda record: (_ for _ in ()).throw(OSError("no space left")),
    )
    status, payload, headers = client.post(
        "/v1/apply_insertions",
        {"database": "db1", "refs": [["R1", [900, 1]]]},
    )
    assert status == 503
    assert "retry-after" in headers
    assert "durable storage unavailable" in payload["error"]
    # Reads keep serving while writes degrade.
    status, solved, _ = client.post(
        "/v1/solve", {"database": "db1", "query": QUERY, "k": 2}
    )
    assert status == 200
    status, health, _ = client.get("/healthz")
    assert health["status"] == "degraded"
    assert health["storage"]["degraded"] is True
    client.close()
