#!/usr/bin/env python
"""Load harness for the ADP query service (closed + open loop).

Drives ``repro serve`` (an external ``--url``, or a self-hosted in-process
service) with the stdlib ``http.client`` over persistent keep-alive
connections and records throughput and latency percentiles to the
committed trajectory file ``benchmarks/BENCH_service.json``.

Workload mixes (registered over ``POST /v1/databases``):

* ``easy`` -- the singleton query ``Q6(A, B) :- R1(A), R2(A, B)`` on a
  2k-tuple Zipf instance: cheap poly-time solves, the request-rate mix
  (CI asserts >= 200 req/s on it);
* ``hard`` -- the NP-hard projection ``Qh(A) :- R1(A), R2(A, B), R3(B)``
  on a 60k-tuple Zipf instance: greedy-curve-dominated solves, the mix
  where micro-batching pays.

``--compare-batching`` measures the same fixed hard-mix request set twice
-- once with per-request dispatch (``"batch": false``) and once through
the micro-batcher -- and asserts the batched throughput multiple
(``--assert-speedup 2`` in CI: coalescing shares one evaluation and one
cost curve per batch, per-request dispatch recomputes the curve every
time).

``--compare-mutations`` interleaves ``POST /v1/apply_insertions`` batches
with solves on the hard mix and compares the incremental leg (delta join
+ in-place cache migration) against re-registering the identical grown
database and solving cold (``--assert-speedup 5`` in CI: the delta join
touches only new witnesses, the fresh leg re-joins everything).

``--compare-restart`` runs the kill-and-restart recovery scenario: a
``repro serve --data-dir`` subprocess registers the hard mix, solves,
absorbs write-through mutation batches and is SIGKILLed mid-flight.  The
durable leg restarts on the same data dir and measures
ready-to-first-successful-solve (lazy snapshot+log rehydration, warm
provenance cache); the fresh leg restarts with no data dir and measures
the pre-durability client path: CSV reload + re-registration + cold
evaluate (``--assert-speedup 10`` in CI).

The client retries 429/503 responses with capped exponential backoff +
jitter, honoring ``Retry-After``; retries are reported separately from
successes and hard errors in every run summary.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --mix easy --mode both
    PYTHONPATH=src python benchmarks/bench_service.py --url http://127.0.0.1:8080 \
        --mix easy --duration 10 --assert-throughput 200 --record
    PYTHONPATH=src python benchmarks/bench_service.py --compare-batching \
        --assert-speedup 2 --record
    PYTHONPATH=src python benchmarks/bench_service.py --compare-mutations \
        --assert-speedup 5 --record
    PYTHONPATH=src python benchmarks/bench_service.py --compare-restart \
        --assert-speedup 10 --record
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, List, Optional, Tuple

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_service.json"

HARD_QUERY = "Qh(A) :- R1(A), R2(A, B), R3(B)"
EASY_QUERY = "Q6(A, B) :- R1(A), R2(A, B)"
HARD_SIZE = 60_000
EASY_SIZE = 2_000


# --------------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------------- #
#: Statuses the service uses for transient pushback: 429 (admission
#: control) and 503 (degraded durable storage).  Both carry Retry-After.
RETRYABLE_STATUSES = (429, 503)


class Client:
    """One persistent keep-alive connection (one per worker thread).

    With ``max_attempts > 1`` the client absorbs transient 429/503
    pushback instead of surfacing it: it honors the server's
    ``Retry-After`` hint, backing off at least that long (otherwise a
    capped exponential with jitter), and counts every retry in
    ``self.retries`` so harness summaries report retries separately from
    successes and hard errors.
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0, *,
                 max_attempts: int = 1, backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0, seed: int = 0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_attempts = max(1, max_attempts)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.retries = 0
        self._rng = random.Random(seed)
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def _roundtrip(self, path: str, body: str):
        try:
            self.conn.request("POST", path, body)
            response = self.conn.getresponse()
        except (http.client.HTTPException, OSError):
            # Keep-alive connection went stale: reconnect once.
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self.conn.request("POST", path, body)
            response = self.conn.getresponse()
        return response.status, json.loads(response.read()), response.headers

    def post(self, path: str, payload: dict) -> Tuple[int, dict]:
        body = json.dumps(payload)
        attempt = 0
        while True:
            status, parsed, headers = self._roundtrip(path, body)
            if (status not in RETRYABLE_STATUSES
                    or attempt + 1 >= self.max_attempts):
                return status, parsed
            # Capped exponential with jitter in [0.5x, 1.5x); never less
            # than the server's own Retry-After hint.
            delay = min(self.backoff_cap_s,
                        self.backoff_base_s * (2 ** attempt))
            delay *= 0.5 + self._rng.random()
            retry_after = headers.get("Retry-After")
            if retry_after:
                try:
                    delay = max(delay, float(retry_after))
                except ValueError:
                    pass
            self.retries += 1
            attempt += 1
            time.sleep(delay)

    def get(self, path: str) -> Tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def parse_url(url: str) -> Tuple[str, int]:
    stripped = url.split("//", 1)[-1].rstrip("/")
    host, _sep, port = stripped.partition(":")
    return host, int(port or 80)


# --------------------------------------------------------------------------- #
# Workload registration and request factories
# --------------------------------------------------------------------------- #
def register_workload(client: Client, mix: str, size: int) -> str:
    from repro.service.serialize import database_to_wire
    from repro.workloads.zipf import generate_zipf_path

    name = f"zipf_{mix}_{size}"
    if mix == "hard":
        database = generate_zipf_path(r2_tuples=size, alpha=1.1, seed=13)
    else:
        database = generate_zipf_path(r2_tuples=size, alpha=0.5, seed=7)
    status, body = client.post(
        "/v1/databases",
        {"name": name, "replace": True, **database_to_wire(database)},
    )
    if status != 200:
        raise SystemExit(f"registering {name} failed: {status} {body}")
    print(f"registered {name}: {body['total_tuples']} tuples")
    return name


def request_factory(mix: str, database: str) -> Callable[[int], dict]:
    if mix == "hard":
        # Targets vary per request, so batched dispatch must genuinely read
        # different k off one shared curve (not serve one memoized answer).
        return lambda i: {
            "database": database,
            "query": HARD_QUERY,
            "k": 150 + (i % 8) * 10,
            "method": "greedy",
        }
    return lambda i: {
        "database": database,
        "query": EASY_QUERY,
        "k": 1 + (i % 5),
    }


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
#: Attempts per request inside the load loops: the first try plus three
#: backed-off retries before a 429/503 is surfaced as rejected.
LOAD_MAX_ATTEMPTS = 4


def summarize(latencies_ms: List[float], wall_s: float, errors: int,
              rejected: int, retries: int = 0) -> dict:
    latencies = sorted(latencies_ms)

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(round(p / 100.0 * (len(latencies) - 1))))
        return round(latencies[index], 3)

    return {
        "requests": len(latencies),
        "errors": errors,
        "rejected": rejected,
        "retries": retries,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(len(latencies) / wall_s, 2) if wall_s else 0.0,
        "latency_ms": {
            "mean": round(statistics.fmean(latencies), 3) if latencies else 0.0,
            "p50": pct(50), "p90": pct(90), "p99": pct(99),
            "max": round(latencies[-1], 3) if latencies else 0.0,
        },
    }


def closed_loop(
    host: str,
    port: int,
    factory: Callable[[int], dict],
    *,
    concurrency: int,
    duration_s: Optional[float] = None,
    total_requests: Optional[int] = None,
    batch: bool = True,
) -> dict:
    """N workers, each issuing its next request as soon as the last returns."""
    assert (duration_s is None) != (total_requests is None)
    latencies: List[float] = []
    errors = [0]
    rejected = [0]
    retries = [0]
    lock = threading.Lock()
    counter = [0]
    stop = threading.Event()

    def next_index() -> Optional[int]:
        with lock:
            if total_requests is not None and counter[0] >= total_requests:
                return None
            counter[0] += 1
            return counter[0] - 1

    def worker(worker_index: int) -> None:
        client = Client(host, port, max_attempts=LOAD_MAX_ATTEMPTS,
                        seed=worker_index)
        try:
            while not stop.is_set():
                index = next_index()
                if index is None:
                    return
                payload = dict(factory(index))
                payload["batch"] = batch
                started = time.perf_counter()
                status, _body = client.post("/v1/solve", payload)
                elapsed = (time.perf_counter() - started) * 1000.0
                with lock:
                    if status == 200:
                        latencies.append(elapsed)
                    elif status in RETRYABLE_STATUSES:
                        rejected[0] += 1
                    else:
                        errors[0] += 1
        finally:
            with lock:
                retries[0] += client.retries
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if duration_s is not None:
        time.sleep(duration_s)
        stop.set()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    stats = summarize(latencies, wall, errors[0], rejected[0], retries[0])
    stats.update({"mode": "closed", "concurrency": concurrency, "batch": batch})
    return stats


def open_loop(
    host: str,
    port: int,
    factory: Callable[[int], dict],
    *,
    rate_rps: float,
    duration_s: float,
    max_workers: int = 32,
) -> dict:
    """Fixed arrival rate; latency includes queueing (the serving view)."""
    latencies: List[float] = []
    errors = [0]
    rejected = [0]
    retries = [0]
    lock = threading.Lock()
    interval = 1.0 / rate_rps
    total = int(rate_rps * duration_s)
    dispatch_times = [i * interval for i in range(total)]
    cursor = [0]
    start = time.perf_counter()

    def worker(worker_index: int) -> None:
        client = Client(host, port, max_attempts=LOAD_MAX_ATTEMPTS,
                        seed=worker_index)
        try:
            while True:
                with lock:
                    if cursor[0] >= total:
                        return
                    index = cursor[0]
                    cursor[0] += 1
                target = start + dispatch_times[index]
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                status, _body = client.post("/v1/solve", factory(index))
                elapsed = (time.perf_counter() - target) * 1000.0
                with lock:
                    if status == 200:
                        latencies.append(elapsed)
                    elif status in RETRYABLE_STATUSES:
                        rejected[0] += 1
                    else:
                        errors[0] += 1
        finally:
            with lock:
                retries[0] += client.retries
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(max_workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    stats = summarize(latencies, wall, errors[0], rejected[0], retries[0])
    stats.update({"mode": "open", "offered_rps": rate_rps})
    return stats


# --------------------------------------------------------------------------- #
# Batched vs per-request comparison (the >= 2x acceptance run)
# --------------------------------------------------------------------------- #
def compare_batching(host: str, port: int, database: str, *,
                     total_requests: int, concurrency: int) -> dict:
    factory = request_factory("hard", database)
    warm = Client(host, port)
    try:
        # Warm the session's evaluation cache so both runs measure dispatch
        # strategy, not the shared first join.
        status, body = warm.post("/v1/solve", {**factory(0), "batch": False})
        if status != 200:
            raise SystemExit(f"warm-up solve failed: {status} {body}")
    finally:
        warm.close()
    per_request = closed_loop(
        host, port, factory,
        concurrency=concurrency, total_requests=total_requests, batch=False,
    )
    print(f"  per-request dispatch: {per_request['throughput_rps']} req/s "
          f"(p50 {per_request['latency_ms']['p50']} ms)")
    batched = closed_loop(
        host, port, factory,
        concurrency=concurrency, total_requests=total_requests, batch=True,
    )
    print(f"  batched dispatch:     {batched['throughput_rps']} req/s "
          f"(p50 {batched['latency_ms']['p50']} ms)")
    speedup = (
        batched["throughput_rps"] / per_request["throughput_rps"]
        if per_request["throughput_rps"]
        else 0.0
    )
    print(f"  batched/per-request speedup: {speedup:.2f}x")
    return {
        "per_request": per_request,
        "batched": batched,
        "speedup": round(speedup, 3),
    }


# --------------------------------------------------------------------------- #
# Incremental insertion vs fresh re-evaluation (the >= 5x acceptance run)
# --------------------------------------------------------------------------- #
def mutation_batches(database, rounds: int, batch_size: int, seed: int):
    """Deterministic fresh R2 edges recombined from the stored endpoints.

    Recombination keeps the inserts inside the join's value domain, so a
    healthy fraction produce new witnesses -- the expensive case for a
    from-scratch rebuild and the interesting one for the delta join.
    """
    from repro.data.relation import TupleRef

    rng = random.Random(seed)
    rows = sorted(database.relation("R2").rows)
    stored = set(rows)
    batches = []
    for _ in range(rounds):
        batch = []
        attempts = 0
        while len(batch) < batch_size and attempts < batch_size * 50:
            attempts += 1
            edge = (rng.choice(rows)[0], rng.choice(rows)[1])
            if edge in stored:
                continue
            stored.add(edge)
            batch.append(TupleRef("R2", edge))
        batches.append(batch)
    return batches


def compare_mutations(host: str, port: int, database: str, *,
                      size: int, rounds: int, batch_size: int,
                      seed: int) -> dict:
    """Mixed-mutation scenario: apply insert batches, then solve.

    The incremental leg POSTs ``/v1/apply_insertions`` (delta join +
    in-place cache migration) and re-reads through a what-if probe on the
    migrated entry (a cache hit: only the probe itself runs).  The fresh
    leg re-registers the identical cumulative database under a scratch
    name (untimed -- generous to the baseline) and probes cold, which
    re-runs the full join.  Both probes answer over the same data, so the
    speedup isolates evaluation strategy.
    """
    from repro.data.relation import TupleRef
    from repro.service.serialize import database_to_wire, refs_to_json
    from repro.workloads.zipf import generate_zipf_path

    local = generate_zipf_path(r2_tuples=size, alpha=1.1, seed=13)
    # One extra batch: an untimed warm-up mutation so one-time lazy costs
    # (probe hash groups, postings) land outside the measured rounds and
    # both legs are compared in steady state.
    warm_up, *batches = mutation_batches(local, rounds + 1, batch_size, seed)
    # A fixed stored edge (never mutated) keeps the probe identical across
    # rounds and legs.
    probe = refs_to_json([TupleRef("R2", sorted(local.relation("R2").rows)[0])])
    what_if = {"database": database, "query": HARD_QUERY, "refs": probe}
    fresh_name = f"{database}_fresh"
    client = Client(host, port)
    incremental_ms: List[float] = []
    fresh_ms: List[float] = []
    try:
        # Warm the incremental session: the deltas migrate this entry.
        status, body = client.post("/v1/what_if", what_if)
        if status != 200:
            raise SystemExit(f"warm-up what-if failed: {status} {body}")
        status, body = client.post(
            "/v1/apply_insertions",
            {"database": database, "refs": refs_to_json(warm_up)},
        )
        if status != 200:
            raise SystemExit(f"warm-up insertions failed: {status} {body}")
        local.insert_tuples(warm_up)
        status, body = client.post("/v1/what_if", what_if)
        if status != 200:
            raise SystemExit(f"warm-up what-if failed: {status} {body}")

        # Phase 1 -- incremental: apply each batch, re-read through the
        # migrated entry.  All rounds run back to back so the fresh leg's
        # session churn (84k-tuple re-registrations and evictions) cannot
        # bleed GC pauses into these timings.
        incremental_reads = []
        for batch in batches:
            started = time.perf_counter()
            status, applied = client.post(
                "/v1/apply_insertions",
                {"database": database, "refs": refs_to_json(batch)},
            )
            if status != 200 or applied["added"] != len(batch):
                raise SystemExit(
                    f"apply_insertions failed: {status} {applied}")
            status, incremental = client.post("/v1/what_if", what_if)
            if status != 200:
                raise SystemExit(f"incremental what-if failed: {status}")
            incremental_ms.append((time.perf_counter() - started) * 1000.0)
            incremental_reads.append(incremental)

        # Phase 2 -- fresh: replay the same cumulative states cold.  The
        # re-registration itself is untimed (generous to the baseline);
        # only the evaluation-bearing probe is measured.
        for index, batch in enumerate(batches, 1):
            local.insert_tuples(batch)
            status, body = client.post(
                "/v1/databases",
                {"name": fresh_name, "replace": True,
                 **database_to_wire(local)},
            )
            if status != 200:
                raise SystemExit(f"re-registering failed: {status} {body}")
            started = time.perf_counter()
            status, fresh = client.post(
                "/v1/what_if", {**what_if, "database": fresh_name})
            if status != 200:
                raise SystemExit(f"fresh what-if failed: {status}")
            fresh_ms.append((time.perf_counter() - started) * 1000.0)
            incremental = incremental_reads[index - 1]
            for field in ("outputs_removed", "witnesses_removed",
                          "output_size_before", "witness_count_before"):
                if incremental[field] != fresh[field]:
                    raise SystemExit(
                        f"round {index}: incremental/fresh diverge on "
                        f"{field}: {incremental[field]} vs {fresh[field]}")
            print(f"  round {index}: +{len(batch)} tuples  "
                  f"incremental {incremental_ms[index - 1]:.1f} ms  "
                  f"fresh {fresh_ms[-1]:.1f} ms")
    finally:
        client.close()
    incremental_s = sum(incremental_ms) / 1000.0
    fresh_s = sum(fresh_ms) / 1000.0
    speedup = fresh_s / incremental_s if incremental_s else 0.0
    print(f"  incremental total {incremental_s:.2f} s, "
          f"fresh total {fresh_s:.2f} s, speedup {speedup:.2f}x")
    return {
        "rounds": rounds,
        "batch_size": batch_size,
        "seed": seed,
        "incremental": {
            "total_s": round(incremental_s, 3),
            "per_round_ms": [round(v, 2) for v in incremental_ms],
        },
        "fresh": {
            "total_s": round(fresh_s, 3),
            "per_round_ms": [round(v, 2) for v in fresh_ms],
        },
        "speedup": round(speedup, 3),
    }


# --------------------------------------------------------------------------- #
# Kill-and-restart recovery (the >= 10x acceptance run)
# --------------------------------------------------------------------------- #
def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_server(port: int, extra: List[str], log_path: Path):
    """Launch ``python -m repro serve`` bound to 127.0.0.1:port."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH", "")) if part
    )
    command = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port), *extra,
    ]
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(command, env=env, stdout=log, stderr=log)
    finally:
        log.close()


def _wait_ready(port: int, proc, log_path: Path,
                timeout_s: float = 120.0) -> float:
    """Poll /healthz until 200; returns the boot wait in seconds."""
    started = time.perf_counter()
    while time.perf_counter() - started < timeout_s:
        if proc.poll() is not None:
            raise SystemExit(
                f"server exited during boot (rc={proc.returncode}):\n"
                f"{log_path.read_text()[-2000:]}"
            )
        try:
            client = Client("127.0.0.1", port, timeout=5.0)
            try:
                status, _body = client.get("/healthz")
            finally:
                client.close()
            if status == 200:
                return time.perf_counter() - started
        except OSError:
            pass
        time.sleep(0.05)
    proc.kill()
    raise SystemExit(
        f"server on port {port} never became ready:\n"
        f"{log_path.read_text()[-2000:]}"
    )


def _kill_server(proc) -> None:
    """SIGKILL: no atexit, no flush -- the crash the recovery path is for."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait()


def compare_restart(*, size: int, rounds: int, batch_size: int,
                    seed: int) -> dict:
    """Kill ``repro serve --data-dir`` mid-flight; race the two restarts.

    Both legs measure ready-to-first-successful-solve *at the acknowledged
    version* -- the clock starts once /healthz answers (interpreter boot is
    identical in both legs) and stops at the first 200 solve that answers
    over the state clients were acknowledged before the kill.  The
    **durable** leg restarts on the surviving data dir: the first solve
    lazily rehydrates the database from the compacted snapshot plus a
    bounded log-suffix replay and rides the persisted provenance cache.
    The **fresh** leg restarts with no data dir and replays what clients
    had to do before durability: reload the CSV export of the *originally
    registered* database and replay the acknowledged request history over
    HTTP -- register, the initial solve, every acknowledged mutation batch
    (each one delta-maintained against the resident provenance, exactly as
    the live service did), and the final solve.  The CSV export and all
    batches are prepared before the kill, so neither leg's timed section
    includes workload generation.

    The probe is the poly-time query over the ``size``-tuple Zipf instance:
    an NP-hard probe would recompute its greedy cost curve identically in
    both legs (~0.4 s at 60k tuples) and only dilute the recovery delta
    being measured.
    """
    from repro.data.csvio import load_database_csv, save_database_csv
    from repro.service.serialize import database_to_wire, refs_to_json
    from repro.workloads.zipf import generate_zipf_path

    workdir = Path(tempfile.mkdtemp(prefix="bench_restart_"))
    data_dir = workdir / "data"
    csv_dir = workdir / "csv"
    log_path = workdir / "serve.log"
    local = generate_zipf_path(r2_tuples=size, alpha=1.1, seed=13)
    save_database_csv(local, csv_dir)  # the fresh leg's input (untimed)
    batches = mutation_batches(local, rounds, batch_size, seed)
    batch_wires = [refs_to_json(batch) for batch in batches]
    name = f"zipf_hard_{size}"
    solve = {"database": name, "query": EASY_QUERY, "k": 2, "batch": False}
    # Compact near the end of the mutation stream: the compaction snapshot
    # carries the evaluated provenance and absorbs the bulk of the log,
    # and the remaining records exercise log-suffix replay on restart.
    compact_after = max(2, rounds - 2)
    expected_version = 1 + rounds
    proc = None
    try:
        # --- Seed process: register, solve, write-through mutations, die.
        port = _free_port()
        proc = _spawn_server(
            port,
            ["--data-dir", str(data_dir), "--compact-after", str(compact_after)],
            log_path,
        )
        _wait_ready(port, proc, log_path)
        client = Client("127.0.0.1", port, max_attempts=5)
        status, body = client.post(
            "/v1/databases",
            {"name": name, "replace": True, **database_to_wire(local)},
        )
        if status != 200:
            raise SystemExit(f"registering {name} failed: {status} {body}")
        status, body = client.post("/v1/solve", solve)
        if status != 200:
            raise SystemExit(f"seed solve failed: {status} {body}")
        for wire in batch_wires:
            status, applied = client.post(
                "/v1/apply_insertions", {"database": name, "refs": wire}
            )
            if status != 200:
                raise SystemExit(f"apply_insertions failed: {status} {applied}")
        client.close()
        _kill_server(proc)
        print(f"  seeded {size}-tuple mix +{rounds}x{batch_size} write-through "
              f"mutations, SIGKILLed pid {proc.pid}")

        # --- Durable leg: same data dir, lazy rehydrate + warm solve.
        port = _free_port()
        proc = _spawn_server(port, ["--data-dir", str(data_dir)], log_path)
        durable_boot_s = _wait_ready(port, proc, log_path)
        client = Client("127.0.0.1", port, max_attempts=8, backoff_cap_s=1.0)
        started = time.perf_counter()
        status, durable = client.post("/v1/solve", solve)
        durable_s = time.perf_counter() - started
        if status != 200:
            raise SystemExit(f"durable-leg solve failed: {status} {durable}")
        if durable["version"] != expected_version:
            raise SystemExit(
                f"durable leg recovered version {durable['version']}, "
                f"expected {expected_version}: mutations were lost"
            )
        status, raw = client.get("/healthz")
        storage = json.loads(raw).get("storage", {}) if status == 200 else {}
        durable_retries = client.retries
        client.close()
        _kill_server(proc)
        print(f"  durable restart: first solve {durable_s * 1000.0:.1f} ms "
              f"(replayed {storage.get('replayed_records_total')} log "
              f"records over the recovered snapshot)")

        # --- Fresh leg: no data dir; CSV reload + replay of the
        # acknowledged request history (register, solve, batches, solve).
        port = _free_port()
        proc = _spawn_server(port, [], log_path)
        fresh_boot_s = _wait_ready(port, proc, log_path)
        client = Client("127.0.0.1", port, max_attempts=8, backoff_cap_s=1.0)
        started = time.perf_counter()
        reloaded = load_database_csv(csv_dir)
        status, body = client.post(
            "/v1/databases",
            {"name": name, "replace": True, **database_to_wire(reloaded)},
        )
        if status != 200:
            raise SystemExit(f"fresh re-registration failed: {status} {body}")
        status, body = client.post("/v1/solve", solve)
        if status != 200:
            raise SystemExit(f"fresh initial solve failed: {status} {body}")
        for wire in batch_wires:
            status, applied = client.post(
                "/v1/apply_insertions", {"database": name, "refs": wire}
            )
            if status != 200:
                raise SystemExit(f"fresh re-apply failed: {status} {applied}")
        status, fresh = client.post("/v1/solve", solve)
        fresh_s = time.perf_counter() - started
        if status != 200:
            raise SystemExit(f"fresh-leg solve failed: {status} {fresh}")
        if fresh["version"] != expected_version:
            raise SystemExit(
                f"fresh leg replayed to version {fresh['version']}, "
                f"expected {expected_version}"
            )
        fresh_retries = client.retries
        client.close()
        print(f"  fresh restart:   first solve {fresh_s * 1000.0:.1f} ms "
              f"(CSV reload + re-registration + {rounds} re-applied "
              f"batches + cold evaluate)")
        # Same acknowledged state, same answer: recovery changed nothing
        # but the clock.
        for field in ("output_size", "removed_outputs"):
            if field in durable and field in fresh:
                if durable[field] != fresh[field]:
                    raise SystemExit(
                        f"durable/fresh diverge on {field}: "
                        f"{durable[field]} vs {fresh[field]}"
                    )
    finally:
        if proc is not None:
            _kill_server(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    speedup = fresh_s / durable_s if durable_s else 0.0
    print(f"  restart-to-first-solve speedup: {speedup:.2f}x")
    return {
        "rounds": rounds,
        "batch_size": batch_size,
        "seed": seed,
        "compact_after": compact_after,
        "recovered_version": expected_version,
        "durable": {
            "boot_s": round(durable_boot_s, 3),
            "first_solve_s": round(durable_s, 4),
            "retries": durable_retries,
            "replayed_records": storage.get("replayed_records_total"),
            "rehydrations": storage.get("rehydrations_total"),
        },
        "fresh": {
            "boot_s": round(fresh_boot_s, 3),
            "first_solve_s": round(fresh_s, 4),
            "retries": fresh_retries,
        },
        "speedup": round(speedup, 3),
    }


# --------------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------------- #
def record_runs(path: Path, entries: List[dict]) -> None:
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    from _trajectory import load_trajectory

    trajectory = load_trajectory(path, {
        "description": "ADP service load-harness trajectory "
        "(benchmarks/bench_service.py)",
        "runs": [],
    })
    trajectory["runs"].extend(entries)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"recorded {len(entries)} run(s) to {path} "
          f"({len(trajectory['runs'])} total)")


def scrape_health(host: str, port: int) -> dict:
    client = Client(host, port)
    try:
        status, body = client.get("/healthz")
        return json.loads(body).get("metrics", {}) if status == 200 else {}
    finally:
        client.close()


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--url", help="target service (default: self-host)")
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "python", "numpy"],
                        help="backend for the self-hosted service")
    parser.add_argument("--mix", default="easy", choices=["easy", "hard"])
    parser.add_argument("--mode", default="closed",
                        choices=["closed", "open", "both"])
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds per load run")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--rate", type=float, default=200.0,
                        help="open-loop offered load (req/s)")
    parser.add_argument("--hard-size", type=int, default=HARD_SIZE,
                        help="R2 tuples of the hard-mix Zipf instance")
    parser.add_argument("--easy-size", type=int, default=EASY_SIZE)
    parser.add_argument("--batch-max", type=int, default=16)
    parser.add_argument("--compare-batching", action="store_true",
                        help="run the batched-vs-per-request hard-mix "
                        "comparison instead of a load run")
    parser.add_argument("--compare-requests", type=int, default=12)
    parser.add_argument("--compare-concurrency", type=int, default=6)
    parser.add_argument("--compare-mutations", action="store_true",
                        help="run the incremental-insert vs fresh "
                        "re-evaluation hard-mix comparison")
    parser.add_argument("--compare-restart", action="store_true",
                        help="run the kill-and-restart recovery comparison "
                        "(spawns its own repro serve subprocesses)")
    parser.add_argument("--mutation-rounds", type=int, default=5)
    parser.add_argument("--mutation-batch", type=int, default=500,
                        help="tuples inserted per mutation round")
    parser.add_argument("--mutation-seed", type=int,
                        default=int(os.environ.get("REPRO_TEST_SEED", 101)),
                        help="batch-generation seed (default: "
                        "REPRO_TEST_SEED or 101)")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="fail unless the comparison speedup >= this")
    parser.add_argument("--assert-throughput", type=float, default=None,
                        help="fail unless closed-loop req/s >= this")
    parser.add_argument("--record", nargs="?", const=str(RECORD_PATH),
                        default=None, metavar="PATH",
                        help=f"append results to PATH "
                        f"(default: {RECORD_PATH.name})")
    args = parser.parse_args(argv)

    if args.compare_restart:
        if args.url:
            parser.error("--compare-restart manages its own server "
                         "subprocesses and cannot target --url")
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        print(f"kill-and-restart recovery ({args.hard_size}-tuple zipf, "
              f"{args.mutation_rounds} x {args.mutation_batch} write-through "
              f"mutations, seed {args.mutation_seed}):")
        comparison = compare_restart(
            size=args.hard_size,
            rounds=args.mutation_rounds,
            batch_size=args.mutation_batch,
            seed=args.mutation_seed,
        )
        entry = {"timestamp": stamp, "target": "subprocess",
                 "backend": "server-side", "kind": "compare_restart",
                 "hard_size": args.hard_size, **comparison}
        if args.record:
            record_runs(Path(args.record), [entry])
        if (args.assert_speedup is not None
                and comparison["speedup"] < args.assert_speedup):
            print(f"FAILED: restart speedup {comparison['speedup']:.2f}x "
                  f"< required {args.assert_speedup:g}x")
            return 1
        print("service load run ok")
        return 0

    runner = None
    if args.url:
        host, port = parse_url(args.url)
    else:
        from repro.service.http import ServiceConfig, ServiceRunner

        runner = ServiceRunner(ServiceConfig(
            port=0, backend=args.backend,
            max_batch=args.batch_max,
            max_pending=max(64, args.concurrency * 4),
        )).start()
        host, port = "127.0.0.1", runner.port
        print(f"self-hosted service on {runner.url} (backend={args.backend})")

    failures: List[str] = []
    entries: List[dict] = []
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    base = {
        "timestamp": stamp,
        "target": args.url or "self-host",
        "backend": args.backend if not args.url else "server-side",
    }
    setup = Client(host, port)
    try:
        if args.compare_batching:
            database = register_workload(setup, "hard", args.hard_size)
            print(f"batched vs per-request dispatch "
                  f"({args.compare_requests} requests, "
                  f"concurrency {args.compare_concurrency}, "
                  f"{args.hard_size}-tuple zipf):")
            comparison = compare_batching(
                host, port, database,
                total_requests=args.compare_requests,
                concurrency=args.compare_concurrency,
            )
            entries.append({**base, "kind": "compare_batching",
                            "hard_size": args.hard_size, **comparison})
            if (args.assert_speedup is not None
                    and comparison["speedup"] < args.assert_speedup):
                failures.append(
                    f"batched speedup {comparison['speedup']:.2f}x "
                    f"< required {args.assert_speedup:g}x"
                )
            if comparison["per_request"]["errors"] or comparison["batched"]["errors"]:
                failures.append("comparison runs saw request errors")
        elif args.compare_mutations:
            database = register_workload(setup, "hard", args.hard_size)
            print(f"incremental insertions vs fresh re-evaluation "
                  f"({args.mutation_rounds} rounds x {args.mutation_batch} "
                  f"tuples, {args.hard_size}-tuple zipf, "
                  f"seed {args.mutation_seed}):")
            comparison = compare_mutations(
                host, port, database,
                size=args.hard_size,
                rounds=args.mutation_rounds,
                batch_size=args.mutation_batch,
                seed=args.mutation_seed,
            )
            entries.append({**base, "kind": "compare_mutations",
                            "hard_size": args.hard_size, **comparison})
            if (args.assert_speedup is not None
                    and comparison["speedup"] < args.assert_speedup):
                failures.append(
                    f"incremental speedup {comparison['speedup']:.2f}x "
                    f"< required {args.assert_speedup:g}x"
                )
        else:
            size = args.hard_size if args.mix == "hard" else args.easy_size
            database = register_workload(setup, args.mix, size)
            factory = request_factory(args.mix, database)
            if args.mode in ("closed", "both"):
                stats = closed_loop(
                    host, port, factory,
                    concurrency=args.concurrency, duration_s=args.duration,
                )
                print(f"closed loop [{args.mix}]: {stats['throughput_rps']} req/s, "
                      f"p50 {stats['latency_ms']['p50']} ms, "
                      f"p99 {stats['latency_ms']['p99']} ms, "
                      f"errors {stats['errors']}")
                entries.append({**base, "kind": "load", "mix": args.mix,
                                "size": size, **stats})
                if stats["errors"]:
                    failures.append(f"closed loop saw {stats['errors']} errors")
                if (args.assert_throughput is not None
                        and stats["throughput_rps"] < args.assert_throughput):
                    failures.append(
                        f"closed-loop throughput {stats['throughput_rps']} req/s "
                        f"< required {args.assert_throughput:g}"
                    )
            if args.mode in ("open", "both"):
                stats = open_loop(
                    host, port, factory,
                    rate_rps=args.rate, duration_s=args.duration,
                    max_workers=max(8, args.concurrency * 2),
                )
                print(f"open loop [{args.mix}] @ {args.rate:g} req/s offered: "
                      f"served {stats['throughput_rps']} req/s, "
                      f"p50 {stats['latency_ms']['p50']} ms, "
                      f"p99 {stats['latency_ms']['p99']} ms, "
                      f"rejected {stats['rejected']}")
                entries.append({**base, "kind": "load", "mix": args.mix,
                                "size": size, **stats})
                if stats["errors"]:
                    failures.append(f"open loop saw {stats['errors']} errors")
        metrics = scrape_health(host, port)
        if metrics:
            print(f"service metrics: {json.dumps(metrics, sort_keys=True)}")
            entries[-1]["service_metrics"] = metrics
    finally:
        setup.close()
        if runner is not None:
            runner.close()
            import multiprocessing

            leaked = multiprocessing.active_children()
            if leaked:
                failures.append(f"leaked worker processes: {leaked!r}")

    if args.record:
        record_runs(Path(args.record), entries)
    if failures:
        for failure in failures:
            print(f"FAILED: {failure}")
        return 1
    print("service load run ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
