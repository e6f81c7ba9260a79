"""The benchmark workloads, registered by name in :data:`SCENARIOS`.

Each scenario generates its inputs from the seed and builds its reference
answers in-process when it is constructed (off the clock).  ``run`` then
drives ``repro serve`` processes over HTTP and returns a :class:`Pass`:
every end-to-end metric, the request tally and the canonical answers (so
a traced pass can be compared with an untraced one).

End-to-end metrics, as each workload defines them (tail percentiles,
write latencies and every time before scaling are printed beside them,
without a bound).  Each time is scaled by the :class:`~harness.SpeedGauge`
factor of the chunk of work it was measured in:

==============  ========================  ========================  ==========================
metric          hard-60k                  easy-2k                   htap-60k
==============  ========================  ========================  ==========================
setup_s         spawn -> /healthz 200 -> databases registered (median of the run's boots)
throughput_rps  closed-loop solves/s      closed-loop solves/s      requests per busy second
                                                                    of the write/read loop
latency_ms.p50  closed-loop solve         open-loop solve, timed    what-if + Q6 solve issued
                                          from its due time         right after the writes
cold_solve_s    first solve after a       as hard-60k, averaged     /healthz ready -> first 200
                re-registration           over groups of 10         solve, SIGKILL + restart
peak_rss_mb     server ``VmHWM`` (peak resident set)
==============  ========================  ========================  ==========================
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import (
    NPROC,
    LoopResult,
    Server,
    SpeedGauge,
    Tally,
    canonical,
    chunked,
    closed_loop,
    dir_bytes,
    open_loop,
    percentile,
    post,
)
from inputs import EASY_QUERY, HARD_QUERY, mutation_rounds, wire_rows, zipf_path
from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.service.serialize import refs_to_json
from repro.session import Session


@dataclass
class Pass:
    """One measured pass of a workload against one server configuration."""

    metrics: Dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    #: request key -> canonical response (volatile fields stripped)
    answers: Dict[str, str] = field(default_factory=dict)
    #: client latency of every /v1/solve request (ms)
    solve_ms: List[float] = field(default_factory=list)
    #: details printed with the run (not part of the result line)
    info: Dict[str, object] = field(default_factory=dict)
    #: metrics before scaling by the gauge (printed, not reported)
    unscaled: Dict[str, float] = field(default_factory=dict)
    gauge: SpeedGauge = field(default_factory=SpeedGauge)


def _boot(work: Path, traced: bool, args: Sequence[str],
          body: dict) -> Tuple[Server, float]:
    """Start a server and register ``body``; time both together."""
    server = Server(work, traced=traced, args=args)
    started = time.perf_counter()
    server.start()
    client = server.client()
    try:
        status, reply, _ms = post(client, "/v1/databases", body)
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"registering {body['name']} failed: {status} {reply}")
    return server, time.perf_counter() - started


def _setup(work: Path, traced: bool, setups: int, body: dict, result: Pass,
           args: Callable[[int], Sequence[str]] = lambda _index: ()) -> Server:
    """Boot ``setups`` times (keeping the last server); record ``setup_s``."""
    samples = []
    raw = []
    server = None
    for index in range(setups):
        if server is not None:
            server.kill()
        (server, seconds), factor = result.gauge.scaled(
            lambda: _boot(work, traced, args(index), body))
        samples.append(seconds * factor)
        raw.append(seconds)
    result.metrics["setup_s"] = statistics.median(samples)
    result.unscaled["setup_s"] = statistics.median(raw)
    return server


def _loop_metrics(loop: LoopResult) -> Dict[str, float]:
    return {
        "latency_ms.p50": percentile(loop.latencies_ms, 50),
        "latency_ms.p90": percentile(loop.latencies_ms, 90),
    }


class _SolveScenario:
    """Shared shape of the read-only workloads (hard-60k, easy-2k)."""

    name = ""
    database = ""
    query = ""
    size = 0
    alpha = 0.0
    ks: Sequence[int] = ()
    method: Optional[str] = None
    #: Load segments per run, each preceded by ``cold_solves // segments``
    #: re-registrations with their cold solve.
    segments = 1
    cold_solves = 1
    #: Consecutive cold solves averaged into one sample before the median.
    cold_group = 1
    #: Load runs in chunks of about this many seconds, a gauge probe between.
    chunk_s = 1.0
    #: See :class:`~harness.SpeedGauge`.
    speed_elasticity = 1.0

    def __init__(self, seed: int) -> None:
        database = zipf_path(self.size, self.alpha, seed)
        self.register_body = {"name": self.database, "replace": True,
                              **wire_rows(database)}
        with Session(database) as session:
            overrides = {"heuristic": self.method} if self.method else {}
            curve = session.curve(self.query, max(self.ks), **overrides)
            self.total = session.output_size(self.query)
        self.expected = {
            k: (int(curve.cost(k)), sorted(str(ref) for ref in curve.solution(k)))
            for k in self.ks
        }

    def request(self, index: int) -> dict:
        payload = {"database": self.database, "query": self.query,
                   "k": self.ks[index % len(self.ks)]}
        if self.method:
            payload["method"] = self.method
        return payload

    def _next_request(self, _index: int) -> dict:
        """The run's next load request: ``k`` keeps cycling across chunks."""
        return self.request(next(self._sent))

    def check(self, payload: dict, status: int, body: dict) -> bool:
        objective, removed = self.expected[payload["k"]]
        return (body.get("objective") == objective
                and body.get("removed") == removed
                and body.get("output_size") == self.total)

    def _cold(self, server: Server, result: Pass, rounds: int,
              writes: List[float]) -> List[float]:
        """Fresh re-registrations, each followed by one cold solve (its ms)."""
        colds: List[float] = []
        client = server.client()
        try:
            for _ in range(rounds):
                status, body, ms = post(client, "/v1/databases", self.register_body)
                if not result.tally.record(status == 200, f"register {status}"):
                    continue
                writes.append(ms)
                payload = self.request(-1)
                status, body, ms = post(client, "/v1/solve", payload)
                if result.tally.record(status == 200 and self.check(payload, status, body),
                                       f"cold {status} {str(body)[:200]}"):
                    result.answers[f"k={payload['k']}"] = canonical(body)
                    result.solve_ms.append(ms)
                    colds.append(ms)
        finally:
            client.close()
        return colds

    def run(self, work: Path, seconds: float, *, traced: bool,
            setups: int) -> Pass:
        """Boot, then ``segments`` rounds of cold solves and load chunks.

        Interleaving spreads every metric's samples over the whole run, so
        a burst of machine noise shifts all of them a little rather than
        one of them a lot.
        """
        result = Pass(gauge=SpeedGauge(self.speed_elasticity))
        self._sent = itertools.count()
        writes: List[float] = []
        colds: List[float] = []
        raw_colds: List[float] = []
        loads: Dict[str, List[Tuple[LoopResult, LoopResult]]] = {}
        groups = self.cold_solves // self.segments // self.cold_group
        server = _setup(work, traced, setups, self.register_body, result)
        try:
            for _ in range(self.segments):
                for _ in range(groups):
                    group, factor = result.gauge.scaled(
                        lambda: self._cold(server, result, self.cold_group, writes))
                    if group:
                        raw_colds.append(statistics.fmean(group) / 1000.0)
                        colds.append(raw_colds[-1] * factor)
                for phase, loop in self._load(server, result,
                                              seconds / self.segments).items():
                    loads.setdefault(phase, []).append(loop)
            result.info["dispatch"] = server.dispatch_counts()
            result.metrics["peak_rss_mb"] = server.peak_rss_mb()
            server.dump_spans()
        finally:
            server.kill()
        result.metrics["cold_solve_s"] = percentile(colds, 50)
        result.unscaled["cold_solve_s"] = percentile(raw_colds, 50)
        result.unscaled["register_ms.p50"] = percentile(writes, 50)
        raw = {phase: LoopResult.merge([r for r, _s in parts])
               for phase, parts in loads.items()}
        scaled = {phase: LoopResult.merge([s for _r, s in parts])
                  for phase, parts in loads.items()}
        for loop in raw.values():
            result.solve_ms.extend(loop.latencies_ms)
        self._metrics(raw, result.unscaled, {})
        self._metrics(scaled, result.metrics, result.info)
        return result

    def _closed(self, server: Server, result: Pass,
                seconds: float) -> Tuple[LoopResult, LoopResult]:
        return chunked(result.gauge, seconds, self.chunk_s, lambda chunk: closed_loop(
            server, self._next_request, self.check, result.tally,
            connections=NPROC, seconds=chunk))


class Hard(_SolveScenario):
    """``Qh`` on the 60k-edge Zipf path: the greedy curve dominates."""

    name = "hard-60k"
    database = "hard"
    query = HARD_QUERY
    size = 60_000
    alpha = 1.1
    ks = tuple(range(150, 221, 10))
    method = "greedy"
    segments = 6
    cold_solves = 6
    #: Shorter than one solve: each chunk is one round of ``nproc``
    #: requests sent together (the batcher joins them).
    chunk_s = 0.5

    def _load(self, server: Server, result: Pass,
              seconds: float) -> Dict[str, Tuple[LoopResult, LoopResult]]:
        return {"closed": self._closed(server, result, seconds)}

    def _metrics(self, loops: Dict[str, LoopResult], metrics: Dict[str, float],
                 info: Dict[str, object]) -> None:
        loop = loops["closed"]
        metrics["throughput_rps"] = loop.throughput_rps
        metrics.update(_loop_metrics(loop))
        info["closed_loop"] = {"solves": len(loop.latencies_ms),
                               "connections": NPROC}


class Easy(_SolveScenario):
    """``Q6`` on the 2k-edge Zipf path: service layers dominate."""

    name = "easy-2k"
    database = "easy"
    query = EASY_QUERY
    size = 2_000
    alpha = 0.5
    ks = tuple(range(1, 21))
    segments = 8
    cold_solves = 160
    #: A request is a few ms, partly fixed waiting (the 2 ms batch linger,
    #: socket wake-ups): across runs spanning a 2x swing of probe speed its
    #: times moved with the probe's to the power 0.6-0.8.
    speed_elasticity = 0.65
    #: A cold solve here takes a few ms, shorter than the machine-speed
    #: swings of a shared 2-core box; averaging 10 keeps the median steady.
    cold_group = 10
    #: Open-loop arrival rate, well below the ~280 req/s one connection
    #: sustains, so queueing stays short unless something stalls.
    rate = 100.0

    def _load(self, server: Server, result: Pass,
              seconds: float) -> Dict[str, Tuple[LoopResult, LoopResult]]:
        """Two thirds at the fixed rate, then one third at capacity."""
        return {
            "open": chunked(result.gauge, seconds * 2 / 3, self.chunk_s,
                            lambda chunk: open_loop(
                                server, self._next_request, self.check, result.tally,
                                connections=NPROC, rate=self.rate, seconds=chunk)),
            "closed": self._closed(server, result, seconds / 3),
        }

    def _metrics(self, loops: Dict[str, LoopResult], metrics: Dict[str, float],
                 info: Dict[str, object]) -> None:
        arrivals = loops["open"]
        metrics.update(_loop_metrics(arrivals))
        metrics["throughput_rps"] = loops["closed"].throughput_rps
        info["open_loop"] = {
            "rate_rps": self.rate,
            "served": len(arrivals.latencies_ms),
            "latency_ms.p99": percentile(arrivals.latencies_ms, 99),
            "late_ms.p50": percentile(arrivals.lateness_ms, 50),
            "late_ms.p99": percentile(arrivals.lateness_ms, 99),
        }


class _Oracle:
    """Expected htap answers from a plain edge set (independent of repro).

    Every R2 edge joins exactly one ``R1`` and one ``R3`` tuple (both hold
    their whole domain and are never mutated), so ``Qh``'s witnesses are
    the live edges and its outputs the live ``A`` values; ``Q6``'s optimum
    deletes the ``R1`` tuples of the highest-degree ``A`` values (ties by
    ``repr``, as the singleton curve orders them).
    """

    def __init__(self, edges) -> None:
        self.live = set(edges)
        self.degree = Counter(a for a, _b in self.live)

    def insert(self, refs: List[TupleRef]) -> None:
        for ref in refs:
            self.live.add(ref.values)
            self.degree[ref.values[0]] += 1

    def delete(self, refs: List[TupleRef]) -> None:
        for ref in refs:
            self.live.discard(ref.values)
            self.degree[ref.values[0]] -= 1
            if not self.degree[ref.values[0]]:
                del self.degree[ref.values[0]]

    def what_if(self, probe: List[TupleRef]) -> Dict[str, int]:
        dead = {ref.values for ref in probe} & self.live
        hit = Counter(a for a, _b in dead)
        return {
            "outputs_removed": sum(1 for a, n in hit.items() if n == self.degree[a]),
            "witnesses_removed": len(dead),
            "output_size_before": len(self.degree),
            "witness_count_before": len(self.live),
        }

    def q6(self, k: int) -> Tuple[int, List[str]]:
        ranked = sorted(self.degree.items(), key=lambda item: (-item[1], repr(item[0])))
        removed, gained = [], 0
        for a, n in ranked:
            if gained >= k:
                break
            removed.append(str(TupleRef("R1", (a,))))
            gained += n
        return len(removed), sorted(removed)


class Htap:
    """Writes beside reads on ``repro serve --data-dir`` (fsync per write)."""

    name = "htap-60k"
    size = 60_000
    alpha = 1.1
    inserts = 500
    deletes = 250
    probe = 50
    q6_ks = tuple(range(1, 21))
    recoveries = 7
    #: Records the server's compaction threshold (``--compact-after``,
    #: left at its default) lets accumulate before rewriting the snapshot.
    compact_after = 64
    #: Log records left for recovery to replay after the write phase.
    replay_suffix = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.database_rows = wire_rows(zipf_path(self.size, self.alpha, seed))
        self.register_body = {"name": "htap", "replace": True, **self.database_rows}

    def rounds_for(self, seconds: float) -> int:
        """Fixed work per ``--seconds``: 32 rounds per 20 s, plus the suffix.

        Two writes per round, so the write count is ``compact_after``
        times a whole number plus ``replay_suffix``: every run compacts
        the same number of times and recovery always replays the same
        log suffix.  A round takes 0.45-0.75 s on a shared 2-core box.
        """
        blocks = max(1, -(-int(seconds) // 20))
        return blocks * self.compact_after // 2 + self.replay_suffix // 2

    def run(self, work: Path, seconds: float, *, traced: bool,
            setups: int) -> Pass:
        result = Pass()
        base = zipf_path(self.size, self.alpha, self.seed)
        rounds = mutation_rounds(base, self.rounds_for(seconds), self.inserts,
                                 self.deletes, self.seed)
        edges = sorted(base.relation("R2").rows)
        rng = random.Random(self.seed + 1)
        oracle = _Oracle(edges)
        data_dir = work / f"data-{setups - 1}"
        server = _setup(work, traced, setups, self.register_body, result,
                        lambda index: ["--data-dir", str(work / f"data-{index}")])
        wire_bytes = len(canonical(self.database_rows))
        version = 1
        #: (insert and delete ms, their factor, read ms, its factor) per round
        timed: List[Tuple[List[float], float, float, float]] = []
        client = server.client()

        def write(inserted: List[TupleRef], deleted: List[TupleRef]) -> List[float]:
            nonlocal version, wire_bytes
            writes = []
            for path, refs, field_name, apply in (
                ("/v1/apply_insertions", inserted, "added", oracle.insert),
                ("/v1/apply_deletions", deleted, "removed", oracle.delete),
            ):
                body = {"database": "htap", "refs": refs_to_json(refs)}
                wire_bytes += len(canonical(body))
                status, reply, ms = post(client, path, body)
                version += 1
                ok = (status == 200 and reply.get(field_name) == len(refs)
                      and reply.get("version") == version)
                if result.tally.record(ok, f"{path} {status} {str(reply)[:200]}"):
                    writes.append(ms)
                apply(refs)
            return writes

        try:
            # Warm both queries: every later read follows a version bump and
            # reads a migrated cache entry.
            self._read(client, result, oracle, edges, rng, version, "warm", 1)
            for number, (inserted, deleted) in enumerate(rounds):
                # The gauge probes before the writes, between them and the
                # read, and after the read.
                writes, write_factor = result.gauge.scaled(lambda: write(inserted, deleted))
                read, read_factor = result.gauge.scaled(lambda: self._read(
                    client, result, oracle, edges, rng, version, str(number),
                    self.q6_ks[number % len(self.q6_ks)]))
                timed.append((writes, write_factor, read, read_factor))
            pre_kill = {"database": "htap", "query": EASY_QUERY, "k": 3}
            status, before, ms = post(client, "/v1/solve", pre_kill)
            if result.tally.record(
                    status == 200 and before.get("version") == version
                    and (before.get("objective"), before.get("removed")) == oracle.q6(3),
                    f"pre-kill solve {status} {str(before)[:200]}"):
                result.solve_ms.append(ms)
            self._cross_check(oracle, result)
            result.metrics["peak_rss_mb"] = server.peak_rss_mb()
            server.dump_spans()
        finally:
            client.close()
            server.kill()
        for metrics, scale in ((result.unscaled, False), (result.metrics, True)):
            writes = [ms * (factor if scale else 1.0)
                      for round_writes, factor, _read, _f in timed for ms in round_writes]
            reads = [read * (factor if scale else 1.0) for _w, _f, read, factor in timed]
            # Each read is two requests (what-if, then solve).
            requests = len(writes) + 2 * len(reads)
            metrics["throughput_rps"] = requests / ((sum(writes) + sum(reads)) / 1000.0)
            metrics["latency_ms.p50"] = percentile(reads, 50)
            metrics["latency_ms.p90"] = percentile(reads, 90)
            metrics["write_ms.p50"] = percentile(writes, 50)
            metrics["write_ms.p90"] = percentile(writes, 90)
        result.metrics["cold_solve_s"], result.unscaled["cold_solve_s"] = self._recover(
            work, traced, data_dir, pre_kill, before, version, result)
        result.info["htap"] = {
            "rounds": len(rounds),
            "writes": len(writes),
            "space_amp": dir_bytes(data_dir) / wire_bytes,
            "data_dir_bytes": dir_bytes(data_dir),
            "wire_bytes": wire_bytes,
        }
        result.answers["recovered"] = canonical(before)
        return result

    def _read(self, client, result: Pass, oracle: _Oracle, edges, rng,
              version: int, key: str, k: int) -> float:
        """What-if on ``Qh`` then a ``Q6`` solve; returns their total ms."""
        probe = [TupleRef("R2", edge) for edge in rng.sample(edges, self.probe)]
        what_if = {"database": "htap", "query": HARD_QUERY,
                   "refs": refs_to_json(probe)}
        status, counts, what_if_ms = post(client, "/v1/what_if", what_if)
        expected = oracle.what_if(probe)
        ok = status == 200 and counts.get("version") == version and all(
            counts.get(name) == value for name, value in expected.items())
        if result.tally.record(ok, f"what_if {status} {str(counts)[:200]} != {expected}"):
            result.answers[f"{key}.what_if"] = canonical(counts)
        solve = {"database": "htap", "query": EASY_QUERY, "k": k}
        status, body, solve_ms = post(client, "/v1/solve", solve)
        objective, removed = oracle.q6(k)
        ok = (status == 200 and body.get("version") == version
              and body.get("objective") == objective
              and body.get("removed") == removed)
        if result.tally.record(ok, f"solve {status} {str(body)[:200]}"):
            result.answers[f"{key}.q6"] = canonical(body)
            result.solve_ms.append(solve_ms)
        return what_if_ms + solve_ms

    def _cross_check(self, oracle: _Oracle, result: Pass) -> None:
        """Validate the oracle itself against a Session on the final state."""
        schema = self.database_rows["schema"]
        rows = self.database_rows["rows"]
        database = Database([
            Relation("R1", schema["R1"], map(tuple, rows["R1"])),
            Relation("R2", schema["R2"], oracle.live),
            Relation("R3", schema["R3"], map(tuple, rows["R3"])),
        ])
        probe = [TupleRef("R2", edge) for edge in sorted(oracle.live)[:self.probe]]
        with Session(database) as session:
            entry = session.what_if(probe, HARD_QUERY).single
            solution = session.solve(EASY_QUERY, 3)
        expected = oracle.what_if(probe)
        actual = {
            "outputs_removed": entry.outputs_removed,
            "witnesses_removed": entry.witnesses_removed,
            "output_size_before": entry.before.output_count(),
            "witness_count_before": entry.before.witness_count(),
        }
        objective, removed = oracle.q6(3)
        ok = (actual == expected and solution.size == objective
              and sorted(str(ref) for ref in solution.removed) == removed)
        result.tally.record(ok, f"oracle disagrees with Session: {actual} {expected}")

    def _recover(self, work: Path, traced: bool, data_dir: Path, solve: dict,
                 before: dict, version: int, result: Pass) -> Tuple[float, float]:
        """Median ready -> first correct solve over SIGKILL+restart cycles.

        Returns the median scaled by the gauge and the median as measured.
        """
        samples, raw = [], []
        for _ in range(self.recoveries):
            server = Server(work, traced=traced, args=["--data-dir", str(data_dir)])
            server.start()
            client = server.client(max_attempts=20, backoff_cap_s=0.05)
            try:
                # The gauge probes after the boot, right around the solve.
                result.gauge.probe()
                (status, body, ms), factor = result.gauge.scaled(
                    lambda: post(client, "/v1/solve", solve))
                ok = (status == 200 and body.get("version") == version
                      and canonical(body) == canonical(before))
                if result.tally.record(ok, f"recovered {status} {str(body)[:200]}"):
                    samples.append(ms / 1000.0 * factor)
                    raw.append(ms / 1000.0)
                server.dump_spans()
            finally:
                client.close()
                server.kill()
        return percentile(samples, 50), percentile(raw, 50)


#: Workload name -> scenario class (constructed with the run's seed).
SCENARIOS: Dict[str, Callable[[int], object]] = {
    Hard.name: Hard,
    Easy.name: Easy,
    Htap.name: Htap,
}
