"""Server processes, load loops and statistics of the benchmark.

The load generator is this one process: at most ``nproc`` threads, each
with its own keep-alive connection (the ``Client`` of
``benchmarks/bench_service.py``).  The server under test is always a
separate ``repro serve`` process -- or, for traced runs, the same entry
point behind ``perfbench/traced_server.py``.  Load runs in short chunks
with a :class:`SpeedGauge` probe between them, so every reported time
can be scaled to one reference machine speed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from bench_service import Client, _free_port, _kill_server

ROOT = Path(__file__).resolve().parents[1]
NPROC = os.cpu_count() or 1
T = TypeVar("T")

#: Every server process this run started (checked for leaks at exit).
STARTED: List[subprocess.Popen] = []


class Server:
    """One ``repro serve`` process on an ephemeral localhost port."""

    def __init__(self, workdir: Path, *, traced: bool,
                 args: Sequence[str] = ()) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.traced = traced
        self.args = list(args)
        self.log_path = workdir / "serve.log"
        self.dump_prefix = workdir / "spans"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._dumps = 0

    def start(self) -> None:
        """Spawn the process and return once ``/healthz`` answers 200."""
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
        )
        serve = ["serve", "--host", "127.0.0.1", "--port", str(self.port),
                 *self.args]
        if self.traced:
            command = [sys.executable, str(ROOT / "perfbench" / "traced_server.py"),
                       str(self.dump_prefix), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(command, env=env, cwd=ROOT,
                                         stdout=log, stderr=log)
        STARTED.append(self.proc)
        self._dumps = 0
        self._wait_ready()

    def _wait_ready(self, timeout_s: float = 120.0) -> None:
        # Polls every 2 ms (bench_service's _wait_ready sleeps 50 ms), so
        # boot time is part of setup_s at millisecond resolution.
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during boot:\n{self._log_tail()}")
            client = Client("127.0.0.1", self.port, timeout=5.0)
            try:
                status, _body = client.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            finally:
                client.close()
            time.sleep(0.002)
        raise RuntimeError(f"server never became ready:\n{self._log_tail()}")

    def _log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def client(self, **kwargs) -> Client:
        return Client("127.0.0.1", self.port, **kwargs)

    def dispatch_counts(self) -> Dict[str, int]:
        """The micro-batcher counters ``/healthz`` reports."""
        client = self.client()
        try:
            _status, raw = client.get("/healthz")
        finally:
            client.close()
        metrics = json.loads(raw)["metrics"]
        return {name: metrics[name] for name in (
            "batches_total", "batched_requests_total", "singleton_dispatch_total")}

    def peak_rss_mb(self) -> float:
        """The process's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def dump_spans(self, timeout_s: float = 30.0) -> None:
        """Ask a traced server to write its spans; wait for the file."""
        if not self.traced:
            return
        path = Path(f"{self.dump_prefix}.{self.proc.pid}.{self._dumps}.json")
        self._dumps += 1
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + timeout_s
        while not path.exists():
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"no span dump at {path}")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL and reap (no flush, no shutdown compaction)."""
        if self.proc is not None:
            _kill_server(self.proc)


def live_children() -> List[int]:
    """PIDs of this process's children that have not been reaped."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            children.append(int(entry))
    return children


def stop_all() -> List[int]:
    """Kill every server still running; return the PIDs that had leaked."""
    leaked = [proc.pid for proc in STARTED if proc.poll() is None]
    for proc in STARTED:
        _kill_server(proc)
    return leaked


# --------------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------------- #
def post(client: Client, path: str, payload: dict) -> Tuple[int, dict, float]:
    """One timed request: ``(status, body, milliseconds)``."""
    started = time.perf_counter()
    status, body = client.post(path, payload)
    return status, body, (time.perf_counter() - started) * 1000.0


@dataclass
class Tally:
    """Requests attempted and failed (non-2xx or wrong answer)."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)
        return ok

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)


class SpeedGauge:
    """The machine's current speed, read off a fixed pure-Python probe.

    A shared host runs the same code at speeds that swing by about 1.5x
    within seconds and by up to 2x over minutes, so raw wall times of two runs
    of one commit can differ by more than any useful regression bound.
    The probe -- dict counting, a sort and set lookups over 12,000 seeded
    tuples, the kind of work the server does per request -- runs in this
    process while the server idles, before and after each chunk of
    measured work.  :meth:`scaled` returns the chunk's factor
    ``(REFERENCE_MS / mean(probe before, probe after)) ** elasticity``: a
    time multiplied by it reads as it would at the speed where the probe
    takes ``REFERENCE_MS``.  Slower program code still reads slower; a
    slower machine does not.  ``elasticity`` is how strongly a workload's
    times follow the probe's: 1 for CPU-bound work, less where fixed waits
    (timers, socket wake-ups) make up part of each request.
    """

    REFERENCE_MS = 20.0

    def __init__(self, elasticity: float = 1.0) -> None:
        self.elasticity = elasticity
        rng = random.Random(0)
        self._edges = [(f"a{rng.randrange(5000)}", f"b{rng.randrange(20000)}")
                       for _ in range(12000)]
        self.samples_ms: List[float] = []

    def probe(self) -> float:
        """Run the probe once; record and return its milliseconds."""
        started = time.perf_counter()
        degree: Dict[str, int] = {}
        for a, _b in self._edges:
            degree[a] = degree.get(a, 0) + 1
        ranked = sorted(self._edges, key=lambda edge: (-degree[edge[0]], edge))
        kept = set(ranked[::2])
        if sum(1 for edge in self._edges if edge in kept) != len(kept):
            raise RuntimeError("speed probe miscounted")
        ms = (time.perf_counter() - started) * 1000.0
        self.samples_ms.append(ms)
        return ms

    def scaled(self, work: Callable[[], T]) -> Tuple[T, float]:
        """``(work(), factor)``, probing right before and right after it."""
        before = self.samples_ms[-1] if self.samples_ms else self.probe()
        value = work()
        after = self.probe()
        return value, (2.0 * self.REFERENCE_MS / (before + after)) ** self.elasticity

    def info(self) -> Dict[str, float]:
        return {"elasticity": self.elasticity,
                "probes": len(self.samples_ms),
                "probe_ms.p10": percentile(self.samples_ms, 10),
                "probe_ms.p50": percentile(self.samples_ms, 50),
                "probe_ms.p90": percentile(self.samples_ms, 90)}


@dataclass
class LoopResult:
    latencies_ms: List[float]
    wall_s: float
    #: Open loop only: how late each request left relative to its due time.
    lateness_ms: List[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return len(self.latencies_ms) / self.wall_s

    def scaled(self, factor: float) -> "LoopResult":
        """Every time multiplied by ``factor`` (see :class:`SpeedGauge`)."""
        return LoopResult([ms * factor for ms in self.latencies_ms],
                          self.wall_s * factor,
                          [ms * factor for ms in self.lateness_ms])

    @classmethod
    def merge(cls, loops: Sequence["LoopResult"]) -> "LoopResult":
        """Several chunks of one loop as if they had run back to back."""
        return cls(
            [ms for loop in loops for ms in loop.latencies_ms],
            sum(loop.wall_s for loop in loops),
            [ms for loop in loops for ms in loop.lateness_ms],
        )


Check = Callable[[dict, int, dict], bool]


def _check_connections(connections: int) -> None:
    if connections > NPROC:
        raise ValueError(f"{connections} connections exceed nproc={NPROC}")


def closed_loop(server: Server, make: Callable[[int], dict], check: Check,
                tally: Tally, *, connections: int, seconds: float) -> LoopResult:
    """``connections`` clients, each sending its next request on a reply.

    Wall time runs from the start to the last reply, so a request still in
    flight at the deadline counts with its whole latency.
    """
    _check_connections(connections)
    lock = threading.Lock()
    latencies: List[float] = []
    counter = [0]
    start = time.perf_counter()
    deadline = start + seconds
    last = [start]

    def worker() -> None:
        client = server.client()
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = counter[0]
                    counter[0] += 1
                payload = make(index)
                status, body, ms = post(client, "/v1/solve", payload)
                with lock:
                    if tally.record(status == 200 and check(payload, status, body),
                                    f"{status} {str(body)[:200]}"):
                        latencies.append(ms)
                    last[0] = time.perf_counter()
        finally:
            client.close()

    _run_threads(worker, connections)
    return LoopResult(latencies, last[0] - start)


def open_loop(server: Server, make: Callable[[int], dict], check: Check,
              tally: Tally, *, connections: int, rate: float,
              seconds: float) -> LoopResult:
    """Requests due every ``1/rate`` s, timed from their due time.

    Whichever connection is free takes the next due request; when every
    connection is busy past a due time, the request leaves late and its
    latency includes the wait (recorded as generator lateness).
    """
    _check_connections(connections)
    lock = threading.Lock()
    latencies: List[float] = []
    lateness: List[float] = []
    total = int(rate * seconds)
    counter = [0]
    start = time.perf_counter() + 0.01

    def worker() -> None:
        client = server.client()
        try:
            while True:
                with lock:
                    index = counter[0]
                    counter[0] += 1
                if index >= total:
                    return
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                payload = make(index)
                status, body = client.post("/v1/solve", payload)
                done = time.perf_counter()
                with lock:
                    lateness.append(max(0.0, sent - due) * 1000.0)
                    if tally.record(status == 200 and check(payload, status, body),
                                    f"{status} {str(body)[:200]}"):
                        latencies.append((done - due) * 1000.0)
        finally:
            client.close()

    _run_threads(worker, connections)
    return LoopResult(latencies, time.perf_counter() - start, lateness)


def chunked(gauge: SpeedGauge, seconds: float, chunk_s: float,
            loop: Callable[[float], LoopResult]) -> Tuple[LoopResult, LoopResult]:
    """Run ``loop(chunk seconds)`` until ``seconds`` of load have run.

    The gauge probes between chunks, while no request is in flight; a
    remainder under a tenth of a chunk is dropped.  Returns the chunks
    merged as measured and merged after scaling each by its own factor.
    """
    raw: List[LoopResult] = []
    scaled: List[LoopResult] = []
    ran = 0.0
    while seconds - ran > chunk_s / 10:
        chunk = min(chunk_s, seconds - ran)
        part, factor = gauge.scaled(lambda: loop(chunk))
        ran += max(part.wall_s, chunk)
        raw.append(part)
        scaled.append(part.scaled(factor))
    return LoopResult.merge(raw), LoopResult.merge(scaled)


def _run_threads(target: Callable[[], None], count: int) -> None:
    """Run ``target`` on ``count`` threads; re-raise the first error."""
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:  # surfaced below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, name=f"load-{i}")
               for i in range(count)]
    for thread in threads:
        thread.start()
    # Load hygiene: the generator never runs more threads than cores.
    if threading.active_count() - 1 > NPROC:
        raise RuntimeError(f"{threading.active_count() - 1} load threads "
                           f"exceed nproc={NPROC}")
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    if errors:
        raise errors[0]


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (inclusive interpolation)."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return float(values[0])
    if p == 50:
        return float(statistics.median(values))
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def canonical(payload: dict) -> str:
    """A response as text, without the fields that differ between equal answers."""
    return json.dumps({key: value for key, value in payload.items()
                       if key not in ("elapsed_ms", "trace_id", "batched")},
                      sort_keys=True)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def stamp(seed: int) -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "seed": seed,
    }
