#!/usr/bin/env python
"""Benchmark smoke guard: fail if the Figure 12 solve regresses > 2x.

Runs the ``bench_fig12`` workload (TPC-H-like, 60 tuples, Q1, k from
ρ = 0.1; methods bruteforce / greedy / drastic), the session what-if
probe and the array-backend probe, and compares wall time against the
committed baseline
``benchmarks/baseline_fig12.json``.

Machines differ, so raw seconds are not comparable across hardware: every
run first times a fixed pure-Python *calibration* workload, and the
thresholds scale by ``calibration_now / calibration_baseline``.  A method
fails when::

    now > THRESHOLD * baseline * (calibration_now / calibration_baseline)

Besides the pass/fail guard, ``--record`` appends the run (timestamps,
calibration, per-method seconds, interpreter + NumPy versions) to the
committed trajectory file ``benchmarks/BENCH_fig12.json``; CI records one
entry per run and uploads the file as a workflow artifact, so the perf
history accumulates instead of evaporating with each runner.

``--obs-overhead`` runs a separate relative gate for the observability
layer (:mod:`repro.obs`): the same greedy solve is timed with no
instrumentation, with an installed-but-unsampled tracer
(``Tracer(enabled=False)`` -- the configuration every instrumentation
point must treat as a no-op), and with the fully enabled path (a sampled
tracer, whose spans carry the per-operator records).  The
check fails when the disabled path costs more than ``OBS_OVERHEAD_LIMIT``
(2%) or the enabled path more than ``STATS_OVERHEAD_LIMIT`` (10%), each
plus a small absolute grace so sub-millisecond jitter cannot fail the
gate.  The variants are interleaved so clock drift hits all sides
equally.  With ``--record`` the run also appends an ``obs`` section (both
overhead ratios + per-stage span totals from one enabled instrumented
solve) to the trajectory file.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py          # check
    PYTHONPATH=src python benchmarks/check_regression.py --update # re-baseline
    PYTHONPATH=src python benchmarks/check_regression.py --record # + trajectory
    PYTHONPATH=src python benchmarks/check_regression.py --obs-overhead
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path


def repro_test_seed(default: int = 101) -> int:
    """The ``REPRO_TEST_SEED`` env knob (same contract as tests/conftest.py).

    The workload seeds of the guarded benchmarks are fixed (the committed
    baseline depends on them), but every ``--record`` entry stamps the
    active fuzz seed so a CI artifact names the exact value to export when
    replaying that run's differential property suites locally.
    """
    raw = os.environ.get("REPRO_TEST_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return default

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_fig12.json"
TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_fig12.json"

#: Allowed slowdown vs (calibration-scaled) baseline before the check fails.
THRESHOLD = 2.0

SMALL_SIZE = 60
RATIO = 0.1

#: The array-backend probe: a mid-scale NP-hard projection workload (zipf
#: path family) where the vectorized kernels are engaged, guarding the
#: NumPy solve path itself (and, in the trajectory, the python/numpy gap).
BACKEND_R2_TUPLES = 8_000
BACKEND_RATIO = 0.1

#: Allowed relative cost of the installed-but-unsampled tracer path
#: (the disabled path every instrumentation point pays).
OBS_OVERHEAD_LIMIT = 1.02
#: Allowed relative cost of the fully enabled instrumentation: a sampled
#: tracer, whose spans carry the operator records (per-operator counters,
#: build-side skew summaries, the estimate-vs-actual ledger inputs).
STATS_OVERHEAD_LIMIT = 1.10
#: Absolute grace (seconds) under which the overhead gate never fails:
#: at small workload durations, 2% is below timer/scheduler jitter.
OBS_ABS_GRACE_S = 0.010
OBS_REPEATS = 5


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload (integer + dict churn).

    Shaped like the engine's hot paths (arithmetic, tuple keys, dict
    probes), so the scale factor tracks interpreter/hardware speed for the
    code under test reasonably well.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i % 7
    table = {}
    for i in range(60_000):
        table[(i % 997, i % 31)] = i
    for i in range(60_000):
        total += table.get((i % 991, i % 29), 0)
    assert total >= 0
    return time.perf_counter() - start


def best_of(fn, repeats: int = 3) -> float:
    """Fastest of ``repeats`` single runs (solves are not micro-benchmarks)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> dict:
    """One timing per guarded workload, in seconds."""
    from repro.core.bruteforce import bruteforce_solve
    from repro.experiments.harness import target_from_ratio
    from repro.session import Session
    from repro.workloads.queries import Q1
    from repro.workloads.tpch import generate_tpch

    database = generate_tpch(total_tuples=SMALL_SIZE, seed=7)
    session = Session(database)
    prepared = session.prepare(Q1)
    with session.activate():
        k = target_from_ratio(Q1, database, RATIO)

    timings = {}
    timings["greedy"] = best_of(
        lambda: session.solve(prepared, k, heuristic="greedy")
    )
    timings["drastic"] = best_of(
        lambda: session.solve(prepared, k, heuristic="drastic")
    )

    def run_bruteforce():
        with session.activate():
            bruteforce_solve(Q1, database, k, max_candidates=2000)

    timings["bruteforce"] = best_of(run_bruteforce)

    solution = session.solve(prepared, k, heuristic="greedy")
    refs = frozenset(solution.removed)
    session.what_if(refs, prepared)  # warm the postings index

    def what_if_probe():
        for _ in range(200):
            session.what_if(refs, prepared).single.outputs_removed

    timings["what_if_x200"] = best_of(what_if_probe)

    # Array-backend probe: fresh greedy solve per backend (numpy entry is
    # absent when NumPy is not installed; absent methods are simply not
    # compared against the baseline).
    from repro.engine.backend import numpy_available
    from repro.query.parser import parse_query
    from repro.workloads.zipf import generate_zipf_path

    qhard = parse_query("Qhard(A) :- R1(A), R2(A, B), R3(B)")
    backend_db = generate_zipf_path(
        r2_tuples=BACKEND_R2_TUPLES, alpha=1.1, seed=13
    )
    with Session(backend_db, backend="python") as sizing:
        with sizing.activate():
            backend_k = target_from_ratio(qhard, backend_db, BACKEND_RATIO)
    backends = ["python"] + (["numpy"] if numpy_available() else [])
    for backend in backends:

        def backend_solve(backend=backend):
            with Session(backend_db, backend=backend) as session:
                session.solve(qhard, backend_k, heuristic="greedy")

        timings[f"backend_solve_{backend}"] = best_of(backend_solve, repeats=2)
    return timings


def measure_obs_overhead() -> dict:
    """The observability-layer overhead probe (zipf-8000 greedy solve).

    Times three interleaved variants: no instrumentation at all, the
    installed-but-unsampled tracer (the disabled path every solve pays),
    and the fully enabled path (a sampled tracer; its spans carry the
    operator records).  Returns the two overhead ratios plus the
    per-stage span totals and operator-record count of one fully
    instrumented solve (what ``--record`` persists).  The trajectory
    keys keep their ``stats_`` names so older entries stay comparable.
    """
    from repro.experiments.harness import target_from_ratio
    from repro.obs.render import aggregate_stage_ms
    from repro.obs.stats import operator_records
    from repro.obs.trace import Tracer, use_tracer
    from repro.query.parser import parse_query
    from repro.session import Session
    from repro.workloads.zipf import generate_zipf_path

    qhard = parse_query("Qhard(A) :- R1(A), R2(A, B), R3(B)")
    database = generate_zipf_path(
        r2_tuples=BACKEND_R2_TUPLES, alpha=1.1, seed=13
    )
    with Session(database) as sizing:
        with sizing.activate():
            k = target_from_ratio(qhard, database, BACKEND_RATIO)

    def plain() -> None:
        with Session(database) as session:
            session.solve(qhard, k, heuristic="greedy")

    def unsampled() -> None:
        with use_tracer(Tracer(enabled=False)):
            plain()

    def instrumented() -> None:
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("bench.obs_overhead", workload="zipf_greedy"):
                plain()

    plain()  # warm-up (imports, allocator): outside all timed variants
    baseline = float("inf")
    with_tracer = float("inf")
    with_stats = float("inf")
    for _ in range(OBS_REPEATS):
        start = time.perf_counter()
        plain()
        baseline = min(baseline, time.perf_counter() - start)
        start = time.perf_counter()
        unsampled()
        with_tracer = min(with_tracer, time.perf_counter() - start)
        start = time.perf_counter()
        instrumented()
        with_stats = min(with_stats, time.perf_counter() - start)

    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("bench.obs_overhead", workload="zipf_greedy"):
            plain()
    stage_ms = {
        name: round(total, 3)
        for name, total in sorted(aggregate_stage_ms(tracer.export()).items())
    }
    return {
        "baseline_s": round(baseline, 6),
        "unsampled_s": round(with_tracer, 6),
        "overhead_ratio": round(with_tracer / baseline, 4),
        "stats_enabled_s": round(with_stats, 6),
        "stats_overhead_ratio": round(with_stats / baseline, 4),
        "stats_records": len(operator_records(tracer)),
        "stage_ms": stage_ms,
    }


def _load_trajectory(path: Path) -> dict:
    """The trajectory file, recreated when missing, corrupt or malformed."""
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    from _trajectory import load_trajectory

    return load_trajectory(path, {
        "workload": f"tpch[{SMALL_SIZE}] Q1 ratio={RATIO} (Figure 12) "
        f"+ zipf[{BACKEND_R2_TUPLES}] backend probe",
        "runs": [],
    })


def record_trajectory(
    path: Path, calibration: float, timings: dict = None, obs: dict = None
) -> None:
    """Append one run to the committed perf-trajectory JSON.

    Identical re-runs (same measurements, interpreter and NumPy -- only
    the timestamp differs) are deduplicated: re-invoking ``--record``
    without re-measuring must not inflate the history.  ``--obs-overhead``
    runs record an ``obs`` section (overhead ratio + stage timings)
    instead of the ``methods`` map.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    trajectory = _load_trajectory(path)
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": repro_test_seed(),
        "calibration_seconds": round(calibration, 6),
    }
    if timings is not None:
        entry["methods"] = {k: round(v, 6) for k, v in timings.items()}
    if obs is not None:
        entry["obs"] = obs
    runs = trajectory["runs"]

    def sans_timestamp(run: object) -> object:
        if isinstance(run, dict):
            return {k: v for k, v in run.items() if k != "timestamp"}
        return run  # malformed entry: never equal to a fresh one

    if runs and sans_timestamp(runs[-1]) == sans_timestamp(entry):
        print(
            f"trajectory entry identical to the last run in {path}; "
            "skipping the duplicate append"
        )
        return
    runs.append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"trajectory entry appended to {path} ({len(runs)} runs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline JSON"
    )
    parser.add_argument(
        "--record",
        nargs="?",
        const=str(TRAJECTORY_PATH),
        default=None,
        metavar="PATH",
        help="append this run to the perf-trajectory JSON "
        f"(default: {TRAJECTORY_PATH.name})",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="gate the observability layer instead: fail when the disabled "
        f"path costs more than {(OBS_OVERHEAD_LIMIT - 1) * 100:g}%% or the "
        "enabled (sampled) tracer path more than "
        f"{(STATS_OVERHEAD_LIMIT - 1) * 100:g}%% over no instrumentation",
    )
    args = parser.parse_args(argv)

    if args.obs_overhead:
        calibration = calibrate()
        result = measure_obs_overhead()
        print(
            f"obs overhead: baseline {result['baseline_s'] * 1e3:.2f}ms, "
            f"unsampled tracer {result['unsampled_s'] * 1e3:.2f}ms "
            f"(x{result['overhead_ratio']:.4f}), "
            f"sampled tracer {result['stats_enabled_s'] * 1e3:.2f}ms "
            f"(x{result['stats_overhead_ratio']:.4f}, "
            f"{result['stats_records']} records)"
        )
        for stage, ms in result["stage_ms"].items():
            print(f"  stage {stage}: {ms:.3f}ms")
        if args.record:
            record_trajectory(Path(args.record), calibration, obs=result)
        failed = False
        budget = result["baseline_s"] * OBS_OVERHEAD_LIMIT + OBS_ABS_GRACE_S
        if result["unsampled_s"] > budget:
            print(
                "FAILED: disabled instrumentation costs "
                f"x{result['overhead_ratio']:.4f} "
                f"(limit x{OBS_OVERHEAD_LIMIT} + {OBS_ABS_GRACE_S * 1e3:g}ms grace)"
            )
            failed = True
        stats_budget = (
            result["baseline_s"] * STATS_OVERHEAD_LIMIT + OBS_ABS_GRACE_S
        )
        if result["stats_enabled_s"] > stats_budget:
            print(
                "FAILED: enabled (sampled) tracer costs "
                f"x{result['stats_overhead_ratio']:.4f} "
                f"(limit x{STATS_OVERHEAD_LIMIT} + {OBS_ABS_GRACE_S * 1e3:g}ms grace)"
            )
            failed = True
        if failed:
            return 1
        print("obs overhead ok")
        return 0

    calibration = calibrate()
    timings = measure()

    if args.record:
        record_trajectory(Path(args.record), calibration, timings)

    if args.update:
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "calibration_seconds": round(calibration, 6),
                    "threshold": THRESHOLD,
                    "workload": f"tpch[{SMALL_SIZE}] Q1 ratio={RATIO} (Figure 12)",
                    "methods": {k: round(v, 6) for k, v in timings.items()},
                },
                indent=2,
            )
            + "\n"
        )
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    scale = calibration / baseline["calibration_seconds"]
    print(f"calibration: {calibration:.4f}s (baseline scale x{scale:.2f})")

    failed = []
    for method, now in timings.items():
        base = baseline["methods"].get(method)
        if base is None:
            print(f"  {method}: {now * 1e3:8.2f}ms (no baseline entry, skipped)")
            continue
        budget = THRESHOLD * base * scale
        status = "ok" if now <= budget else "REGRESSION"
        print(
            f"  {method}: {now * 1e3:8.2f}ms  budget {budget * 1e3:8.2f}ms "
            f"(baseline {base * 1e3:.2f}ms)  {status}"
        )
        if now > budget:
            failed.append(method)

    if failed:
        print(f"FAILED: {', '.join(failed)} regressed more than {THRESHOLD}x")
        return 1
    print("benchmark smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
