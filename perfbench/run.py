#!/usr/bin/env python3
"""The repository benchmark: one workload against ``repro serve`` per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hard-60k --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``hard-60k``,
``easy-2k`` and ``htap-60k``.  Inputs are generated from ``--seed`` and
every answer is checked against in-process references.

``--trace 0`` measures the end-to-end metrics with an untraced server.
Every time is scaled to a reference machine speed: load runs in short
chunks, a fixed probe between them times the machine, and each chunk's
times are multiplied by ``reference / probe`` (``harness.SpeedGauge``).
The same figures before scaling are printed under ``unscaled``.
``--trace 1`` runs one untraced and one traced pass (the server behind
``traced_server.py``), prints the per-layer table, checks that the traced
answers equal the untraced ones and reports the per-layer metrics.  The
last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

#: Unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_ms.p50": "ms",
    "cold_solve_s": "s",
    "peak_rss_mb": "MB",
}
#: Boots of the server per untraced run; ``setup_s`` is their median.
SETUPS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import harness
        import layer_table
        from workloads import SCENARIOS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in SCENARIOS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(SCENARIOS)}")

    # A SIGTERM unwinds through the finally below, so servers are stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    print("stamp: " + json.dumps({"workload": args.workload,
                                  **harness.stamp(args.seed)}))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        scenario = SCENARIOS[args.workload](args.seed)
        # Inputs and references live for the whole run: keep the collector
        # from rescanning them during timed requests.
        gc.collect()
        gc.freeze()
        if args.trace:
            plain = scenario.run(work / "plain", args.seconds, traced=False, setups=1)
            traced = scenario.run(work / "traced", args.seconds, traced=True, setups=1)
            tally = plain.tally
            tally.absorb(traced.tally)
            if plain.answers != traced.answers:
                tally.failed += 1
                tally.errors.append("traced answers differ from untraced answers")
            metrics = layer_table.report(plain, traced, work / "traced" / "spans")
        else:
            result = scenario.run(work, args.seconds, traced=False, setups=SETUPS)
            tally = result.tally
            metrics = {name: (result.metrics[name], unit)
                       for name, unit in END_TO_END.items()}
            _print_info({**result.info, "unbounded": {
                name: value for name, value in result.metrics.items()
                if name not in END_TO_END}, "unscaled": result.unscaled,
                "speed": result.gauge.info()})
    finally:
        leaked = harness.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()
    if leaked or harness.live_children():
        print(f"perfbench: leaked server processes {leaked}", file=sys.stderr)
        return 3
    for error in tally.errors:
        print(f"FAILED: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.4f} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _print_info(info: Dict[str, object]) -> None:
    for name, value in info.items():
        print(f"{name}: {json.dumps(value, sort_keys=True)}")


if __name__ == "__main__":
    sys.exit(main())
