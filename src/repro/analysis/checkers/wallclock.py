"""REP005: engine/storage code is wall-clock- and module-RNG-free.

Everything under ``engine/`` and ``storage/`` must be a
deterministic function of its inputs: results are compared byte-for-byte
across backends, incremental-mutation replays and crash-recovery
replays, and the evaluation cache assumes a (query,
database version) pair pins the answer.  Durability raises the stakes:
recovery re-derives a session from snapshot + log bytes and the fault
suite asserts the result byte-identical, so ambient state on that path
would surface as phantom corruption.  (The one sanctioned exception is
the record-header timestamp in ``MutationLog.now()``, suppressed at its
definition.)  ``time.time()`` (or any wall/CPU clock) and the *module-level*
``random`` functions (which mutate hidden global state seeded per
process) both smuggle ambient nondeterminism into that contract.

Flagged inside the configured strict paths:

* references to ``time.time`` / ``time.time_ns`` / ``time.monotonic`` /
  ``time.perf_counter`` (timing belongs in benchmarks and the service
  tier, not in kernels),
* ``from time import time`` and friends,
* ``datetime.now`` / ``datetime.utcnow`` / ``date.today`` (wall time by
  another import),
* module-level ``random.<fn>(...)`` calls and ``from random import ...``.

The tracing layer (``obs/``, the configured *relaxed* paths) exists to
measure durations, so the monotonic clocks (``time.monotonic[_ns]``,
``time.perf_counter[_ns]``) are allowed there -- but wall time
(``time.time``, ``datetime.now``) and the module-global RNG stay banned:
span offsets must never depend on ambient state, and wall timestamps are
the service tier's job.

Seeded contexts stay available everywhere: constructing an explicit
``random.Random(seed)`` instance is allowed (the workload generators'
pattern) -- only the shared module-global generator is banned.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import AnalysisConfig, Checker, Finding, SourceFile

_CLOCK_ATTRS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
#: The subset allowed in relaxed (obs/) scope: monotonic, not wall, time.
_MONOTONIC_ATTRS = frozenset(
    {"monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
#: Wall-clock constructors on datetime/date objects.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
#: Explicitly-seeded generator constructors (allowed).
_SEEDED_FACTORIES = frozenset({"Random", "SystemRandom"})


def _is_datetime_receiver(value: ast.expr) -> bool:
    """``datetime.now`` / ``date.today`` / ``datetime.datetime.now``."""
    if isinstance(value, ast.Name):
        return value.id in ("datetime", "date")
    if isinstance(value, ast.Attribute):
        return value.attr in ("datetime", "date")
    return False


class WallClockChecker(Checker):
    rule_id = "REP005"
    title = "no wall clock / module-global RNG in engine or storage code"

    def check_file(self, source: SourceFile, config: AnalysisConfig) -> Iterable[Finding]:
        relaxed = AnalysisConfig.path_matches(
            source.rel, config.wallclock_relaxed_paths
        )
        if not relaxed and not AnalysisConfig.path_matches(
            source.rel, config.wallclock_paths
        ):
            return
        banned_clocks = _CLOCK_ATTRS - _MONOTONIC_ATTRS if relaxed else _CLOCK_ATTRS
        where = (
            "the tracing layer (wall time belongs to the service tier)"
            if relaxed
            else "deterministic engine code: results must be a pure "
            "function of the inputs (timing belongs in benchmarks/ or "
            "the service tier)"
        )
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name):
                    receiver = node.value.id
                    if receiver == "time" and node.attr in banned_clocks:
                        yield self.finding(
                            source.rel, node, f"time.{node.attr} in {where}"
                        )
                        continue
                    if receiver == "random" and node.attr not in _SEEDED_FACTORIES:
                        yield self.finding(
                            source.rel,
                            node,
                            f"random.{node.attr} uses the module-global RNG; "
                            "thread an explicit random.Random(seed) through "
                            "instead",
                        )
                        continue
                if node.attr in _DATETIME_ATTRS and _is_datetime_receiver(
                    node.value
                ):
                    yield self.finding(
                        source.rel,
                        node,
                        f"{ast.unparse(node)} reads the wall clock in {where}",
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    offenders = [
                        alias.name
                        for alias in node.names
                        if alias.name in banned_clocks
                    ]
                    if offenders:
                        yield self.finding(
                            source.rel,
                            node,
                            f"'from time import {', '.join(offenders)}' "
                            f"in {where}",
                        )
                elif node.module == "random":
                    offenders = [
                        alias.name
                        for alias in node.names
                        if alias.name not in _SEEDED_FACTORIES
                    ]
                    if offenders:
                        yield self.finding(
                            source.rel,
                            node,
                            f"'from random import {', '.join(offenders)}' "
                            "imports the module-global RNG; use an explicit "
                            "random.Random(seed) instance",
                        )


__all__ = ["WallClockChecker"]
