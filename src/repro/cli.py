"""Command-line interface.

``python -m repro <command> ...`` exposes the library's three main workflows
without writing any Python:

* ``classify`` -- run both dichotomies on a query and print the decision
  trace plus, for NP-hard queries, a hardness certificate;
* ``solve`` -- solve ``ADP(Q, D, k)`` on a database stored as a directory of
  CSV files (one file per relation, written by
  :func:`repro.data.csvio.save_database_csv` or by hand);
* ``explain`` -- print a query's plan (join order with tie-break rationale,
  backend cost-model verdict, estimate-vs-actual cardinality
  ledger) as a text tree or, with ``--json``, the same structured payload
  ``POST /v1/explain`` answers; the plan block and its fingerprint are
  byte-identical across backends;
* ``trace`` -- render a recorded span tree (written by ``solve --trace-out``
  or fetched from the service's ``GET /v1/debug/slow``) as an indented text
  profile;
* ``experiments`` -- regenerate one or all of the paper's figures and print
  the tidy tables;
* ``serve`` -- run the asyncio ADP query service (:mod:`repro.service`):
  named databases behind an HTTP/JSON API with request batching, versioned
  reads and backpressure.  ``--load name=csv_dir`` preloads databases;
  clients can also register them at runtime via ``POST /v1/databases``;
* ``analyze`` -- run the invariant linter (:mod:`repro.analysis`) over the
  package (or a path): backend isolation, append-only interning, lock
  discipline, deterministic iteration and wall-clock hygiene, as
  REP-numbered findings.  Exits 1 when anything fires; CI runs
  it as a blocking job (see docs/INVARIANTS.md).

``solve`` runs through a :class:`repro.session.Session` bound to the loaded
database: ``--backend`` picks the array kernels, and ``--json`` emits a
machine-readable summary for scripting.  An empty query result is a
successful (empty) answer, not an error: the summary is printed and the
exit code is 0.  An infeasible target (``--k`` outside ``1..|Q(D)|``,
``--ratio`` outside ``(0, 1]``) or a query naming a relation the database
lacks prints ``error: ...`` and exits 2.  ``serve --workers N`` gives every served
session a worker pool for batched solves.

Examples
--------
::

    python -m repro classify "QWL(S, C) :- Major(S, M), Req(M, C), NoSeat(C)"
    python -m repro solve "Q(A, B) :- R1(A), R2(A, B)" ./my_csv_dir --k 3
    python -m repro solve "Q(A, B) :- R1(A), R2(A, B)" ./my_csv_dir --ratio 0.5 --method drastic
    python -m repro solve "Q(A, B) :- R1(A), R2(A, B)" ./my_csv_dir --k 3 --json
    python -m repro solve "Q(A, B) :- R1(A), R2(A, B)" ./my_csv_dir --k 3 --trace
    python -m repro trace profile.json
    python -m repro experiments --only fig28
    python -m repro serve --port 8080 --backend auto --load tpch=./tpch_csv
    python -m repro analyze --format json
    python -m repro analyze --rules REP003,REP004 src/repro/engine
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.core.adp import ADPSolver
from repro.core.decidability import decide
from repro.core.mapping import hardness_certificate
from repro.core.structures import diagnose
from repro.core.solution import summarize_removed
from repro.data.csvio import load_database_csv
from repro.experiments import figures
from repro.experiments.report import render_results
from repro.query.parser import parse_query
from repro.session import Session


def _add_classify_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "classify", help="decide whether ADP is poly-time solvable for a query"
    )
    parser.add_argument("query", help='datalog-style query, e.g. "Q(A) :- R1(A), R2(A, B)"')


def _add_solve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "solve", help="solve ADP(Q, D, k) on a CSV-directory database"
    )
    parser.add_argument("query", help="datalog-style query")
    parser.add_argument("database", help="directory with one <relation>.csv per relation")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="number of output tuples to remove")
    group.add_argument("--ratio", type=float, help="fraction of output tuples to remove")
    parser.add_argument(
        "--method",
        choices=["auto", "greedy", "drastic"],
        default="auto",
        help="heuristic used at NP-hard leaves (auto = greedy)",
    )
    parser.add_argument(
        "--counting-only",
        action="store_true",
        help="report only the objective value (faster, no tuple list)",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "python", "numpy"],
        default="auto",
        help="array backend for the columnar kernels: auto (default; NumPy "
        "when installed), python (pure-Python fallback) or numpy (require "
        "NumPy).  Results are byte-identical across backends",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON summary instead of text",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree for the solve and print the text profile "
        "to stderr (stdout stays parseable with --json)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write the recorded trace as JSON to FILE (implies tracing; "
        "render it later with 'repro trace FILE')",
    )


def _add_explain_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "explain",
        help="show the query plan (join order, cost-model verdicts, "
        "estimate-vs-actual cardinalities) without solving",
    )
    parser.add_argument("query", help="datalog-style query")
    parser.add_argument(
        "database", help="directory with one <relation>.csv per relation"
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "python", "numpy"],
        default="auto",
        help="array backend; the plan block (and its fingerprint) is "
        "byte-identical across backends",
    )
    parser.add_argument(
        "--no-analyze",
        action="store_true",
        help="plan only: skip the instrumented evaluation that fills the "
        "estimate-vs-actual ledger",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the structured payload (same schema as POST /v1/explain)",
    )


def _add_trace_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace", help="render a recorded trace (JSON) as an indented profile"
    )
    parser.add_argument(
        "file",
        help="trace JSON: a bare span list, a 'solve --trace-out' envelope, "
        "or one entry of the service's /v1/debug/slow log",
    )


def _add_experiments_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "experiments", help="regenerate the paper's figures (scaled down)"
    )
    parser.add_argument(
        "--only",
        choices=sorted(figures.FIGURE_FUNCTIONS),
        help="run a single figure instead of the full sweep",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the figure functions' larger default grids",
    )


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the HTTP/JSON ADP query service (repro.service)"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "python", "numpy"],
        default="auto",
        help="array backend for the columnar kernels",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per session for batched solves: solve_many "
        "sends distinct hard-leaf query groups to them (default 1 = serial)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=4,
        metavar="N",
        help="solver thread pool size (lock draining + batch concurrency)",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=16,
        metavar="N",
        help="max solve requests coalesced into one solve_many dispatch "
        "(1 disables micro-batching)",
    )
    parser.add_argument(
        "--batch-linger-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="how long the first request of a batch window waits for company",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="admission bound on queued+running solve requests (excess: 429)",
    )
    parser.add_argument(
        "--max-databases",
        type=int,
        default=8,
        metavar="N",
        help="LRU bound on resident databases (eviction closes the session)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=30_000.0,
        metavar="MS",
        help="default per-request deadline (0 disables; requests may override)",
    )
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=CSV_DIR",
        help="preload a CSV-directory database under NAME (repeatable)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="trace solver jobs: per-stage latency histograms at /metrics "
        "and span trees in the slow-query log (GET /v1/debug/slow)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="slow-query log threshold (requests slower than this are kept)",
    )
    parser.add_argument(
        "--slow-log-capacity",
        type=int,
        default=32,
        metavar="N",
        help="how many slow requests the ring buffer retains",
    )
    parser.add_argument(
        "--log-requests",
        action="store_true",
        help="emit one '[access]' line per request "
        "(trace id, route, db, status, latency)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="persist databases under DIR (snapshot + mutation log; a "
        "restarted server rehydrates them at their last acknowledged "
        "version -- see docs/DURABILITY.md)",
    )
    parser.add_argument(
        "--compact-after",
        type=int,
        default=None,
        metavar="N",
        help="mutation-log records absorbed before a compaction snapshot "
        "(requires --data-dir)",
    )


def _add_analyze_parser(subparsers) -> None:
    from repro.analysis.checkers import KNOWN_RULES

    parser = subparsers.add_parser(
        "analyze", help="run the invariant linter (REP rules) over the package"
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="file or directory to analyze (default: the installed repro "
        "package, the configuration the REP rules are scoped for)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="REPxxx[,REPxxx...]",
        help="comma-separated rule subset to run (default: all of "
        + ", ".join(KNOWN_RULES)
        + "; REP000 suppression hygiene always runs)",
    )


def _run_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.analysis.checkers import KNOWN_RULES, all_checkers
    from repro.analysis.framework import render_json, render_text, run_analysis

    rules = None
    if args.rules:
        rules = tuple(rule.strip().upper() for rule in args.rules.split(",") if rule.strip())
        unknown = [rule for rule in rules if rule not in KNOWN_RULES]
        if unknown:
            print(
                f"error: unknown rule(s) {', '.join(unknown)} "
                f"(known: {', '.join(KNOWN_RULES)})",
                file=sys.stderr,
            )
            return 2
    package_root = Path(repro.__file__).resolve().parent
    only: tuple = ()
    if args.path is not None:
        root = Path(args.path).resolve()
        if not root.exists():
            print(f"error: no such path: {args.path}", file=sys.stderr)
            return 2
        try:
            rel = root.relative_to(package_root).as_posix()
        except ValueError:
            rel = None
        if rel is not None and rel != ".":
            # A subtree of the package: keep paths rooted at the package
            # directory so the path-scoped rules keep their meaning.
            only = (rel + "/",) if root.is_dir() else (rel,)
            root = package_root
    else:
        root = package_root
    report = run_analysis(root, all_checkers(), rules=rules, only=only)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(report))
    return 0 if report.ok else 1


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.http import ServiceConfig, serve

    preload = {}
    for spec in args.load:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"error: --load expects NAME=CSV_DIR, got {spec!r}", file=sys.stderr)
            return 2
        preload[name] = load_database_csv(path)
    if args.compact_after is not None and not args.data_dir:
        print("error: --compact-after requires --data-dir", file=sys.stderr)
        return 2
    from repro.storage import DEFAULT_COMPACT_AFTER

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        workers=args.workers,
        executor_threads=args.threads,
        max_batch=args.batch_max,
        linger_ms=args.batch_linger_ms,
        max_pending=args.max_pending,
        max_databases=args.max_databases,
        default_deadline_ms=args.deadline_ms,
        trace=args.trace,
        slow_ms=args.slow_ms,
        slow_log_capacity=args.slow_log_capacity,
        log_requests=args.log_requests,
        data_dir=args.data_dir,
        compact_after=(
            args.compact_after
            if args.compact_after is not None
            else DEFAULT_COMPACT_AFTER
        ),
    )
    try:
        asyncio.run(serve(config, preload))
    except KeyboardInterrupt:
        pass
    return 0


def _run_classify(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    trace = decide(query)
    diagnosis = diagnose(query)
    print(trace.explain())
    print()
    print(f"structural dichotomy: {diagnosis}")
    certificate = hardness_certificate(query)
    if certificate:
        print()
        print(certificate)
    return 0


def _json_summary(session, prepared, total, solution, started: float) -> str:
    """The solve summary: the shared service schema plus ``elapsed_ms``.

    The payload body is exactly what ``POST /v1/solve`` answers for the
    same request (one serializer, :mod:`repro.service.serialize`); the CLI
    adds wall-clock ``elapsed_ms`` the same way the service envelope does.
    """
    from repro.obs.trace import span

    # The serialize import is deferred (it pulls the service package in);
    # under --trace its one-time cost lands in the render span instead of
    # disappearing into unattributed root time.
    with span("cli.render"):
        from repro.service.serialize import elapsed_ms, solution_payload

        payload = solution_payload(session, prepared, total, solution)
        payload["elapsed_ms"] = elapsed_ms(started, time.perf_counter())
        return json.dumps(payload, indent=2, sort_keys=True)


def _run_solve(args: argparse.Namespace) -> int:
    if not (args.trace or args.trace_out):
        return _solve_impl(args)
    # Record one span tree for the whole solve.  The profile goes to
    # stderr so --json output on stdout stays machine-parseable.
    from repro.obs.render import render_span_tree
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("cli.solve", query=args.query, method=args.method):
            code = _solve_impl(args)
    print(render_span_tree(tracer.export(), tracer.trace_id), file=sys.stderr)
    if args.trace_out:
        envelope = {"trace_id": tracer.trace_id, "spans": tracer.export()}
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(envelope, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


def _solve_impl(args: argparse.Namespace) -> int:
    from repro.obs.trace import span

    started = time.perf_counter()
    query = parse_query(args.query)
    with span("cli.load", database=args.database):
        database = load_database_csv(args.database)
    heuristic = "greedy" if args.method == "auto" else args.method
    solver = ADPSolver(heuristic=heuristic, counting_only=args.counting_only)

    with span("session.init"):
        session = Session(database, backend=args.backend)
    with session:
        try:
            prepared = session.prepare(query)
            total = session.output_size(prepared)
            if total == 0:
                solution = None
            elif args.k is not None:
                solution = session.solve(prepared, args.k, solver=solver)
            else:
                solution = session.solve_ratio(prepared, args.ratio, solver=solver)
        except (ValueError, KeyError) as exc:
            return _user_error(exc)
        if args.json:
            print(_json_summary(session, prepared, total, solution, started))
            return 0
    if solution is None:
        # An empty result is a legitimate (empty) answer: nothing to remove.
        print("|Q(D)| = 0, target k = 0")
        print("objective = 0 input tuple(s); the query result is already empty")
        return 0
    print(f"|Q(D)| = {total}, target k = {solution.k}")
    print(
        f"objective = {solution.size} input tuple(s) "
        f"({'optimal' if solution.optimal else 'heuristic, method=' + solution.method})"
    )
    if solution.removed:
        print(f"per-relation breakdown: {summarize_removed(solution.removed)}")
        for ref in sorted(solution.removed, key=str):
            print(f"  remove {ref}")
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    from repro.obs.explain import render_explain_text

    query = parse_query(args.query)
    database = load_database_csv(args.database)
    with Session(database, backend=args.backend) as session:
        try:
            payload = session.explain(query, analyze=not args.no_analyze)
        except (ValueError, KeyError) as exc:
            return _user_error(exc)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_explain_text(payload))
    return 0


def _user_error(exc: Exception) -> int:
    """Report a bad-input error from the session layer and exit 2."""
    # str(KeyError) quotes its message; print the message itself.
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_trace(args: argparse.Namespace) -> int:
    from repro.obs.render import load_trace, render_span_tree

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    try:
        trace_id, spans = load_trace(payload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_span_tree(spans, trace_id))
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    if args.only:
        results = {args.only: figures.FIGURE_FUNCTIONS[args.only]()}
    else:
        results = figures.run_all(quick=not args.full)
    print(render_results(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aggregated Deletion Propagation for counting CQ answers "
        "(reproduction of Hu et al., VLDB 2020)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_classify_parser(subparsers)
    _add_solve_parser(subparsers)
    _add_explain_parser(subparsers)
    _add_trace_parser(subparsers)
    _add_experiments_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_analyze_parser(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "classify":
        return _run_classify(args)
    if args.command == "solve":
        return _run_solve(args)
    if args.command == "explain":
        return _run_explain(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "experiments":
        return _run_experiments(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "analyze":
        return _run_analyze(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
