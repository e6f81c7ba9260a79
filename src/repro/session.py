"""Sessions and prepared queries: bind once, solve many, mutate incrementally.

The paper's system amortizes work across repeated ADP solves by delegating
evaluation to PostgreSQL, where a *connection* holds indexes and prepared
statements across queries.  This module is the reproduction's equivalent
connection object:

* :class:`PreparedQuery` -- parse + dichotomy classification + join-order
  plan, computed **once** and reusable across databases and targets ``k``;
* :class:`Session` -- binds one :class:`~repro.data.database.Database` and
  owns all evaluation state: the evaluation cache, the array backend, the
  relation interning tables and the usage statistics.  On top it exposes
  the batched and incremental capabilities:

  - :meth:`Session.solve` / :meth:`Session.solve_many` -- one or many ADP
    solves over the bound database, sharing one evaluation and one cost
    curve per distinct query;
  - :meth:`Session.curve` -- the full :class:`~repro.core.curves.CostCurve`
    (solutions for every target up to ``kmax``) that ``ComputeADP`` builds
    internally;
  - :meth:`Session.what_if` / :meth:`Session.apply_deletions` /
    :meth:`Session.apply_insertions` -- incremental mutation propagation:
    the post-deletion result is derived from cached packed provenance by a
    delta semijoin and the post-insertion result by a delta join on the
    inserted side (:mod:`repro.engine.delta`), work proportional to the
    delta instead of a re-intern + re-join of the whole database.

Every evaluation runs through a session's engine context.  Library
functions that take ``(query, database)`` pairs (the brute-force baseline,
selections, resilience, ...) run against a session's cache inside
``with session.activate():``; see ``docs/MIGRATION.md``.

Thread- and process-safety contract
-----------------------------------
* **Context routing** uses a ``contextvars.ContextVar``
  (:func:`repro.engine.evaluate.use_context`), so concurrent threads (or
  asyncio tasks) may each run ``with session.activate():`` -- including
  different sessions in different threads -- without seeing each other's
  engine context.
* **Read paths are thread-safe.**  ``prepare`` / ``evaluate`` / ``solve`` /
  ``solve_many`` / ``curve`` / ``what_if`` may be called from multiple
  threads on one session: the evaluation cache takes an internal lock, the
  context's lazy interning builds and the provenance's lazy postings-index
  builds are lock-guarded, and cached ``QueryResult`` objects are immutable
  by contract.  (Remaining lazy views such as ``QueryResult.witnesses``
  tolerate racing builders -- both compute identical values and the last
  assignment wins.)  The usage counters behind :attr:`Session.stats` are
  bumped under a session lock (joins under the engine context's lock), so
  they stay exact under concurrent readers.
* **Mutation is exclusive.**  ``apply_deletions`` / ``apply_insertions``
  (or any in-place database
  mutation) must not run concurrently with reads on the same session;
  relation versions make stale cache reads impossible, but the migration
  itself assumes a quiescent session.  Worker processes respect this by
  construction: they receive copies of the rows and never touch the
  parent's database.
* **Worker processes share nothing.**  ``Session(workers=N)`` ships the
  bound database (rows in interned order) to worker processes over pipes
  for ``solve_many`` group dispatch; solutions come back by value.
  Sessions themselves must not be shared across processes.

Example
-------
>>> from repro import Database, Session
>>> db = Database.from_dict(
...     {"R1": ["A"], "R2": ["A", "B"]},
...     {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]})
>>> session = Session(db)
>>> prepared = session.prepare("Q(A, B) :- R1(A), R2(A, B)")
>>> prepared.is_poly_time
True
>>> session.solve(prepared, k=2).size
1
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import weakref
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.adp import ADPSolver, SolverConfig, ratio_target
from repro.core.curves import CostCurve
from repro.core.decidability import is_poly_time
from repro.core.singleton import is_singleton
from repro.core.solution import ADPSolution
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.cache import canonical_query_key
from repro.engine.columnar import RelationIndex
from repro.engine.delta import (
    delta_counts,
    delta_filter_result,
    delta_insert_result,
)
from repro.engine.evaluate import (
    EngineContext,
    QueryResult,
    join_order_plan,
    use_context,
)
from repro.obs.trace import span, tracing_active
from repro.parallel.pool import (
    LazyWorkerPool,
    PoolBrokenError,
    WorkerStoreMiss,
    WorkerTaskError,
)
from repro.query.cq import ConjunctiveQuery
from repro.query.graph import QueryGraph
from repro.query.parser import parse_query

#: Anything the session methods accept where a query is expected.
QueryLike = Union[str, ConjunctiveQuery, "PreparedQuery"]


class PreparedQuery:
    """A query with all per-query (database-independent) work done once.

    Mirrors a prepared statement: parsing, the dichotomy classification that
    drives ``ComputeADP``'s dispatch, and the engine's join-order plan are
    computed at construction and reused for every solve, on any database and
    for any target ``k``.

    Attributes
    ----------
    query:
        The underlying :class:`~repro.query.cq.ConjunctiveQuery`.
    canonical_key:
        Hashable canonical form (head order kept, body order ignored); two
        queries with equal keys are interchangeable for evaluation caching.
    join_order:
        The engine's join order over the non-vacuum atoms (passed back to the
        columnar engine so it is never recomputed).
    is_poly_time:
        ``IsPtime(Q)`` -- whether ``ComputeADP`` returns exact optima.
    is_singleton:
        Whether the Singleton base case (Definition 10) applies directly.
    universal_attributes:
        Output attributes appearing in every atom (Universe step triggers).
    is_connected:
        Whether the query graph is connected (Decompose step triggers on
        ``False``).
    """

    __slots__ = (
        "query",
        "canonical_key",
        "join_order",
        "is_poly_time",
        "is_singleton",
        "universal_attributes",
        "is_connected",
        "plan_fingerprint",
    )

    def __init__(self, query: Union[str, ConjunctiveQuery]):
        if isinstance(query, str):
            query = parse_query(query)
        if isinstance(query, PreparedQuery):  # pragma: no cover - defensive
            query = query.query
        self.query: ConjunctiveQuery = query
        self.canonical_key = canonical_query_key(query)
        self.join_order: Tuple[int, ...] = join_order_plan(query)
        self.is_poly_time: bool = is_poly_time(query)
        self.is_singleton: bool = is_singleton(query)
        self.universal_attributes: FrozenSet[str] = query.universal_attributes()
        self.is_connected: bool = QueryGraph(query).is_connected()
        #: A short stable digest of (canonical key, join order) -- what the
        #: slow-query log and the trace profiles report as the *plan
        #: identity* of a request, so operators can group slow requests by
        #: plan without shipping whole query objects around.
        self.plan_fingerprint: str = hashlib.sha1(
            repr((self.canonical_key, self.join_order)).encode()
        ).hexdigest()[:12]

    # Convenience views ------------------------------------------------- #
    @property
    def name(self) -> str:
        """The query's display name."""
        return self.query.name

    @property
    def is_boolean(self) -> bool:
        """Whether the query is boolean (resilience base case)."""
        return self.query.is_boolean

    @property
    def is_full(self) -> bool:
        """Whether the query is full (Drastic applies)."""
        return self.query.is_full

    @property
    def classification(self) -> str:
        """``"poly-time"`` or ``"np-hard"`` -- the side of the dichotomy."""
        return "poly-time" if self.is_poly_time else "np-hard"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedQuery({self.query!s}, {self.classification})"


def prepare(query: Union[str, ConjunctiveQuery]) -> PreparedQuery:
    """Module-level convenience: ``PreparedQuery(query)``."""
    return PreparedQuery(query)


@dataclass(frozen=True)
class SessionStats:
    """A snapshot of one session's usage counters.

    ``cache_hits`` / ``cache_misses`` / ``joins`` come from the session's
    engine context at snapshot time; the remaining counters are incremented
    by the session methods themselves.
    """

    prepares: int = 0
    evaluations: int = 0
    solves: int = 0
    batches: int = 0
    curves: int = 0
    what_if_calls: int = 0
    deletions_applied: int = 0
    insertions_applied: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    joins: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The snapshot as a plain dict (stable keys, for reports/JSON)."""
        return dataclasses.asdict(self)


class WhatIfEntry:
    """Effect of a hypothetical deletion on one prepared query.

    The counting answers -- :attr:`outputs_removed` /
    :attr:`witnesses_removed`, the paper's *counting version* of deletion
    propagation -- are computed eagerly through the provenance's postings
    index in time proportional to the dead witnesses.  The full
    post-deletion result (:attr:`after`) is a lazy view, materialized by the
    delta semijoin on first access.
    """

    __slots__ = (
        "prepared",
        "before",
        "refs",
        "witnesses_removed",
        "outputs_removed",
        "_after",
    )

    def __init__(
        self,
        prepared: PreparedQuery,
        before: QueryResult,
        refs: FrozenSet[TupleRef],
    ):
        self.prepared = prepared
        self.before = before
        self.refs = refs
        self.witnesses_removed, self.outputs_removed = delta_counts(before, refs)
        self._after: Optional[QueryResult] = None

    @property
    def after(self) -> QueryResult:
        """The post-deletion :class:`QueryResult` (materialized on demand)."""
        result = self._after
        if result is None:
            result = delta_filter_result(self.before, self.refs)
            self._after = result
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WhatIfEntry({self.prepared.name}, -{self.outputs_removed} outputs, "
            f"-{self.witnesses_removed} witnesses)"
        )


@dataclass(frozen=True)
class WhatIfResult:
    """Result of :meth:`Session.what_if`: per-query post-deletion views.

    The ``after`` results are full :class:`QueryResult` objects (answers +
    witness provenance), derived by delta semijoins -- the bound database is
    **not** modified.
    """

    refs: FrozenSet[TupleRef]
    entries: Mapping[PreparedQuery, WhatIfEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.values())

    def entry(self, query: QueryLike) -> WhatIfEntry:
        """The entry for one query (matched by canonical form)."""
        key = _canonical_key_of(query)
        for prepared, entry in self.entries.items():
            if prepared.canonical_key == key:
                return entry
        raise KeyError(f"no what-if entry for {query!r}")

    @property
    def single(self) -> WhatIfEntry:
        """The only entry (raises ``ValueError`` unless exactly one)."""
        if len(self.entries) != 1:
            raise ValueError(
                f"what-if result holds {len(self.entries)} entries, not 1"
            )
        return next(iter(self.entries.values()))

    @property
    def total_outputs_removed(self) -> int:
        """Outputs removed summed over every tracked query."""
        return sum(entry.outputs_removed for entry in self.entries.values())


def _is_leaf_group(prepared: "PreparedQuery") -> bool:
    """Whether ``ComputeADP`` solves this query directly on the top-level
    evaluation (the greedy/drastic NP-hard leaf), with no recursion into
    derived sub-instances.

    Only such groups may be dispatched to worker processes: the leaf
    heuristics consume the seeded, byte-identical top-level
    :class:`QueryResult` exclusively, so their tie-breaking is
    process-independent.  Recursive cases (Universe / Decompose /
    Singleton / Boolean) build sub-instances by iterating relation sets,
    whose iteration order is not reproducible across processes.
    """
    return (
        not prepared.is_poly_time
        and not prepared.is_singleton
        and not prepared.universal_attributes
        and prepared.is_connected
        and not prepared.is_boolean
    )


def _canonical_key_of(query: QueryLike):
    if isinstance(query, PreparedQuery):
        return query.canonical_key
    if isinstance(query, str):
        return canonical_query_key(parse_query(query))
    return canonical_query_key(query)


class Session:
    """A connection-like handle binding one database to its solver state.

    Parameters
    ----------
    database:
        The instance every session method operates on.  The session assumes
        co-operative ownership: external in-place mutations are detected via
        relation versions (stale cache entries are never served), but only
        :meth:`apply_deletions` / :meth:`apply_insertions` migrate cached
        results incrementally.
    backend:
        The array backend for the columnar kernels
        (:mod:`repro.engine.backend`): ``"auto"`` (default -- NumPy when
        installed, pure Python otherwise), ``"numpy"`` (raise if NumPy is
        missing) or ``"python"``.  Results are **byte-identical** across
        backends (same witness order, same tie-breaking, same packed
        layout); only the column representation and the speed differ.
    workers:
        Worker processes for :meth:`solve_many`.  ``workers > 1`` starts a
        persistent pool (:mod:`repro.parallel`) on the first batch with
        more than one hard-leaf query group and dispatches those groups to
        it concurrently; solutions are byte-identical to the serial
        engine's.  Every evaluation stays on the one serial columnar join
        path, and ``workers=1`` (the default) never starts a process.
    config:
        Default :class:`~repro.core.adp.SolverConfig` for :meth:`solve` /
        :meth:`solve_many` / :meth:`curve`; per-call overrides win.

    Sessions are context managers (``with Session(db) as s: ...``);
    :meth:`close` drops the cache, interning tables and worker pool.  See
    the module docstring for the thread/process-safety contract.
    """

    def __init__(
        self,
        database: Database,
        *,
        backend: str = "auto",
        workers: int = 1,
        config: Optional[SolverConfig] = None,
    ):
        self.database = database
        workers = max(1, int(workers))
        self._context = EngineContext(backend=backend)
        self._workers = workers
        self._pool = LazyWorkerPool(workers) if workers > 1 else None
        #: Guards the usage counters and the prepared-query registry.
        self._lock = threading.Lock()
        self._config = config or SolverConfig()
        self._prepared: Dict[object, PreparedQuery] = {}
        self._counters = {
            "prepares": 0,
            "evaluations": 0,
            "solves": 0,
            "batches": 0,
            "curves": 0,
            "what_if_calls": 0,
            "deletions_applied": 0,
            "insertions_applied": 0,
        }
        self._closed = False
        # Deterministic teardown net: the session releases its context --
        # cache, interners and, crucially, the worker pool -- when garbage
        # collected, not just on an explicit close().  Without this, a
        # dropped ``workers > 1`` session leaks its worker processes until
        # interpreter exit.  close() runs the same finalizer explicitly.
        self._finalizer = weakref.finalize(self, _release, self._context, self._pool)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (closed sessions raise)."""
        return self._closed

    def close(self) -> None:
        """Release the session's cache, interning tables and worker pool.

        Idempotent and deterministic: after ``close()`` returns, a
        ``workers > 1`` session's worker processes have exited (the pool
        drains and joins them) -- the guarantee the service registry's LRU
        eviction relies on.  The same release also runs via a GC finalizer
        when an unclosed session is collected.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def activate(self):
        """Make this session's engine context ambient (``with`` block).

        Library internals that still take ``(query, database)`` pairs --
        e.g. :func:`repro.core.bruteforce.bruteforce_solve` or
        :func:`repro.core.selection.solve_with_selection` -- run against this
        session's cache and backend when called inside
        ``with session.activate():``.
        """
        self._check_open()
        return use_context(self._context)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Worker processes :meth:`solve_many` may dispatch to (1 = serial)."""
        return self._workers

    @property
    def backend(self) -> str:
        """The resolved array backend (``"python"`` or ``"numpy"``)."""
        return self._context.backend.name

    # ------------------------------------------------------------------ #
    # Preparing and evaluating
    # ------------------------------------------------------------------ #
    def prepare(self, query: QueryLike) -> PreparedQuery:
        """Parse + classify + plan ``query`` once (memoized per session)."""
        self._check_open()
        if isinstance(query, PreparedQuery):
            # Adopt foreign prepared queries so what_if() tracks them too.
            return self._adopt(query)
        if isinstance(query, str):
            query = parse_query(query)
        key = canonical_query_key(query)
        with self._lock:
            prepared = self._prepared.get(key)
        if prepared is None:
            with span("session.prepare") as psp:
                prepared = PreparedQuery(query)
                if psp:
                    psp.set(
                        query=prepared.name, plan=prepared.plan_fingerprint
                    )
            prepared = self._adopt(prepared)
        return prepared

    def _adopt(self, prepared: PreparedQuery) -> PreparedQuery:
        """Register ``prepared`` once; a thread that lost a race gets the winner."""
        with self._lock:
            existing = self._prepared.get(prepared.canonical_key)
            if existing is not None:
                return existing
            self._prepared[prepared.canonical_key] = prepared
            self._counters["prepares"] += 1
            return prepared

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[counter] += amount

    @property
    def prepared_queries(self) -> List[PreparedQuery]:
        """Every query prepared on this session (insertion order)."""
        with self._lock:
            return list(self._prepared.values())

    def evaluate(
        self,
        query: QueryLike,
        max_witnesses: Optional[int] = None,
        use_cache: bool = True,
    ) -> QueryResult:
        """Evaluate a query over the bound database with witness provenance.

        Served from the session cache when the database version matches;
        joins reuse the session's interning tables and the prepared join
        plan.  Returned results are shared -- treat them as immutable.
        """
        self._check_open()
        prepared = self.prepare(query)
        self._count("evaluations")
        with self.activate():
            return self._context.evaluate(
                prepared.query,
                self.database,
                max_witnesses,
                use_cache,
                order=prepared.join_order,
                query_key=prepared.canonical_key,
            )

    def explain(self, query: QueryLike, analyze: bool = True) -> Dict[str, object]:
        """The structured EXPLAIN payload for ``query`` on this session.

        The ``"plan"`` block (fingerprint, decomposition, join order with
        tie-break rationale, static cardinality estimates)
        is backend-independent; the ``"execution"`` block
        carries the cost-model verdicts and, with ``analyze=True``, the
        estimate-vs-actual ledger from one instrumented evaluation.  See
        ``docs/OBSERVABILITY.md`` for the schema.
        """
        self._check_open()
        from repro.obs.explain import explain_payload

        return explain_payload(self, query, analyze=analyze)

    def output_size(self, query: QueryLike) -> int:
        """``|Q(D)|`` over the bound database."""
        return self.evaluate(query).output_count()

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def _solver(
        self, solver: Optional[ADPSolver], config: Optional[SolverConfig], overrides
    ) -> ADPSolver:
        if solver is not None:
            if config is not None or overrides:
                raise ValueError("pass either a solver or config/overrides")
            return solver
        if config is not None:
            if overrides:
                raise ValueError("pass either a config object or keyword overrides")
            return ADPSolver(config)
        if overrides:
            return ADPSolver(**overrides)
        return ADPSolver(self._config)

    def solve(
        self,
        query: QueryLike,
        k: int,
        *,
        solver: Optional[ADPSolver] = None,
        config: Optional[SolverConfig] = None,
        **overrides,
    ) -> ADPSolution:
        """Solve ``ADP(query, D, k)`` over the bound database.

        ``solver`` / ``config`` / keyword overrides (e.g.
        ``heuristic="drastic"``) select the algorithm configuration; the
        session default config applies otherwise.
        """
        self._check_open()
        prepared = self.prepare(query)
        chosen = self._solver(solver, config, overrides)
        self._count("solves")
        with self.activate(), span("session.solve") as ssp:
            if ssp:
                ssp.set(
                    query=prepared.name, k=k, plan=prepared.plan_fingerprint
                )
            result = self._context.evaluate(
                prepared.query,
                self.database,
                order=prepared.join_order,
                query_key=prepared.canonical_key,
            )
            return chosen.solve_in_context(
                prepared.query, self.database, k, result=result
            )

    def solve_ratio(
        self,
        query: QueryLike,
        ratio: float,
        *,
        solver: Optional[ADPSolver] = None,
        config: Optional[SolverConfig] = None,
        **overrides,
    ) -> ADPSolution:
        """Solve with ``k = ceil(ratio * |Q(D)|)`` (the paper's ρ)."""
        self._check_open()
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        return self.solve(
            query,
            ratio_target(self.output_size(query), ratio),
            solver=solver,
            config=config,
            **overrides,
        )

    def solve_many(
        self,
        requests: Iterable[Tuple[QueryLike, int]],
        *,
        solver: Optional[ADPSolver] = None,
        config: Optional[SolverConfig] = None,
        **overrides,
    ) -> List[ADPSolution]:
        """Solve a batch of ``(query, k)`` requests, amortizing shared work.

        Requests are grouped by canonical query: each distinct query is
        evaluated once and its :class:`CostCurve` computed once at the
        group's largest ``k``; every smaller target is then read off that
        curve.  Results come back in request order.

        On a ``workers > 1`` session distinct **hard-leaf**
        query groups -- those ``ComputeADP`` solves directly on the
        top-level evaluation (NP-hard, connected, non-singleton, no
        universal attribute, non-boolean) -- are dispatched to the worker
        pool concurrently; each worker holds the bound database (shipped
        once per version) with interning tables seeded in the parent's
        order, so the seeded top-level evaluation and hence the heuristics'
        tie-breaking match the serial engine exactly.  Groups whose solve
        recurses into sub-instances (Universe/Decompose/Singleton/Boolean)
        stay parent-side: sub-instance construction iterates relation
        *sets*, whose order is process-dependent, so only the leaf path can
        guarantee serial-identical solutions by construction.  Any pool
        problem silently falls back to the serial path.
        """
        self._check_open()
        request_list = [(self.prepare(query), int(k)) for query, k in requests]
        if not request_list:
            return []
        chosen = self._solver(solver, config, overrides)
        self._count("batches")
        self._count("solves", len(request_list))

        groups: Dict[object, List[int]] = {}
        for position, (prepared, _k) in enumerate(request_list):
            groups.setdefault(prepared.canonical_key, []).append(position)

        solutions: List[Optional[ADPSolution]] = [None] * len(request_list)
        remaining = groups
        with span("session.solve_many") as msp:
            if msp:
                msp.set(requests=len(request_list), groups=len(groups))
            if self._pool is not None:
                leaf_groups = {
                    key: positions
                    for key, positions in groups.items()
                    if _is_leaf_group(request_list[positions[0]][0])
                }
                if len(leaf_groups) > 1 and self._solve_groups_in_pool(
                    request_list, leaf_groups, chosen, solutions
                ):
                    remaining = {
                        key: positions
                        for key, positions in groups.items()
                        if key not in leaf_groups
                    }
            with self.activate():
                for positions in remaining.values():
                    prepared = request_list[positions[0]][0]
                    targets = [request_list[p][1] for p in positions]
                    kmax = max(targets)
                    result = self._context.evaluate(
                        prepared.query,
                        self.database,
                        order=prepared.join_order,
                        query_key=prepared.canonical_key,
                    )
                    curve = chosen.curve(prepared.query, self.database, kmax)
                    for position, k in zip(positions, targets):
                        solutions[position] = chosen.solve_in_context(
                            prepared.query,
                            self.database,
                            k,
                            result=result,
                            curve=curve,
                        )
        return [solution for solution in solutions if solution is not None]

    def _solve_groups_in_pool(
        self,
        request_list: List[Tuple[PreparedQuery, int]],
        groups: Dict[object, List[int]],
        chosen: ADPSolver,
        solutions: List[Optional[ADPSolution]],
    ) -> bool:
        """Dispatch one ``solve_group`` task per distinct query to the pool.

        Fills ``solutions`` in place and returns ``True`` on success;
        ``False`` (pool unavailable, worker error, unpicklable payload)
        means the caller must run the serial path instead.

        Deliberate trade-off: group results (evaluation + curve) are cached
        **worker-side** only -- shipping packed provenance back through the
        pipe would usually cost more than the join it saves.  Repeat
        batches are therefore cheap (the workers hold everything), while a
        follow-up single-query ``solve``/``what_if`` on the parent
        re-evaluates there and warms the parent cache on first use.
        """
        assert self._pool is not None
        pool = self._pool.get()
        if pool is None or not pool.supports_solve_groups():
            return False
        did = self._pool.db_id(self.database)
        if did is None:
            return False
        dbkey = (did, self.database.version_token())
        group_items = list(groups.items())
        collect = tracing_active()

        def build_tasks():
            tasks = []
            for index, (_gkey, positions) in enumerate(group_items):
                worker = index % pool.size
                prepared = request_list[positions[0]][0]
                payload = {
                    "kind": "solve_group",
                    "dbkey": dbkey,
                    "query": prepared.query,
                    "targets": [request_list[p][1] for p in positions],
                    "solver": chosen,
                    "backend": self._context.backend.name,
                }
                if collect:
                    payload["trace"] = {
                        "group": index,
                        "worker": worker,
                        "query": prepared.name,
                    }
                if not pool.has_key(worker, "db", dbkey):
                    # Ship rows in this session's interned order, so worker
                    # witness order (and heuristic tie-breaking) matches the
                    # serial engine bit for bit.
                    payload["database"] = {
                        relation.name: (
                            relation.attributes,
                            self._context.interned(relation).rows,
                        )
                        for relation in self.database
                    }
                    pool.remember(worker, "db", dbkey)
                tasks.append((worker, payload))
            return tasks

        with span("parallel.solve_groups") as gsp:
            if gsp:
                gsp.set(groups=len(group_items), workers=pool.size)
            spans_out = [None] * len(group_items) if collect else None
            try:
                try:
                    results = pool.run(build_tasks(), spans_out)
                except WorkerStoreMiss as miss:
                    # A worker evicted its copy of the database: drop the
                    # stale prediction, rebuild (re-shipping the rows) and
                    # retry once.
                    for worker, namespace, key in miss.misses:
                        pool.forget(worker, namespace, key)
                    if spans_out is not None:
                        spans_out = [None] * len(group_items)
                    results = pool.run(build_tasks(), spans_out)
            except PoolBrokenError:
                self._pool.mark_failed()
                return False
            except (WorkerTaskError, WorkerStoreMiss):
                # A task failed inside a healthy worker -- e.g. an infeasible
                # target raised by the solver, or an unpicklable payload (the
                # pipe pickles inside WorkerPool.run, surfacing those as
                # WorkerTaskError too).  Re-run serially so the real exception
                # surfaces to the caller -- and keep the pool.
                return False
            if gsp and spans_out is not None:
                for forest in spans_out:
                    if forest:
                        gsp.graft(forest)
        for (_gkey, positions), outcome in zip(group_items, results):
            self._context.record_joins(outcome["joins"])
            for position, solution in zip(positions, outcome["solutions"]):
                solutions[position] = solution
        return True

    def curve(
        self,
        query: QueryLike,
        kmax: int,
        *,
        solver: Optional[ADPSolver] = None,
        config: Optional[SolverConfig] = None,
        **overrides,
    ) -> CostCurve:
        """The cost curve ``k -> (cost, solution)`` for all ``k <= kmax``.

        Publishes what ``ComputeADP`` computes internally anyway: the
        Universe/Decompose dynamic programs need sub-problem costs for many
        targets, and every base case produces its whole profile in one pass.
        """
        self._check_open()
        prepared = self.prepare(query)
        chosen = self._solver(solver, config, overrides)
        self._count("curves")
        with self.activate():
            # Warm the cache so curve-internal evaluations share the join.
            self._context.evaluate(
                prepared.query,
                self.database,
                order=prepared.join_order,
                query_key=prepared.canonical_key,
            )
            return chosen.curve(prepared.query, self.database, kmax)

    # ------------------------------------------------------------------ #
    # Incremental mutations
    # ------------------------------------------------------------------ #
    def what_if(
        self,
        refs: Iterable[TupleRef],
        query: Optional[QueryLike] = None,
    ) -> WhatIfResult:
        """Hypothetically delete ``refs``: post-deletion results, no mutation.

        For ``query`` (or, when omitted, every query prepared on this
        session) the effect is derived from the cached packed provenance by a
        delta semijoin instead of re-interning and re-joining the database:
        the counting answers (``entry.outputs_removed`` /
        ``entry.witnesses_removed``) are computed immediately through the
        postings index in time proportional to the dead witnesses, and the
        full post-deletion :class:`QueryResult` (``entry.after``) is a lazy
        view materialized on first access.  The bound database is left
        untouched.
        """
        self._check_open()
        frozen = frozenset(refs)
        if query is not None:
            targets = [self.prepare(query)]
        else:
            targets = self.prepared_queries
            if not targets:
                raise ValueError(
                    "what_if() without a query needs at least one prepared "
                    "query on the session; call session.prepare(...) first"
                )
        self._count("what_if_calls")
        entries: Dict[PreparedQuery, WhatIfEntry] = {}
        with self.activate(), span("session.what_if") as wsp:
            if wsp:
                wsp.set(refs=len(frozen), queries=len(targets))
            for prepared in targets:
                before = self._context.evaluate(
                    prepared.query,
                    self.database,
                    order=prepared.join_order,
                    query_key=prepared.canonical_key,
                )
                entries[prepared] = WhatIfEntry(prepared, before, frozen)
        return WhatIfResult(frozen, entries)

    def apply_deletions(self, refs: Iterable[TupleRef]) -> int:
        """Delete ``refs`` from the bound database, migrating caches.

        The deletion happens in place (relation versions bump, so *every*
        consumer sees the new state); cached evaluation results for the old
        version are not discarded but **delta-filtered** to the new version,
        so the next :meth:`evaluate`/:meth:`solve` per cached query is a
        cache hit instead of a join.  Returns how many referenced tuples
        were actually present.
        """
        self._check_open()
        ref_list = list(refs)
        with span("session.apply_deletions") as dsp:
            cache = self._context.cache
            snapshot = cache.take_entries(self.database)
            old_token = self.database.version_token()
            removed = self.database.remove_tuples(ref_list)
            new_token = self.database.version_token()
            for (query_key, token, backend_tag), result in snapshot.items():
                if token != old_token:
                    continue  # already stale before the deletion
                migrated = (
                    result if removed == 0 else delta_filter_result(result, ref_list)
                )
                cache.store_raw(
                    self.database, query_key, new_token, migrated, backend=backend_tag
                )
            if dsp:
                dsp.set(refs=len(ref_list), removed=removed, migrated=len(snapshot))
        self._count("deletions_applied", removed)
        return removed

    def apply_insertions(self, refs: Iterable[TupleRef]) -> int:
        """Insert ``refs`` into the bound database, migrating caches.

        The insertion happens in place (relation versions bump, so *every*
        consumer sees the new state); cached evaluation results for the old
        version are **delta-extended** to the new version by the insert
        delta join -- only the new witnesses are discovered and appended --
        so the next :meth:`evaluate`/:meth:`solve` per cached query is a
        cache hit instead of a join.  The pre-mutation interning tables are
        extended (old tids preserved, new rows appended) and seeded back
        into the engine context, so even uncached queries skip the
        re-interning pass.  References to unknown relations are ignored and
        duplicates are no-ops, mirroring :meth:`apply_deletions`; arity
        mismatches raise ``ValueError`` before anything mutates.  Returns
        how many referenced tuples were actually new.
        """
        self._check_open()
        # Normalize up front (before any state is touched): keep one ref per
        # genuinely new row of a stored relation, in arrival order.
        fresh_rows: Dict[str, List[tuple]] = {}
        seen: set = set()
        ref_list: List[TupleRef] = []
        for ref in refs:
            if ref.relation not in self.database:
                continue
            relation = self.database.relation(ref.relation)
            row = tuple(ref.values)
            if len(row) != len(relation.attributes):
                raise ValueError(
                    f"tuple {row!r} has arity {len(row)}, but relation "
                    f"{relation.name} stores arity {len(relation.attributes)}"
                )
            key = (ref.relation, row)
            if key in seen or row in relation:
                continue
            seen.add(key)
            fresh_rows.setdefault(ref.relation, []).append(row)
            ref_list.append(TupleRef(ref.relation, row))

        with span("session.apply_insertions") as isp:
            context = self._context
            cache = context.cache
            snapshot = cache.take_entries(self.database)
            old_token = self.database.version_token()

            # One extended interning table per parent index, shared across
            # every migrated cache entry and seeded into the context
            # afterwards.
            memo: Dict[int, Tuple[RelationIndex, RelationIndex]] = {}

            def extend(parent: RelationIndex) -> RelationIndex:
                entry = memo.get(id(parent))
                if entry is None:
                    entry = (
                        parent,
                        RelationIndex.extended(
                            parent, fresh_rows.get(parent.name, ())
                        ),
                    )
                    memo[id(parent)] = entry
                return entry[1]

            seeds = []
            if fresh_rows:
                for name in fresh_rows:
                    relation = self.database.relation(name)
                    seeds.append((relation, extend(context.interned(relation))))

            added = self.database.insert_tuples(ref_list)
            new_token = self.database.version_token()
            for relation, index in seeds:
                context.seed_index(relation, index)

            def row_live(name: str, row: tuple) -> bool:
                # Pre-insertion liveness, answered post-mutation: live before
                # the batch iff stored now and not part of the batch.  Interned
                # rows deleted by an earlier apply_deletions fail this test, so
                # the delta join never pairs new tuples with deleted ones (and
                # re-inserting a deleted row counts as a resurrection).
                return (
                    (name, row) not in seen
                    and row in self.database.relation(name)
                )

            for (query_key, token, backend_tag), result in snapshot.items():
                if token != old_token:
                    continue  # already stale before the insertion
                if added == 0:
                    migrated = result
                else:
                    migrated = delta_insert_result(
                        result, ref_list, extend_index=extend, row_live=row_live
                    )
                    if migrated is None:
                        # Vacuum query: not incrementally extendable -- drop
                        # the entry, the next evaluate re-joins.
                        continue
                cache.store_raw(
                    self.database, query_key, new_token, migrated, backend=backend_tag
                )
            if isp:
                isp.set(refs=len(ref_list), added=added, migrated=len(snapshot))
        self._count("insertions_applied", added)
        return added

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def clear_cache(self) -> None:
        """Drop this session's memoized evaluation results.

        On a ``workers > 1`` session this also clears the caches held by
        live workers (their interning tables and resident databases
        survive), so a cleared session genuinely re-evaluates everywhere.
        """
        self._check_open()
        self._context.cache.clear()
        if self._pool is not None:
            self._pool.clear_caches()

    @property
    def stats(self) -> SessionStats:
        """A snapshot of the session's usage counters."""
        hits, misses = self._context.cache.stats()
        with self._lock:
            counters = dict(self._counters)
        return SessionStats(
            cache_hits=hits,
            cache_misses=misses,
            joins=self._context.evaluations,
            **counters,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else self.backend
        return (
            f"Session({self.database!s}, backend={state}, "
            f"prepared={len(self.prepared_queries)})"
        )


def _release(context: EngineContext, pool: Optional[LazyWorkerPool]) -> None:
    """Drop a session's cache and interning tables and stop its workers."""
    context.release()
    if pool is not None:
        pool.close()


__all__ = [
    "PreparedQuery",
    "Session",
    "SessionStats",
    "WhatIfEntry",
    "WhatIfResult",
    "prepare",
]
