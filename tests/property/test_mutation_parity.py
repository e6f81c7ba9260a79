"""Differential mutation fuzzing: interleaved insert/delete parity.

Replays seeded random interleavings of ``apply_insertions`` /
``apply_deletions`` batches against long-lived sessions and asserts, at
*every* step, that the incrementally maintained state is indistinguishable
from a from-scratch rebuild on an identically mutated database: output
sets, witness ref-sets, witness/output counts, ``participating_refs`` and
the greedy/drastic solver objectives and the default solve's removed refs
all match, on both array backends.
A second family runs the identical trace
on the python and numpy backends side by side and asserts the packed
provenance is **byte-identical** between them after every mutation.

A third family folds the durability layer into the interleavings: at
seeded random steps the mutated session is flushed to a
:class:`~repro.storage.DatabaseStore`, closed, and *reopened* from disk --
and the recovered session must stay byte-identical (packed provenance,
output rows, version token) to an uninterrupted session replaying the same
trace, resurrection re-inserts across the restart boundary included.

The seed comes from the ``REPRO_TEST_SEED`` env knob (see tests/conftest),
so a failing CI leg is reproducible locally by exporting the seed it
prints.
"""

import random

import pytest

from repro.core.singleton import singleton_relation
from repro.data.relation import TupleRef
from repro.engine.backend import CsrPostings, as_id_list, numpy_available
from repro.engine.columnar import RelationIndex
from repro.query.cq import ConjunctiveQuery
from repro.session import Session
from repro.storage import DatabaseStore, OP_DELETE, OP_INSERT
from repro.workloads.queries import Q1, Q6, QPATH_EXP
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import (
    packed_columns,
    packed_outputs,
    random_instance,
    random_query,
    repro_test_seed,
)

SEED = repro_test_seed()
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

STEPS = 6


def _workloads(seed):
    rng = random.Random(seed)
    query = random_query(rng, max_relations=3, max_attributes=3, allow_boolean=False)
    return [
        ("zipf", QPATH_EXP, generate_zipf_path(r2_tuples=120, alpha=0.8, seed=seed)),
        ("zipf-q6", Q6, generate_zipf_path(r2_tuples=120, alpha=0.8, seed=seed)),
        ("tpch", Q1, generate_tpch(total_tuples=100, seed=seed)),
        ("random-cq", query, random_instance(query, rng, max_tuples_per_relation=6)),
    ]


WORKLOADS = _workloads(SEED)
IDS = [f"{name}-seed{SEED}" for name, _, _ in WORKLOADS]


def _insert_batch(query, database, rng, count=8):
    """Fresh tuples recombined from stored values (so most of them join)."""
    refs = []
    names = list(query.relation_names)
    for i in range(count):
        name = rng.choice(names)
        relation = database.relation(name)
        rows = sorted(relation.rows, key=repr)
        values = []
        for position in range(len(relation.attributes)):
            if rows and rng.random() < 0.85:
                values.append(rng.choice(rows)[position])
            else:
                values.append(f"f{rng.randrange(10_000)}")
        refs.append(TupleRef(name, tuple(values)))
    return refs


def _fresh_group(query, database, rng):
    """A new Case 1 singleton group: one fresh ``Ri`` tuple plus partners.

    Each other relation gets one or two tuples that carry the fresh
    ``attr(Ri)`` values and stored values elsewhere, so the group joins and
    its tid -- appended at the end of ``Ri``'s interning table, out of
    ``repr`` order -- has a small profit that ties with existing groups.
    Empty unless the query is a non-vacuum Case 1 singleton.
    """
    name = singleton_relation(query)
    if name is None:
        return []
    atom = query.atom(name)
    if atom.is_vacuum or not atom.attribute_set <= query.head_attributes:
        return []
    fresh = {attribute: f"g{rng.randrange(10_000)}" for attribute in atom.attributes}
    refs = [TupleRef(name, tuple(fresh.values()))]
    for atom in query.atoms:
        relation = database.relation(atom.name)
        rows = sorted(relation.rows, key=repr)
        if atom.name == name or not rows:
            continue
        for _ in range(rng.randint(1, 2)):
            row = rng.choice(rows)
            refs.append(TupleRef(atom.name, tuple(
                fresh.get(attribute, value)
                for attribute, value in zip(relation.attributes, row)
            )))
    return refs


def _delete_batch(query, database, rng, count=5):
    """A sample of currently stored tuples of the query's relations."""
    pool = [
        ref
        for name in query.relation_names
        for ref in sorted(database.relation(name).refs(), key=repr)
    ]
    if not pool:
        return []
    return rng.sample(pool, min(count, len(pool)))


def _mutation_trace(query, database, seed, steps=STEPS):
    """The interleaving, precomputed against a scratch mirror.

    Computing the batches against a mirror (instead of the live session's
    database) makes the trace a pure function of the seed: every session
    under test replays the byte-same batches in the byte-same order.
    """
    rng = random.Random(seed)
    mirror = database.copy()
    trace = []
    for step in range(steps):
        if step % 2 == 0:
            refs = _insert_batch(query, mirror, rng) + _fresh_group(query, mirror, rng)
            trace.append(("insert", refs))
            mirror.insert_tuples(refs)
        else:
            refs = _delete_batch(query, mirror, rng)
            trace.append(("delete", refs))
            mirror.remove_tuples(refs)
    return trace


def _apply(session_or_db, op, refs):
    if op == "insert":
        return session_or_db.apply_insertions(refs) if isinstance(
            session_or_db, Session
        ) else session_or_db.insert_tuples(refs)
    return session_or_db.apply_deletions(refs) if isinstance(
        session_or_db, Session
    ) else session_or_db.remove_tuples(refs)


def _witness_refs(result):
    return {w.refs for w in result.witnesses}


def _assert_carried_state(session, context):
    """Every cached result numbers its outputs by first witness occurrence
    (the invariant the sort-free relabel relies on), and every CSR
    postings slot it holds -- built or carried across mutations -- equals
    a fresh ``from_column`` of its witness column."""
    entries = session._context.cache.entries_snapshot(session.database)
    for result in entries.values():
        running = -1
        for out in as_id_list(result.witness_outputs):
            assert out <= running + 1, f"{context}: output {out} after {running}"
            running = max(running, out)
        for position, postings in enumerate(result._postings):
            if not isinstance(postings, CsrPostings):
                continue
            fresh = CsrPostings.from_column(result.ref_columns[position])
            assert [
                (tid, as_id_list(hits)) for tid, hits in postings.items()
            ] == [
                (tid, as_id_list(hits)) for tid, hits in fresh.items()
            ], f"{context}: carried postings of atom {position}"


def _solver_objectives(session, query, total, seed):
    """Deterministic greedy/drastic objective pair for the current state."""
    if total == 0:
        return None
    k = max(1, total // 3)
    out = {}
    for heuristic in ("greedy", "drastic"):
        solution = session.solve(query, k, heuristic=heuristic)
        out[heuristic] = (
            solution.size, solution.removed_outputs, solution.is_feasible()
        )
        assert solution.removed_outputs >= k, (
            f"seed={seed}: {heuristic} returned an infeasible solution"
        )
    return out


def _solve_answers(session, query, total):
    """The default solve's full answer for every ``k``: objective plus the
    sorted removed refs.

    Mutated sessions hold appended tids out of ``repr`` order, so equal
    answers pin that no tie-break falls back to tid order -- ties sit
    anywhere in the curve, hence every ``k``.  Descending ``k`` keeps all
    but the first solve a curve-cache hit.
    """
    answers = []
    for k in range(total, 0, -1):
        solution = session.solve(query, k)
        answers.append((solution.objective, sorted(repr(ref) for ref in solution.removed)))
    return answers


def _assert_matches_rebuild(session, mirror, query, backend, context):
    """The incremental state of ``query`` equals a from-scratch rebuild."""
    incremental = session.evaluate(query)
    with Session(mirror.copy(), backend=backend) as oracle:
        fresh = oracle.evaluate(query)
        assert set(incremental.output_rows) == set(fresh.output_rows), context
        assert _witness_refs(incremental) == _witness_refs(fresh), context
        assert incremental.witness_count() == fresh.witness_count(), context
        assert incremental.output_count() == fresh.output_count(), context
        assert (
            incremental.participating_refs() == fresh.participating_refs()
        ), context
        total = incremental.output_count()
        assert _solver_objectives(session, query, total, SEED) == (
            _solver_objectives(oracle, query, total, SEED)
        ), context
        assert _solve_answers(session, query, total) == (
            _solve_answers(oracle, query, total)
        ), context


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_interleaved_mutations_match_rebuild(name, query, database, backend):
    trace = _mutation_trace(query, database, seed=SEED)
    session = Session(database.copy(), backend=backend)
    mirror = database.copy()
    with session:
        session.evaluate(query)  # a resident cache entry to migrate each step
        for step, (op, refs) in enumerate(trace):
            changed = _apply(session, op, refs)
            assert changed == _apply(mirror, op, refs), (
                f"seed={SEED} step={step}: {op} count diverged"
            )
            context = f"seed={SEED} step={step} op={op} [{name}]"
            _assert_carried_state(session, context)
            _assert_matches_rebuild(session, mirror, query, backend, context)
        # The incremental path genuinely rode the cache, not re-evaluation.
        assert session.stats.cache_hits >= len(trace)


def _late_query(query):
    """A query over the same relations that differs from ``query``: the
    projection onto its first head attribute, else the full query, else
    the boolean one."""
    attributes = tuple(
        dict.fromkeys(a for atom in query.atoms for a in atom.attributes)
    )
    if len(query.head) > 1:
        head = query.head[:1]
    elif set(query.head) != set(attributes):
        head = attributes
    else:
        head = ()
    return ConjunctiveQuery(head, query.atoms, name=f"{query.name}_late")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_interleaving_continues_on_recovered_session(
    tmp_path, name, query, database, backend
):
    """Crash and recover at one seeded step, then keep mutating.

    At the crash step the session is snapshotted and reopened from disk, so
    the rest of the trace runs on recovered interning tables -- dead rows
    included.  A second query is first evaluated only after the crash: its
    fresh join over the recovered tables must match the rebuild too.
    """
    trace = _mutation_trace(query, database, seed=SEED)
    crash_at = random.Random(SEED ^ 0xC2A54).randrange(1, len(trace))
    late = _late_query(query)
    session = Session(database.copy(), backend=backend)
    mirror = database.copy()
    store = DatabaseStore(tmp_path)
    try:
        session.evaluate(query)
        for step, (op, refs) in enumerate(trace):
            context = f"seed={SEED} step={step} op={op} [{name}] crash_at={crash_at}"
            if step == crash_at:
                store.initialize("db", session, 1)
                session.close()
                store.close()
                store = DatabaseStore(tmp_path)
                session = store.load("db", backend=backend).session
            assert _apply(session, op, refs) == _apply(mirror, op, refs), context
            _assert_matches_rebuild(session, mirror, query, backend, context)
            if step >= crash_at:
                _assert_matches_rebuild(session, mirror, late, backend, context)
    finally:
        session.close()
        store.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_delete_insert_then_new_query_interns_nothing(monkeypatch, backend):
    """After a delete and an insert, a query the session never saw reuses
    the mutated relation's successor table: no interning pass runs for it,
    and every cached result indexes the context's current tables."""
    database = generate_zipf_path(r2_tuples=200, alpha=0.8, seed=SEED)
    rows = sorted(database.relation("R2").refs(), key=repr)
    interned = []
    original_init = RelationIndex.__init__

    def counting_init(self, relation):
        interned.append(relation.name)
        original_init(self, relation)

    with Session(database, backend=backend) as session:
        session.evaluate(Q6)
        monkeypatch.setattr(RelationIndex, "__init__", counting_init)
        session.apply_deletions(rows[:20])
        session.apply_insertions(
            rows[:5] + [TupleRef("R2", (rows[0].values[0], "late"))]
        )
        session.evaluate(QPATH_EXP)
        assert "R2" not in interned
        context = session._context
        entries = context.cache.entries_snapshot(database)
        assert len(entries) == 2
        for result in entries.values():
            for name, index in zip(result.atom_names, result.indexes):
                assert context.current_index(database.relation(name)) is index


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_snapshot_reopen_matches_uninterrupted_run(
    tmp_path, name, query, database, backend
):
    """Random snapshot/reopen points never perturb the mutation trace.

    Both sessions are built from ``database.copy()`` -- two copies of one
    source replay the same insertion sequence, so their interning orders
    agree (copy-vs-original would not: set iteration order is a function of
    insertion history).  The durable session additionally write-throughs
    every batch and, at seeded random steps, is torn down and recovered
    from disk mid-trace.
    """
    trace = _mutation_trace(query, database, seed=SEED)
    # A closing resurrection batch: re-insert tuples the trace deleted, so
    # dead interned tids revive across at least the final restart.
    deleted = [ref for op, refs in trace for ref in refs if op == "delete"]
    trace = trace + [("insert", deleted[: max(1, len(deleted) // 2)])]
    rng = random.Random(SEED ^ 0xD07A11)
    reopen_at = {step for step in range(len(trace)) if rng.random() < 0.4}
    reopen_at.add(len(trace) - 2)  # the resurrection batch lands after a reopen
    store = DatabaseStore(tmp_path, compact_after=2)
    durable = Session(database.copy(), backend=backend)
    reference = Session(database.copy(), backend=backend)
    context = f"seed={SEED} [{name}] backend={backend}"
    try:
        durable.evaluate(query)
        reference.evaluate(query)
        store.initialize("db", durable, 1)
        version = 1
        for step, (op, refs) in enumerate(trace):
            if step - 1 in reopen_at:
                durable.close()
                store.close()
                store = DatabaseStore(tmp_path, compact_after=2)
                recovered = store.load("db", backend=backend)
                assert recovered.version == version, f"{context} step={step}"
                durable = recovered.session
            assert _apply(durable, op, refs) == _apply(reference, op, refs)
            version += 1
            store.record_mutation(
                "db",
                durable,
                OP_INSERT if op == "insert" else OP_DELETE,
                refs,
                version,
            )
            durable_result = durable.evaluate(query)
            reference_result = reference.evaluate(query)
            step_context = f"{context} step={step} op={op}"
            assert packed_columns(durable_result) == packed_columns(
                reference_result
            ), step_context
            assert packed_outputs(durable_result) == packed_outputs(
                reference_result
            ), step_context
            assert durable_result.output_rows == reference_result.output_rows, (
                step_context
            )
            assert (
                durable.database.version_token()
                == reference.database.version_token()
            ), step_context
    finally:
        durable.close()
        reference.close()
        store.close()


def _what_if_probe(query, database, deleted, rng):
    """Live refs of every atom, already-deleted refs and an unknown relation."""
    probe = _delete_batch(query, database, rng, count=6)
    probe += rng.sample(deleted, min(3, len(deleted)))
    probe.append(TupleRef("NoSuchRelation", ("x",)))
    return probe


def _assert_what_if_parity(py_session, np_session, query, deleted, rng, context):
    probe = _what_if_probe(query, py_session.database, deleted, rng)
    counts = []
    for session in (py_session, np_session):
        entry = session.what_if(probe, query).single
        counts.append((entry.witnesses_removed, entry.outputs_removed))
    assert counts[0] == counts[1], f"{context} what_if probe={probe}"


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_mutation_trace_byte_identical_across_backends(name, query, database):
    """python and numpy replay the same trace into byte-identical packing.

    After every step both sessions also answer the same what-if probe, so
    the postings each backend reads -- dict postings rebuilt lazily on
    python, CSR postings carried across mutations on numpy -- must agree
    on the counts.
    """
    trace = _mutation_trace(query, database, seed=SEED)
    rng = random.Random(SEED ^ 0x9E0BE)
    deleted = []
    with Session(database.copy(), backend="python") as py_session, Session(
        database.copy(), backend="numpy"
    ) as np_session:
        py_session.evaluate(query)
        np_session.evaluate(query)
        _assert_what_if_parity(
            py_session, np_session, query, deleted, rng, f"seed={SEED} [{name}]"
        )
        for step, (op, refs) in enumerate(trace):
            assert _apply(py_session, op, refs) == _apply(np_session, op, refs)
            if op == "delete":
                deleted.extend(refs)
            py_result = py_session.evaluate(query)
            np_result = np_session.evaluate(query)
            context = f"seed={SEED} step={step} op={op} [{name}]"
            _assert_what_if_parity(py_session, np_session, query, deleted, rng, context)
            _assert_carried_state(py_session, context)
            _assert_carried_state(np_session, context)
            assert packed_columns(np_result) == packed_columns(
                py_result
            ), context
            assert packed_outputs(np_result) == packed_outputs(
                py_result
            ), context
            assert np_result.output_rows == py_result.output_rows, context
            assert list(np_result.witness_outputs) == list(
                py_result.witness_outputs
            ), context
