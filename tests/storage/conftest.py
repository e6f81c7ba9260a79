"""Shared fixtures of the durability suite.

The helpers here pin down the one methodological constraint the
byte-identity assertions rely on: a *reference* session must be built by
replaying the identical construction path (same insertion sequence into
fresh relations), never by copying an existing database -- ``set``
iteration order is a function of insertion history, so a copy interns rows
in a different order and the packed columns legitimately differ.
"""

import random

import pytest

from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.engine.backend import numpy_available
from repro.session import Session
from repro.storage import disarm_all

from tests.conftest import packed_columns, packed_outputs, repro_test_seed

SEED = repro_test_seed()
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

QUERY = "Q(a, c) :- R1(a, b), R2(b, c)"
STEPS = 6


@pytest.fixture(autouse=True)
def _clean_crash_points():
    """No armed crash point ever leaks into (or out of) a test."""
    disarm_all()
    yield
    disarm_all()


def make_db(seed=SEED, scale=24):
    """A deterministic two-relation join instance (same seed, same bytes)."""
    rng = random.Random(seed)
    r1 = Relation("R1", ("a", "b"))
    r2 = Relation("R2", ("b", "c"))
    for i in range(scale):
        r1.insert((rng.randrange(scale), rng.randrange(scale // 2)))
        r2.insert((rng.randrange(scale // 2), rng.randrange(6)))
    return Database([r1, r2])


def mutation_batches(seed=SEED, steps=STEPS):
    """A deterministic interleaving of insert/delete batches.

    Precomputed against a scratch mirror so the trace is a pure function of
    the seed, and ending with a **resurrection** batch: the final insert
    re-adds tuples a previous batch deleted, exercising the append-only
    interning table's dead-tid revival across snapshot/restart boundaries.
    """
    rng = random.Random(seed + 1)
    mirror = make_db(seed)
    batches = []
    deleted = []
    for step in range(steps - 1):
        if step % 2 == 0:
            refs = []
            for _ in range(4):
                name = rng.choice(("R1", "R2"))
                relation = mirror.relation(name)
                width = len(relation.attributes)
                refs.append(
                    TupleRef(name, tuple(rng.randrange(40, 80) for _ in range(width)))
                )
            batches.append(("insert", refs))
            mirror.insert_tuples(refs)
        else:
            pool = [
                ref
                for name in ("R1", "R2")
                for ref in sorted(mirror.relation(name).refs(), key=repr)
            ]
            refs = rng.sample(pool, min(3, len(pool)))
            batches.append(("delete", refs))
            mirror.remove_tuples(refs)
            deleted.extend(refs)
    resurrection = deleted[: max(1, len(deleted) // 2)]
    batches.append(("insert", resurrection))
    return batches


def apply_batch(session, op, refs):
    if op == "insert":
        return session.apply_insertions(refs)
    return session.apply_deletions(refs)


def reference_session(backend, batch_count, seed=SEED, query=QUERY):
    """A never-crashed session: same construction path, first N batches."""
    session = Session(make_db(seed), backend=backend)
    session.evaluate(query)
    for op, refs in mutation_batches(seed)[:batch_count]:
        apply_batch(session, op, refs)
    return session


def fingerprint(session, query=QUERY):
    """Everything byte-identity covers: packing, tables, rows, version token.

    Interning tables are taken from the result (the tables its
    packed columns actually index into), not ``context.interned`` -- the
    latter lazily *rebuilds* from the live set when its cached table is
    stale, and set iteration order would make that rebuild diverge between
    two equal databases with different mutation histories.
    """
    result = session.evaluate(query)
    database = session.database
    fp = {
        "token": database.version_token(),
        "columns": tuple(tuple(column) for column in packed_columns(result)),
        "outputs": tuple(packed_outputs(result)),
        "output_rows": tuple(sorted(result.output_rows, key=repr)),
    }
    for rel_name, index in zip(result.atom_names, result.indexes):
        fp["interned:" + rel_name] = tuple(index.rows)
        fp["tids:" + rel_name] = tuple(sorted(index.ids.items(), key=repr))
    for name in sorted(database.relation_names):
        fp["rows:" + name] = tuple(sorted(database.relation(name), key=repr))
    return fp
