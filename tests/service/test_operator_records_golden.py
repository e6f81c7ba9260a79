"""Golden operator records: EXPLAIN, ``"stats": true`` and the gauges.

The fixture ``operator_records_golden.json`` was captured from the
two-channel implementation (a stats collector running beside the tracer)
before operator records moved onto span attributes.  Every surface that
reports them must reproduce it field for field:

* ``Session.explain`` -- the whole ``execution`` block (backend verdict,
  cache disposition, operators, ledger, flags, worst misestimate),
  including a cache-hit EXPLAIN that re-joins past the cache;
* the operator records of an insert plus a delete what-if
  (``delta.insert`` / ``delta.counts`` / ``delta.filter``, and the
  ``join.atom`` steps of the insert's delta join: one term per atom that
  gained rows, here two steps for ``Q6`` and three for ``Qh``);
* ``POST /v1/solve`` with ``"stats": true`` -- ``operators`` and
  ``worst_misestimate``;
* the per-database ``repro_service_operator_*`` gauges at ``/metrics``.

Operator records are compared per ``op``, in order within each ``op``:
the ``backend`` record now rides on the ``engine.join`` span, which
closes after its ``engine.join.atom`` children, so it moved behind the
join steps in the flat list.

Regenerate (only when a record's schema changes on purpose) with
``PYTHONPATH=src python -m tests.service.test_operator_records_golden``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.obs.stats import operator_records
from repro.obs.trace import Tracer, use_tracer
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

from tests.service.conftest import JsonClient, database_as_wire

FIXTURE = Path(__file__).with_name("operator_records_golden.json")

QUERIES = {
    "Q6": "Q6(A, B) :- R1(A), R2(A, B)",
    "Qh": "Qh(A) :- R1(A), R2(A, B), R3(B)",
}

#: "auto" is the cost-model-gated NumPy backend: the small database is
#: demoted to the Python kernels, the mid one is vectorized.
BACKENDS = ["python"] + (["numpy", "auto"] if numpy_available() else [])


def _databases():
    return {
        "small": generate_zipf_path(r2_tuples=300, alpha=1.2, seed=11),
        "mid": generate_zipf_path(r2_tuples=900, alpha=1.2, seed=11),
    }


def _json(value):
    return json.loads(json.dumps(value))


def _records(fn: Callable[[], object]) -> List[dict]:
    """The operator records ``fn`` leaves on the spans of one tracer."""
    tracer = Tracer()
    with use_tracer(tracer):
        fn()
    return operator_records(tracer)


def _what_if_batches(database):
    """A seeded insert batch (new R2 edges) and a delete batch (old ones)."""
    rng = random.Random(5)
    a_values = sorted(row[0] for row in database.relation("R1"))
    b_values = sorted(row[0] for row in database.relation("R3"))
    stored = set(database.relation("R2"))
    inserted = []
    while len(inserted) < 12:
        row = (rng.choice(a_values), rng.choice(b_values))
        if row not in stored:
            stored.add(row)
            inserted.append(TupleRef("R2", row))
    deleted = [
        TupleRef("R2", row)
        for row in rng.sample(sorted(database.relation("R2")), 10)
    ]
    return inserted, deleted + [TupleRef("R1", (a_values[0],))]


def _session_scenarios(backend: str) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for db_name, database in _databases().items():
        with Session(database, backend=backend) as session:
            for query_name, query in QUERIES.items():
                out[f"explain/{db_name}/{query_name}"] = session.explain(
                    query
                )["execution"]
    with Session(_databases()["small"], backend=backend) as session:
        session.evaluate(QUERIES["Qh"])  # prime the result cache
        out["explain/cache-hit/Qh"] = session.explain(QUERIES["Qh"])["execution"]
    database = _databases()["small"]
    inserted, deleted = _what_if_batches(database)
    with Session(database, backend=backend) as session:
        for query in QUERIES.values():
            session.evaluate(query)

        def insert_then_delete() -> None:
            session.apply_insertions(inserted)
            for query in QUERIES.values():
                entry = session.what_if(deleted, query).single
                entry.after.output_count()

        out["what_if/insert+delete"] = {
            "operators": _records(insert_then_delete)
        }
    return _json(out)


def _service_scenarios(backend: str) -> Dict[str, object]:
    from repro.service.http import ServiceConfig, ServiceRunner

    out: Dict[str, object] = {}
    runner = ServiceRunner(
        ServiceConfig(port=0, backend=backend)
    ).start()
    client = JsonClient("127.0.0.1", runner.port)
    try:
        status, body, _ = client.post(
            "/v1/databases",
            {"name": "demo", **database_as_wire(_databases()["small"])},
        )
        assert status == 200, body
        for query_name, query in QUERIES.items():
            status, body, _ = client.post(
                "/v1/solve",
                {"database": "demo", "query": query, "k": 2, "stats": True},
            )
            assert status == 200, body
            out[f"solve-stats/{query_name}"] = body["stats"]
        exposition = client.get("/metrics")[1].decode("utf-8")
        out["metrics/operator-gauges"] = sorted(
            line for line in exposition.splitlines()
            if line.startswith("repro_service_operator_")
        )
    finally:
        client.close()
        runner.close()
    return _json(out)


def _capture(backend: str) -> Dict[str, object]:
    return {**_session_scenarios(backend), **_service_scenarios(backend)}


def _by_op(records: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for record in records:
        grouped.setdefault(record["op"], []).append(record)
    return grouped


def _normalized(scenario: object) -> object:
    """``operators`` grouped per op (order within one op is kept)."""
    if isinstance(scenario, dict) and "operators" in scenario:
        return {**scenario, "operators": _by_op(scenario["operators"])}
    return scenario


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_operator_records_match_golden(golden, backend):
    expected = golden[backend]
    actual = _capture(backend)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert _normalized(actual[name]) == _normalized(expected[name]), name


def test_golden_covers_every_operator():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    ops = {
        record["op"]
        for scenarios in golden.values()
        for scenario in scenarios.values()
        if isinstance(scenario, dict)
        for record in scenario.get("operators", [])
    }
    assert ops == {
        "evaluate", "backend", "join.atom", "factorize",
        "delta.counts", "delta.filter", "delta.insert",
    }
    assert set(golden) == {"python", "numpy", "auto"}


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if not numpy_available():
        raise SystemExit("regenerating the fixture needs NumPy")
    FIXTURE.write_text(
        json.dumps(
            {backend: _capture(backend) for backend in ("python", "numpy", "auto")},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
