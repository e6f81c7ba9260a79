"""The shared solve serializer: one schema for CLI --json and the service."""

import json

import pytest

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.service.serialize import (
    dumps_canonical,
    refs_from_json,
    refs_to_json,
    solution_payload,
)
from repro.session import Session


@pytest.fixture
def session():
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
        {
            "R1": [(1,), (2,)],
            "R2": [(1, 10), (1, 11), (2, 20)],
            "R3": [(10,), (11,), (20,)],
        },
    )
    with Session(database) as s:
        yield s


QUERY = "Q(A) :- R1(A), R2(A, B), R3(B)"


def test_solution_payload_stable_schema(session):
    prepared = session.prepare(QUERY)
    total = session.output_size(prepared)
    solution = session.solve(prepared, 1)
    payload = solution_payload(session, prepared, total, solution)
    assert payload == {
        "query": "Q(A) :- R1(A), R2(A, B), R3(B)",
        "classification": "np-hard",
        "backend": session.backend,
        "workers": 1,
        "output_size": 2,
        "k": 1,
        "objective": solution.size,
        "removed_outputs": solution.removed_outputs,
        "optimal": False,
        "method": "greedy",
        "removed": sorted(str(ref) for ref in solution.removed),
    }
    # Canonical encoding is deterministic byte for byte.
    assert dumps_canonical(payload) == dumps_canonical(dict(reversed(payload.items())))


def test_solution_payload_empty_result(session):
    prepared = session.prepare("Qe(A) :- R1(A), R2(A, B), R3(B)")
    payload = solution_payload(session, prepared, 0, None)
    assert payload["k"] == 0
    assert payload["objective"] == 0
    assert payload["method"] == "empty-result"
    assert payload["optimal"] is True
    assert payload["removed"] == []


def test_cli_json_uses_the_shared_serializer(tmp_path, capsys, session):
    """``repro solve --json`` = shared schema + ``elapsed_ms`` on top."""
    from repro.cli import main
    from repro.data.csvio import save_database_csv

    save_database_csv(session.database, tmp_path)
    assert main([
        "solve", QUERY, str(tmp_path), "--k", "1", "--json",
        "--backend", session.backend,
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    elapsed = payload.pop("elapsed_ms")
    assert isinstance(elapsed, float) and elapsed > 0
    # CSV databases store strings, so re-solve on the session's own
    # database only after aligning the value domain: compare schemas, not
    # values, plus the full payload against a string-domain session.
    from repro.data.csvio import load_database_csv

    reloaded = load_database_csv(str(tmp_path))
    with Session(reloaded, backend=session.backend) as string_session:
        prepared = string_session.prepare(QUERY)
        total = string_session.output_size(prepared)
        solution = string_session.solve(prepared, 1)
        expected = solution_payload(string_session, prepared, total, solution)
    assert payload == expected


def test_refs_round_trip():
    refs = [TupleRef("R2", (1, 10)), TupleRef("R1", (2,))]
    wire = refs_to_json(refs)
    assert wire == [["R1", [2]], ["R2", [1, 10]]]
    assert sorted(refs_from_json(wire)) == sorted(refs)


@pytest.mark.parametrize(
    "bad",
    [
        "not-a-list",
        [["R1"]],
        [[1, [2]]],
        [["R1", "values"]],
        [{"relation": "R1"}],
    ],
)
def test_refs_from_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        refs_from_json(bad)
