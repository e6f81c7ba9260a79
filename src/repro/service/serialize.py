"""The one solve-result JSON schema, shared by the CLI and the service.

``repro solve --json`` and the service's ``POST /v1/solve`` must answer with
the *same* payload for the same solve -- that parity is an acceptance test,
so the serialization lives in exactly one place.  The CLI adds an
``elapsed_ms`` field on top; the service adds its own envelope fields
(``database``, ``version``, ``batched``, ``elapsed_ms``) next to the same
stable solution schema.

Tuple references cross the wire as ``["Relation", [value, ...]]`` pairs.
JSON has fewer scalar types than Python, so a round-tripped ref only
matches a stored tuple when the database itself was loaded from the same
JSON value domain (the service's ``POST /v1/databases``) or from CSV
(strings); :func:`refs_from_json` is intentionally literal and performs no
coercion.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.data.relation import TupleRef

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.solution import ADPSolution
    from repro.data.database import Database
    from repro.session import PreparedQuery, Session, WhatIfEntry


def solution_payload(
    session: "Session",
    prepared: "PreparedQuery",
    total: int,
    solution: "Optional[ADPSolution]",
) -> dict:
    """The stable JSON schema of one solve (shared CLI/service serializer).

    ``solution`` may be ``None`` for the empty-result case (``|Q(D)| = 0``
    is a legitimate answer: nothing to remove, objective 0).  Every field
    is deterministic for a deterministic solve -- the parity suite compares
    these payloads byte for byte across transports.
    """
    return {
        "query": str(prepared.query),
        "classification": prepared.classification,
        "backend": session.backend,
        "workers": session.workers,
        "output_size": total,
        "k": solution.k if solution else 0,
        "objective": solution.size if solution else 0,
        "removed_outputs": solution.removed_outputs if solution else 0,
        "optimal": solution.optimal if solution else True,
        "method": solution.method if solution else "empty-result",
        "removed": (
            sorted(str(ref) for ref in solution.removed) if solution else []
        ),
    }


def prepare_payload(prepared: "PreparedQuery") -> dict:
    """The stable JSON schema of one prepared query (``POST /v1/prepare``)."""
    return {
        "query": str(prepared.query),
        "name": prepared.name,
        "classification": prepared.classification,
        "is_poly_time": prepared.is_poly_time,
        "is_singleton": prepared.is_singleton,
        "is_boolean": prepared.is_boolean,
        "is_full": prepared.is_full,
        "is_connected": prepared.is_connected,
        "universal_attributes": sorted(prepared.universal_attributes),
        "join_order": list(prepared.join_order),
    }


def refs_to_json(refs: Iterable[TupleRef]) -> List[list]:
    """Tuple references as wire pairs, deterministically ordered."""
    return [
        [ref.relation, list(ref.values)]
        for ref in sorted(refs, key=lambda r: (r.relation, str(r.values)))
    ]


def refs_from_json(raw: Sequence) -> List[TupleRef]:
    """Parse wire-format tuple references (``["R", [v, ...]]`` pairs).

    Raises ``ValueError`` with a client-friendly message on malformed input
    (the HTTP layer maps it to a 400).
    """
    if not isinstance(raw, (list, tuple)):
        raise ValueError("refs must be a list of [relation, [values...]] pairs")
    refs: List[TupleRef] = []
    for item in raw:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], (list, tuple))
        ):
            raise ValueError(
                f"malformed ref {item!r}; expected [relation, [values...]]"
            )
        values = [tuple(v) if isinstance(v, list) else v for v in item[1]]
        refs.append(TupleRef(item[0], tuple(values)))
    return refs


def dumps_canonical(payload: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, compact separators, UTF-8.

    One encoder for every service response, so identical payloads are
    byte-identical on the wire (what the parity acceptance test asserts).
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def elapsed_ms(start: float, end: float) -> float:
    """Wall-clock milliseconds, rounded to a stable 0.001 ms resolution."""
    return round((end - start) * 1000.0, 3)


def database_to_wire(database: "Database") -> dict:
    """A database as a ``POST /v1/databases`` body fragment.

    The client-side counterpart of :func:`_handle_register`'s parsing:
    ``{"schema": {relation: [attributes...]}, "rows": {relation: [[...]]}}``
    (merge in ``name``/``replace`` before posting).  Used by the load
    harness and the test-suite; values must be JSON-representable.
    """
    return {
        "schema": {r.name: list(r.attributes) for r in database},
        "rows": {r.name: [list(row) for row in r.rows] for r in database},
    }


def database_payload(name: str, version: int, database: "Database", *,
                     backend: str, workers: int) -> dict:
    """The JSON schema of one registry entry (``GET /v1/databases``)."""
    return {
        "name": name,
        "version": version,
        "backend": backend,
        "workers": workers,
        "relations": {r.name: len(r) for r in database},
        "total_tuples": database.total_tuples(),
    }


def what_if_payload(entry: "WhatIfEntry", *, include_after: bool = False) -> dict:
    """The JSON schema of one what-if entry (``POST /v1/what_if``).

    ``include_after`` additionally materializes the post-deletion result
    (a delta semijoin) and reports its output/witness counts.
    """
    payload = {
        "query": str(entry.prepared.query),
        "outputs_removed": entry.outputs_removed,
        "witnesses_removed": entry.witnesses_removed,
        "output_size_before": entry.before.output_count(),
        "witness_count_before": entry.before.witness_count(),
    }
    if include_after:
        payload["output_size_after"] = entry.after.output_count()
        payload["witness_count_after"] = entry.after.witness_count()
    return payload


def error_payload(message: str, *, retry_after_s: Optional[float] = None) -> dict:
    """The uniform error body (every non-2xx response uses it)."""
    payload = {"error": message}
    if retry_after_s is not None:
        payload["retry_after_s"] = retry_after_s
    return payload


__all__ = [
    "database_payload",
    "database_to_wire",
    "dumps_canonical",
    "elapsed_ms",
    "error_payload",
    "prepare_payload",
    "refs_from_json",
    "refs_to_json",
    "solution_payload",
    "what_if_payload",
]
