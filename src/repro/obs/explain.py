"""EXPLAIN: a structured account of how one query runs, plan and actuals.

The payload splits into two blocks with different stability contracts:

* ``"plan"`` is **backend-independent**: the plan fingerprint
  (exactly :attr:`repro.session.PreparedQuery.plan_fingerprint` -- never
  recomputed here), the dichotomy decomposition flags, the join order with
  its greedy tie-break rationale, and the static uniform-independence cardinality estimates (computed
  with the pure-Python hash tables so NumPy availability cannot perturb
  a byte of it).  The same query over the same database yields a
  byte-identical plan block under every array backend --
  the property the golden-snapshot tests pin down.
* ``"execution"`` carries everything backend-dependent: the resolved
  backend and its ``MIN_VECTOR_TUPLES`` cost-model verdict, the cache
  disposition, the raw operator records the engine's spans carry (read
  back with :func:`repro.obs.stats.operator_records`), and the
  estimate-vs-actual cardinality ledger with misprediction flags.

With ``analyze=True`` (the default) the query is evaluated once under its
own :class:`~repro.obs.trace.Tracer` to fill the actuals -- EXPLAIN
ANALYZE semantics; a cache hit is transparently re-joined with the cache
bypassed so the ledger always sees real operator counts.

Imports of the session/engine tiers are deliberately lazy (function
level): ``repro.session`` imports ``repro.obs.trace`` at module load, so
an eager import here would cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.stats import (
    MISPREDICTION_RATIO,
    StatsRecord,
    misestimate_factor,
    operator_records,
    worst_misestimate,
)
from repro.obs.trace import Tracer, use_tracer

#: Bumped when the payload schema changes shape (service clients key on it).
EXPLAIN_VERSION = 4


# --------------------------------------------------------------------------- #
# Static (plan-time) cardinality estimates
# --------------------------------------------------------------------------- #
def _static_estimates(context, database, prepared) -> Dict[str, object]:
    """Uniform-independence estimates for every join step and the output.

    Distinct-key counts come from the interning tables' cached hash
    groupings under the **pure-Python** backend, so the numbers (and their
    reprs) are identical whether or not NumPy is installed -- the plan
    block must not depend on the backend.  The output estimate multiplies
    each head attribute's domain size in its *binding* atom (the first
    atom of the join order containing it), capped by the witness estimate.
    """
    from repro.engine.backend import python_backend

    query = prepared.query
    non_vacuum = [a for a in query.atoms if not a.is_vacuum]
    ordered = [non_vacuum[i] for i in prepared.join_order]
    backend = python_backend()
    bound_attrs: set = set()
    binding: Dict[str, int] = {}
    indexes = []
    estimate: Optional[float] = None
    steps: List[Dict[str, object]] = []
    for position, atom in enumerate(ordered):
        index = context.interned(database.relation(atom.name))
        indexes.append(index)
        rows = index.live_count
        shared = [a for a in atom.attributes if a in bound_attrs]
        distinct: Optional[int] = None
        if shared:
            positions = tuple(index.attributes.index(a) for a in shared)
            distinct = len(index.hash_groups(positions, backend))
            step_estimate = (
                (estimate or 0.0) * rows / distinct if distinct else 0.0
            )
        elif estimate is None:
            step_estimate = float(rows)
        else:
            step_estimate = estimate * rows
        estimate = step_estimate
        steps.append(
            {
                "position": position,
                "relation": atom.name,
                "rows": rows,
                "shared": shared,
                "distinct_keys": distinct,
                "estimated": round(step_estimate, 3),
            }
        )
        for attribute in atom.attributes:
            binding.setdefault(attribute, position)
        bound_attrs |= atom.attribute_set
    est_witnesses = round(estimate, 3) if estimate is not None else None
    est_outputs: Optional[float] = None
    if estimate is not None:
        if query.head:
            domain = 1.0
            for attribute in query.head:
                position = binding.get(attribute)
                if position is None:  # pragma: no cover - head attr unbound
                    continue
                index = indexes[position]
                p = index.attributes.index(attribute)
                domain *= len(index.hash_groups((p,), backend))
            est_outputs = round(min(estimate, domain), 3)
        else:
            est_outputs = round(min(estimate, 1.0), 3)
    return {
        "assumption": "uniform-independence",
        "steps": steps,
        "witnesses": est_witnesses,
        "outputs": est_outputs,
    }


# --------------------------------------------------------------------------- #
# Plan block (backend independent)
# --------------------------------------------------------------------------- #
def _plan_block(context, database, prepared) -> Dict[str, object]:
    from repro.engine.evaluate import join_order_steps

    return {
        "fingerprint": prepared.plan_fingerprint,
        "name": prepared.name,
        "query": str(prepared.query),
        "head": list(prepared.query.head),
        "classification": prepared.classification,
        "decomposition": {
            "poly_time": prepared.is_poly_time,
            "singleton": prepared.is_singleton,
            "boolean": prepared.is_boolean,
            "full": prepared.is_full,
            "connected": prepared.is_connected,
            "universal_attributes": sorted(prepared.universal_attributes),
        },
        "join_order": join_order_steps(prepared.query),
        "estimates": _static_estimates(context, database, prepared),
    }


# --------------------------------------------------------------------------- #
# Execution block (backend verdicts + actuals)
# --------------------------------------------------------------------------- #
def _backend_verdict(context, database, prepared) -> Dict[str, object]:
    from repro.engine.backend import MIN_VECTOR_TUPLES, gated_backend

    backend = context.backend
    non_vacuum = [a for a in prepared.query.atoms if not a.is_vacuum]
    total = sum(len(database.relation(a.name)) for a in non_vacuum)
    gated = bool(getattr(backend, "gated", False))
    effective = gated_backend(backend, total)
    demoted = effective is not backend
    if demoted:
        verdict = (
            f"{total} input tuples < MIN_VECTOR_TUPLES={MIN_VECTOR_TUPLES}: "
            "fixed per-kernel overhead beats vectorization, demoted to python"
        )
    elif backend.is_numpy and gated:
        verdict = (
            f"{total} input tuples >= MIN_VECTOR_TUPLES={MIN_VECTOR_TUPLES}: "
            "vectorized kernels"
        )
    elif backend.is_numpy:
        verdict = "numpy requested explicitly (no cost-model gate)"
    else:
        verdict = "pure-python kernels"
    return {
        "resolved": backend.name,
        "effective": effective.name,
        "gated": gated,
        "total_tuples": total,
        "min_vector_tuples": MIN_VECTOR_TUPLES,
        "demoted": demoted,
        "verdict": verdict,
    }


def _aggregate_join_steps(
    records: Sequence[StatsRecord],
) -> Dict[int, Dict[str, object]]:
    """Per-step actuals keyed by join-order position."""
    by_step: Dict[int, Dict[str, object]] = {}
    for record in records:
        if record.get("op") != "join.atom":
            continue
        step = int(record["step"])  # type: ignore[arg-type]
        entry = by_step.setdefault(
            step,
            {"relation": record.get("relation"), "witnesses": 0, "heavy_hitter": False},
        )
        entry["witnesses"] = int(entry["witnesses"]) + int(record["witnesses"])  # type: ignore[arg-type]
        keys = record.get("keys")
        if isinstance(keys, dict) and keys.get("heavy_hitter"):
            entry["heavy_hitter"] = True
    return by_step


def _ledger(
    estimates: Dict[str, object],
    records: Sequence[StatsRecord],
    actual_witnesses: Optional[int],
    actual_outputs: Optional[int],
) -> List[Dict[str, object]]:
    """Estimate-vs-actual rows: one per join step, one for the output."""
    by_step = _aggregate_join_steps(records)
    rows: List[Dict[str, object]] = []
    steps: Sequence[Dict[str, object]] = estimates["steps"]  # type: ignore[assignment]
    for step in steps:
        position = int(step["position"])  # type: ignore[arg-type]
        actuals = by_step.get(position)
        actual = int(actuals["witnesses"]) if actuals is not None else None  # type: ignore[arg-type]
        estimated = step["estimated"]
        factor = misestimate_factor(estimated, actual)  # type: ignore[arg-type]
        rows.append(
            {
                "operator": f"join {step['relation']}",
                "estimated": estimated,
                "actual": actual,
                "factor": round(factor, 3) if factor is not None else None,
                "misestimated": factor is not None and factor >= MISPREDICTION_RATIO,
                "heavy_hitter": bool(actuals["heavy_hitter"]) if actuals else False,
            }
        )
    for operator, estimated, actual in (
        ("witnesses", estimates["witnesses"], actual_witnesses),
        ("outputs", estimates["outputs"], actual_outputs),
    ):
        factor = misestimate_factor(estimated, actual)  # type: ignore[arg-type]
        rows.append(
            {
                "operator": operator,
                "estimated": estimated,
                "actual": actual,
                "factor": round(factor, 3) if factor is not None else None,
                "misestimated": factor is not None and factor >= MISPREDICTION_RATIO,
                "heavy_hitter": False,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def explain_payload(session, query, analyze: bool = True) -> Dict[str, object]:
    """The full EXPLAIN payload for ``query`` on ``session``.

    ``analyze=True`` evaluates the query once under a tracer to fill the
    actuals (re-joining past the cache when needed so operator
    records exist); ``analyze=False`` is plan-only -- the execution block
    still carries the static cost-model verdicts, but no ledger actuals.
    The same function backs ``repro explain`` and ``POST /v1/explain``,
    so the two surfaces can never drift apart.
    """
    prepared = session.prepare(query)
    context = session._context  # session-internal by design: one tier down
    database = session.database
    database.validate_against(prepared.query)
    payload: Dict[str, object] = {
        "explain_version": EXPLAIN_VERSION,
        "plan": _plan_block(context, database, prepared),
    }
    execution: Dict[str, object] = {
        "backend": _backend_verdict(context, database, prepared),
        "analyzed": bool(analyze),
        "cache": None,
    }
    records: List[StatsRecord] = []
    if analyze:
        records = _traced_records(lambda: session.evaluate(prepared))
        execution["cache"] = _cache_disposition(records)
        if not any(r.get("op") == "join.atom" for r in records):
            # Cache hit: bypass the cache once so the ledger sees real
            # operator counts.
            records = _traced_records(
                lambda: session.evaluate(prepared, use_cache=False)
            )
    evaluate_record = next(
        (r for r in records if r.get("op") == "evaluate"), None
    )
    actual_witnesses = (
        int(evaluate_record["witnesses"]) if evaluate_record else None  # type: ignore[arg-type]
    )
    actual_outputs = (
        int(evaluate_record["outputs"]) if evaluate_record else None  # type: ignore[arg-type]
    )
    plan: Dict[str, object] = payload["plan"]  # type: ignore[assignment]
    ledger = _ledger(
        plan["estimates"],  # type: ignore[arg-type]
        records,
        actual_witnesses,
        actual_outputs,
    )
    execution["operators"] = records
    execution["ledger"] = ledger
    execution["flags"] = {
        "misprediction": any(row["misestimated"] for row in ledger),
        "heavy_hitter": any(row["heavy_hitter"] for row in ledger),
    }
    execution["worst_misestimate"] = worst_misestimate(ledger)
    payload["execution"] = execution
    return payload


def _traced_records(run) -> List[StatsRecord]:
    """The operator records ``run()`` leaves on the spans of a fresh tracer."""
    tracer = Tracer()
    with use_tracer(tracer):
        run()
    return operator_records(tracer)


def _cache_disposition(records: Sequence[StatsRecord]) -> Optional[str]:
    for record in records:
        if record.get("op") == "evaluate":
            cache = record.get("cache")
            return str(cache) if cache is not None else None
    return None


# --------------------------------------------------------------------------- #
# Text rendering (the CLI's default view)
# --------------------------------------------------------------------------- #
def _fmt_estimate(value: object) -> str:
    if value is None:
        return "?"
    number = float(value)  # type: ignore[arg-type]
    if number == int(number):
        return str(int(number))
    return f"{number:.1f}"


def render_explain_text(payload: Dict[str, object]) -> str:
    """A fixed-width text tree of one EXPLAIN payload (CLI default)."""
    plan: Dict[str, object] = payload["plan"]  # type: ignore[assignment]
    execution: Dict[str, object] = payload["execution"]  # type: ignore[assignment]
    decomposition: Dict[str, object] = plan["decomposition"]  # type: ignore[assignment]
    backend: Dict[str, object] = execution["backend"]  # type: ignore[assignment]
    lines = [
        f"EXPLAIN {plan['query']}",
        f"plan {plan['fingerprint']}  [{plan['classification']}]  "
        f"backend={backend['effective']}",
    ]
    traits = [
        name
        for name, flag in (
            ("connected", decomposition["connected"]),
            ("singleton", decomposition["singleton"]),
            ("boolean", decomposition["boolean"]),
            ("full", decomposition["full"]),
        )
        if flag
    ]
    universal = decomposition["universal_attributes"]
    traits.append(
        f"universal={{{', '.join(universal)}}}" if universal else "no universal attribute"  # type: ignore[arg-type]
    )
    lines.append(f"  decomposition: {', '.join(traits)}")
    lines.append("  join order:")
    for step in plan["join_order"]:  # type: ignore[union-attr]
        shared = step["shared"]
        via = f" via {{{', '.join(shared)}}}" if shared else ""  # type: ignore[arg-type]
        lines.append(
            f"    {int(step['position']) + 1}. {step['atom']:<24}{via}"  # type: ignore[call-overload]
            f"  -- {step['reason']}"
        )
    lines.append(f"  backend: {backend['verdict']}")
    if execution.get("cache") is not None:
        lines.append(f"  cache: {execution['cache']}")
    ledger: List[Dict[str, object]] = execution["ledger"]  # type: ignore[assignment]
    if ledger:
        lines.append("  cardinalities (estimate vs actual):")
        for row in ledger:
            factor = row["factor"]
            mark = ""
            if row["misestimated"]:
                mark += "  MISPREDICTED"
            if row["heavy_hitter"]:
                mark += "  HEAVY-HITTER"
            factor_text = f"x{float(factor):.2f}" if factor is not None else ""  # type: ignore[arg-type]
            lines.append(
                f"    {row['operator']:<18} est {_fmt_estimate(row['estimated']):>12}"
                f"   actual {_fmt_estimate(row['actual']):>12}   {factor_text:<8}{mark}"
            )
    worst = execution.get("worst_misestimate")
    if isinstance(worst, dict) and worst.get("misestimated"):
        lines.append(
            f"  worst misestimate: {worst['operator']} "
            f"(x{float(worst['factor']):.2f})"  # type: ignore[arg-type]
        )
    return "\n".join(lines)


__all__ = [
    "EXPLAIN_VERSION",
    "explain_payload",
    "render_explain_text",
]
