"""EXPLAIN payload tests: structure, fingerprint stability, the ledger.

The estimate-vs-actual coverage runs the 60k-tuple Zipfian hard mix of
Section 8.4: a skewed A-degree distribution (alpha = 1.5) must fire the
misprediction and heavy-hitter flags, the uniform instance (alpha = 0)
must stay silent -- on both array backends.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate

import pytest

from repro.data.database import Database
from repro.engine.backend import numpy_available
from repro.obs.explain import EXPLAIN_VERSION, render_explain_text
from repro.session import Session
from repro.workloads.zipf import zipf_weights

QUERY = "Q(A, C) :- R(A, B), S(B, C)"


def small_db() -> Database:
    return Database.from_dict(
        {"R": ["A", "B"], "S": ["B", "C"]},
        {
            "R": [(i % 5, i % 7) for i in range(100)],
            "S": [(i % 7, i % 3) for i in range(60)],
        },
    )


BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


# --------------------------------------------------------------------------- #
# Payload structure
# --------------------------------------------------------------------------- #
def test_payload_structure_and_fingerprint_reuse():
    with Session(small_db()) as session:
        prepared = session.prepare(QUERY)
        payload = session.explain(QUERY)
    assert payload["explain_version"] == EXPLAIN_VERSION
    plan = payload["plan"]
    # The fingerprint is PreparedQuery.plan_fingerprint verbatim, never
    # recomputed: EXPLAIN, the slow log and the trace profiles all report
    # the same plan identity.
    assert plan["fingerprint"] == prepared.plan_fingerprint
    assert plan["query"] == str(prepared.query)
    assert [s["relation"] for s in plan["join_order"]] == ["R", "S"]
    assert all(s["reason"] for s in plan["join_order"])
    assert plan["estimates"]["assumption"] == "uniform-independence"
    execution = payload["execution"]
    assert "engine" not in execution
    assert execution["analyzed"] is True
    assert execution["cache"] in {"miss", "bypass"}
    ops = {record["op"] for record in execution["operators"]}
    assert {"evaluate", "backend", "join.atom", "factorize"} <= ops
    operators = [row["operator"] for row in execution["ledger"]]
    assert operators == ["join R", "join S", "witnesses", "outputs"]
    assert set(execution["flags"]) == {"misprediction", "heavy_hitter"}
    json.dumps(payload)  # the whole payload must be JSON-clean


def test_plan_only_skips_evaluation():
    with Session(small_db()) as session:
        payload = session.explain(QUERY, analyze=False)
    execution = payload["execution"]
    assert execution["analyzed"] is False
    assert execution["cache"] is None
    assert execution["operators"] == []
    # Static estimates still present; actuals unknown.
    assert all(row["actual"] is None for row in execution["ledger"])
    assert all(row["estimated"] is not None for row in execution["ledger"])


def test_ledger_actuals_match_session_counts():
    with Session(small_db()) as session:
        payload = session.explain(QUERY)
        result = session.evaluate(QUERY)
    by_operator = {row["operator"]: row for row in payload["execution"]["ledger"]}
    assert by_operator["witnesses"]["actual"] == len(result.witness_outputs)
    assert by_operator["outputs"]["actual"] == len(result.output_rows)


def test_explain_after_cache_hit_still_fills_actuals():
    with Session(small_db()) as session:
        session.evaluate(QUERY)  # prime the result cache
        payload = session.explain(QUERY)
    execution = payload["execution"]
    assert execution["cache"] == "hit"
    assert any(r["op"] == "join.atom" for r in execution["operators"])
    assert all(
        row["actual"] is not None for row in execution["ledger"]
    )


def test_render_text_mentions_plan_and_ledger():
    with Session(small_db()) as session:
        payload = session.explain(QUERY)
    text = render_explain_text(payload)
    assert f"plan {payload['plan']['fingerprint']}" in text
    assert "join order:" in text
    assert "cardinalities (estimate vs actual):" in text


# --------------------------------------------------------------------------- #
# Golden snapshot: the plan block is backend- and worker-independent
# --------------------------------------------------------------------------- #
def test_plan_block_byte_identical_across_engines_and_backends():
    configs = [
        {"backend": "python"},
        {"workers": 2, "backend": "python"},
    ]
    if numpy_available():
        configs.append({"backend": "numpy"})
        configs.append({"workers": 2, "backend": "numpy"})
    snapshots = {}
    for config in configs:
        with Session(small_db(), **config) as session:
            payload = session.explain(QUERY)
        snapshots[json.dumps(config, sort_keys=True)] = json.dumps(
            payload["plan"], sort_keys=True
        )
    assert len(set(snapshots.values())) == 1, snapshots.keys()


# --------------------------------------------------------------------------- #
# Estimate-vs-actual on the 60k Zipfian hard mix (Section 8.4 shape)
# --------------------------------------------------------------------------- #
ZIPF_QUERY = "Qhard(A) :- R1(A), R2(A, B), R3(B)"
ZIPF_R2_TUPLES = 60_000
ZIPF_A_DOMAIN = 1_000
#: The paper's 20%-of-N distinct B values.  Relations are sets, so a
#: narrow B domain would cap every hot A-bucket at |B| distinct pairs
#: and flatten the very skew the test needs to observe.
ZIPF_B_DOMAIN = 12_000
#: R1 keeps only the hottest 20% of the A domain: under skew most of R2's
#: mass concentrates there, so the uniform-independence estimate for the
#: R2 join step undershoots badly; under alpha=0 it is spot-on.
ZIPF_R1_VALUES = 100


def zipf_hard_mix(alpha: float, seed: int = 29) -> Database:
    """The 60k-row path instance, built with precomputed cumulative weights
    (one ``random.choices`` call -- the per-draw generator is too slow here).
    """
    rng = random.Random(seed)
    weights = zipf_weights(ZIPF_A_DOMAIN, alpha)
    cum = list(accumulate(weights))
    a_values = rng.choices(range(ZIPF_A_DOMAIN), cum_weights=cum, k=ZIPF_R2_TUPLES)
    r2 = [(a, i % ZIPF_B_DOMAIN) for i, a in enumerate(a_values)]
    return Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
        {
            "R1": [(a,) for a in range(ZIPF_R1_VALUES)],
            "R2": r2,
            "R3": [(b,) for b in range(ZIPF_B_DOMAIN)],
        },
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_skewed_zipf_fires_misprediction_and_heavy_hitter(backend):
    with Session(zipf_hard_mix(alpha=1.5), backend=backend) as session:
        payload = session.explain(ZIPF_QUERY)
    execution = payload["execution"]
    assert execution["flags"]["misprediction"]
    assert execution["flags"]["heavy_hitter"]
    by_operator = {row["operator"]: row for row in execution["ledger"]}
    # The R2 join step is the skewed one: R1 holds the hot A values, so
    # the actual join cardinality dwarfs the uniform estimate.
    r2_row = by_operator["join R2"]
    assert r2_row["misestimated"]
    assert r2_row["heavy_hitter"]
    assert r2_row["actual"] > r2_row["estimated"]
    worst = execution["worst_misestimate"]
    assert worst is not None and worst["factor"] >= 2.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_uniform_zipf_stays_silent(backend):
    with Session(zipf_hard_mix(alpha=0.0), backend=backend) as session:
        payload = session.explain(ZIPF_QUERY)
    execution = payload["execution"]
    assert not execution["flags"]["misprediction"]
    assert not execution["flags"]["heavy_hitter"]
    assert all(not row["misestimated"] for row in execution["ledger"])


def test_zipf_plan_block_identical_across_backends():
    if len(BACKENDS) < 2:
        pytest.skip("NumPy not installed")
    snapshots = []
    for backend in BACKENDS:
        with Session(zipf_hard_mix(alpha=1.5), backend=backend) as session:
            payload = session.explain(ZIPF_QUERY, analyze=False)
        snapshots.append(json.dumps(payload["plan"], sort_keys=True))
    assert snapshots[0] == snapshots[1]
