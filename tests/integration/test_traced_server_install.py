"""The benchmark's traced server still finds every entry point it wraps.

``perfbench/traced_server.py`` times each layer by replacing module and
class attributes (``repro.session.delta_filter_result``,
``EngineContext.evaluate``, ...) at the place callers resolve them.  A
renamed or re-routed entry point makes ``install`` raise, or leaves a layer
silently untimed.  This test installs the patches in a fresh interpreter,
drives a small session through evaluate, what-if, insertions, deletions and
a solve, and checks that each wrapped layer recorded a span.  The
``ProvenanceIndex`` methods it wraps are also checked by name, so a rename
fails here rather than in a traced benchmark pass.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = """
import sys

import traced_server

recorder = traced_server.Recorder()
traced_server.install(recorder)

from repro.data.relation import TupleRef
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

query = "Qh(A) :- R1(A), R2(A, B), R3(B)"
database = generate_zipf_path(r2_tuples=200, alpha=1.2, seed=3)
with Session(database) as session:
    session.evaluate(query)
    entry = session.what_if([TupleRef("R1", ("a0",))], query).single
    entry.after
    session.apply_insertions(
        [TupleRef("R2", ("a0", "bnew")), TupleRef("R3", ("bnew",))]
    )
    session.apply_deletions([TupleRef("R1", ("a1",))])
    session.solve(query, 2)
recorder.dump(sys.argv[1])
"""

EXPECTED_SPANS = {
    "session.prepare",
    "session.what_if",
    "session.apply",
    "engine.evaluate",
    "engine.intern",
    "engine.join",
    "engine.delta.counts",
    "engine.delta.filter",
    "engine.delta.insert",
    "engine.provenance.index",
    "core.adp.solve",
    "core.adp.curve",
    "core.greedy.curve",
}


def test_traced_server_install_wraps_every_layer(tmp_path):
    prefix = tmp_path / "trace"
    path = os.pathsep.join(
        str(ROOT / part) for part in ("src", "perfbench", "benchmarks")
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(prefix)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
        cwd=str(tmp_path),
    )
    assert completed.returncode == 0, completed.stderr
    (dump,) = tmp_path.glob("trace.*.json")
    payload = json.loads(dump.read_text())
    recorded = {
        span[0] for thread in payload["threads"] for span in thread["spans"]
    }
    assert EXPECTED_SPANS <= recorded, sorted(EXPECTED_SPANS - recorded)


def _patched_provenance_attributes():
    """Every ``ProvenanceIndex`` attribute ``install`` wraps: the
    ``patch(ProvenanceIndex, "<name>", ...)`` calls and the direct
    ``ProvenanceIndex.<name> = ...`` assignments."""
    tree = ast.parse((ROOT / "perfbench" / "traced_server.py").read_text())
    install = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    names = set()
    for node in ast.walk(install):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "patch"
            and getattr(node.args[0], "id", None) == "ProvenanceIndex"
        ):
            names.add(node.args[1].value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and getattr(target.value, "id", None) == "ProvenanceIndex"
                ):
                    names.add(target.attr)
    return names


def test_traced_server_wraps_existing_provenance_methods():
    from repro.engine.provenance import ProvenanceIndex

    names = _patched_provenance_attributes()
    assert {"__init__", "gains_for", "profits_for", "remove_id", "profit_id"} <= names
    for name in sorted(names):
        assert callable(getattr(ProvenanceIndex, name, None)), name
