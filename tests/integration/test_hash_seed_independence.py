"""Answers do not depend on the string-hash seed.

A relation iterates in insertion order, so the tids its rows are interned
under -- and with them witness and output order, and every answer that
breaks ties by them -- are the same in every process.  This runs one solve,
one what-if and Theorem 5's primal-dual on string-valued data in two child
processes with different ``PYTHONHASHSEED`` values, on both backends, and
compares what they print.
"""

import json
import os
import subprocess
import sys

import repro

_SCRIPT = """
import hashlib, json
from repro.core.approximation import primal_dual_full_cq
from repro.engine.backend import numpy_available
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

QH = parse_query("Qh(A) :- R1(A), R2(A, B), R3(B)")
QPATH = parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")


def answer(solution):
    return [sorted(map(repr, solution.removed)), solution.removed_outputs]


out = {}
for backend in ["python"] + (["numpy"] if numpy_available() else []):
    database = generate_zipf_path(380, 1.1, 5)
    with Session(database, backend=backend) as session, session.activate():
        digests = {
            query.name: hashlib.sha256(
                repr(session.evaluate(query).output_rows).encode()
            ).hexdigest()
            for query in (QH, QPATH)
        }
        greedy = session.solve(QH, 40, heuristic="greedy")
        entry = session.what_if(greedy.removed, QPATH).single
        out[backend] = {
            "output_rows": digests,
            "greedy": answer(greedy),
            "what_if": [entry.witnesses_removed, entry.outputs_removed],
            "primal_dual": answer(primal_dual_full_cq(QPATH, database, 190)),
        }
print(json.dumps(out))
"""


def run_with_hash_seed(hash_seed):
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(completed.stdout)


def test_answers_do_not_depend_on_the_hash_seed():
    first, second = run_with_hash_seed(1), run_with_hash_seed(2)
    assert first == second
    assert len({json.dumps(answers, sort_keys=True) for answers in first.values()}) == 1
