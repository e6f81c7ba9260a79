"""Seeded inputs of the benchmark workloads.

Everything here runs in the load-generator process, off the clock: the
server only ever receives the rows these functions produce.

:func:`zipf_path` yields the same database as
``repro.workloads.zipf.generate_zipf_path`` for the same arguments, byte for
byte, but draws each ``A`` endpoint through precomputed cumulative weights.
``random.Random.choices(..., weights=...)`` rebuilds the cumulative list on
every call, which makes the library generator quadratic in the domain size
(about 18 s at 60k edges against about 0.25 s here).
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.workloads.zipf import zipf_weights

HARD_QUERY = "Qh(A) :- R1(A), R2(A, B), R3(B)"
EASY_QUERY = "Q6(A, B) :- R1(A), R2(A, B)"


def zipf_path(r2_tuples: int, alpha: float, seed: int,
              distinct_ratio: float = 0.2) -> Database:
    """The Section 8.4 path instance ``R1(A), R2(A, B), R3(B)``.

    Mirrors ``generate_zipf_path`` draw for draw: ``choices`` with
    ``cum_weights`` bisects the same list with the same ``random()`` value
    that ``choices`` with ``weights`` would build and bisect.
    """
    rng = random.Random(seed)
    distinct = max(1, int(r2_tuples * distinct_ratio))
    a_domain = [f"a{i}" for i in range(distinct)]
    b_domain = [f"b{i}" for i in range(distinct)]
    cum_weights = list(accumulate(zipf_weights(distinct, alpha)))
    total = cum_weights[-1] + 0.0
    hi = distinct - 1
    draw = rng.random
    pick_b = rng.choice

    r1 = Relation("R1", ("A",), [(a,) for a in a_domain])
    r3 = Relation("R3", ("B",), [(b,) for b in b_domain])
    r2 = Relation("R2", ("A", "B"))
    target = min(r2_tuples, distinct * distinct)
    rows: set = set()
    attempts = 0
    while len(rows) < target and attempts < 50 * r2_tuples:
        attempts += 1
        a = a_domain[bisect(cum_weights, draw() * total, 0, hi)]
        b = pick_b(b_domain)
        rows.add((a, b))
    r2.insert_many(rows)
    return Database([r1, r2, r3])


def mutation_rounds(database: Database, rounds: int, inserts: int,
                    deletes: int, seed: int
                    ) -> List[Tuple[List[TupleRef], List[TupleRef]]]:
    """Deterministic ``(insert batch, delete batch)`` pairs over ``R2``.

    Inserts recombine stored endpoints into fresh edges, so they stay inside
    the join's value domain and create witnesses.  Deletes draw from the
    edges live at that point of the sequence, so every batch removes exactly
    ``deletes`` tuples and every insert adds exactly ``inserts``.
    """
    rng = random.Random(seed)
    live = sorted(database.relation("R2").rows)
    a_values = sorted({a for a, _b in live})
    b_values = sorted({b for _a, b in live})
    stored = set(live)
    batches = []
    for _ in range(rounds):
        added: List[Tuple[str, str]] = []
        while len(added) < inserts:
            edge = (rng.choice(a_values), rng.choice(b_values))
            if edge not in stored:
                stored.add(edge)
                added.append(edge)
        live.extend(added)
        removed: List[Tuple[str, str]] = []
        for _ in range(deletes):
            position = rng.randrange(len(live))
            live[position], live[-1] = live[-1], live[position]
            edge = live.pop()
            stored.discard(edge)
            removed.append(edge)
        batches.append((
            [TupleRef("R2", edge) for edge in added],
            [TupleRef("R2", edge) for edge in removed],
        ))
    return batches


def wire_rows(database: Database) -> Dict[str, object]:
    """A ``POST /v1/databases`` body fragment, rows in a fixed order."""
    return {
        "schema": {r.name: list(r.attributes) for r in database},
        "rows": {r.name: [list(row) for row in sorted(r.rows)] for r in database},
    }
