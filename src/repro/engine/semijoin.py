"""Dangling-tuple removal.

A tuple of an input relation is *dangling* (footnote 2 of the paper) when it
does not participate in any full-join row of the query body.  Dangling tuples
never affect the output.  :func:`remove_dangling_tuples` removes exactly them
via witness provenance (it evaluates the full join), matching the paper's
definition.  Its one caller is the Boolean (resilience) min-cut construction
of Section 7.1 (:mod:`repro.core.boolean_cq`), where only non-dangling tuples
become edges of the flow network.  The other solvers need no separate pass:
they read the witness provenance, in which dangling tuples never appear.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.columnar import distinct_ids
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.query.cq import ConjunctiveQuery


def remove_dangling_tuples(
    query: ConjunctiveQuery, database: Database
) -> Tuple[Database, int]:
    """Exact dangling-tuple removal.

    Evaluates the full join and keeps, for each relation used by the query,
    only the tuples participating in at least one witness.  Returns the
    reduced database and the number of tuples removed.
    """
    result = evaluate(query, database)
    participating: Dict[str, Set[tuple]] = {name: set() for name in query.relation_names}
    prov = result.provenance
    # Project each atom's tid column through its interner.
    for position, name in enumerate(prov.atom_names):
        rows = prov.indexes[position].rows
        participating[name] = {
            rows[tid] for tid in distinct_ids(prov.ref_columns[position])
        }
    if prov.witness_count():
        for vacuum_ref in prov.vacuum_refs:
            participating.setdefault(vacuum_ref.relation, set()).add(())

    removed = 0
    relations = []
    for relation in database:
        if relation.name in participating and relation.name in set(query.relation_names):
            keep = participating[relation.name]
            kept_rows = [row for row in relation if row in keep]
            removed += len(relation) - len(kept_rows)
            relations.append(Relation(relation.name, relation.attributes, kept_rows))
        else:
            relations.append(relation.copy())
    return Database(relations), removed
