"""Semi-join reduction (dangling-tuple removal).

A tuple of an input relation is *dangling* (footnote 2 of the paper) when it
does not participate in any full-join row of the query body.  Dangling tuples
never affect the output, so several algorithms first discard them:

* the Singleton base case (Algorithm 3, case 2);
* the Boolean (resilience) min-cut construction of Section 7.1, where only
  non-dangling tuples become edges of the flow network;
* the greedy heuristics, which never gain by deleting a dangling tuple.

Two implementations are provided:

* :func:`semijoin_reduce` -- repeated pairwise semi-joins until a fixpoint,
  the classical reduction.  For acyclic queries this removes exactly the
  dangling tuples; for cyclic queries it removes a superset of dangling
  tuples' complement (i.e. it may keep some dangling tuples), which is always
  *safe* for the uses above but not tight.
* :func:`remove_dangling_tuples` -- exact removal via witness provenance
  (evaluates the full join), matching the paper's definition.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.columnar import distinct_ids
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery


def semijoin_reduce(query: ConjunctiveQuery, database: Database) -> Database:
    """Fixpoint pairwise semi-join reduction of ``database`` w.r.t. ``query``.

    Returns a new database in which every relation used by the query has been
    reduced; relations not used by the query are copied unchanged.  The
    reduction is sound (never removes a tuple that participates in a witness)
    and, for acyclic queries, complete (removes every dangling tuple).
    """
    database.validate_against(query)
    reduced = database.copy()
    atoms = list(query.atoms)
    changed = True
    while changed:
        changed = False
        for left in atoms:
            if left.is_vacuum:
                continue
            left_rel = reduced.relation(left.name)
            for right in atoms:
                if right.name == left.name or right.is_vacuum:
                    continue
                shared = tuple(sorted(left.attribute_set & right.attribute_set))
                if not shared:
                    continue
                right_rel = reduced.relation(right.name)
                keys = _project(right_rel, right, shared)
                before = len(left_rel)
                survivors = [
                    row
                    for row in left_rel
                    if _key_of(left_rel, left, row, shared) in keys
                ]
                if len(survivors) != before:
                    changed = True
                    new_rel = Relation(left_rel.name, left_rel.attributes, survivors)
                    reduced = _replace(reduced, new_rel)
                    left_rel = new_rel
    # An empty vacuum relation (or any empty relation) empties the output,
    # but the pairwise reduction above cannot express that; callers that need
    # exact dangling removal should use remove_dangling_tuples().
    return reduced


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


def _project(relation: Relation, atom: Atom, attributes: Tuple[str, ...]) -> Set[tuple]:
    positions = [relation.attribute_index(a) for a in attributes]
    return {tuple(row[i] for i in positions) for row in relation}


def _key_of(relation: Relation, atom: Atom, row: tuple, attributes: Tuple[str, ...]) -> tuple:
    positions = [relation.attribute_index(a) for a in attributes]
    return tuple(row[i] for i in positions)


def _replace(database: Database, relation: Relation) -> Database:
    relations = [
        relation if existing.name == relation.name else existing
        for existing in database
    ]
    return Database(relations)
