"""The Singleton base case of ``ComputeADP`` (Section 7.2, Algorithm 3).

A CQ is a *singleton* (Definition 10) when some relation ``Ri`` satisfies

1. ``attr(Ri) ⊆ attr(Rj)`` for every other relation ``Rj``, and
2. ``attr(Ri) ⊆ head(Q)`` or ``head(Q) ⊆ attr(Ri)``.

Singleton queries are always poly-time solvable (all attributes of ``Ri`` --
respectively all head attributes -- are universal, and removing them leaves a
vacuum relation or a triad-free boolean query), and they can be solved by a
single sort instead of the Universe/Decompose dynamic programs, which is the
optimisation evaluated in Figure 28 of the paper.

* **Case 1** (``attr(Ri) ⊆ head(Q)``): every output tuple "inherits" the
  values of exactly one tuple of ``Ri``; removing that tuple removes the
  whole group.  Sorting groups by decreasing size (*profit*) and taking the
  shortest prefix reaching ``k`` is optimal, because every input tuple of the
  query belongs to exactly one group and can never remove outputs outside it.
* **Case 2** (``head(Q) ⊆ attr(Ri)``): killing an output tuple ``t`` requires
  removing at least the ``c_t`` non-dangling tuples of ``Ri`` that project
  onto ``t`` (each witness of ``t`` contains a distinct such tuple, and every
  other relation's tuples are confined to a single output as well).  Sorting
  outputs by increasing *cost* ``c_t`` and removing the groups of the ``k``
  cheapest outputs is optimal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.curves import PrefixCurve, TidPrefixCurve
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import backend_of_column
from repro.engine.columnar import distinct_ids
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.query.cq import ConjunctiveQuery


def singleton_relation(query: ConjunctiveQuery) -> Optional[str]:
    """The relation witnessing that ``query`` is a singleton, or ``None``.

    Follows Algorithm 3 in picking a relation with the minimum number of
    attributes among the candidates satisfying Definition 10.
    """
    head = query.head_attributes
    candidates: List[str] = []
    for atom in query.atoms:
        others = [a for a in query.atoms if a.name != atom.name]
        if any(not (atom.attribute_set <= other.attribute_set) for other in others):
            continue
        if atom.attribute_set <= head or head <= atom.attribute_set:
            candidates.append(atom.name)
    if not candidates:
        return None
    atoms = query.atoms_by_name()
    return min(candidates, key=lambda name: (atoms[name].arity, name))


def is_singleton(query: ConjunctiveQuery) -> bool:
    """Whether ``query`` is a singleton CQ (Definition 10)."""
    return singleton_relation(query) is not None


def singleton_curve(query: ConjunctiveQuery, database: Database) -> PrefixCurve:
    """Solve a singleton query for every ``k`` at once (Algorithm 3).

    Returns an optimal :class:`~repro.core.curves.PrefixCurve`.  Raises
    ``ValueError`` when the query is not a singleton.
    """
    relation_name = singleton_relation(query)
    if relation_name is None:
        raise ValueError(f"{query.name} is not a singleton query")
    atom = query.atom(relation_name)
    head = query.head_attributes
    result = evaluate(query, database)
    if result.output_count() == 0:
        return PrefixCurve([], optimal=True)

    if atom.attribute_set <= head:
        position = result.atom_position(relation_name)
        if position is None:
            # Vacuum singleton: its only tuple owns every output.
            vacuum = TupleRef(relation_name, ())
            return PrefixCurve([((vacuum,), result.output_count())], optimal=True)
        # Case 1: profit of a tuple t in Ri = number of output tuples whose
        # projection onto attr(Ri) equals t.  An output fixes its attr(Ri)
        # values, so all of its witnesses use one Ri tid: scatter the tid
        # column through witness_outputs (one tid per output), bincount,
        # and order by (-profit, repr rank).  Runs over the packed columns,
        # not the output rows, so the picks name the rows Ri stores.  The
        # session's curve cache rebuilds this once per database version.
        column = result.ref_columns[position]
        backend = backend_of_column(column)
        index = result.indexes[position]
        output_tids = backend.scatter(
            result.witness_outputs, column, result.output_count()
        )
        profits = backend.bincount(output_tids, len(index))
        tids = backend.order_by_count(profits, index.repr_rank(backend))
        return TidPrefixCurve(
            index.name, index.rows, tids, backend.take(profits, tids), optimal=True
        )

    # Case 2: head(Q) ⊆ attr(Ri).  Cost of an output tuple t = number of
    # non-dangling Ri tuples projecting onto t; remove the cheapest outputs.
    relation = database.relation(relation_name)
    positions = [relation.attribute_index(a) for a in query.head]
    groups: Dict[Tuple, List[TupleRef]] = {}
    # The distinct participating tuple IDs of Ri's column, grouped by their
    # head projection -- no Witness materialization.
    atom_position = result.atom_position(relation_name)
    assert atom_position is not None  # singleton relations are non-vacuum
    view = result.refs_for_atom(atom_position)
    for tid in distinct_ids(result.ref_columns[atom_position]):
        ref = view[tid]
        key = tuple(ref.values[i] for i in positions)
        groups.setdefault(key, []).append(ref)
    picks = [
        (tuple(sorted(refs, key=repr)), 1) for _key, refs in sorted(
            groups.items(), key=lambda item: (len(item[1]), repr(item[0]))
        )
    ]
    return PrefixCurve(picks, optimal=True)
