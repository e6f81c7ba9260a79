"""The row-at-a-time reference evaluator: the columnar engine's parity oracle.

:func:`evaluate_rows` is the library's original evaluator, kept verbatim:
one assignment dict per partial join row, one eager :class:`Witness` per
full-join row, no interning, no caching.  The parity suites compare the
columnar engine (``Session.evaluate``) against it on output rows, witness
order, participating tuples and deletion effects.

:class:`RowResult` holds its answer with the plain witness-list provenance
lookups (the columnar ``QueryResult`` answers the same questions from packed
columns).

:func:`singleton_curve_rows` is the original Singleton Case 1 curve: a
``Counter`` over the projected output rows, sorted by ``(-profit, repr)``.
The singleton parity suite compares ``singleton_curve``'s tid-level build
against it.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.curves import PrefixCurve
from repro.core.singleton import singleton_relation
from repro.data.database import Database
from repro.data.relation import Row, TupleRef
from repro.engine.columnar import Witness
from repro.engine.evaluate import _join_order
from repro.query.cq import ConjunctiveQuery


class RowResult:
    """Output rows plus eager witnesses, as :func:`evaluate_rows` builds them."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        output_rows: List[Row],
        witnesses: List[Witness],
        witness_outputs: List[int],
        output_index: Optional[Dict[Row, int]] = None,
    ) -> None:
        self.query = query
        self.output_rows = output_rows
        self.witnesses = witnesses
        self.witness_outputs = witness_outputs
        self.output_index = (
            output_index
            if output_index is not None
            else {row: i for i, row in enumerate(output_rows)}
        )

    def output_count(self) -> int:
        return len(self.output_rows)

    def witness_count(self) -> int:
        return len(self.witness_outputs)

    def participating_refs(self) -> Set[TupleRef]:
        refs: Set[TupleRef] = set()
        for witness in self.witnesses:
            refs.update(witness.refs)
        return refs

    def outputs_removed_by(self, removed: Iterable[TupleRef]) -> int:
        removed_set = set(removed)
        alive = [0] * len(self.output_rows)
        for witness, out in zip(self.witnesses, self.witness_outputs):
            if not removed_set.intersection(witness.refs):
                alive[out] += 1
        return sum(1 for count in alive if count == 0)


def evaluate_rows(
    query: ConjunctiveQuery,
    database: Database,
    max_witnesses: Optional[int] = None,
) -> RowResult:
    """The original row-at-a-time evaluator, kept as the reference engine.

    Materializes one assignment dict per full-join row and eager
    :class:`Witness` objects (returned as a :class:`RowResult`).  Never
    cached.  The parity test-suite asserts that the columnar engine returns
    identical answers and witness sets.
    """
    database.validate_against(query)

    vacuum_refs: List[TupleRef] = []
    for atom in query.atoms:
        if atom.is_vacuum:
            relation = database.relation(atom.name)
            if len(relation) == 0:
                return RowResult(query, [], [], [])
            vacuum_refs.append(TupleRef(atom.name, ()))

    non_vacuum = [a for a in query.atoms if not a.is_vacuum]
    if not non_vacuum:
        witness = Witness(tuple(vacuum_refs))
        return RowResult(query, [()], [witness], [0])

    order = _join_order(
        ConjunctiveQuery(query.head, tuple(non_vacuum), name=query.name)
    )
    ordered_atoms = [non_vacuum[i] for i in order]

    # Partial results: (assignment dict, list of TupleRefs so far).
    partials: List[Tuple[Dict[str, object], List[TupleRef]]] = [({}, [])]
    for atom in ordered_atoms:
        relation = database.relation(atom.name)
        positions = [relation.attribute_index(a) for a in atom.attributes]
        # Every partial assigns exactly the same attribute set, so the shared
        # (join) attributes can be read off the first partial.
        bound_attrs = set(partials[0][0]) if partials else set()
        shared = [a for a in atom.attributes if a in bound_attrs]

        # Hash the relation on the shared attributes.
        index: Dict[Tuple, List[Tuple[Row, TupleRef]]] = {}
        for row in relation:
            atom_values = tuple(row[i] for i in positions)
            key = tuple(
                atom_values[atom.attributes.index(a)] for a in shared
            )
            index.setdefault(key, []).append((atom_values, TupleRef(atom.name, row)))

        new_partials: List[Tuple[Dict[str, object], List[TupleRef]]] = []
        for assignment, refs in partials:
            key = tuple(assignment[a] for a in shared)
            for atom_values, ref in index.get(key, ()):  # type: ignore[arg-type]
                new_assignment = dict(assignment)
                ok = True
                for attr, value in zip(atom.attributes, atom_values):
                    if attr in new_assignment and new_assignment[attr] != value:
                        ok = False
                        break
                    new_assignment[attr] = value
                if ok:
                    new_partials.append((new_assignment, refs + [ref]))
        partials = new_partials
        if max_witnesses is not None and len(partials) > max_witnesses:
            raise RuntimeError(
                f"join of {query.name} exceeded max_witnesses={max_witnesses}"
            )
        if not partials:
            break

    output_rows: List[Row] = []
    output_index: Dict[Row, int] = {}
    witnesses: List[Witness] = []
    witness_outputs: List[int] = []
    head = query.head
    for assignment, refs in partials:
        out_row = tuple(assignment[a] for a in head)
        if out_row not in output_index:
            output_index[out_row] = len(output_rows)
            output_rows.append(out_row)
        witnesses.append(Witness(tuple(refs) + tuple(vacuum_refs)))
        witness_outputs.append(output_index[out_row])

    return RowResult(query, output_rows, witnesses, witness_outputs, output_index)


def singleton_curve_rows(query: ConjunctiveQuery, database: Database) -> PrefixCurve:
    """The original Singleton Case 1 curve (``attr(Ri) ⊆ head``), kept as oracle.

    Projects every output row of :func:`evaluate_rows` onto ``attr(Ri)``,
    counts the projections and sorts them by ``(-profit, repr)``: ``repr``
    of the value for a one-attribute ``Ri``, of the projected tuple
    otherwise.  Picks are keyed by the *output row's* values, so on
    instances where ``Ri`` stores a cross-type-equal value (``1`` vs
    ``1.0``) they may name a tuple ``Ri`` does not hold.
    """
    relation_name = singleton_relation(query)
    if relation_name is None or not query.atom(relation_name).attribute_set <= (
        query.head_attributes
    ):
        raise ValueError(f"{query.name} is not a Case 1 singleton query")
    output_rows = evaluate_rows(query, database).output_rows
    if not output_rows:
        return PrefixCurve([], optimal=True)
    relation = database.relation(relation_name)
    head_positions = {a: i for i, a in enumerate(query.head)}
    projection_positions = [head_positions[a] for a in relation.attributes]
    keyed: List[Tuple[Tuple, int]]
    if not projection_positions:
        # Vacuum singleton: its only tuple owns every output.
        keyed = [((), len(output_rows))]
    elif len(projection_positions) == 1:
        column = itemgetter(projection_positions[0])
        singles = sorted(
            Counter(map(column, output_rows)).items(),
            key=lambda item: (-item[1], repr(item[0])),
        )
        keyed = [((value,), profit) for value, profit in singles]
    else:
        project = itemgetter(*projection_positions)
        keyed = sorted(
            Counter(map(project, output_rows)).items(),
            key=lambda item: (-item[1], repr(item[0])),
        )
    picks = [((TupleRef(relation_name, key),), profit) for key, profit in keyed]
    return PrefixCurve(picks, optimal=True)
