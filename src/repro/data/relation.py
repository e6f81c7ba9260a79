"""Relations and tuple references.

A relation is a named set of tuples over a fixed, ordered attribute list.
Set semantics are used throughout (the paper works with set semantics and
self-join-free CQs), so inserting a duplicate tuple is a no-op.  Tuples
iterate in insertion order, never in string-hash order, so the tids the
engine interns them under -- and every answer that breaks ties by tid --
are the same in every process.  Each stored tuple keeps its insertion
ordinal, so a relation that never lost a tuple hands the engine its tid
table as one dict copy (:meth:`Relation.numbering`).

Deletion in the ADP problem operates on *input tuples*; the hashable
:class:`TupleRef` (relation name + values) is the unit that solvers return
in their solutions and that :meth:`Database.remove_tuples` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

Value = object
Row = Tuple[Value, ...]


@dataclass(frozen=True, order=True)
class TupleRef:
    """A reference to one input tuple: ``(relation name, values)``.

    ``values`` are ordered according to the relation's attribute list.  Two
    references are equal iff they point to the same relation and the same
    values, so sets of :class:`TupleRef` behave as deletion sets.
    """

    relation: str
    values: Row

    def __str__(self) -> str:
        rendered = ", ".join(str(v) for v in self.values)
        return f"{self.relation}({rendered})"


class Relation:
    """A named set of tuples over a fixed attribute list.

    Parameters
    ----------
    name:
        Relation name (matching the atom name in queries it participates in).
    attributes:
        Ordered attribute names.  May be empty: a *vacuum* relation whose
        only possible tuple is the empty tuple ``()``.
    rows:
        Optional initial tuples; each row must have one value per attribute.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[Value]] = (),
    ):
        if not name:
            raise ValueError("relation name must be non-empty")
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"relation {name} repeats an attribute: {attrs}")
        self.name = name
        self.attributes: Tuple[str, ...] = attrs
        #: the tuples, as dict keys in insertion order, each mapped to its
        #: insertion ordinal (``_next_ordinal`` at insert time).  Ordinals
        #: ascend in iteration order, so while no tuple was removed since
        #: construction or :meth:`clear` (``_next_ordinal == len(_rows)``)
        #: they are exactly the iteration positions.
        self._rows: Dict[Row, int] = {}
        self._next_ordinal = 0
        #: monotone mutation counter; the evaluation cache keys on it, so it
        #: only moves when the tuple set actually changes.
        self._version: int = 0
        for row in rows:
            self.insert(row)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert(self, row: Sequence[Value]) -> Row:
        """Insert one tuple (no-op if already present); returns the stored row."""
        stored = tuple(row)
        if len(stored) != len(self.attributes):
            raise ValueError(
                f"relation {self.name} expects {len(self.attributes)} values, "
                f"got {len(stored)}: {stored!r}"
            )
        if stored not in self._rows:
            self._rows[stored] = self._next_ordinal
            self._next_ordinal += 1
            self._version += 1
        return stored

    def insert_many(self, rows: Iterable[Sequence[Value]]) -> None:
        """Insert several tuples."""
        for row in rows:
            self.insert(row)

    def remove(self, row: Sequence[Value]) -> bool:
        """Remove one tuple; returns ``True`` if it was present."""
        stored = tuple(row)
        if stored in self._rows:
            del self._rows[stored]
            self._version += 1
            return True
        return False

    def clear(self) -> None:
        """Remove every tuple."""
        if self._rows:
            self._version += 1
        self._rows.clear()
        self._next_ordinal = 0

    def load_numbered(self, ids: Dict[Row, int], dead: Iterable[Row] = ()) -> None:
        """Replace the tuple set with ``ids``' rows minus ``dead``, unchecked.

        ``ids`` must map each row to its position in ``ids``' own order (an
        interning table's ``row -> tid`` dict), and every row must already be
        a tuple of this relation's arity: the durable store restores
        relations from validated snapshot columns this way, skipping the
        per-row checks of :meth:`insert`.  The version is left alone.
        """
        self._rows = dict(ids)
        self._next_ordinal = len(ids)
        for row in dead:
            del self._rows[row]

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in self._rows

    def numbering(self) -> Tuple[List[Row], Dict[Row, int]]:
        """``(rows, ids)``: the tuples in iteration order and ``row ->
        position``, fresh containers the caller owns.

        When no tuple was removed since construction or :meth:`clear`, the
        stored ordinals already are the positions and ``ids`` is a copy of
        the storage dict, which reuses its stored hashes; otherwise the
        positions are renumbered.
        """
        if self._next_ordinal == len(self._rows):
            ids = dict(self._rows)
            return list(ids), ids
        rows = list(self._rows)
        return rows, dict(zip(rows, range(len(rows))))

    @property
    def rows(self) -> Set[Row]:
        """The tuple set (a copy, so callers cannot mutate storage)."""
        return set(self._rows)

    @property
    def version(self) -> int:
        """Mutation counter: bumped whenever the tuple set changes.

        The columnar evaluation cache uses ``(relation name, version)`` pairs
        to detect stale entries without hashing the stored tuples.
        """
        return self._version

    @property
    def is_vacuum(self) -> bool:
        """Whether the relation has no attributes."""
        return not self.attributes

    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    def attribute_index(self, attribute: str) -> int:
        """Position of ``attribute`` in the schema (``ValueError`` if absent)."""
        return self.attributes.index(attribute)

    def refs(self) -> List[TupleRef]:
        """All tuples of this relation as :class:`TupleRef` objects."""
        return [TupleRef(self.name, row) for row in sorted(self._rows, key=repr)]

    def ref(self, row: Sequence[Value]) -> TupleRef:
        """The :class:`TupleRef` for one row of this relation."""
        stored = tuple(row)
        if stored not in self._rows:
            raise KeyError(f"{stored!r} is not a tuple of {self.name}")
        return TupleRef(self.name, stored)

    # ------------------------------------------------------------------ #
    # Relational operations used by generators and examples
    # ------------------------------------------------------------------ #
    def project(self, attributes: Sequence[str]) -> Set[Row]:
        """Distinct projection of the relation on ``attributes``."""
        idx = [self.attribute_index(a) for a in attributes]
        return {tuple(row[i] for i in idx) for row in self._rows}

    def select(self, predicate) -> "Relation":
        """A new relation with the rows satisfying ``predicate(row_dict)``.

        ``predicate`` receives a ``{attribute: value}`` dict per row.
        """
        kept = [
            row
            for row in self._rows
            if predicate(dict(zip(self.attributes, row)))
        ]
        return Relation(self.name, self.attributes, kept)

    def select_equals(self, assignments: Dict[str, Value]) -> "Relation":
        """A new relation keeping rows matching all ``attribute == value`` pairs."""
        idx = {self.attribute_index(a): v for a, v in assignments.items()}
        kept = [
            row for row in self._rows if all(row[i] == v for i, v in idx.items())
        ]
        return Relation(self.name, self.attributes, kept)

    def copy(self, name: str | None = None) -> "Relation":
        """A deep copy (rows are immutable tuples, so a shallow row copy suffices)."""
        return Relation(name or self.name, self.attributes, self._rows)

    def drop_attributes(self, attributes: Iterable[str]) -> "Relation":
        """A copy of the relation without the given attributes.

        Rows are projected (with deduplication) onto the remaining
        attributes; used to build sub-instances for residual queries.
        """
        dropped = set(attributes)
        kept_attrs = tuple(a for a in self.attributes if a not in dropped)
        idx = [self.attributes.index(a) for a in kept_attrs]
        rows = dict.fromkeys(tuple(row[i] for i in idx) for row in self._rows)
        return Relation(self.name, kept_attrs, rows)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})[{len(self)} rows]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)
