"""The Boolean (resilience) base case of ``ComputeADP`` (Section 7.1).

For a boolean query the output is a single tuple (the empty tuple) and ADP
degenerates to the *resilience* problem of Freire et al. [11]: remove the
minimum number of input tuples so that the query becomes false.  For
triad-free boolean queries resilience is poly-time solvable; the paper's
algorithm arranges the relations in a *linear* order (every attribute occurs
in a contiguous run of atoms), builds a layered flow network with one
unit-capacity edge per input tuple of an endogenous relation (and an
infinite-capacity edge per tuple of an exogenous relation, which is never
removed -- Lemma 13), and returns a minimum cut.

Two pieces live here:

* :func:`linear_order` -- find a linear arrangement of the atoms, if one
  exists;
* :func:`min_cut_curve` -- build the flow network over the non-dangling
  tuples and return the resilience as a one-pick
  :class:`~repro.core.curves.PrefixCurve` (boolean queries only ever need
  ``k = 1``).

The full query-rewriting machinery of [11] (which linearises *every*
triad-free query by repeatedly eliminating dominated atoms) is out of scope;
when a triad-free boolean query admits no direct linear arrangement the
solver falls back to the greedy heuristic and marks the result as not
guaranteed optimal.  See DESIGN.md, "Substitutions".
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from repro.core.curves import PrefixCurve, constant_zero_curve
from repro.core.structures import endogenous_relations
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.engine.flow import INFINITY, FlowNetwork
from repro.query.cq import ConjunctiveQuery

#: Above this many atoms the exhaustive permutation search is skipped and a
#: greedy ordering heuristic (verified before use) is attempted instead.
_MAX_ATOMS_FOR_EXHAUSTIVE_SEARCH = 8


def _is_linear_arrangement(query: ConjunctiveQuery, order: Sequence[str]) -> bool:
    """Whether ``order`` puts every attribute in a contiguous run of atoms."""
    position = {name: index for index, name in enumerate(order)}
    for attribute in query.attributes:
        positions = sorted(
            position[a.name] for a in query.relations_with(attribute)
        )
        if positions and positions[-1] - positions[0] + 1 != len(positions):
            return False
    return True


def _greedy_order(query: ConjunctiveQuery) -> List[str]:
    """A cheap ordering heuristic: repeatedly append the atom sharing the most
    attributes with the last one appended."""
    remaining = list(query.relation_names)
    atoms = query.atoms_by_name()
    order = [remaining.pop(0)]
    while remaining:
        last = atoms[order[-1]].attribute_set
        best = max(remaining, key=lambda name: len(atoms[name].attribute_set & last))
        remaining.remove(best)
        order.append(best)
    return order


def linear_order(query: ConjunctiveQuery) -> Optional[List[str]]:
    """Find a linear arrangement of the atoms of ``query``, if one exists.

    A query is *linear* when its relations can be ordered so that each
    attribute occurs in a contiguous sequence of atoms.  For small bodies the
    search is exhaustive (queries have constant size); for unusually large
    bodies a greedy ordering is attempted and verified, returning ``None``
    when it fails.
    """
    names = list(query.relation_names)
    if len(names) <= 2:
        return names
    if len(names) > _MAX_ATOMS_FOR_EXHAUSTIVE_SEARCH:
        candidate = _greedy_order(query)
        return candidate if _is_linear_arrangement(query, candidate) else None
    for order in permutations(names):
        if _is_linear_arrangement(query, order):
            return list(order)
    return None


def min_cut_curve(
    query: ConjunctiveQuery,
    database: Database,
    order: Optional[Sequence[str]] = None,
) -> PrefixCurve:
    """The resilience of a linear boolean query as a cost curve.

    Parameters
    ----------
    query:
        A boolean CQ.  The caller is responsible for having checked that the
        query is triad-free (otherwise the min cut is still a feasible
        contingency set, but not necessarily minimum).
    database:
        The instance.
    order:
        A linear arrangement of the atoms; computed via :func:`linear_order`
        when omitted.  ``ValueError`` is raised when no arrangement exists.

    Returns
    -------
    PrefixCurve
        A curve with a single pick ``(cut tuples, 1)``: boolean queries have
        at most one output tuple, so only ``k in {0, 1}`` is meaningful.
    """
    if not query.is_boolean:
        raise ValueError("min_cut_curve only applies to boolean queries")
    if order is None:
        order = linear_order(query)
        if order is None:
            raise ValueError(
                f"query {query.name} admits no linear arrangement; "
                "use the greedy fallback instead"
            )
    elif not _is_linear_arrangement(query, order):
        raise ValueError(f"{list(order)} is not a linear arrangement of {query.name}")

    # Only non-dangling tuples (footnote 2: those in some witness) become
    # edges, as in the paper's construction.  A dangling tuple lies on no
    # source-sink path, so it never carries flow or enters the cut.
    result = evaluate(query, database)
    if result.output_count() == 0:
        return constant_zero_curve()
    participating = result.participating_refs()

    atoms = query.atoms_by_name()
    endogenous = set(endogenous_relations(query))

    # Boundary attribute sets V_i = attr(R_i) ∩ attr(R_{i+1}); V_0 = V_p = ∅.
    boundaries: List[Tuple[str, ...]] = []
    for index in range(len(order) - 1):
        left = atoms[order[index]].attribute_set
        right = atoms[order[index + 1]].attribute_set
        boundaries.append(tuple(sorted(left & right)))

    network = FlowNetwork()
    source = ("boundary", 0, ())
    sink = ("boundary", len(order), ())
    network.add_node(source)
    network.add_node(sink)

    for index, name in enumerate(order):
        relation = database.relation(name)
        left_attrs = boundaries[index - 1] if index > 0 else ()
        right_attrs = boundaries[index] if index < len(order) - 1 else ()
        capacity = 1.0 if name in endogenous else INFINITY
        left_positions = [relation.attribute_index(a) for a in left_attrs]
        right_positions = [relation.attribute_index(a) for a in right_attrs]
        refs = (TupleRef(name, row) for row in relation)
        network.add_edges(
            (
                ("boundary", index, tuple(ref.values[p] for p in left_positions)),
                ("boundary", index + 1, tuple(ref.values[p] for p in right_positions)),
                capacity,
                ref,
            )
            for ref in refs
            if ref in participating
        )

    flow = network.max_flow(source, sink)
    cut_refs = tuple(network.min_cut_labels(source))
    if len(cut_refs) != int(flow):  # pragma: no cover - sanity check
        raise RuntimeError(
            f"min cut size {len(cut_refs)} does not match max flow {flow}"
        )
    return PrefixCurve([(cut_refs, 1)], optimal=True)
