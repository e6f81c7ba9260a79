"""REP004: packing paths never iterate in set order.

The columnar engine's packed provenance is compared byte for byte: across
array backends, between incrementally maintained and rebuilt results,
between recovered and uninterrupted sessions, and between a ``solve_many``
worker (whose interning tables are seeded in the parent's row order) and
the parent.  Witness order is the lexicographic join-order tid tuple, and
every consumer downstream (greedy tie-breaking, packed columns, the
parity suites) depends on it.  Python set iteration order is a function of
element hashes -- and for strings, of the per-process hash seed -- so one
``for x in some_set`` feeding an ordered result makes the output
process-dependent.  Dicts iterate in insertion order, which is
deterministic *unless* the dict was itself built by iterating a set.

Within the configured packing paths this checker flags, at
iteration points (``for``, list/generator comprehensions, ``list()`` /
``tuple()`` / ``enumerate()`` / ``zip()`` / ``reversed()``):

* set expressions: literals, ``set()``/``frozenset()`` calls, set
  comprehensions, set algebra (``|  & - ^``, ``.union()`` etc.), locals
  assigned from any of those, and attributes configured as set-typed
  (``.attribute_set``);
* dicts built *from* sets (a dict comprehension or ``dict.fromkeys``
  over a set expression), including their ``.keys()`` / ``.values()`` /
  ``.items()`` views.

Order-insensitive sinks are allowed: ``sorted(...)``, ``min``/``max``,
``len``, ``sum``, ``any``/``all``, membership tests, set-to-set
comprehensions, and boolean use of set algebra.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.analysis.framework import AnalysisConfig, Checker, Finding, SourceFile

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
#: Iteration wrappers that preserve (and therefore leak) element order.
_ORDER_PRESERVING = frozenset({"list", "tuple", "enumerate", "reversed", "zip", "iter"})
_DICT_VIEWS = frozenset({"keys", "values", "items"})


_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _scope_walk(
    body: Sequence[ast.AST], nested: Optional[List[_FunctionNode]] = None
) -> Iterator[ast.AST]:
    """Document-order walk of ``body`` that prunes nested function subtrees.

    Nested ``def``s get their own :class:`_FunctionScope`; they are
    collected into ``nested`` (when given) instead of being descended into.
    """
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if nested is not None:
                nested.append(node)
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


class _FunctionScope:
    """Set-typed locals and set-ordered dict locals of one function body."""

    def __init__(self, config: AnalysisConfig) -> None:
        self.config = config
        self.set_names: Set[str] = set()
        self.set_ordered_dicts: Set[str] = set()
        #: names assigned at least once from a non-set value (ambiguous ->
        #: conservative: never flagged).
        self.tainted: Set[str] = set()

    def learn(self, body: Sequence[ast.stmt]) -> None:
        for node in _scope_walk(body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if self.is_set_expr(node.value):
                        self.set_names.add(target.id)
                    elif self._is_set_ordered_dict(node.value):
                        self.set_ordered_dicts.add(target.id)
                    else:
                        self.tainted.add(target.id)
        self.set_names -= self.tainted
        self.set_ordered_dicts -= self.tainted

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            if node.attr in self.config.set_attribute_names:
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_set_expr(func.value)
            ):
                return True
        return False

    def _is_set_ordered_dict(self, node: ast.expr) -> bool:
        if isinstance(node, ast.DictComp):
            return any(self.is_set_expr(gen.iter) for gen in node.generators)
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "fromkeys"
                and isinstance(func.value, ast.Name)
                and func.value.id == "dict"
            ):
                return bool(node.args) and self.is_set_expr(node.args[0])
        return False

    def iterates_set_ordered_dict(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.set_ordered_dicts
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_VIEWS
            and isinstance(node.func.value, ast.Name)
        ):
            return node.func.value.id in self.set_ordered_dicts
        return False


class DeterministicIterationChecker(Checker):
    rule_id = "REP004"
    title = "no set-order iteration in packing paths"

    def check_file(self, source: SourceFile, config: AnalysisConfig) -> Iterable[Finding]:
        if not AnalysisConfig.path_matches(source.rel, config.determinism_paths):
            return
        yield from self._check_body(source, source.tree.body, config)

    def _check_body(
        self,
        source: SourceFile,
        body: Sequence[ast.stmt],
        config: AnalysisConfig,
    ) -> Iterator[Finding]:
        scope = _FunctionScope(config)
        scope.learn(body)
        nested: List[_FunctionNode] = []
        for node in _scope_walk(body, nested):
            yield from self._check_node(source, node, scope)
        for func in nested:
            yield from self._check_body(source, func.body, config)

    def _check_node(
        self, source: SourceFile, node: ast.AST, scope: _FunctionScope
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from self._flag_iteration(source, node.iter, scope)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield from self._flag_iteration(source, gen.iter, scope)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _ORDER_PRESERVING:
                for arg in node.args:
                    yield from self._flag_iteration(source, arg, scope, unwrap=False)

    def _flag_iteration(
        self,
        source: SourceFile,
        iter_expr: ast.expr,
        scope: _FunctionScope,
        unwrap: bool = True,
    ) -> Iterator[Finding]:
        node = iter_expr
        while (
            unwrap
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_PRESERVING
            and node.args
        ):
            # Flagging happens on the inner expression via the Call branch
            # of _check_node; avoid double-reporting here.
            return
        if scope.is_set_expr(node):
            yield self.finding(
                source.rel,
                node,
                "iteration over a set in a packing path: set order "
                "is hash-seed-dependent and breaks cross-process "
                "byte-identity; sort the elements (e.g. sorted(...)) or "
                "iterate an ordered source",
            )
        elif scope.iterates_set_ordered_dict(node):
            yield self.finding(
                source.rel,
                node,
                "iteration over a dict built from a set: its insertion "
                "order inherited the set's hash order; build the dict "
                "from a sorted or naturally-ordered source",
            )


__all__ = ["DeterministicIterationChecker"]
