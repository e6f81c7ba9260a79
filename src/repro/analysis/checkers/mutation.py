"""REP002: interned columns and packed provenance are append-only.

:class:`~repro.engine.columnar.RelationIndex` tables keep dead rows
forever (tids must never be renumbered -- packed ``ref_columns`` refer to
them verbatim, and a re-inserted row resurrects under its old tid) and
record liveness in their ``live`` mask, which only a successor table may
flip before it is published; the packed columns of a
:class:`~repro.engine.columnar.QueryResult` are shared through the
evaluation cache, so in-place mutation corrupts every other holder.  The
only sanctioned mutations are the append/compact sites owned by
``engine/delta.py`` and ``engine/columnar.py`` (the whitelist).

The checker flags, outside the whitelist, any *attribute-reached* mutation
of a protected column name (``x.ref_columns``, ``index.rows``, ...):

* mutating method calls (``append``, ``extend``, ``pop``, ``remove``,
  ``clear``, ``insert``, ``sort``, ``reverse``, ``update``,
  ``setdefault``, ``popitem``),
* ``del x.rows[...]`` and ``x.rows[...] = ...`` (index or slice),
* rebinding or augmented-assigning the attribute itself
  (``x.ref_columns = ...`` / ``+=``), except in ``__init__`` /
  ``__new__`` where the object is still private to its constructor.

Local variables with the same names are untouched: builders assembling
their *own* lists before packing them is the normal pattern.
"""

from __future__ import annotations

import ast
from typing import Container, Iterable, Iterator, Optional, Tuple

from repro.analysis.framework import AnalysisConfig, Checker, Finding, SourceFile

_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "remove",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "popitem",
    }
)

_CONSTRUCTORS = frozenset({"__init__", "__new__"})


def _protected_attribute(node: ast.AST, protected: Container[str]) -> Optional[str]:
    """The protected column name if ``node`` is ``<expr>.<protected>``."""
    if isinstance(node, ast.Attribute) and node.attr in protected:
        return node.attr
    return None


class AppendOnlyChecker(Checker):
    rule_id = "REP002"
    title = "interned columns / packed provenance are append-only"

    def check_file(self, source: SourceFile, config: AnalysisConfig) -> Iterable[Finding]:
        if AnalysisConfig.path_matches(source.rel, config.append_whitelist):
            return
        protected = frozenset(config.protected_columns)
        whitelist = ", ".join(config.append_whitelist)
        for scope, node in _walk_with_scope(source.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and _protected_attribute(func.value, protected)
                ):
                    name = _protected_attribute(func.value, protected)
                    yield self.finding(
                        source.rel,
                        node,
                        f".{name}.{func.attr}(...) mutates an interned/packed "
                        f"column outside the whitelisted sites ({whitelist}); "
                        "build a new column instead",
                    )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    name = self._subscript_of_protected(target, protected)
                    if name:
                        yield self.finding(
                            source.rel,
                            node,
                            f"'del ....{name}[...]' removes entries from an "
                            "interned/packed column; tids are append-only "
                            f"(whitelisted sites: {whitelist})",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    name = self._subscript_of_protected(target, protected)
                    if name:
                        yield self.finding(
                            source.rel,
                            node,
                            f"subscript assignment into ....{name} mutates an "
                            "interned/packed column in place (whitelisted "
                            f"sites: {whitelist})",
                        )
                        continue
                    name = _protected_attribute(target, protected)
                    if name and not (
                        scope in _CONSTRUCTORS
                        and isinstance(target, ast.Attribute)
                        and self._receiver_is_fresh(target.value)
                    ):
                        yield self.finding(
                            source.rel,
                            node,
                            f"rebinding ....{name} outside a constructor "
                            "swaps a shared packed column under other "
                            f"holders (whitelisted sites: {whitelist})",
                        )

    @staticmethod
    def _subscript_of_protected(
        node: ast.AST, protected: Container[str]
    ) -> Optional[str]:
        if isinstance(node, ast.Subscript):
            return _protected_attribute(node.value, protected)
        return None

    @staticmethod
    def _receiver_is_fresh(node: ast.AST) -> bool:
        """Whether the attribute receiver is the object under construction."""
        return isinstance(node, ast.Name) and node.id in ("self", "index", "instance")


def _walk_with_scope(tree: ast.Module) -> Iterator[Tuple[Optional[str], ast.AST]]:
    """``(enclosing function name or None, node)`` pairs, in document order."""
    stack: "list[Tuple[Optional[str], ast.AST]]" = [(None, tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_scope = child.name
            stack.append((child_scope, child))


__all__ = ["AppendOnlyChecker"]
