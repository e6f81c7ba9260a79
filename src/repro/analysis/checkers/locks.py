"""REP003: lock discipline across the concurrent subsystems.

Three mechanical analyses over the ``with <lock>`` / ``acquire()``
patterns the codebase uses (``service/registry.py``, ``engine/cache.py``,
the engine context, metrics, admission):

1. **Guarded-field access.**  Per class: every attribute assigned a lock
   factory (``threading.Lock/RLock/Condition``, ``ReadWriteLock``, ...)
   is a *lock attribute*; every ``self.field`` that is mutated under
   ``with self.<lock>`` in a non-constructor method is a *guarded field*;
   any other access to a guarded field outside a ``with`` on its guarding
   lock is flagged.  Constructors are exempt (the object is still
   thread-private), and intentional lock-free fast paths (double-checked
   lazy builds) carry justified ``# repro: noqa REP003`` suppressions.

2. **``await`` while holding a sync lock.**  Inside ``async def``, an
   ``await`` under a synchronous ``with <lock-ish>`` parks the coroutine
   while a *thread* lock stays held -- every other event-loop task (and
   any solver thread wanting the lock) stalls.  Sync locks belong on
   executor threads; the event loop coordinates with asyncio primitives.

3. **Lock-order cycles.**  Nested ``with`` acquisitions (and linear
   ``x.acquire()`` / ``x.release()`` brackets) build a directed
   acquisition graph over canonical lock names (``Class.attr`` for
   ``self`` locks); a cycle in that graph is a deadlock waiting for the
   right interleaving and is reported with a witness edge.

The analyses are intraprocedural by design: a helper called under a lock
is not credited with holding it (cross-function lock flow is what the
thread-hammer tests cover).  That keeps the rule fast, predictable and
false-positive-light.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.framework import AnalysisConfig, Checker, Finding, SourceFile

#: Callables whose result is a lock object when assigned to ``self.<attr>``.
_LOCK_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "ReadWriteLock",
    }
)

#: Guard-method suffixes: ``with self.lock.read():`` guards via ``lock``.
_GUARD_METHODS = frozenset(
    {"read", "write", "acquire", "acquire_read", "acquire_write"}
)

#: Attribute-method calls that mutate their receiver (count as writes).
_MUTATOR_METHODS = frozenset(
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
        "add",
        "discard",
        "move_to_end",
    }
)

_CONSTRUCTORS = frozenset({"__init__", "__new__"})

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
#: One recorded access: ``(method, field, guards held, is_write, node)``.
_Access = Tuple[str, str, Tuple[str, ...], bool, ast.AST]


def _base_self_attr(node: ast.expr) -> Optional[str]:
    """``X`` when ``node`` reaches ``self.X`` through calls/subscripts."""
    while True:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _GUARD_METHODS:
                node = func.value
                continue
            return None
        if isinstance(node, ast.Subscript):
            node = node.value
            continue
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr
            return None
        return None


def _looks_lockish(node: ast.expr) -> bool:
    """Whether a ``with`` item plausibly holds a thread lock.

    Matches any dotted component containing ``lock``/``mutex``/``cond``
    (``self._lock``, ``entry.lock.read()``, ``self._locks[i]``,
    ``self._cond``); used by the await-under-lock and lock-graph passes,
    which must work across receivers, not just ``self``.
    """
    for name in _name_parts(node):
        lowered = name.lower()
        if "lock" in lowered or "mutex" in lowered or lowered.endswith("cond"):
            return True
    return False


def _name_parts(node: ast.expr) -> List[str]:
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _GUARD_METHODS:
                node = func.value
                continue
            return parts
        if isinstance(node, ast.Subscript):
            node = node.value
            continue
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
            continue
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return parts


def _lock_key(node: ast.expr, class_name: Optional[str]) -> str:
    """A canonical graph node for one lock expression.

    ``self``-rooted locks are scoped by class (``EngineContext._lock``)
    so the same lock matches across methods; other receivers keep their
    dotted source form.
    """
    parts = list(reversed(_name_parts(node)))
    if parts and parts[0] == "self" and class_name:
        parts[0] = class_name
    return ".".join(parts) or "<unknown-lock>"


class LockDisciplineChecker(Checker):
    rule_id = "REP003"
    title = "lock discipline (guarded fields, await-under-lock, lock order)"

    def begin(self, config: AnalysisConfig) -> None:
        #: acquisition edges: held -> {acquired: (path, line)}.
        self._edges: Dict[str, Dict[str, Tuple[str, int]]] = {}

    # ------------------------------------------------------------------ #
    # Per-file pass
    # ------------------------------------------------------------------ #
    def check_file(self, source: SourceFile, config: AnalysisConfig) -> Iterable[Finding]:
        for node in source.tree.body:
            yield from self._walk_toplevel(source, node, class_name=None)

    def _walk_toplevel(
        self, source: SourceFile, node: ast.stmt, class_name: Optional[str]
    ) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            yield from self._check_class(source, node)
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(source, child, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_function(source, node, class_name)

    # ------------------------------------------------------------------ #
    # 1. Guarded-field analysis (per class)
    # ------------------------------------------------------------------ #
    def _check_class(self, source: SourceFile, klass: ast.ClassDef) -> Iterable[Finding]:
        methods = [
            child
            for child in klass.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs = self._lock_attributes(methods)
        if not lock_attrs:
            return
        accesses: List[_Access] = []
        for method in methods:
            self._collect_accesses(method, lock_attrs, accesses)
        guarded_by: Dict[str, Set[str]] = {}
        for method_name, field, guards, is_write, _node in accesses:
            if method_name in _CONSTRUCTORS or field in lock_attrs:
                continue
            if is_write:
                for guard in guards:
                    if guard in lock_attrs:
                        guarded_by.setdefault(field, set()).add(guard)
        for method_name, field, guards, is_write, node in accesses:
            if method_name in _CONSTRUCTORS or field not in guarded_by:
                continue
            locks = guarded_by[field]
            if not locks.intersection(guards):
                kind = "write to" if is_write else "read of"
                lock_names = " / ".join(
                    f"self.{lock}" for lock in sorted(locks)
                )
                yield self.finding(
                    source.rel,
                    node,
                    f"{kind} {klass.name}.{field} outside 'with "
                    f"{lock_names}' (field is mutated under that lock "
                    f"in other methods)",
                )

    @staticmethod
    def _lock_attributes(methods: Sequence[_FunctionNode]) -> Set[str]:
        lock_attrs: Set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                factory = None
                if isinstance(value, ast.Call):
                    func = value.func
                    if isinstance(func, ast.Name):
                        factory = func.id
                    elif isinstance(func, ast.Attribute):
                        factory = func.attr
                if factory not in _LOCK_FACTORIES:
                    continue
                for target in node.targets:
                    attr = _base_self_attr(target)
                    if attr:
                        lock_attrs.add(attr)
        return lock_attrs

    def _collect_accesses(
        self,
        method: _FunctionNode,
        lock_attrs: Set[str],
        out: List[_Access],
        _guards: Tuple[str, ...] = (),
    ) -> None:
        """Record every ``self.field`` access with the guard stack held."""

        def visit(node: ast.AST, guards: Tuple[str, ...], in_nested: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and in_nested:
                # A nested def may run after the enclosing ``with`` exits:
                # its body starts with no locks held (conservative).
                for child in ast.iter_child_nodes(node):
                    visit(child, (), True)
                return
            if isinstance(node, ast.With):
                held = list(guards)
                for item in node.items:
                    attr = _base_self_attr(item.context_expr)
                    if attr in lock_attrs:
                        held.append(attr)
                for child in node.body:
                    visit(child, tuple(held), in_nested)
                for item in node.items:
                    visit(item.context_expr, guards, in_nested)
                return
            if isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                # ``self.d[k] = v`` / ``del self.d[k]``: the Store ctx sits
                # on the Subscript, not the Attribute -- count the container
                # mutation as a write to the field.
                attr = _base_self_attr(node.value)
                if attr:
                    out.append((method.name, attr, guards, True, node))
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    is_write = isinstance(node.ctx, (ast.Store, ast.Del))
                    out.append((method.name, node.attr, guards, is_write, node))
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                ):
                    attr = _base_self_attr(func.value)
                    if attr:
                        out.append((method.name, attr, guards, True, node))
                        for arg in node.args:
                            visit(arg, guards, in_nested)
                        for keyword in node.keywords:
                            visit(keyword.value, guards, in_nested)
                        return
            for child in ast.iter_child_nodes(node):
                visit(child, guards, in_nested)

        for child in ast.iter_child_nodes(method):
            visit(child, _guards, False)

    # ------------------------------------------------------------------ #
    # 2. await-under-lock + 3. acquisition-graph edges (per function)
    # ------------------------------------------------------------------ #
    def _check_function(
        self,
        source: SourceFile,
        func: _FunctionNode,
        class_name: Optional[str],
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        is_async = isinstance(func, ast.AsyncFunctionDef)

        def visit(node: ast.AST, held: Tuple[str, ...], async_scope: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                nested_async = isinstance(node, ast.AsyncFunctionDef)
                for child in ast.iter_child_nodes(node):
                    visit(child, (), nested_async)
                return
            if isinstance(node, ast.With):
                new_held = list(held)
                for item in node.items:
                    if _looks_lockish(item.context_expr):
                        key = _lock_key(item.context_expr, class_name)
                        for holder in held:
                            if holder != key:
                                self._edges.setdefault(holder, {}).setdefault(
                                    key, (source.rel, item.context_expr.lineno)
                                )
                        new_held.append(key)
                for child in node.body:
                    visit(child, tuple(new_held), async_scope)
                for item in node.items:
                    visit(item.context_expr, held, async_scope)
                return
            if isinstance(node, ast.Await) and held and async_scope:
                findings.append(
                    self.finding(
                        source.rel,
                        node,
                        "'await' while holding sync lock(s) "
                        f"{', '.join(sorted(set(held)))}: the coroutine may "
                        "park with a thread lock held, stalling the event "
                        "loop; move the locked section onto an executor "
                        "thread",
                    )
                )
                # Still recurse: the awaited expression may nest further.
            if isinstance(node, (ast.Expr,)) and isinstance(node.value, ast.Call):
                called = node.value.func
                if isinstance(called, ast.Attribute) and called.attr == "acquire":
                    if _looks_lockish(called.value):
                        key = _lock_key(called.value, class_name)
                        for holder in held:
                            if holder != key:
                                self._edges.setdefault(holder, {}).setdefault(
                                    key, (source.rel, node.lineno)
                                )
            for child in ast.iter_child_nodes(node):
                visit(child, held, async_scope)

        for child in ast.iter_child_nodes(func):
            visit(child, (), is_async)
        return findings

    # ------------------------------------------------------------------ #
    # Cross-file: cycles in the acquisition graph
    # ------------------------------------------------------------------ #
    def finish(self, config: AnalysisConfig) -> Iterable[Finding]:
        for cycle in self._find_cycles():
            first, second = cycle[0], cycle[1 % len(cycle)]
            path, line = self._edges[first][second]
            ordering = " -> ".join(cycle + (cycle[0],))
            yield Finding(
                path,
                line,
                0,
                self.rule_id,
                "error",
                f"lock-order cycle: {ordering}; two call paths acquire "
                "these locks in opposite orders, which deadlocks under "
                "the right interleaving",
            )

    def _find_cycles(self) -> List[Tuple[str, ...]]:
        seen_cycles: Set[Tuple[str, ...]] = set()
        cycles: List[Tuple[str, ...]] = []

        def dfs(node: str, stack: List[str], on_stack: Set[str]) -> None:
            for successor in self._edges.get(node, {}):
                if successor in on_stack:
                    start = stack.index(successor)
                    cycle = tuple(stack[start:])
                    # Canonicalize rotation so each cycle reports once.
                    pivot = cycle.index(min(cycle))
                    canonical = cycle[pivot:] + cycle[:pivot]
                    if canonical not in seen_cycles:
                        seen_cycles.add(canonical)
                        cycles.append(canonical)
                elif successor not in visited:
                    visited.add(successor)
                    stack.append(successor)
                    on_stack.add(successor)
                    dfs(successor, stack, on_stack)
                    on_stack.discard(successor)
                    stack.pop()

        visited: Set[str] = set()
        for node in sorted(self._edges):
            if node not in visited:
                visited.add(node)
                dfs(node, [node], {node})
        return cycles


__all__ = ["LockDisciplineChecker"]
