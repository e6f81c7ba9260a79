"""Zero-dependency structured tracing: nested spans with monotonic timings.

One :class:`Tracer` owns one tree (forest) of :class:`Span` records for one
logical operation -- a CLI solve or one coalesced service batch.  Spans
nest lexically through two :mod:`contextvars` variables: the ambient
tracer (installed with :func:`use_tracer`) and the innermost open span.
Instrumented code never touches either directly; it calls :func:`span`,
which returns

* a real :class:`Span` (truthy, records ``time.monotonic_ns`` on enter and
  exit) when a tracer is installed *and* enabled, or
* the :data:`NULL_SPAN` singleton (falsy, every method a no-op) otherwise.

That split is the pay-for-what-you-use contract: with tracing off the hot
path costs one ``ContextVar.get`` plus a ``None`` check per instrumentation
point, and attribute computation is skipped entirely behind ``if sp:``
guards.  The disabled path is budgeted at <= 2% on the tier-1 benches and
enforced in CI (``benchmarks/check_regression.py --obs-overhead``).

This module is the only place in the tracing layer that reads a clock, and
it only reads the *monotonic* one: ``repro/obs/`` is checked by REP005 in
relaxed mode (monotonic clocks allowed, wall clocks still banned).  Wall
timestamps for the slow-query log are supplied by the service tier, which
is outside the REP005 scope.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Any, Dict, Iterator, List, Optional, Union

#: A serialized span: ``{"name", "offset_ms", "dur_ms", "attrs"?, "children"?}``.
SpanDict = Dict[str, Any]


def new_trace_id() -> str:
    """A 16-hex-char request correlation id (no wall clock involved)."""
    return os.urandom(8).hex()


class NullSpan:
    """The falsy no-op span returned when tracing is off.

    Call sites guard attribute computation with ``if sp: sp.set(...)`` so a
    disabled tracer never pays for building attribute values.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        return None


#: The process-wide no-op singleton; identity-comparable in tests.
NULL_SPAN = NullSpan()


class Span:
    """One timed operation; a context manager that nests under the innermost
    open span of the same tracer (or becomes a root)."""

    __slots__ = ("name", "attrs", "children", "start_ns", "end_ns", "_tracer", "_token")

    def __init__(
        self, tracer: "Tracer", name: str, attrs: Optional[Dict[str, object]] = None
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.start_ns = 0
        self.end_ns = 0
        self._token: Optional["Token[Optional[Span]]"] = None

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        parent = _CURRENT_SPAN.get()
        if parent is not None and parent._tracer is self._tracer:
            parent.children.append(self)
        else:
            self._tracer.roots.append(self)
        self._token = _CURRENT_SPAN.set(self)
        self.start_ns = time.monotonic_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end_ns = time.monotonic_ns()
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None

    def set(self, **attrs: object) -> None:
        """Attach typed attributes (tuples probed, cache hit, backend, ...)."""
        self.attrs.update(attrs)

    @property
    def dur_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    def to_dict(self, origin_ns: Optional[int] = None) -> SpanDict:
        """A plain JSON-serializable dict; offsets are relative to
        ``origin_ns`` (the parent's start), so serialized trees never carry
        absolute monotonic readings."""
        base = self.start_ns if origin_ns is None else origin_ns
        out: SpanDict = {
            "name": self.name,
            "offset_ms": round((self.start_ns - base) / 1e6, 3),
            "dur_ms": round((self.end_ns - self.start_ns) / 1e6, 3),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict(self.start_ns) for child in self.children]
        return out


class Tracer:
    """One span forest plus its correlation id.

    ``enabled=False`` is the *installed-but-unsampled* mode: request ids
    still flow (the service stamps every response), but :func:`span`
    returns :data:`NULL_SPAN` so no tree is built -- this is the
    configuration the CI overhead gate measures against tracing-off.
    """

    __slots__ = ("trace_id", "enabled", "roots")

    def __init__(self, trace_id: Optional[str] = None, enabled: bool = True) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.enabled = enabled
        self.roots: List[Span] = []

    def span(self, name: str, **attrs: object) -> Union[Span, NullSpan]:
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def export(self) -> List[SpanDict]:
        """The forest as plain dicts (JSON-serializable)."""
        return [root.to_dict() for root in self.roots]


#: The ambient tracer; ``None`` (the default) means tracing is off.
_ACTIVE_TRACER: "ContextVar[Optional[Tracer]]" = ContextVar(
    "repro_obs_tracer", default=None
)
#: The innermost open span of the ambient tracer.
_CURRENT_SPAN: "ContextVar[Optional[Span]]" = ContextVar(
    "repro_obs_span", default=None
)


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, enabled or not (``None`` when uninstrumented)."""
    return _ACTIVE_TRACER.get()


def tracing_active() -> bool:
    """Whether :func:`span` would currently return a real span."""
    tracer = _ACTIVE_TRACER.get()
    return tracer is not None and tracer.enabled


def span(name: str, **attrs: object) -> Union[Span, NullSpan]:
    """A span under the ambient tracer, or :data:`NULL_SPAN` when off.

    This is the single instrumentation entry point; on the disabled path it
    costs one ``ContextVar.get`` and a ``None`` check.
    """
    tracer = _ACTIVE_TRACER.get()
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return Span(tracer, name, attrs)


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the enclosed block.

    The innermost-span variable is reset to ``None`` on entry so spans
    opened inside never nest under a leaked span of some *other* tracer
    (e.g. when one executor thread serves many traced requests).
    """
    token = _ACTIVE_TRACER.set(tracer)
    span_token = _CURRENT_SPAN.set(None)
    try:
        yield tracer
    finally:
        _CURRENT_SPAN.reset(span_token)
        _ACTIVE_TRACER.reset(token)


__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "SpanDict",
    "Tracer",
    "current_tracer",
    "new_trace_id",
    "span",
    "tracing_active",
    "use_tracer",
]
