"""Admission control: bounded concurrency, overload shedding, deadlines.

The solver tier is CPU-bound Python: queueing more work than the thread
pool can absorb only grows latency without growing throughput.  The
:class:`AdmissionController` therefore bounds the number of requests that
may be *pending* (queued in the micro-batcher or executing on the pool) and
rejects the excess immediately with :class:`Overloaded`, which the HTTP
layer maps to ``429 Too Many Requests`` plus a ``Retry-After`` header --
the client-visible backpressure signal.

:class:`Deadline` carries a per-request time budget.  A request that is
still waiting (queued behind an in-flight dispatch, or for the database
lock) when its deadline passes is dropped *before* any solver work is
spent on it and answered with ``504``; an expired deadline discovered
mid-execution only affects the response, never the shared session state.
"""

from __future__ import annotations

import threading
import time
from typing import Optional


class Overloaded(Exception):
    """The service is at capacity; retry after ``retry_after_s`` seconds."""

    def __init__(self, pending: int, limit: int, retry_after_s: float) -> None:
        super().__init__(
            f"admission queue full ({pending}/{limit} pending); "
            f"retry after {retry_after_s:g}s"
        )
        self.pending = pending
        self.limit = limit
        self.retry_after_s = retry_after_s


class DeadlineExpired(Exception):
    """The request's time budget ran out before it could be served."""


class Deadline:
    """A monotonic per-request time budget (``None`` budget = no deadline)."""

    __slots__ = ("budget_ms", "_expires_at")

    def __init__(self, budget_ms: Optional[float]) -> None:
        self.budget_ms = budget_ms
        self._expires_at = (
            None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        )

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds left, floored at 0 (``None`` when unbounded)."""
        if self._expires_at is None:
            return None
        return max(0.0, (self._expires_at - time.monotonic()) * 1000.0)

    def check(self) -> None:
        """Raise :class:`DeadlineExpired` when the budget ran out."""
        if self.expired:
            raise DeadlineExpired(
                f"deadline of {self.budget_ms:g} ms expired before completion"
            )


class AdmissionController:
    """A bounded pending-request counter with an overload signal.

    ``max_pending`` bounds solve-class requests only (cheap metadata reads
    are never queued behind the solver).  The counter is lock-guarded
    because admissions happen on the event loop while releases happen on
    solver threads.
    """

    def __init__(self, max_pending: int = 64, retry_after_s: float = 1.0) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = int(max_pending)
        self.retry_after_s = float(retry_after_s)
        self._lock = threading.Lock()
        self._pending = 0

    @property
    def pending(self) -> int:
        """Requests currently admitted (queued or executing)."""
        with self._lock:
            return self._pending

    def acquire(self) -> None:
        """Admit one request or raise :class:`Overloaded` (no blocking).

        Shedding instead of blocking keeps the event loop responsive and
        gives clients an actionable signal (``Retry-After``) instead of an
        ever-growing invisible queue.
        """
        with self._lock:
            if self._pending >= self.max_pending:
                raise Overloaded(self._pending, self.max_pending, self.retry_after_s)
            self._pending += 1

    def release(self) -> None:
        with self._lock:
            if self._pending <= 0:  # pragma: no cover - release/acquire bug guard
                raise RuntimeError("admission release without acquire")
            self._pending -= 1

    def __enter__(self) -> "AdmissionController":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


__all__ = ["AdmissionController", "Deadline", "DeadlineExpired", "Overloaded"]
