"""Micro-batching: coalesce concurrent solve requests into one dispatch.

``Session.solve_many`` amortizes the expensive part of an ADP solve -- one
evaluation and **one cost curve per distinct query**, read off at every
requested target -- but only when requests arrive *as a batch*.  Under
concurrent HTTP load they arrive as individual requests microseconds
apart.  The :class:`MicroBatcher` groups them without ever making a
request wait on a timer (group commit, or dispatch-on-idle):

* requests are grouped by a caller-chosen **key** (the service keys on
  ``(database, version, query, solver configuration)``: a batch shares
  one curve, and a query never waits behind another query's dispatch);
* a request whose key has no dispatch in flight dispatches **at once**, as
  a batch of one;
* requests that arrive while a dispatch for their key is running join one
  **queued batch** for that key, which dispatches the moment a running
  dispatch for the key finishes -- or at once when it reaches
  ``max_batch``.

A lone request therefore pays no batching delay at all, and under load
the batch size adapts to how long a dispatch takes.

With ``max_batch=1`` every request dispatches as a singleton immediately
-- the configuration the load harness uses as its per-request baseline,
and the fallback the service applies to requests that opt out
(``"batch": false``).

The batcher is a pure asyncio component: ``submit`` must be called on the
event loop.  The dispatch callable is ``async`` and returns one outcome
per item (any value, including an exception instance the caller encodes
itself); if dispatch *raises*, every waiter of that batch receives the
exception, and the batch queued behind it still dispatches.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Hashable, List, Optional, Set

#: ``async def dispatch(key, items) -> [outcome per item]``.
DispatchFn = Callable[[Hashable, List[Any]], Awaitable[List[Any]]]


class _PendingBatch:
    __slots__ = ("items", "futures")

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.futures: List[asyncio.Future] = []


class MicroBatcher:
    """Group concurrent ``submit`` calls per key into batched dispatches."""

    def __init__(
        self,
        dispatch: DispatchFn,
        *,
        max_batch: int = 16,
        on_dispatch: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.dispatch = dispatch
        self.max_batch = int(max_batch)
        self.enabled = self.max_batch > 1
        #: Observability hook: called with the batch size at each dispatch.
        self.on_dispatch = on_dispatch
        #: key -> dispatches running for it (absent when the key is idle).
        self._in_flight: Dict[Hashable, int] = {}
        #: key -> the batch waiting for one of those dispatches to finish.
        self._queued: Dict[Hashable, _PendingBatch] = {}
        #: Dispatch tasks of queued batches, held until they finish (the
        #: event loop keeps only weak references to tasks).
        self._tasks: Set[asyncio.Task] = set()

    async def submit(self, key: Hashable, item: Any) -> Any:
        """Dispatch ``item`` under ``key``; resolves to its outcome."""
        if not self.enabled:
            return await self._dispatch_now(key, [item], None)
        if key not in self._in_flight:
            self._in_flight[key] = 1
            try:
                return await self._dispatch_now(key, [item], None)
            finally:
                self._release(key)
        batch = self._queued.get(key)
        if batch is None:
            batch = self._queued[key] = _PendingBatch()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        batch.items.append(item)
        batch.futures.append(future)
        if len(batch.items) >= self.max_batch:
            self._launch(key, self._queued.pop(key))
        return await future

    async def flush_all(self) -> None:
        """Dispatch every queued batch now and wait for all dispatch tasks
        (shutdown path)."""
        while self._queued or self._tasks:
            for key in list(self._queued):
                self._launch(key, self._queued.pop(key))
            await asyncio.gather(*self._tasks, return_exceptions=True)

    @property
    def depth(self) -> int:
        """Requests queued behind an in-flight dispatch right now."""
        return sum(len(batch.items) for batch in self._queued.values())

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _launch(self, key: Hashable, batch: _PendingBatch) -> None:
        """Start dispatching ``batch`` as a task that counts as in flight."""
        self._in_flight[key] = self._in_flight.get(key, 0) + 1
        task = asyncio.ensure_future(self._run(key, batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run(self, key: Hashable, batch: _PendingBatch) -> None:
        try:
            await self._dispatch_now(key, batch.items, batch.futures)
        finally:
            # Only a cancelled dispatch leaves futures unresolved: never
            # strand their waiters.
            for future in batch.futures:
                if not future.done():
                    future.cancel()
            self._release(key)

    def _release(self, key: Hashable) -> None:
        """A dispatch for ``key`` finished: launch the batch queued behind
        it, or mark the key idle."""
        running = self._in_flight[key] - 1
        if running:
            self._in_flight[key] = running
        else:
            del self._in_flight[key]
        batch = self._queued.pop(key, None)
        if batch is not None:
            self._launch(key, batch)

    async def _dispatch_now(
        self,
        key: Hashable,
        items: List[Any],
        futures: Optional[List[asyncio.Future]],
    ) -> Any:
        if self.on_dispatch is not None:
            self.on_dispatch(len(items))
        try:
            outcomes = await self.dispatch(key, items)
            if len(outcomes) != len(items):
                raise RuntimeError(
                    f"dispatch returned {len(outcomes)} outcomes "
                    f"for {len(items)} items"
                )
        except Exception as exc:
            if futures is None:
                raise
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            return None
        if futures is None:
            return outcomes[0]
        for future, outcome in zip(futures, outcomes):
            if not future.done():
                future.set_result(outcome)
        return None


__all__ = ["MicroBatcher"]
