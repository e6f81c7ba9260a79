"""Micro-batcher semantics: dispatch-on-idle, queued batches, error fan-out.

A submit on an idle key dispatches at once; submits that arrive while a
dispatch for their key is in flight join one queued batch, which runs
when that dispatch finishes.  The tests hold a dispatch in flight with an
``asyncio.Event`` instead of sleeping, so every interleaving is fixed.
"""

import asyncio

import pytest

from repro.service.batch import MicroBatcher


def run(coro):
    return asyncio.run(coro)


async def settle():
    """Let every runnable task advance until it blocks."""
    for _ in range(5):
        await asyncio.sleep(0)


class GatedDispatch:
    """Records every dispatch; dispatches of ``held`` keys block until
    :meth:`open` (only the first such dispatch when ``first_only``)."""

    def __init__(self, held=("k",), first_only=False, fail_first=False):
        self.calls = []
        self.held = set(held)
        self.first_only = first_only
        self.fail_first = fail_first
        self.gate = asyncio.Event()

    def open(self):
        self.gate.set()

    @property
    def sizes(self):
        return [len(items) for _, items in self.calls]

    async def __call__(self, key, items):
        first = not self.calls
        self.calls.append((key, list(items)))
        if key in self.held and (first or not self.first_only):
            await self.gate.wait()
        if first and self.fail_first:
            raise RuntimeError("boom")
        return [item * 10 for item in items]


def assert_idle(batcher):
    """No queued batch, no in-flight key, no dispatch task left behind."""
    assert batcher.depth == 0
    assert batcher._queued == {}
    assert batcher._in_flight == {}
    assert batcher._tasks == set()


def test_idle_submit_dispatches_at_once():
    async def scenario():
        dispatch = GatedDispatch(held=())
        batcher = MicroBatcher(dispatch, max_batch=8)
        task = asyncio.ensure_future(batcher.submit("k", 7))
        # One loop turn reaches the dispatch: no timer stands in between.
        await asyncio.sleep(0)
        assert dispatch.calls == [("k", [7])]
        assert await task == 70
        assert_idle(batcher)

    run(scenario())


def test_submits_during_an_in_flight_dispatch_form_one_batch():
    async def scenario():
        dispatch = GatedDispatch()
        observed = []
        batcher = MicroBatcher(
            dispatch, max_batch=8, on_dispatch=observed.append
        )
        first = asyncio.ensure_future(batcher.submit("k", 0))
        await settle()
        rest = [asyncio.ensure_future(batcher.submit("k", i)) for i in (1, 2, 3, 4)]
        await settle()
        assert dispatch.sizes == [1]
        assert batcher.depth == 4
        dispatch.open()
        results = await asyncio.gather(first, *rest)
        assert results == [0, 10, 20, 30, 40]
        assert dispatch.calls == [("k", [0]), ("k", [1, 2, 3, 4])]
        # on_dispatch sees the real sizes, singleton included.
        assert observed == [1, 4]
        assert_idle(batcher)

    run(scenario())


def test_distinct_keys_never_share_a_batch_or_wait_on_each_other():
    async def scenario():
        dispatch = GatedDispatch(held=("a",))
        batcher = MicroBatcher(dispatch, max_batch=8)
        held = asyncio.ensure_future(batcher.submit("a", 1))
        await settle()
        queued = asyncio.ensure_future(batcher.submit("a", 2))
        await settle()
        # "b" is idle: it dispatches alone and finishes while "a" is held.
        assert await asyncio.wait_for(batcher.submit("b", 3), 5) == 30
        assert await asyncio.wait_for(batcher.submit("b", 4), 5) == 40
        assert not held.done() and not queued.done()
        dispatch.open()
        assert await asyncio.gather(held, queued) == [10, 20]
        assert dispatch.calls == [
            ("a", [1]), ("b", [3]), ("b", [4]), ("a", [2]),
        ]
        assert_idle(batcher)

    run(scenario())


def test_max_batch_caps_the_queued_batch_and_the_full_batch_dispatches_at_once():
    async def scenario():
        dispatch = GatedDispatch()
        batcher = MicroBatcher(dispatch, max_batch=3)
        first = asyncio.ensure_future(batcher.submit("k", 0))
        await settle()
        rest = [asyncio.ensure_future(batcher.submit("k", i)) for i in range(1, 6)]
        await settle()
        # The full batch dispatched without waiting for the held one; the
        # overflow queues behind the dispatches still in flight.
        assert dispatch.calls == [("k", [0]), ("k", [1, 2, 3])]
        assert batcher.depth == 2
        dispatch.open()
        assert await asyncio.gather(first, *rest) == [0, 10, 20, 30, 40, 50]
        assert dispatch.sizes == [1, 3, 2]
        assert_idle(batcher)

    run(scenario())


def test_raising_dispatch_fails_only_its_waiters_and_releases_the_queue():
    async def scenario():
        dispatch = GatedDispatch(fail_first=True)
        batcher = MicroBatcher(dispatch, max_batch=8)
        first = asyncio.ensure_future(batcher.submit("k", 0))
        await settle()
        rest = [asyncio.ensure_future(batcher.submit("k", i)) for i in (1, 2)]
        await settle()
        dispatch.open()
        with pytest.raises(RuntimeError, match="boom"):
            await first
        assert await asyncio.gather(*rest) == [10, 20]
        assert dispatch.sizes == [1, 2]
        assert_idle(batcher)

    run(scenario())


def test_queued_batch_exception_fans_out_to_all_its_waiters():
    async def scenario():
        gate = asyncio.Event()

        async def dispatch(key, items):
            if len(items) == 1:
                await gate.wait()
                return items
            raise RuntimeError("boom")

        batcher = MicroBatcher(dispatch, max_batch=8)
        first = asyncio.ensure_future(batcher.submit("k", 0))
        await settle()
        rest = [asyncio.ensure_future(batcher.submit("k", i)) for i in (1, 2, 3)]
        await settle()
        gate.set()
        assert await first == 0
        results = await asyncio.gather(*rest, return_exceptions=True)
        assert all(isinstance(r, RuntimeError) for r in results)
        assert_idle(batcher)

    run(scenario())


def test_flush_all_answers_queued_requests_at_shutdown():
    async def scenario():
        dispatch = GatedDispatch(first_only=True)
        batcher = MicroBatcher(dispatch, max_batch=8)
        first = asyncio.ensure_future(batcher.submit("k", 0))
        await settle()
        rest = [asyncio.ensure_future(batcher.submit("k", i)) for i in (1, 2)]
        await settle()
        # Shutdown does not wait for the held dispatch to release the queue.
        await asyncio.wait_for(batcher.flush_all(), 5)
        await settle()
        assert [task.result() for task in rest] == [10, 20]
        assert not first.done()
        dispatch.open()
        assert await first == 0
        assert_idle(batcher)

    run(scenario())


def test_queued_dispatch_task_is_held_until_it_finishes():
    async def scenario():
        dispatch = GatedDispatch()
        batcher = MicroBatcher(dispatch, max_batch=2)
        first = asyncio.ensure_future(batcher.submit("k", 0))
        await settle()
        rest = [asyncio.ensure_future(batcher.submit("k", i)) for i in (1, 2)]
        await settle()
        # The full batch runs as a task only the batcher references.
        assert dispatch.sizes == [1, 2]
        assert len(batcher._tasks) == 1
        dispatch.open()
        assert await asyncio.gather(first, *rest) == [0, 10, 20]
        assert_idle(batcher)

    run(scenario())


def test_cancelled_in_flight_submit_still_releases_the_queue():
    async def scenario():
        dispatch = GatedDispatch(first_only=True)
        batcher = MicroBatcher(dispatch, max_batch=8)
        first = asyncio.ensure_future(batcher.submit("k", 0))
        await settle()
        rest = [asyncio.ensure_future(batcher.submit("k", i)) for i in (1, 2)]
        await settle()
        first.cancel()
        assert await asyncio.wait_for(asyncio.gather(*rest), 5) == [10, 20]
        assert first.cancelled()
        assert_idle(batcher)

    run(scenario())


def test_disabled_batcher_dispatches_singletons():
    sizes = []

    async def dispatch(key, items):
        sizes.append(len(items))
        return [item + 1 for item in items]

    async def scenario():
        batcher = MicroBatcher(dispatch, max_batch=1)
        assert not batcher.enabled
        return await asyncio.gather(*(batcher.submit("k", i) for i in range(3)))

    assert run(scenario()) == [1, 2, 3]
    assert sizes == [1, 1, 1]


def test_outcome_count_mismatch_is_an_error():
    async def dispatch(key, items):
        return items[:-1]

    async def scenario():
        batcher = MicroBatcher(dispatch, max_batch=4)
        return await asyncio.gather(
            *(batcher.submit("k", i) for i in range(3)), return_exceptions=True
        )

    results = run(scenario())
    # A singleton dispatch and a queued batch of two, both short by one.
    assert all(isinstance(r, RuntimeError) for r in results)


def test_invalid_configuration_rejected():
    async def dispatch(key, items):  # pragma: no cover - never called
        return items

    with pytest.raises(ValueError):
        MicroBatcher(dispatch, max_batch=0)


def test_linger_knob_is_gone():
    """No request waits on a timer, so there is no window to configure."""
    from repro.service.http import ServiceConfig

    async def dispatch(key, items):  # pragma: no cover - never called
        return items

    with pytest.raises(TypeError):
        MicroBatcher(dispatch, linger_ms=2.0)
    with pytest.raises(TypeError):
        ServiceConfig(linger_ms=2.0)
