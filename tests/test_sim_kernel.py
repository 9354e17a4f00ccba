"""Unit tests for the discrete-event simulation kernel."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Kernel, SimProcess, TaskKilled


def test_time_starts_at_zero():
    kernel = Kernel()
    assert kernel.now == 0.0


def test_schedule_runs_in_time_order():
    kernel = Kernel()
    seen = []
    kernel.schedule(2.0, seen.append, "b")
    kernel.schedule(1.0, seen.append, "a")
    kernel.schedule(3.0, seen.append, "c")
    kernel.run()
    assert seen == ["a", "b", "c"]
    assert kernel.now == 3.0


def test_same_time_events_run_in_schedule_order():
    kernel = Kernel()
    seen = []
    for label in ("first", "second", "third"):
        kernel.schedule(1.0, seen.append, label)
    kernel.run()
    assert seen == ["first", "second", "third"]


def test_run_until_stops_at_bound():
    kernel = Kernel()
    seen = []
    kernel.schedule(1.0, seen.append, "early")
    kernel.schedule(5.0, seen.append, "late")
    kernel.run(until=2.0)
    assert seen == ["early"]
    assert kernel.now == 2.0
    kernel.run()
    assert seen == ["early", "late"]


def test_timer_cancel():
    kernel = Kernel()
    seen = []
    timer = kernel.schedule(1.0, seen.append, "x")
    timer.cancel()
    kernel.run()
    assert seen == []


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(ValueError):
        kernel.schedule(-0.1, lambda: None)


def test_sleep_advances_time():
    kernel = Kernel()

    async def napper():
        await kernel.sleep(1.5)
        return kernel.now

    task = kernel.spawn(napper())
    assert kernel.run_until_complete(task) == 1.5


def test_task_return_value():
    kernel = Kernel()

    async def work():
        return 42

    assert kernel.run_until_complete(kernel.spawn(work())) == 42


def test_task_exception_propagates_to_awaiter():
    kernel = Kernel()

    async def boom():
        raise ValueError("broken")

    async def waiter():
        try:
            await kernel.spawn(boom())
        except ValueError as error:
            return str(error)
        return "no error"

    assert kernel.run_until_complete(kernel.spawn(waiter())) == "broken"


def test_unawaited_task_exception_recorded_as_crash():
    kernel = Kernel()

    async def boom():
        raise RuntimeError("lost")

    kernel.spawn(boom())
    kernel.run()
    assert len(kernel.crashes) == 1
    with pytest.raises(RuntimeError):
        kernel.check_no_crashes()


def test_future_resolution_wakes_task():
    kernel = Kernel()
    future = kernel.create_future()

    async def waiter():
        return await future

    task = kernel.spawn(waiter())
    kernel.schedule(3.0, future.set_result, "done")
    assert kernel.run_until_complete(task) == "done"
    assert kernel.now == 3.0


def test_future_double_resolution_rejected():
    kernel = Kernel()
    future = kernel.create_future()
    future.set_result(1)
    with pytest.raises(RuntimeError):
        future.set_result(2)


def test_future_exception_raises_in_awaiter():
    kernel = Kernel()
    future = kernel.create_future()

    async def waiter():
        with pytest.raises(KeyError):
            await future
        return "handled"

    task = kernel.spawn(waiter())
    kernel.call_soon(future.set_exception, KeyError("k"))
    assert kernel.run_until_complete(task) == "handled"


def test_gather_collects_in_order():
    kernel = Kernel()

    async def delayed(value, delay):
        await kernel.sleep(delay)
        return value

    tasks = [kernel.spawn(delayed(i, 3.0 - i)) for i in range(3)]
    result = kernel.run_until_complete(kernel.gather(tasks))
    assert result == [0, 1, 2]


def test_gather_empty():
    kernel = Kernel()
    assert kernel.run_until_complete(kernel.gather([])) == []


def test_process_kill_abandons_tasks():
    kernel = Kernel()
    process = SimProcess("victim")
    progress = []

    async def worker():
        progress.append("started")
        await kernel.sleep(10.0)
        progress.append("finished")

    kernel.spawn(worker(), process=process)
    kernel.run(until=1.0)
    assert progress == ["started"]
    process.kill()
    kernel.run()
    assert progress == ["started"]
    assert not process.alive


def test_killed_task_raises_in_awaiter():
    kernel = Kernel()
    process = SimProcess("victim")

    async def worker():
        await kernel.sleep(10.0)

    async def observer():
        task = kernel.spawn(worker(), process=process)
        kernel.schedule(1.0, process.kill)
        with pytest.raises(TaskKilled):
            await task
        return "observed"

    assert kernel.run_until_complete(kernel.spawn(observer())) == "observed"


def test_spawn_on_dead_process_is_killed_immediately():
    kernel = Kernel()
    process = SimProcess("gone")
    process.kill()

    async def worker():
        return 1

    task = kernel.spawn(worker(), process=process)
    kernel.run()
    assert task.done()
    assert isinstance(task.completion.exception(), TaskKilled)


def test_kill_hooks_run_once():
    kernel = Kernel()
    process = SimProcess("p")
    calls = []
    process.kill_hooks.append(lambda: calls.append("hook"))
    process.kill()
    process.kill()
    assert calls == ["hook"]


def test_determinism_same_seed_same_trace():
    def run(seed):
        kernel = Kernel(seed=seed)
        samples = []

        async def worker():
            for _ in range(5):
                delay = kernel.rng.uniform(0.1, 1.0)
                await kernel.sleep(delay)
                samples.append(round(kernel.now, 9))

        kernel.run_until_complete(kernel.spawn(worker()))
        return samples

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_run_until_complete_timeout():
    kernel = Kernel()
    future = kernel.create_future()
    kernel.schedule(100.0, future.set_result, None)
    with pytest.raises(TimeoutError):
        kernel.run_until_complete(future, timeout=1.0)


def test_event_loop_drained_error():
    kernel = Kernel()
    future = kernel.create_future()
    with pytest.raises(RuntimeError):
        kernel.run_until_complete(future)


def test_run_until_in_the_past_never_rewinds_time():
    kernel = Kernel()
    seen = []
    kernel.schedule(5.0, seen.append, "late")
    kernel.run(until=1.0)
    assert kernel.now == 1.0
    kernel.run(until=0.5)
    assert kernel.now == 1.0
    kernel.call_soon(seen.append, "soon")
    kernel.run(until=0.5)  # nothing is due by a bound already passed
    assert (seen, kernel.now) == ([], 1.0)
    kernel.run()
    assert (seen, kernel.now) == (["soon", "late"], 5.0)


def test_cancelled_call_soon_never_runs():
    kernel = Kernel()
    seen = []
    kernel.call_soon(seen.append, "kept")
    kernel.call_soon(seen.append, "dropped").cancel()
    kernel.schedule(0.0, seen.append, "dropped too").cancel()
    kernel.run()
    assert seen == ["kept"]
    future = kernel.create_future()
    kernel.call_soon(seen.append, "dropped again").cancel()
    kernel.call_soon(future.set_result, "done")
    assert kernel.run_until_complete(future) == "done"
    assert seen == ["kept"]


@pytest.mark.parametrize("drive", ["run", "run_until_complete"])
def test_due_timers_run_before_wake_ups_queued_at_the_same_time(drive):
    kernel = Kernel()
    seen = []
    future = kernel.create_future()

    async def waiter():
        seen.append(await future)

    def first():
        seen.append("first")
        kernel.call_soon(seen.append, "queued by first")
        future.set_result("woken by first")

    kernel.spawn(waiter())
    kernel.schedule(1.0, first)
    kernel.schedule(1.0, seen.append, "second")
    if drive == "run":
        kernel.run()
    else:
        kernel.run_until_complete(kernel.sleep(2.0))
    assert seen == ["first", "second", "queued by first", "woken by first"]


# ----------------------------------------------------------------------
# ordering oracle: the kernel against a heap-only (when, seq) scheduler
# ----------------------------------------------------------------------
class _HeapLane:
    """Stands in for the ready lane: every wake-up goes on the heap."""

    def __init__(self, kernel):
        self.kernel = kernel

    def append(self, entry):
        self.kernel._enqueue(0.0, *entry)


class HeapOnlyKernel(Kernel):
    """Reference scheduler: one heap, strict ``(when, seq)`` order."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self._ready = _HeapLane(self)

    def _enqueue(self, delay, timer, callback, args):
        assert delay >= 0
        self._sequence += 1
        entry = (self._now + delay, self._sequence, timer, callback, args)
        heapq.heappush(self._heap, entry)

    def _next(self, bound):
        """Pop the next live entry due by ``bound``; None when there is none."""
        while self._heap and (bound is None or self._heap[0][0] <= bound):
            when, _seq, timer, callback, args = heapq.heappop(self._heap)
            if not timer.cancelled:
                self._now = when
                return callback, args
        return None

    def run(self, until=None, max_events=None):
        while (entry := self._next(until)) is not None:
            entry[0](*entry[1])
        if until is not None:
            self._now = max(self._now, until)

    def run_until_complete(self, awaitable, timeout=None):
        future = getattr(awaitable, "completion", awaitable)
        deadline = None if timeout is None else self._now + timeout
        while not future.done():
            if not self._heap:
                raise RuntimeError("event loop drained before completion")
            if (entry := self._next(deadline)) is None:
                if self._heap:
                    raise TimeoutError
                continue
            entry[0](*entry[1])
        return future.result()


def _execute(kernel, program, drain_by_complete):
    """Run ``program`` on ``kernel``; return the log of everything that ran."""
    log, handles, futures, tasks = [], [], [], []
    labels = itertools.count()

    def fire(label, children):
        log.append((label, kernel.now))
        for child in children:
            perform(child)

    async def waiter(label, future, nap, children):
        await kernel.sleep(nap)
        log.append((label, kernel.now, await future))
        for child in children:
            perform(child)

    def perform(action):
        kind, *rest = action
        if kind == "schedule":
            delay, children = rest
            handles.append(kernel.schedule(delay, fire, next(labels), children))
        elif kind == "soon":
            handles.append(kernel.call_soon(fire, next(labels), rest[0]))
        elif kind == "cancel" and handles:
            handles[rest[0] % len(handles)].cancel()
        elif kind == "future":
            futures.append(kernel.create_future())
        elif kind == "resolve" and futures:
            future = futures[rest[0] % len(futures)]
            if not future.done():
                future.set_result(next(labels))
        elif kind == "await" and futures:
            pick, nap, children = rest
            future = futures[pick % len(futures)]
            tasks.append(kernel.spawn(waiter(next(labels), future, nap, children)))

    for step in program:
        if step[0] == "run":
            kernel.run(until=kernel.now + step[1])
        elif step[0] == "complete":
            _, pick, timeout = step
            targets = (tasks or futures) if pick is not None else []
            target = targets[pick % len(targets)] if targets else kernel.create_future()
            try:
                kernel.run_until_complete(target, timeout)
            except (RuntimeError, TimeoutError) as error:
                log.append(type(error).__name__)
        else:
            perform(step)
        log.append(("now", kernel.now))
    if drain_by_complete:
        # A future nobody resolves: every pending event runs, then the
        # drained-loop error.
        with pytest.raises(RuntimeError):
            kernel.run_until_complete(kernel.create_future())
    kernel.run()
    log.append(("end", kernel.now, kernel.crashes == []))
    return log


# Repeated delays and 0.0 make same-time ties; 1e-18 is absorbed once
# now >= 1, so "now + delay == now" also happens for a positive delay.
_delays = st.sampled_from([0.0, 1e-18, 1.0, 1.0, 1.0, 2.0])
_picks = st.integers(0, 30)
_actions = st.recursive(
    st.one_of(
        st.tuples(st.just("schedule"), _delays, st.just([])),
        st.tuples(st.just("soon"), st.just([])),
        st.tuples(st.just("cancel"), _picks),
        st.tuples(st.just("future")),
        st.tuples(st.just("resolve"), _picks),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("schedule"), _delays, st.lists(inner, max_size=3)),
        st.tuples(st.just("soon"), st.lists(inner, max_size=3)),
        st.tuples(st.just("await"), _picks, _delays, st.lists(inner, max_size=3)),
    ),
    max_leaves=12,
)
_steps = st.one_of(
    st.tuples(st.just("run"), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0])),
    st.tuples(
        st.just("complete"),
        st.one_of(st.none(), _picks),
        st.sampled_from([0.0, 1.0, None]),
    ),
)
# Mostly actions, so that several are pending when time moves.
_programs = st.lists(st.one_of(_actions, _actions, _actions, _steps), max_size=14)


@settings(max_examples=300, deadline=None)
@given(_programs, st.booleans())
def test_callback_order_matches_heap_only_reference(program, drain_by_complete):
    expected = _execute(HeapOnlyKernel(), program, drain_by_complete)
    assert _execute(Kernel(), program, drain_by_complete) == expected
