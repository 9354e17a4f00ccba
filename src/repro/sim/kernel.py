"""Event loop with simulated time, futures, and fail-stop tasks.

The kernel is intentionally small: two queues of callbacks, a coroutine
driver, and a seeded random number generator. Determinism is a core
requirement -- the paper's 48-hour, 1,000-failure campaign is reproduced as a
simulated-time campaign, and reruns with the same seed must be bit-identical.

Callbacks run in ``(when, seq)`` order: by due time, then by the order they
were scheduled. Two queues implement that order:

* a binary heap of ``(when, seq, timer, callback, args)`` for callbacks due
  strictly later than the time at which they were scheduled;
* a FIFO *ready lane* for callbacks due *now* -- future wake-ups, task
  starts, and ``schedule``/``call_soon`` with ``now + delay == now``. These
  are most callbacks, and the lane spares them a heap push, a heap pop and,
  for the internal ones, a :class:`Timer`.

The invariant that keeps the merge exact: a heap entry due at ``now`` was
pushed before time reached ``now``, so its sequence number is below that of
every lane entry, all of which were appended at ``now``. The loop therefore
runs heap entries with ``when <= now`` first, then the lane in FIFO order,
and advances time (to the heap's head) only once the lane is empty.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from random import Random
from typing import Any, Callable, Coroutine, Generator, Iterable

__all__ = ["Kernel", "SimFuture", "SimTask", "TaskKilled", "Timer"]


class TaskKilled(Exception):
    """Raised by ``await task`` when the task's process failed abruptly."""


class SimFuture:
    """A single-assignment cell that tasks can await.

    Mirrors :class:`asyncio.Future` but is driven by the simulation kernel, so
    resolution order is deterministic.
    """

    __slots__ = ("_kernel", "_done", "_result", "_exception", "_callbacks")

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> BaseException | None:
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        return self._exception

    def set_result(self, value: Any) -> None:
        self._resolve(value, None)

    def set_exception(self, exception: BaseException) -> None:
        self._resolve(None, exception)

    def _resolve(self, value: Any, exception: BaseException | None) -> None:
        if self._done:
            raise RuntimeError("future is already resolved")
        self._done = True
        self._result = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        ready = self._kernel._ready
        for callback in callbacks:
            ready.append((_LIVE, callback, (self,)))

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        if self._done:
            self._kernel._ready.append((_LIVE, callback, (self,)))
        else:
            self._callbacks.append(callback)

    def __await__(self) -> Generator["SimFuture", None, Any]:
        if not self._done:
            yield self
        if not self._done:
            raise RuntimeError("task resumed before future resolved")
        if self._exception is not None:
            raise self._exception
        return self._result


class Timer:
    """Handle for a scheduled callback; ``cancel`` makes it a no-op."""

    __slots__ = ("when", "cancelled")

    def __init__(self, when: float) -> None:
        self.when = when
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


#: Shared by the callbacks no caller can cancel (future wake-ups, task
#: starts, sleeps), so queueing them allocates no Timer. Never handed out.
_LIVE = Timer(0.0)


class SimTask:
    """A coroutine driven by the kernel.

    Tasks are awaitable: ``await task`` yields the coroutine's return value or
    re-raises its exception. Killing a task (directly or by killing its
    process) abandons the coroutine *without* running cleanup handlers --
    modelling abrupt process termination.
    """

    __slots__ = ("kernel", "name", "process", "coro", "alive", "completion")

    def __init__(
        self,
        kernel: "Kernel",
        coro: Coroutine[Any, Any, Any],
        process: Any = None,
        name: str = "task",
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.process = process
        self.coro = coro
        self.alive = True
        self.completion = SimFuture(kernel)

    def done(self) -> bool:
        return self.completion._done

    def kill(self) -> None:
        """Abandon the task abruptly (fail-stop)."""
        alive, self.alive = self.alive, False
        if alive and not self.completion._done:
            self.completion.set_exception(TaskKilled(self.name))
        # Deliberately do not close the coroutine: closing would run
        # ``finally`` blocks, which a crashed process never gets to do.

    def _step(self, future: SimFuture | None = None) -> None:
        """Resume the coroutine: first with ``None``, then each time the
        future it awaits resolves (:meth:`SimFuture.__await__` reads the
        result itself; an exception is thrown in at the ``await``)."""
        completion = self.completion
        if not self.alive or completion._done:
            return
        try:
            if future is not None and future._exception is not None:
                yielded = self.coro.throw(future._exception)
            else:
                yielded = self.coro.send(None)
        except StopIteration as stop:
            if not completion._done:
                completion.set_result(stop.value)
        except BaseException as error:  # noqa: BLE001 - task boundary
            if not completion._done:
                completion.set_exception(error)
            self.kernel._record_crash(self, error)
        else:
            if not isinstance(yielded, SimFuture):
                raise TypeError(
                    f"task {self.name!r} awaited a non-sim awaitable: {yielded!r}"
                )
            if yielded._done:  # only a hand-written awaitable yields a done future
                yielded.add_done_callback(self._step)
            else:
                yielded._callbacks.append(self._step)

    def __await__(self) -> Generator[SimFuture, None, Any]:
        return self.completion.__await__()


class Kernel:
    """Deterministic discrete-event scheduler with simulated time in seconds."""

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap: list[tuple[float, int, Timer, Callable[..., None], tuple]] = []
        self._ready: deque[tuple[Timer, Callable[..., None], tuple]] = deque()
        self.rng = Random(seed)
        self.crashes: list[tuple[SimTask, BaseException]] = []

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        timer = Timer(self._now + delay)
        self._enqueue(delay, timer, callback, args)
        return timer

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at the current time, after what is queued."""
        timer = Timer(self._now)
        self._ready.append((timer, callback, args))
        return timer

    def _enqueue(
        self, delay: float, timer: Timer, callback: Callable[..., None], args: tuple
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        when = self._now + delay
        if when == self._now:
            self._ready.append((timer, callback, args))
        else:
            self._sequence += 1
            heapq.heappush(self._heap, (when, self._sequence, timer, callback, args))

    def create_future(self) -> SimFuture:
        return SimFuture(self)

    def sleep(self, delay: float) -> SimFuture:
        """Awaitable resolved after ``delay`` simulated seconds."""
        future = SimFuture(self)
        self._enqueue(delay, _LIVE, future.set_result, (None,))
        return future

    def spawn(
        self,
        coro: Coroutine[Any, Any, Any],
        process: Any = None,
        name: str = "task",
    ) -> SimTask:
        """Start driving a coroutine; returns the awaitable task handle."""
        task = SimTask(self, coro, process=process, name=name)
        if process is not None:
            if not process.alive:
                task.kill()
                return task
            process.adopt(task)
        self._ready.append((_LIVE, task._step, ()))
        return task

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int = 50_000_000) -> None:
        """Process events in ``(when, seq)`` order.

        Stops when both queues drain, simulated time would pass ``until``,
        or ``max_events`` events have run (a runaway guard for tests).
        Time never moves backwards: an ``until`` in the past runs nothing.
        """
        if until is not None and until < self._now:
            return
        self._drive(until, None, max_events)
        if until is not None and until > self._now:
            self._now = until

    def run_until_complete(
        self, awaitable: SimTask | SimFuture, timeout: float | None = None
    ) -> Any:
        """Drive the loop until ``awaitable`` resolves; return its result."""
        future = awaitable.completion if isinstance(awaitable, SimTask) else awaitable
        deadline = None if timeout is None else self._now + timeout
        if self._drive(deadline, future, math.inf):
            raise TimeoutError(f"not complete after {timeout} simulated seconds")
        if not future._done:
            raise RuntimeError("event loop drained before completion")
        return future.result()

    def _drive(
        self, bound: float | None, future: SimFuture | None, max_events: float
    ) -> bool:
        """Run callbacks in ``(when, seq)`` order until ``future`` resolves or
        both queues drain; True if it stopped at the next one due after
        ``bound`` instead."""
        heap, ready = self._heap, self._ready
        pop, popleft = heapq.heappop, ready.popleft
        events = 0
        while future is None or not future._done:
            if heap and (not ready or heap[0][0] <= self._now):
                when = heap[0][0]
                if bound is not None and when > bound:
                    return True
                _when, _seq, timer, callback, args = pop(heap)
                if timer.cancelled:
                    continue
                self._now = when
            elif ready:
                timer, callback, args = popleft()
                if timer.cancelled:
                    continue
            else:
                return False
            callback(*args)
            events += 1
            if events >= max_events:
                raise RuntimeError(f"kernel exceeded {max_events} events")
        return False

    def gather(self, awaitables: Iterable[SimTask | SimFuture]) -> SimFuture:
        """Future resolved with the list of results once all inputs resolve.

        The first exception (in input order at resolution time) is propagated.
        """
        futures = [
            item.completion if isinstance(item, SimTask) else item
            for item in awaitables
        ]
        combined = self.create_future()
        remaining = len(futures)
        if remaining == 0:
            combined.set_result([])
            return combined

        def on_done(_future: SimFuture) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0 and not combined.done():
                for future in futures:
                    error = future.exception()
                    if error is not None:
                        combined.set_exception(error)
                        return
                combined.set_result([future.result() for future in futures])

        for future in futures:
            future.add_done_callback(on_done)
        return combined

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def _record_crash(self, task: SimTask, error: BaseException) -> None:
        self.crashes.append((task, error))

    def check_no_crashes(self) -> None:
        """Raise the first unhandled task exception, if any (test helper)."""
        if self.crashes:
            task, error = self.crashes[0]
            raise RuntimeError(f"task {task.name!r} crashed: {error!r}") from error
