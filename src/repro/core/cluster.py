"""Worker event loops: the building blocks of multi-worker scale-out.

The paper's deployment (Section 5) is many sidecar processes sharing one
Kafka and one Redis. A :class:`~repro.core.app.KarApplication` started with
``workers=N`` reproduces that shape from the pieces in this module:

- a :class:`KarWorker` is one worker event loop -- its own failure domain
  (a :class:`~repro.sim.SimProcess`), its own
  :class:`~repro.mq.GroupCoordinator` *view* onto the shared store-backed
  group state, and a :class:`WorkerLoop` busy horizon that serializes the
  CPU cost of every actor invocation it hosts (``KarConfig.
  worker_loop_cost``). With a positive cost one worker is a genuine
  throughput ceiling, and sharding components across N workers buys ~N x;
- a :class:`DecayingCounter` is the lazily decaying window behind each
  loop's load plane (current hotness, not accumulated history).

Workers agree through the store, not through shared Python objects: the
group state is CAS-bumped generations in the store backend, worker
liveness is a heartbeat hash in the same store, and every coordinator view
polls for foreign generations from its watchdog. The control plane that
assigns, migrates and re-hosts components lives in the application.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.mq import GroupCoordinator
from repro.sim import Kernel, SimProcess

if TYPE_CHECKING:
    from repro.core.app import KarApplication

__all__ = ["DecayingCounter", "KarWorker", "WorkerLoop"]

_LN2 = math.log(2.0)


class DecayingCounter:
    """An exponentially decaying accumulator (half-life in seconds).

    Deposits fold the decay in lazily -- no ticking task -- so reading the
    counter is pure arithmetic on (value, stamp). ``rate`` converts the
    decayed mass into the steady input rate that would sustain it: a
    constant inflow of ``r`` per second equilibrates at
    ``r * halflife / ln 2``.
    """

    __slots__ = ("halflife", "_value", "_stamp")

    def __init__(self, halflife: float):
        self.halflife = halflife
        self._value = 0.0
        self._stamp = 0.0

    def add(self, amount: float, now: float) -> None:
        self._value = self.value(now) + amount
        self._stamp = now

    def value(self, now: float) -> float:
        if self._value == 0.0:
            return 0.0
        return self._value * 0.5 ** ((now - self._stamp) / self.halflife)

    def rate(self, now: float) -> float:
        return self.value(now) * _LN2 / self.halflife


class WorkerLoop:
    """The busy horizon of one worker event loop.

    Charges serialize: each one starts no earlier than the previous one
    ended, so concurrent executions hosted on the same worker queue behind
    each other exactly like coroutines on one OS event loop. A zero cost
    returns without yielding to the scheduler, leaving single-loop runs
    event-for-event identical to the pre-scale-out runtime.

    Besides the lifetime totals the loop keeps decaying *windows* -- busy
    seconds and call counts, per loop and per hosted component -- which are
    the load plane's signal: current hotness, not accumulated history.
    """

    def __init__(self, kernel: Kernel, cost: float, halflife: float = 5.0):
        self.kernel = kernel
        self.cost = cost
        self.halflife = halflife
        self.busy_until = 0.0
        self.calls_charged = 0
        self.busy_seconds_total = 0.0
        #: Set when the hosting worker wedges: charges stall forever (the
        #: loop stops making progress) while heartbeats keep flowing.
        self.stalled = False
        self._busy_window = DecayingCounter(halflife)
        self._component_busy: dict[str, DecayingCounter] = {}
        self._component_calls: dict[str, DecayingCounter] = {}

    async def charge(self, component: str | None = None) -> None:
        if self.stalled:
            # A wedged loop never schedules the execution; the stuck task
            # dies with the component process when the control plane
            # re-hosts it.
            await self.kernel.create_future()
        self.calls_charged += 1
        now = self.kernel.now
        if component is not None:
            self._window(self._component_calls, component).add(1.0, now)
        if self.cost <= 0.0:
            return
        start = max(now, self.busy_until)
        self.busy_until = start + self.cost
        self.busy_seconds_total += self.cost
        self._busy_window.add(self.cost, now)
        if component is not None:
            self._window(self._component_busy, component).add(self.cost, now)
        await self.kernel.sleep(self.busy_until - now)

    def _window(
        self, windows: dict[str, DecayingCounter], component: str
    ) -> DecayingCounter:
        window = windows.get(component)
        if window is None:
            window = windows[component] = DecayingCounter(self.halflife)
        return window

    # ------------------------------------------------------------------
    # load plane readings
    # ------------------------------------------------------------------
    def busy_seconds(self, now: float) -> float:
        """Decayed busy-seconds window (current hotness, not history)."""
        return self._busy_window.value(now)

    def busy_rate(self, now: float) -> float:
        """Fraction of this loop currently consumed by charges (0..~1)."""
        return self._busy_window.rate(now)

    def component_loads(self, now: float) -> dict[str, dict[str, float]]:
        """Per-component decayed load: calls/sec and busy-rate share."""
        names = set(self._component_busy) | set(self._component_calls)
        loads: dict[str, dict[str, float]] = {}
        for name in sorted(names):
            calls = self._component_calls.get(name)
            busy = self._component_busy.get(name)
            loads[name] = {
                "calls_per_s": calls.rate(now) if calls is not None else 0.0,
                "busy_rate": busy.rate(now) if busy is not None else 0.0,
            }
        return loads

    def forget_component(self, name: str) -> None:
        """Drop a migrated-away component's windows so its old host stops
        reporting phantom load for it."""
        self._component_busy.pop(name, None)
        self._component_calls.pop(name, None)

    def export_component(
        self, name: str
    ) -> tuple[DecayingCounter | None, DecayingCounter | None]:
        """Detach a component's load windows for transfer to another loop.

        A migration must *carry* the component's load history: resetting
        it on every move makes the hottest component look perpetually cool
        right after each handoff, so the controller keeps migrating the
        hotspot instead of ever seeing it cross the split threshold.
        """
        return (
            self._component_busy.pop(name, None),
            self._component_calls.pop(name, None),
        )

    def adopt_component(
        self,
        name: str,
        windows: tuple[DecayingCounter | None, DecayingCounter | None],
    ) -> None:
        """Install load windows exported from the previous host."""
        busy, calls = windows
        if busy is not None:
            self._component_busy[name] = busy
        if calls is not None:
            self._component_calls[name] = calls


class KarWorker:
    """One worker event loop: a failure domain hosting components.

    The worker heartbeats into the shared store (`_cluster:<app>:heartbeats`)
    so the control plane detects its death the same way the group detects a
    member's -- by silence, observed through the shared backend.
    """

    def __init__(self, app: "KarApplication", worker_id: str):
        self.app = app
        self.worker_id = worker_id
        self.kernel = app.kernel
        self.process = SimProcess(f"worker:{worker_id}")
        self.loop = WorkerLoop(
            app.kernel,
            app.config.worker_loop_cost,
            halflife=app.config.load_halflife,
        )
        #: A wedged worker keeps heartbeating (its processes are alive) but
        #: its loop stalls and its leases stop renewing -- the failure mode
        #: only the lease TTL sweep can detect.
        self.wedged = False
        #: This worker's own view onto the shared group state.
        self.coordinator = GroupCoordinator(
            app.broker, app.name, app.topic_name, state=app.coordinator.state
        )
        self.coordinator.ensure_watchdog()
        #: Component names currently hosted on this loop.
        self.hosted: set[str] = set()
        #: Set on graceful removal; a retired worker takes no new components.
        self.retired = False
        self.kernel.spawn(
            self._heartbeat_loop(),
            self.process,
            name=f"worker-heartbeat:{worker_id}",
        )

    @property
    def alive(self) -> bool:
        return self.process.alive

    async def _heartbeat_loop(self) -> None:
        interval = self.app.config.worker_heartbeat_interval
        backend = self.app.store.backend
        key = self.app.worker_heartbeat_key
        while True:
            backend.hset(key, self.worker_id, self.kernel.now)
            await self.kernel.sleep(interval)

    def wedge(self) -> None:
        """Wedge this worker: heartbeats keep flowing, progress stops.

        Models a live-but-stuck event loop (GC death spiral, hung syscall
        on the hot path): the heartbeat task still runs, so session-timeout
        detection never fires; only the partition leases going unrenewed
        reveals the worker is not actually doing work.
        """
        self.wedged = True
        self.loop.stalled = True
        self.app.trace.emit("worker.wedge", worker=self.worker_id)

    def stats(self) -> dict[str, Any]:
        """Per-worker slice of the unified evidence surface."""
        components = [
            component
            for component in self.app.components.values()
            if component.worker is self
        ]
        live = [c for c in components if c.alive]
        now = self.kernel.now
        return {
            "alive": self.alive,
            "retired": self.retired,
            "wedged": self.wedged,
            "hosted": sorted(self.hosted),
            "calls_charged": self.loop.calls_charged,
            # The decayed window: *current* hotness. The lifetime counter
            # moved to busy_seconds_total.
            "busy_seconds": self.loop.busy_seconds(now),
            "busy_seconds_total": self.loop.busy_seconds_total,
            "busy_rate": self.loop.busy_rate(now),
            "component_load": self.loop.component_loads(now),
            "outbox_batches": sum(c.router.batches_flushed for c in live),
            "outbox_records": sum(c.router.records_sent for c in live),
        }

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"KarWorker({self.worker_id}, {state}, hosted={sorted(self.hosted)})"

