"""Per-layer spans and counts, recorded from outside the program.

The traced run wraps public functions of each layer module (class methods
and module functions) with a timing proxy. Every call of a wrapped
synchronous function is one span; every resumption of a wrapped coroutine
is one span segment, so a coroutine's time is the CPU it spent running,
not the simulated or wall time it spent suspended. Spans nest on one
stack: a span's parent is the innermost span open when it started, and
its self time is its duration minus the time its child spans cover.

Nothing here edits the program's source. Wrapping happens after import and
is undone by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Any, Callable

_clock = time.perf_counter_ns

#: Spans kept for the span file; aggregates stay exact beyond this cap.
SPAN_CAP = 300_000


class Tracer:
    """Span stack plus per-name aggregates ``[calls, total_ns, self_ns]``."""

    def __init__(self) -> None:
        self._stack: list[list[int]] = []  # [span_id, start_ns, child_ns]
        self._next_id = 0
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.dropped = 0
        self.top_level_ns = 0
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # the span stack
    # ------------------------------------------------------------------
    def _enter(self) -> list[int]:
        self._next_id += 1
        frame = [self._next_id, _clock(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[int]) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        else:
            self.top_level_ns += duration
            parent = 0
        entry = self.totals.get(name)
        if entry is None:
            self.totals[name] = [1, duration, own]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent, name, frame[1], end, own))
        else:
            self.dropped += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording proxy."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def proxy(*args: Any, **kwargs: Any) -> Any:
                return await _Timed(tracer, name, original(*args, **kwargs))

        else:

            @functools.wraps(original)
            def proxy(*args: Any, **kwargs: Any) -> Any:
                frame = tracer._enter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit(name, frame)

        self.patch(owner, attr, proxy, original)

    def counter(self, owner: Any, attr: str, name: str,
                amount: Callable[..., int] | None = None) -> None:
        """Count calls of ``owner.attr`` (or ``amount(*args)`` per call)
        without a span: for functions too hot or too small to time."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def proxy(*args: Any, **kwargs: Any) -> Any:
            tracer.count(name, 1 if amount is None else amount(*args, **kwargs))
            return original(*args, **kwargs)

        self.patch(owner, attr, proxy, original)

    def patch(self, owner: Any, attr: str, proxy: Any, original: Any) -> None:
        """Set ``owner.attr`` to ``proxy``; :meth:`restore` puts ``original`` back."""
        setattr(owner, attr, proxy)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def self_us(self, prefix: str) -> float:
        """Self time (µs) summed over span names starting with ``prefix``."""
        return sum(v[2] for k, v in self.totals.items() if k.startswith(prefix)) / 1e3

    def total_us(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[1] / 1e3 if entry else 0.0

    def calls_of(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry[0] if entry else 0

    def write(self, path: str) -> None:
        """Write aggregates and the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, (calls, total, own) in sorted(self.totals.items()):
                handle.write(json.dumps({
                    "aggregate": name, "calls": calls,
                    "total_ns": total, "self_ns": own,
                }) + "\n")
            handle.write(json.dumps({"counts": self.counts,
                                     "dropped_spans": self.dropped}) + "\n")
            for span_id, parent, name, start, end, own in self.spans:
                handle.write(json.dumps([span_id, parent, name, start, end, own]) + "\n")


class _Timed:
    """Awaitable proxy timing each resumption of the wrapped coroutine."""

    __slots__ = ("_tracer", "_name", "_coro")

    def __init__(self, tracer: Tracer, name: str, coro: Any):
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self):
        tracer, name = self._tracer, self._name
        inner = self._coro.__await__()
        value: Any = None
        error: BaseException | None = None
        while True:
            frame = tracer._enter()
            try:
                if error is not None:
                    yielded = inner.throw(error)
                else:
                    yielded = inner.send(value)
            except StopIteration as stop:
                tracer._exit(name, frame)
                return stop.value
            except BaseException:
                tracer._exit(name, frame)
                raise
            tracer._exit(name, frame)
            try:
                value, error = (yield yielded), None
            except BaseException as thrown:  # noqa: BLE001 - forwarded inward
                value, error = None, thrown


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Span names start with the layer (``sim.``, ``net.``, ``core.``,
    ``mq.``, ``kvstore.``, ``persist.``) so self time sums per layer.
    """
    from repro.core.api import KarApi
    from repro.core.overload import RetryBudget
    from repro.core.reconciler import Reconciler
    from repro.core.router import Router
    from repro.core.runtime import Component
    from repro.kvstore import backend as kv_backend
    from repro.kvstore.store import KVStore
    from repro.mq import log as mq_log
    from repro.mq.broker import Broker
    from repro.net.gateway import KernelBridge
    from repro.persist import framing
    from repro.sim.kernel import Kernel

    tracer.wrap(Kernel, "run", "sim.kernel.run")
    tracer.wrap(Kernel, "run_until_complete", "sim.kernel.run_until_complete")
    tracer.counter(Kernel, "schedule", "sim.schedule")

    tracer.wrap(KernelBridge, "submit", "net.bridge.submit")
    for method in ("call", "state_get"):
        tracer.wrap(KarApi, method, f"core.api.{method}")

    tracer.wrap(Component, "invoke", "core.runtime.invoke")
    tracer.wrap(Router, "send_durable", "core.router.send_durable")
    tracer.wrap(Router, "route_request", "core.router.route_request")
    tracer.wrap(Router, "send_response", "core.router.send_response")
    tracer.wrap(Reconciler, "run", "core.reconciler.run")
    tracer.counter(RetryBudget, "try_spend", "core.overload.try_spend")

    for method in ("produce", "produce_batch", "fetch"):
        tracer.wrap(Broker, method, f"mq.broker.{method}")
    tracer.wrap(Broker, "restore_from_log", "mq.broker.restore_from_log")
    tracer.wrap(Broker, "produce_internal_batch", "mq.broker.produce_internal_batch")
    internal_batch = Broker.produce_internal_batch

    def produce_internal_batch(self: Any, topic_name: str, entries: Any, *args: Any) -> Any:
        tracer.count(f"mq.internal_records.{topic_name}", len(entries))
        return internal_batch(self, topic_name, entries, *args)

    tracer.patch(Broker, "produce_internal_batch", produce_internal_batch, internal_batch)
    # FileJournalLog.append_many encodes, then calls the base class, which
    # every log runs exactly once per append: count records there.
    tracer.wrap(mq_log.FileJournalLog, "append_many", "mq.log.file.append_many")
    tracer.wrap(mq_log.BrokerLog, "append_many", "mq.log.image.append_many")
    # Replay: the journal file is parsed when the log opens, then the
    # broker rebuilds its partitions from the image.
    tracer.wrap(mq_log.FileJournalLog, "__init__", "mq.log.file.open")
    tracer.counter(mq_log.BrokerLog, "append_many", "mq.log.records",
                   amount=lambda _self, _topic, records: len(records))

    tracer.wrap(KVStore, "connection_round_trip", "kvstore.round_trip")
    for backend_class in (kv_backend.MemoryStoreBackend, kv_backend.SqliteStoreBackend):
        for method in ("get", "set", "delete", "hget", "hset", "hset_many",
                       "hget_many", "hgetall", "hdel", "delete_hash", "keys",
                       "begin_batch", "end_batch", "flush"):
            if method in backend_class.__dict__:
                tracer.wrap(backend_class, method,
                            f"kvstore.backend.{backend_class.__name__}.{method}")

    # Framing as the store backend and the journal reach it: both call
    # through the module attribute, so patching the module covers them.
    tracer.wrap(framing, "dumps_frame", "persist.encode.dumps_frame")
    tracer.wrap(framing, "encode_value", "persist.encode.encode_value")
    tracer.wrap(framing, "loads_frame", "persist.decode.loads_frame")
    tracer.wrap(framing, "decode_value", "persist.decode.decode_value")


def layer_report(
    tracer: Tracer,
    ops: int,
    *,
    counters: dict[str, int],
    sim_seconds: float,
    trace_events: int,
    bridge: dict[str, int] | None,
    server_mean_ms: float,
    phases: list,
    generations: int,
    topic: str,
    journal_bytes: int,
    busy_ns: float,
    top_ns: int,
) -> dict[str, float]:
    """The per-layer metrics a host can measure, normalised per operation.

    ``phases`` holds ``(detection, consensus, reconciliation, total)`` per
    recovery; ``busy_ns`` is the time the host was busy in the measured
    window (CPU for the edge server, which idles; wall for the in-process
    workloads, which never do), which the top-level spans (``top_ns``)
    should cover.
    """
    ops = max(ops, 1)
    kills = max(len(phases), 1)
    counts = tracer.counts
    records = counts.get("mq.log.records", 0)
    append_us = tracer.total_us("mq.log.file.append_many") or tracer.total_us(
        "mq.log.image.append_many")
    boots = tracer.calls_of("mq.broker.restore_from_log")
    replay_us = tracer.total_us("mq.log.file.open") + tracer.total_us("mq.broker.restore_from_log")
    produce_us = sum(tracer.total_us(f"mq.broker.{m}") for m in (
        "produce", "produce_batch", "produce_internal_batch"))
    runs = bridge["runs"] if bridge else 0

    def phase_median(index: int) -> float:
        values = sorted(p[index] for p in phases)
        return values[len(values) // 2] if values else 0.0

    return {
        "sim.events_per_op": counts.get("sim.schedule", 0) / ops,
        "sim.kernel_self_us_per_op": tracer.self_us("sim.kernel") / ops,
        "sim.sim_s_per_op": sim_seconds / ops,
        "sim.trace_events_per_op": trace_events / ops,
        "net.bridge_runs_per_op": runs / ops,
        "net.bridge_busy_us_per_op": (bridge["busy_ns"] / 1e3 / ops) if bridge else 0.0,
        "net.bridge_idle_runs_share": (bridge["idle_runs"] / runs) if runs else 0.0,
        "net.server_mean_ms": server_mean_ms,
        "core.invocations_per_op": tracer.calls_of("core.runtime.invoke") / ops,
        "core.router.produce_rts_per_op": counters["produce_rts"] / ops,
        "core.router.records_per_batch": counters["records"] / max(counters["produce_rts"], 1),
        "core.overload.retries_per_op": counts.get("core.overload.try_spend", 0) / ops,
        "core.reconciler.copies_per_recovery":
            counts.get(f"mq.internal_records.{topic}", 0) / kills,
        "core.recovery.detection_s": phase_median(0),
        "core.recovery.consensus_s": phase_median(1),
        "core.recovery.reconciliation_s": phase_median(2),
        "core.runtime.passivations_per_op": counters["passivations"] / ops,
        "mq.produce_us_per_op": produce_us / ops,
        "mq.log.append_us_per_record": append_us / records if records else 0.0,
        "mq.log.bytes_per_op": journal_bytes / ops,
        "mq.log.replay_ms": replay_us / 1e3 / boots if boots else 0.0,
        "mq.group.generations_per_kill": generations / kills,
        "kvstore.round_trips_per_op": counters["store_rts"] / ops,
        "kvstore.ops_per_round_trip": counters["store_ops"] / max(counters["store_rts"], 1),
        "kvstore.backend_us_per_op": tracer.self_us("kvstore.backend") / ops,
        "persist.encode_us_per_op": tracer.self_us("persist.encode") / ops,
        "persist.decode_us_per_op": tracer.self_us("persist.decode") / ops,
        "bench.unattributed_share": max(0.0, 1.0 - top_ns / busy_ns) if busy_ns else 0.0,
    }
