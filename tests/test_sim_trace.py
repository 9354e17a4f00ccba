"""The bounded trace recorder: a ring of the newest events, exact per-kind
counters, and typed refusal of whole-history queries after a drop."""

import pytest

from repro.core import actor_proxy
from repro.sim import Kernel, TraceRecorder, TraceTruncated
from repro.sim.trace import DEFAULT_TRACE_CAPACITY

from helpers import two_component_app

WHOLE_HISTORY = {
    "events": lambda trace: trace.events,
    "iter": lambda trace: list(iter(trace)),
    "of_kind": lambda trace: trace.of_kind("a"),
    "where": lambda trace: trace.where("a", x=1),
    "first": lambda trace: trace.first("a"),
    "filtered count": lambda trace: trace.count("a", x=1),
}


def emit_numbered(trace, n, kinds=("a",)):
    for index in range(n):
        trace.emit(kinds[index % len(kinds)], x=index)


def test_ring_keeps_the_newest_events():
    trace = TraceRecorder(Kernel(), capacity=4)
    emit_numbered(trace, 10)
    assert [event["x"] for event in trace.window()] == [6, 7, 8, 9]
    assert trace.emitted == 10
    assert trace.dropped == 6
    assert len(trace) == 10


def test_counters_stay_exact_past_the_bound():
    trace = TraceRecorder(capacity=8)
    emit_numbered(trace, 101, kinds=("a", "b"))
    assert trace.count("a") == 51
    assert trace.count("b") == 50
    assert trace.count("missing") == 0
    assert trace.stats() == {
        "capacity": 8,
        "emitted": 101,
        "retained": 8,
        "dropped": 93,
        "kinds": {"a": 51, "b": 50},
    }


@pytest.mark.parametrize("query", sorted(WHOLE_HISTORY))
def test_whole_history_queries_raise_after_a_drop(query):
    trace = TraceRecorder(capacity=3)
    emit_numbered(trace, 3)
    WHOLE_HISTORY[query](trace)  # a full ring has dropped nothing yet
    trace.emit("a", x=3)
    with pytest.raises(TraceTruncated):
        WHOLE_HISTORY[query](trace)


def test_capacity_none_keeps_everything():
    trace = TraceRecorder(capacity=None)
    total = DEFAULT_TRACE_CAPACITY + 100
    emit_numbered(trace, total, kinds=("a", "b"))
    assert len(trace.events) == total
    assert trace.dropped == 0
    assert trace.count("a", x=total - 2) == 1
    assert trace.first("b")["x"] == 1
    assert trace.stats()["capacity"] is None


def test_negative_capacity_is_rejected():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=-1)


def run_latch_workload(capacity):
    kernel, app = two_component_app(seed=7)
    app.trace = TraceRecorder(kernel, capacity=capacity)
    for index in range(12):
        app.run_call(actor_proxy("Latch", f"l{index % 4}"), "set", index)
    return kernel, app


def test_app_trace_is_bounded_by_default():
    _kernel, app = two_component_app(seed=7)
    assert app.trace.capacity == DEFAULT_TRACE_CAPACITY
    family = app.stats("trace")
    assert family["capacity"] == DEFAULT_TRACE_CAPACITY
    assert family["emitted"] == sum(family["kinds"].values()) > 0
    assert family["retained"] + family["dropped"] == family["emitted"]
    assert app.stats()["trace"] == family


def test_bounded_app_trace_counts_what_the_full_history_holds():
    full_kernel, full = run_latch_workload(capacity=None)
    bounded_kernel, bounded = run_latch_workload(capacity=16)
    # The bound changes what is retained, never what the runtime does.
    assert bounded_kernel.now == full_kernel.now
    family = bounded.stats("trace")
    assert family["dropped"] > 0
    assert family["emitted"] == len(full.trace.events)
    kinds = {}
    for event in full.trace.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    assert family["kinds"] == dict(sorted(kinds.items()))
    assert bounded.trace.window() == full.trace.events[-16:]
