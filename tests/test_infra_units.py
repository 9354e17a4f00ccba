"""Unit tests for small infrastructure pieces: latency models, stats,
table rendering, the direct-HTTP baseline, trace queries."""

import pytest

from repro.bench import render_table, summary_stats
from repro.bench.report import format_value, render_series
from repro.net import DirectHttpBaseline
from repro.sim import Kernel, Latency, TraceRecorder


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------

def test_fixed_latency_has_no_jitter():
    kernel = Kernel(seed=1)
    latency = Latency.fixed(0.005)
    assert all(latency.sample(kernel.rng) == 0.005 for _ in range(10))


def test_jittered_latency_centered_on_base():
    kernel = Kernel(seed=2)
    latency = Latency.around(0.010, 0.002)
    samples = [latency.sample(kernel.rng) for _ in range(2000)]
    assert all(0.008 <= s <= 0.012 for s in samples)
    assert abs(sum(samples) / len(samples) - 0.010) < 0.0002


def test_latency_floor_truncates():
    kernel = Kernel(seed=3)
    latency = Latency(0.010, 0.02, floor=0.009)
    assert all(latency.sample(kernel.rng) >= 0.009 for _ in range(200))


def test_latency_scaled():
    assert Latency(0.01, 0.002).scaled(2.0) == Latency(0.02, 0.004)


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        Latency(-1.0)
    with pytest.raises(ValueError):
        Latency(1.0, -0.1)


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

def test_summary_stats_basic():
    stats = summary_stats([1.0, 2.0, 3.0, 4.0])
    assert stats["count"] == 4
    assert stats["avg"] == 2.5
    assert stats["median"] == 2.5
    assert stats["min"] == 1.0
    assert stats["max"] == 4.0


def test_summary_stats_odd_median():
    assert summary_stats([5.0, 1.0, 3.0])["median"] == 3.0


def test_summary_stats_empty():
    assert summary_stats([])["count"] == 0
    assert summary_stats([])["avg"] is None


def test_summary_stats_std():
    stats = summary_stats([2.0, 2.0, 2.0])
    assert stats["std"] == 0.0


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def test_render_table_alignment_and_title():
    text = render_table(
        ["Name", "Value"], [("a", 1.5), ("bb", 22.25)], title="T", digits=2
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "Name" in lines[1] and "Value" in lines[1]
    assert "1.50" in text and "22.25" in text


def test_render_table_none_shows_dash():
    text = render_table(["X"], [(None,)])
    assert "-" in text.splitlines()[-1]


def test_render_series_is_table_with_rows():
    text = render_series("S", [(1, 2.0)], ["A", "B"])
    assert text.startswith("S")
    assert "2.000" in text


def test_format_value():
    assert format_value(None) == "-"
    assert format_value(1.23456, digits=2) == "1.23"
    assert format_value("x") == "x"
    assert format_value(7) == "7"


# ---------------------------------------------------------------------------
# direct HTTP baseline
# ---------------------------------------------------------------------------

def test_http_endpoint_round_trip_costs_rtt():
    kernel = Kernel(seed=4)
    endpoint = DirectHttpBaseline(kernel, rtt=0.0026, handler=lambda p: p.upper())

    async def scenario():
        start = kernel.now
        result = await endpoint.request("ping")
        return result, kernel.now - start

    result, elapsed = kernel.run_until_complete(kernel.spawn(scenario()))
    assert result == "PING"
    assert elapsed == pytest.approx(0.0026)
    assert endpoint.requests_served == 1


def test_http_endpoint_latency_object():
    kernel = Kernel(seed=5)
    endpoint = DirectHttpBaseline(
        kernel, rtt=Latency.fixed(0.004), handler=lambda p: p
    )

    async def scenario():
        start = kernel.now
        await endpoint.request("x")
        return kernel.now - start

    elapsed = kernel.run_until_complete(kernel.spawn(scenario()))
    assert elapsed == pytest.approx(0.004)


# ---------------------------------------------------------------------------
# trace recorder
# ---------------------------------------------------------------------------

def test_trace_queries():
    kernel = Kernel()
    trace = TraceRecorder(kernel)
    trace.emit("a", x=1)
    trace.emit("b", x=2)
    trace.emit("a", x=3)
    assert len(trace) == 3
    assert [e["x"] for e in trace.of_kind("a")] == [1, 3]
    assert trace.count("a", x=3) == 1
    assert trace.first("b")["x"] == 2
    assert trace.first("missing") is None


def test_trace_disabled_records_nothing():
    trace = TraceRecorder(enabled=False)
    seen = []
    trace.subscribe(seen.append)
    assert trace.emit("a") is None
    assert len(trace) == 0
    assert seen == [] and trace.window() == []
    assert trace.stats()["kinds"] == {}


def test_trace_subscribers():
    # Subscribers see every event, including those the ring has dropped.
    trace = TraceRecorder(capacity=2)
    seen = []
    trace.subscribe(seen.append)
    for value in range(5):
        trace.emit("evt", v=value)
    assert [event["v"] for event in seen] == [0, 1, 2, 3, 4]
    assert seen[0].kind == "evt"
