"""One benchmark host process: builds a workload's deployment and runs it.

``run.py`` starts this file once per set-up sample and once for the
measured run, with ``PYTHONPATH=src`` and a per-run ``PYTHONHASHSEED``.
It talks JSON lines: events go to stdout; the edge host also reads
commands from stdin. With ``--setup-only`` it stops right after the first
operation is accepted, so ``run.py`` can time set-up on its own.

Inputs come only from ``--seed`` (through ``random.Random`` and the
simulation kernel's seed); ``--seconds`` scales how much work a run does.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import resource
import shutil
import sys
import threading
import time
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import emit, median, percentile  # noqa: E402
from layers import Tracer, instrument, layer_report  # noqa: E402

from repro.core import Actor, KarApplication, actor_proxy  # noqa: E402
from repro.sim import Kernel  # noqa: E402

#: Directories inside the working checkout: sqlite files of the durable
#: workload (removed after the run) and span files of traced runs.
SCRATCH = ".perfbench_tmp"
SPANS = ".perfbench_out"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(values: list[float], scale: float = 1.0, blocks: int = 1) -> dict[str, float]:
    """Sample count, p50 and p99 of ``values``. With ``blocks`` > 1 the
    percentiles are medians over that many consecutive blocks, so a stall
    of the shared host during one block does not set the run's figure."""
    size = max(1, len(values) // blocks)
    chunks = [values[i * size:(i + 1) * size] for i in range(blocks)] if blocks > 1 else [values]
    return {
        "n": len(values),
        "p50": median(percentile(chunk, 0.50) for chunk in chunks) * scale,
        "p99": median(percentile(chunk, 0.99) for chunk in chunks) * scale,
    }


def app_counters(app: KarApplication) -> dict[str, int]:
    """Counters read from the public ``stats()`` tree of one boot."""
    transport = app.stats("transport")
    store = app.stats("store")
    return {
        "produce_rts": transport["produce_round_trips"],
        "records": transport["records_appended"],
        "store_rts": store["store_round_trips"],
        "store_ops": store["store_operations"],
        "passivations": sum(c.passivations for c in app.components.values()),
    }


def add_counters(into: dict[str, int], more: dict[str, int]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


def outage_phases(coordinator: Any, mark: int, kill_time: float, members: set[str]):
    """``(detection, consensus, reconciliation, total, last_generation)`` once
    every failure generation since ``mark`` covering ``members`` resumed,
    else ``None`` -- the split ``FailureCampaign`` makes for Table 1."""
    relevant = [r for r in coordinator.history[mark:] if r.reason == "failure"]
    covered = {member for record in relevant for member in record.failed}
    if not relevant or not members <= covered or relevant[-1].resumed_at is None:
        return None
    if coordinator.paused:
        return None
    detection = relevant[0].triggered_at - kill_time
    consensus = sum(r.completed_at - r.triggered_at for r in relevant)
    total = relevant[-1].resumed_at - kill_time
    return detection, consensus, max(total - detection - consensus, 0.0), total, relevant[-1].generation


def stamp_resumes(coordinator: Any, clock: Any = time.perf_counter) -> dict[int, float]:
    """Host time (``clock``) at which each generation's pause was lifted."""
    stamps: dict[int, float] = {}
    original = coordinator.resume

    def resume(generation: int) -> None:
        was_paused = coordinator.paused
        original(generation)
        if was_paused and not coordinator.paused:
            stamps[generation] = clock()

    coordinator.resume = resume
    return stamps


# ----------------------------------------------------------------------
# edge-zipf: the HTTP gateway over a per-key hit counter
# ----------------------------------------------------------------------
class HitCounter(Actor):
    """Per-key counter with a persisted write on every call."""

    async def hit(self, ctx):
        total = await ctx.state.get("n", 0) + 1
        await ctx.state.set("n", total)
        return total


EDGE_COMPONENTS = ("w0", "w1", "w2", "w3")


def deploy_edge(seed: int) -> tuple[Kernel, KarApplication]:
    # The gateway load bench's deployment (idle passivation so the cold tail
    # leaves memory, four hosting components) on Table 2's ClusterProd
    # latencies, jittered so simulated latency is not a handful of sums.
    from repro.bench.configs import CLUSTER_PROD

    kernel = Kernel(seed=seed)
    config = CLUSTER_PROD.kar_config().with_overrides(idle_passivation_timeout=60.0)
    app = KarApplication(kernel, config, name="edge")
    app.register_actor(HitCounter, name="Hit")
    for name in EDGE_COMPONENTS:
        app.add_component(name, ("Hit",))
    app.settle()
    return kernel, app


async def edge_serve(args: argparse.Namespace, tracer: Tracer | None) -> None:
    from repro.net import KarGateway

    kernel, app = deploy_edge(args.seed)
    gateway = KarGateway(app, port=0, sync_timeout=120.0)
    api = app.api("gateway")
    sim_latencies: list[float] = []

    def sim_timed(operation):
        async def timed(*call_args: Any, **kwargs: Any) -> Any:
            started = kernel.now
            result = await operation(*call_args, **kwargs)
            sim_latencies.append(kernel.now - started)
            return result
        return timed

    api.call = sim_timed(api.call)
    api.state_get = sim_timed(api.state_get)

    trace_kinds: dict[str, int] = {}
    # Every kernel slice the bridge runs: count, share started with nothing
    # pending, and time spent (the clock behind the edge recovery time).
    bridge = {"runs": 0, "idle_runs": 0, "busy_ns": 0, "slice_start": 0}
    pump_run = kernel.run

    def bridge_run(*run_args: Any, **kwargs: Any) -> None:
        bridge["runs"] += 1
        if gateway.bridge.pending == 0:
            bridge["idle_runs"] += 1
        bridge["slice_start"] = started = time.perf_counter_ns()
        try:
            pump_run(*run_args, **kwargs)
        finally:
            bridge["busy_ns"] += time.perf_counter_ns() - started

    kernel.run = bridge_run
    if tracer is not None:
        app.trace.subscribe(
            lambda event: trace_kinds.__setitem__(event.kind, trace_kinds.get(event.kind, 0) + 1)
        )
    # Resumes happen inside a slice: count the slice's time so far.
    resume_walls = stamp_resumes(
        app.coordinator,
        clock=lambda: (bridge["busy_ns"] + time.perf_counter_ns() - bridge["slice_start"]) / 1e9)
    host, port = await gateway.start()
    emit({"event": "listening", "host": host, "port": port})

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue[str] = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line)
        loop.call_soon_threadsafe(commands.put_nowait, "")

    threading.Thread(target=read_stdin, daemon=True).start()
    window = {"cpu": time.process_time(), "sim": kernel.now,
              "top_ns": tracer.top_level_ns if tracer else 0}
    faults: dict[str, Any] = {"phases": [], "walls": [], "generations": 0}
    fault_task: asyncio.Task[None] | None = None

    async def run_faults() -> None:
        coordinator = app.coordinator
        generation_before = coordinator.generation
        # Hold one simulation op pending for the whole fault step, so the
        # bridge runs busy slices throughout, as under steady load, and the
        # outage's pacing does not hinge on when traffic first hits the
        # dead component.
        release = kernel.create_future()

        async def hold() -> None:
            await release

        keeper = gateway.bridge.submit(hold())
        for name in EDGE_COMPONENTS[1:] * 3:
            mark = len(coordinator.history)
            member = app.components[name].member_id
            kill_time, kill_busy = kernel.now, bridge["busy_ns"] / 1e9
            app.kill_component(name)
            deadline = time.perf_counter() + 60.0
            while (found := outage_phases(coordinator, mark, kill_time, {member})) is None:
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"no recovery after killing {name}")
                await asyncio.sleep(0.002)
            *phases, generation = found
            faults["phases"].append(phases)
            faults["walls"].append(resume_walls[generation] - kill_busy)
            app.restart_component(name)
            while coordinator.paused or name not in app.live_component_names():
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"{name} did not rejoin")
                await asyncio.sleep(0.002)
        faults["generations"] = coordinator.generation - generation_before
        release.set_result(None)
        await keeper

    while True:
        line = await commands.get()
        if not line:
            break
        command = line.strip()
        if command == "mark":
            emit({"event": "mark", "cpu": time.process_time()})
        elif command == "faults":
            fault_task = asyncio.create_task(run_faults())

            def faults_done(task: asyncio.Task[None]) -> None:
                error = task.exception()
                emit({"event": "faults", "error": repr(error) if error else None,
                      "kills": len(faults["phases"])})

            fault_task.add_done_callback(faults_done)
        elif command == "snapshot":
            emit({"event": "snapshot", "sim": summary(sim_latencies, 1000.0),
                  "peak_rss_mb": peak_rss_mb()})
        elif command == "finish":
            if fault_task is not None:
                await fault_task
            cpu_ns = (time.process_time() - window["cpu"]) * 1e9
            ops = gateway.metrics.requests_total
            report: dict[str, Any] = {
                "event": "result",
                "ops": ops,
                "unsettled": len(app.stats("calls")["unsettled"]),
                "crashes": len(kernel.crashes),
                "recovery_sim_s": [p[3] for p in faults["phases"]],
                "recovery_wall_ms": [w * 1000.0 for w in faults["walls"]],
            }
            if tracer is not None:
                routes = app.stats("gateway")["routes"]
                served = sum(r["latency"]["count"] for r in routes.values())
                server_ms = sum(r["latency"]["count"] * r["latency"]["mean_ms"]
                                for r in routes.values())
                counters = app_counters(app)
                counters["passivations"] = trace_kinds.get("actor.passivate", 0)
                report["layers"] = layer_report(
                    tracer, ops,
                    counters=counters,
                    sim_seconds=kernel.now - window["sim"],
                    trace_events=sum(trace_kinds.values()),
                    bridge=bridge,
                    server_mean_ms=server_ms / served if served else 0.0,
                    phases=faults["phases"],
                    generations=faults["generations"],
                    topic=app.topic_name,
                    journal_bytes=0,
                    busy_ns=cpu_ns,
                    top_ns=tracer.top_level_ns - window["top_ns"],
                )
                tracer.write(os.path.join(SPANS, f"spans-edge-{args.seed}.jsonl"))
            emit(report)
            break
    await gateway.stop()


# ----------------------------------------------------------------------
# reefer-faults: the Section 6.1 fault campaign
# ----------------------------------------------------------------------
#: Consecutive blocks of orders behind each wall-latency percentile.
BLOCKS = 4
#: Campaign length per measured second (calibrated: one kill cycle costs
#: about half a second of host time on a 2-vCPU virtual machine).
KILLS_PER_SECOND = 2.0


def reefer_main(args: argparse.Namespace, tracer: Tracer | None) -> None:
    from repro.bench.failure_harness import FailureCampaign

    failures = max(4, round(args.seconds * KILLS_PER_SECOND))
    campaign = FailureCampaign(seed=args.seed, failures=failures)
    reefer, kernel = campaign.reefer, campaign.kernel
    if args.setup_only:
        reefer.start()
        while not reefer.metrics.completed:
            kernel.run(until=kernel.now + 0.05)
        emit({"event": "ready", "cpu": time.process_time()})
        return

    metrics = reefer.metrics
    submitted_wall: dict[str, float] = {}
    completed_wall: dict[str, float] = {}
    on_submit, on_complete = metrics.order_submitted, metrics.order_completed

    def order_submitted(order_id: str) -> None:
        submitted_wall[order_id] = time.perf_counter()
        on_submit(order_id)

    def order_completed(order_id: str, status: str) -> None:
        completed_wall[order_id] = time.perf_counter()
        on_complete(order_id, status)

    metrics.order_submitted = order_submitted
    metrics.order_completed = order_completed
    kill_walls: dict[float, float] = {}
    kill = reefer.kill

    def timed_kill(component: str) -> None:
        kill_walls.setdefault(kernel.now, time.perf_counter())
        kill(component)

    reefer.kill = timed_kill
    resume_walls = stamp_resumes(reefer.app.coordinator)

    top0 = tracer.top_level_ns if tracer else 0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    result = campaign.run()
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0

    records = result.records
    # Figure 7b's window around each failure: 5 s before the kill to 25 s
    # after the group resumed.
    windows = [(r.kill_time - 5.0, r.kill_time + r.total + 25.0) for r in records]
    calm, stressed, sim_latencies = [], [], []
    for record in sorted(metrics.completed, key=lambda r: r.submitted_at):
        sim_latencies.append(record.latency)
        wall = completed_wall[record.order_id] - submitted_wall[record.order_id]
        overlaps = any(record.submitted_at <= hi and record.completed_at >= lo
                       for lo, hi in windows)
        (stressed if overlaps else calm).append(wall)
    recovery_walls = []
    for record in records:
        generation = record.generations[-1]
        if generation in resume_walls:
            recovery_walls.append((resume_walls[generation] - kill_walls[record.kill_time]) * 1000.0)

    ops = len(metrics.completed)
    violations = list(result.invariant_violations)
    if len(records) != failures:
        violations.append(f"{failures - len(records)} kills never recovered")
    if result.orders_completed != result.orders_submitted:
        violations.append(
            f"{result.orders_submitted - result.orders_completed} orders never completed")
    report: dict[str, Any] = {
        "event": "result",
        "ops": ops,
        "attempted": result.orders_submitted,
        "failed": result.orders_submitted - result.orders_completed,
        "violations": violations,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "wall_low": summary(calm, 1000.0, blocks=BLOCKS),
        "wall_high": summary(stressed, 1000.0, blocks=BLOCKS),
        "sim": summary(sim_latencies, 1000.0),
        "recovery_sim_s": [r.total for r in records],
        "recovery_wall_ms": recovery_walls,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        app = reefer.app
        report["layers"] = layer_report(
            tracer, ops,
            counters=app_counters(app),
            sim_seconds=result.sim_seconds,
            trace_events=0,
            bridge=None,
            server_mean_ms=0.0,
            phases=[(r.detection, r.consensus, r.reconciliation, r.total) for r in records],
            generations=sum(len(r.generations) for r in records),
            topic=app.topic_name,
            journal_bytes=0,
            busy_ns=wall_s * 1e9,
            top_ns=tracer.top_level_ns - top0,
        )
        tracer.write(os.path.join(SPANS, f"spans-reefer-{args.seed}.jsonl"))
    emit(report)


# ----------------------------------------------------------------------
# durable-tailcall: read-then-tail-write chains on sqlite, with restarts
# ----------------------------------------------------------------------
HOPS = 4
TALLIES = 8
#: Closed-loop clients of a high block (a low block runs one client).
CLIENTS_HIGH = 8
#: Low and high blocks alternate this many times, spreading each kind of
#: block over the whole run; every CRASH_EVERY-th round but the last ends
#: in a whole-application crash (shutdown + reopen).
ROUNDS = 8
CRASH_EVERY = 2
#: Workflows per measured second in low and in high blocks (calibrated on
#: a 2-vCPU virtual machine at roughly 4 ms of host CPU per 4-hop workflow).
LOW_PER_SECOND = 60
HIGH_PER_SECOND = 170


class Flow(Actor):
    async def start(self, ctx, wid, hops, tally):
        target = actor_proxy("Tally", f"t{tally}")
        return ctx.tail_call(target, "add", wid, hops, tally)


class Tally(Actor):
    """Exactly-once counting via the read-then-tail-write discipline."""

    async def add(self, ctx, wid, hops, tally):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", wid, hops, tally, total + 1)

    async def commit(self, ctx, wid, hops, tally, new_total):
        await ctx.state.set_multiple({"total": new_total, f"done:{wid}": True})
        if hops > 1:
            return ctx.tail_call(
                actor_proxy("Flow", f"f{wid}"), "start", wid, hops - 1, tally
            )
        return "done"

    async def report(self, ctx):
        state = await ctx.state.get_all()
        done = sorted(int(key[5:]) for key in state if key.startswith("done:"))
        return state.get("total", 0), done


def deploy_durable(app: KarApplication) -> None:
    app.register_actor(Flow)
    app.register_actor(Tally)
    app.add_component("w1", ("Flow", "Tally"))
    app.add_component("w2", ("Flow", "Tally"))
    app.client()


def await_group(app: KarApplication, step: float, max_wait: float = 600.0) -> None:
    """``app.settle()`` at a finer step: until a generation formed and the
    group is unpaused."""
    kernel, coordinator = app.kernel, app.coordinator
    deadline = kernel.now + max_wait
    while coordinator.generation == 0 or coordinator.paused:
        if kernel.now >= deadline:
            raise TimeoutError("application did not settle")
        kernel.run(until=kernel.now + step)


class ClosedLoop:
    """Simulated clients that each start the next workflow when the last
    one returns; records wall and simulated latency per workflow."""

    def __init__(self, work: list[tuple[int, int]]):
        self.work = work
        self.next = 0
        self.limit = 0
        self.done = 0
        self.active = 0
        self.in_flight: set[int] = set()
        self.completed: set[int] = set()
        self.wall: list[float] = []
        self.sim: list[float] = []

    def extend(self, app: KarApplication, count: int, clients: int) -> None:
        """Allow ``count`` more workflows, run by fresh clients of ``app``."""
        self.limit = min(self.limit + count, len(self.work))
        client = app.client()
        self.active = clients  # clients of an earlier block have stopped or died
        for index in range(clients):
            app.kernel.spawn(self._client(app, client), client.process, name=f"client{index}")

    async def _client(self, app: KarApplication, client: Any) -> None:
        kernel = app.kernel
        while self.next < self.limit:
            wid, tally = self.work[self.next]
            self.next += 1
            self.in_flight.add(wid)
            wall, sim = time.perf_counter(), kernel.now
            await client.invoke(None, actor_proxy("Flow", f"f{wid}"), "start",
                                (wid, HOPS, tally), True)
            self.wall.append(time.perf_counter() - wall)
            self.sim.append(kernel.now - sim)
            self.in_flight.discard(wid)
            self.completed.add(wid)
            self.done += 1
        self.active -= 1


def settle_calls(app: KarApplication, step: float, max_wait: float = 600.0) -> None:
    """Run until the journals hold no unsettled call (checked every ``step``
    simulated seconds)."""
    kernel = app.kernel
    deadline = kernel.now + max_wait
    while app.stats("calls")["unsettled"]:
        if kernel.now >= deadline:
            raise TimeoutError("in-flight calls did not settle")
        kernel.run(until=kernel.now + step)


def durable_main(args: argparse.Namespace, tracer: Tracer | None) -> None:
    import random

    from repro.bench.configs import CLUSTER_PROD
    from repro.persist import PersistenceConfig

    root = os.path.join(SCRATCH, f"durable-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    try:
        rng = random.Random(args.seed)
        low_block = max(5, round(args.seconds * LOW_PER_SECOND / ROUNDS))
        high_block = max(10, round(args.seconds * HIGH_PER_SECOND / ROUNDS))
        low_n, high_n = low_block * ROUNDS, high_block * ROUNDS
        work = [(wid, rng.randrange(TALLIES)) for wid in range(low_n + high_n)]
        # Table 2's ClusterProd latencies: jittered from the kernel's seeded
        # rng, so simulated latency is not quantised to a few exact sums.
        config = CLUSTER_PROD.kar_config().with_overrides(
            persistence=PersistenceConfig.sqlite(root))
        kernel = Kernel(seed=args.seed)
        app = KarApplication.fresh(kernel, config, name="durable")
        trace_events = [0]

        def count_events(boot: KarApplication) -> None:
            if tracer is not None:
                boot.trace.subscribe(lambda _event: trace_events.__setitem__(0, trace_events[0] + 1))

        count_events(app)
        deploy_durable(app)
        app.settle()
        low, high = ClosedLoop(work[:low_n]), ClosedLoop(work[low_n:])
        if args.setup_only:
            low.extend(app, 1, 1)
            while low.done == 0:
                kernel.run(until=kernel.now + 0.01)
            emit({"event": "ready", "cpu": time.process_time()})
            app.shutdown()
            return

        top0 = tracer.top_level_ns if tracer else 0
        cpu0, wall0 = time.process_time(), time.perf_counter()
        counters: dict[str, int] = {}
        recovery_sim: list[float] = []
        recovery_wall: list[float] = []
        phases: list[tuple[float, float, float, float]] = []
        generations = 0
        lost: set[int] = set()  # in flight when their client's boot died
        high_wall = 0.0
        for round_index in range(ROUNDS):
            low.extend(app, low_block, 1)
            while low.done < low.limit:
                kernel.run(until=kernel.now + 0.05)
            started = time.perf_counter()
            high.extend(app, high_block, CLIENTS_HIGH)
            if round_index == ROUNDS - 1 or round_index % CRASH_EVERY != CRASH_EVERY - 1:
                while high.active:
                    kernel.run(until=kernel.now + 0.05)
                high_wall += time.perf_counter() - started
                continue
            # Crash with the block's last workflows in flight.
            while high.next < high.limit:
                kernel.run(until=kernel.now + 0.01)
            high_wall += time.perf_counter() - started
            add_counters(counters, app_counters(app))
            lost |= high.in_flight
            high.in_flight = set()
            reopen_wall, reopen_at = time.perf_counter(), kernel.now
            app = app.reopen()  # shuts the running boot down first
            count_events(app)
            deploy_durable(app)
            recovery_wall.append((time.perf_counter() - reopen_wall) * 1000.0)
            await_group(app, step=0.01)
            settle_calls(app, step=0.05)
            recovery_sim.append(kernel.now - reopen_at)
            history = app.coordinator.history
            first = history[0]
            phases.append((0.0, first.completed_at - first.triggered_at,
                           kernel.now - first.completed_at, kernel.now - reopen_at))
            generations += len(history)
        settle_calls(app, step=0.25)
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0

        journal = os.path.join(root, "durable.journal")
        journal_bytes = os.path.getsize(journal) if os.path.exists(journal) else 0
        add_counters(counters, app_counters(app))
        reports = [app.run_call(actor_proxy("Tally", f"t{i}"), "report") for i in range(TALLIES)]
        total = sum(count for count, _ in reports)
        committed = {wid for _, done in reports for wid in done}
        issued = low.next + high.next
        started = len(committed)
        violations = []
        # Exactly-once: every workflow whose first request became durable
        # ran all of its hops once; the only ones allowed to be missing are
        # those whose client died with a boot before sending.
        if total != started * HOPS:
            violations.append(f"commit total {total} != {started} workflows x {HOPS} hops")
        missing = set(range(issued)) - committed
        if not missing <= lost:
            violations.append(f"workflows never committed: {sorted(missing - lost)[:5]}")
        if not (low.completed | high.completed) <= committed:
            violations.append("a workflow answered its client but committed nothing")
        unsettled = len(app.stats("calls")["unsettled"])
        if unsettled:
            violations.append(f"{unsettled} unsettled calls after reopen")
        if kernel.crashes:
            violations.append(f"{len(kernel.crashes)} crashed simulation tasks")
        report: dict[str, Any] = {
            "event": "result",
            "ops": started,
            # A workflow whose client died with its boot before the first
            # request became durable never reached the runtime.
            "attempted": started,
            "failed": 0,
            "violations": violations,
            "cpu_s": cpu_s,
            "rate": high.done / high_wall,
            "wall_low": summary(low.wall, 1000.0, blocks=ROUNDS),
            "wall_high": summary(high.wall, 1000.0, blocks=ROUNDS),
            "sim": summary(low.sim + high.sim, 1000.0),
            "recovery_sim_s": recovery_sim,
            "recovery_wall_ms": recovery_wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        if tracer is not None:
            report["layers"] = layer_report(
                tracer, started,
                counters=counters,
                sim_seconds=kernel.now,
                trace_events=trace_events[0],
                bridge=None,
                server_mean_ms=0.0,
                phases=phases,
                generations=generations,
                topic=app.topic_name,
                journal_bytes=journal_bytes,
                busy_ns=wall_s * 1e9,
                top_ns=tracer.top_level_ns - top0,
            )
            tracer.write(os.path.join(SPANS, f"spans-durable-{args.seed}.jsonl"))
        app.shutdown()
        emit(report)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's files are still there


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("edge-zipf", "reefer-faults", "durable-tailcall"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        tracer = Tracer()
        instrument(tracer)
    if args.workload == "edge-zipf":
        asyncio.run(edge_serve(args, tracer))
    elif args.workload == "reefer-faults":
        reefer_main(args, tracer)
    else:
        durable_main(args, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
