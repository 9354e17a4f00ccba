"""Simulation results must not depend on ``PYTHONHASHSEED``.

The kernel is seeded, so a run is reproducible only if nothing on the
event path iterates a hash-ordered container of strings. This test runs a
short multi-worker adaptive-placement workload (zipf-skewed tail-call
traffic, so the controller migrates and splits) in two interpreters with
different hash seeds and requires the trace and the placement evidence to
match exactly.

Run directly (``PYTHONPATH=src python tests/test_hashseed_determinism.py``)
to print the fingerprint of one run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.core import Actor, KarApplication, KarConfig, actor_proxy
from repro.sim import Kernel

CALLS = 400
DRIVERS = 24


class Tally(Actor):
    async def bump(self, ctx, amount):
        total = await ctx.state.get("total", 0)
        return ctx.tail_call(None, "commit", total + amount)

    async def commit(self, ctx, total):
        await ctx.state.set("total", total)
        return total


def run_workload() -> dict:
    kernel = Kernel(seed=5)
    config = KarConfig.fast_test().with_overrides(
        worker_loop_cost=0.01,
        load_halflife=0.4,
        rebalance_cooldown=1.2,
        split_threshold=0.35,
        rebalance_threshold=0.6,
        drain_timeout=0.3,
        retry_budget_floor_per_sec=200.0,
        retry_budget_burst=500.0,
    )
    app = KarApplication(kernel, config, "seeded", workers=4)
    app.register_actor(Tally, "Tally")
    for index in range(8):
        app.add_component(f"comp{index}", ("Tally",))
    client = app.client()
    app.settle()
    rng = random.Random(3)
    weights = [1.0 / (rank + 1) ** 2 for rank in range(16)]
    schedule = [
        f"t{rng.choices(range(16), weights=weights)[0]}" for _ in range(CALLS)
    ]

    async def driver(lane):
        for actor_id in schedule[lane::DRIVERS]:
            await client.invoke(
                None, actor_proxy("Tally", actor_id), "bump", (1,), True
            )

    tasks = [kernel.spawn(driver(lane), client.process) for lane in range(DRIVERS)]
    kernel.run_until_complete(kernel.gather(tasks), timeout=3600.0)
    kernel.run(until=kernel.now + 2.0)
    trace = hashlib.sha256()
    for event in app.trace.events:
        fields = sorted((key, repr(value)) for key, value in event.fields.items())
        trace.update(repr((event.time, event.kind, fields)).encode())
    return {
        "now": kernel.now,
        "events": len(app.trace.events),
        "trace_sha256": trace.hexdigest(),
        "placement": app.stats("placement"),
    }


def _run_under(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, __file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(result.stdout)


# The workload's fingerprint, pinned so that any change to event order
# fails here. Re-pin only on purpose, and say why in CHANGES.md.
PINNED = {
    "trace_sha256": "6fff6ea5d4049cffb1e0d21437e5e73ca308ebe797ad2a4d37e32588981d31b2",
    "events": 2877,
    "now": 10.054250000000131,
}


def test_trace_and_placement_identical_across_hash_seeds():
    first, second = _run_under("0"), _run_under("1")
    assert first["placement"]["migrations"] + first["placement"]["splits"] > 0
    assert first == second
    assert {key: first[key] for key in PINNED} == PINNED


if __name__ == "__main__":
    print(json.dumps(run_workload(), sort_keys=True, default=repr))
