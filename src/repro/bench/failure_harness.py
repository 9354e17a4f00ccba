"""The fault-injection campaign of Section 6.1.

A virtual five-node cluster: infrastructure (broker, store, simulators) on
nodes that are never killed, and two *victim nodes*, each hosting one
replica of the "actors" server and one of the "singletons" server
(Figure 5b). The harness repeatedly hard-stops a random victim node
(abruptly terminating both components on it), waits for automatic recovery,
restarts the node, and fast-forwards a random sub-two-minute interval --
exactly the experiment design of Section 6.1.

Per failure it records the three outage phases (Figure 7a / Table 1):

- **detection** -- kill to the coordinator evicting the dead members;
- **consensus** -- eviction to the new group generation;
- **reconciliation** -- generation to the leader resuming the group;

plus the maximum order latency in the surrounding window (Figure 7b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.configs import campaign_kar_config
from repro.bench.stats import summary_stats
from repro.core import KarConfig
from repro.reefer import (
    ReeferApplication,
    ReeferConfig,
    check_invariants,
)
from repro.sim import Kernel

__all__ = ["CampaignResult", "FailureCampaign", "FailureRecord"]

#: Victim nodes: node -> components killed together by a node hard stop.
VICTIM_NODES = {
    "node-a": ("actors-0", "singletons-0"),
    "node-b": ("actors-1", "singletons-1"),
}


@dataclass
class FailureRecord:
    index: int
    node: str
    kill_time: float
    detection: float
    consensus: float
    reconciliation: float
    total: float
    max_order_latency: float | None
    generations: tuple[int, ...]


@dataclass
class CampaignResult:
    records: list[FailureRecord] = field(default_factory=list)
    invariant_violations: list[str] = field(default_factory=list)
    invariant_details: dict = field(default_factory=dict)
    orders_submitted: int = 0
    orders_completed: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0

    def phase_stats(self) -> dict[str, dict]:
        return {
            "Total Outage": summary_stats([r.total for r in self.records]),
            "Detection": summary_stats([r.detection for r in self.records]),
            "Consensus": summary_stats([r.consensus for r in self.records]),
            "Reconciliation": summary_stats(
                [r.reconciliation for r in self.records]
            ),
        }

    def latency_stats(self) -> dict:
        return summary_stats(
            [r.max_order_latency for r in self.records
             if r.max_order_latency is not None]
        )


class FailureCampaign:
    """Drives N single-node (or paired, or total) failures."""

    def __init__(
        self,
        seed: int = 0,
        failures: int = 30,
        kar_config: KarConfig | None = None,
        reefer_config: ReeferConfig | None = None,
        paired: bool = False,
        min_gap: float = 15.0,
        max_gap: float = 120.0,
        recovery_timeout: float = 180.0,
    ):
        self.kernel = Kernel(seed=seed)
        self.failures = failures
        self.paired = paired
        self.min_gap = min_gap
        self.max_gap = max_gap
        self.recovery_timeout = recovery_timeout
        self.reefer = ReeferApplication(
            self.kernel,
            kar_config or campaign_kar_config(),
            reefer_config
            or ReeferConfig(order_rate=0.5, anomaly_rate=0.02,
                            containers_per_depot=200),
        )
        # Campaigns run long: the ring bounds trace memory, but recording
        # every invocation would still cost CPU the campaign does not need.
        self.reefer.app.trace.enabled = False

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        import time as _time

        wall_start = _time.monotonic()
        kernel = self.kernel
        reefer = self.reefer
        coordinator = reefer.app.coordinator
        result = CampaignResult()

        reefer.start()
        kernel.run(until=kernel.now + 30.0)  # warm-up

        for index in range(self.failures):
            node = kernel.rng.choice(sorted(VICTIM_NODES))
            components = VICTIM_NODES[node]
            kill_time = kernel.now
            history_mark = len(coordinator.history)
            for component in components:
                reefer.kill(component)

            if self.paired:
                # Second node failure timed to land inside the first
                # recovery (during consensus or reconciliation).
                other = next(n for n in sorted(VICTIM_NODES) if n != node)
                delay = 10.0 + kernel.rng.uniform(1.0, 10.0)
                kernel.schedule(
                    delay,
                    lambda o=other: [
                        reefer.kill(c)
                        for c in VICTIM_NODES[o]
                        if reefer.app.components[c].alive
                    ],
                )

            record = self._await_recovery(
                index, node, kill_time, history_mark, components
            )
            if record is not None:
                result.records.append(record)

            # Restart dead victims (the node comes back with new replicas).
            for name in [c for cs in VICTIM_NODES.values() for c in cs]:
                if not reefer.app.components[name].alive:
                    reefer.restart(name)
            self._await_unpaused(60.0)

            gap = kernel.rng.uniform(self.min_gap, self.max_gap)
            kernel.run(until=kernel.now + gap)

        reefer.drain(max_wait=600.0)
        report = check_invariants(reefer)
        result.invariant_violations = report.violations
        result.invariant_details = report.details
        result.orders_submitted = len(reefer.metrics.submitted)
        result.orders_completed = len(reefer.metrics.completed)
        result.sim_seconds = kernel.now
        result.wall_seconds = _time.monotonic() - wall_start
        return result

    # ------------------------------------------------------------------
    def _await_recovery(
        self,
        index: int,
        node: str,
        kill_time: float,
        history_mark: int,
        components: tuple[str, ...],
    ) -> FailureRecord | None:
        """Run until every failure-generation triggered by this kill has
        been reconciled and resumed; extract the phase breakdown."""
        kernel = self.kernel
        coordinator = self.reefer.app.coordinator
        deadline = kill_time + self.recovery_timeout
        dead_members = {
            self.reefer.app.components[name].member_id for name in components
        }
        while kernel.now < deadline:
            relevant = [
                record
                for record in coordinator.history[history_mark:]
                if record.reason == "failure"
            ]
            covered = {
                member for record in relevant for member in record.failed
            }
            if (
                relevant
                and dead_members.issubset(covered)
                and relevant[-1].resumed_at is not None
                and not coordinator.paused
            ):
                # Earlier generations may have been superseded by a later
                # failure before their leader resumed (paired failures);
                # only the last one must have resumed. Reconciliation is
                # whatever recovery time is not detection or consensus.
                first = relevant[0]
                last = relevant[-1]
                detection = first.triggered_at - kill_time
                consensus = sum(
                    r.completed_at - r.triggered_at for r in relevant
                )
                total = last.resumed_at - kill_time
                reconciliation = max(total - detection - consensus, 0.0)
                window_hi = last.resumed_at + 25.0
                kernel.run(until=kernel.now + 25.0)  # let spikes complete
                max_latency = self.reefer.metrics.max_latency_in_window(
                    kill_time - 5.0, window_hi
                )
                return FailureRecord(
                    index=index,
                    node=node,
                    kill_time=kill_time,
                    detection=detection,
                    consensus=consensus,
                    reconciliation=reconciliation,
                    total=total,
                    max_order_latency=max_latency,
                    generations=tuple(r.generation for r in relevant),
                )
            kernel.run(until=min(kernel.now + 0.5, deadline))
        return None  # recovery did not finish in time (reported as missing)

    def _await_unpaused(self, max_wait: float) -> None:
        kernel = self.kernel
        coordinator = self.reefer.app.coordinator
        deadline = kernel.now + max_wait
        while kernel.now < deadline and coordinator.paused:
            kernel.run(until=min(kernel.now + 0.5, deadline))


def run_total_failure_iterations(
    seed: int = 0,
    iterations: int = 5,
    downtime: float = 30.0,
    kar_config: KarConfig | None = None,
) -> dict:
    """The complete-application-failure scenario of Section 6.1: kill every
    application component except the simulators, wait, restart, verify."""
    kernel = Kernel(seed=seed)
    reefer = ReeferApplication(
        kernel,
        kar_config or campaign_kar_config(),
        ReeferConfig(order_rate=0.5, anomaly_rate=0.0,
                     containers_per_depot=200),
    )
    reefer.app.trace.enabled = False
    reefer.start()
    kernel.run(until=kernel.now + 20.0)
    survived = 0
    for _ in range(iterations):
        for name in [c for cs in VICTIM_NODES.values() for c in cs]:
            if reefer.app.components[name].alive:
                reefer.kill(name)
        kernel.run(until=kernel.now + downtime)
        for name in [c for cs in VICTIM_NODES.values() for c in cs]:
            reefer.restart(name)
        kernel.run(until=kernel.now + 60.0)
        if not reefer.app.coordinator.paused:
            survived += 1
        kernel.run(until=kernel.now + 20.0)
    reefer.drain(max_wait=600.0)
    report = check_invariants(reefer)
    return {
        "iterations": iterations,
        "recovered": survived,
        "violations": report.violations,
        "details": report.details,
    }
