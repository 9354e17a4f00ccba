"""Top-level application wiring: broker + store + components + clients.

A :class:`KarApplication` owns the simulated infrastructure (one Kafka-like
broker, one Redis-like store, one consumer group per application) and the
set of components, and offers the external-client call surface plus failure
injection (kill / restart a component) used by tests and the benchmark
harnesses.

Persistence is pluggable (``KarConfig.persistence``): the store and the
broker log can live in memory (the default) or in durable files. On top of
that, the application supports a *cold restart*: :meth:`shutdown` abruptly
kills every component and discards all in-memory runtime state, and
:meth:`reopen` builds a brand-new application over the same backends --
topics, offsets, group generation, component epochs, placements, and actor
state all come back from the durable layer, and the first reconciliation
drives every unsettled call to completion (Section 4.3 run from bytes).

The same class runs the paper's deployment shape (Section 5): many sidecar
processes sharing one Kafka and one Redis. With ``workers=N`` the
application starts N :class:`~repro.core.cluster.KarWorker` event loops and
a control plane -- worker lifecycle (add, graceful remove, kill),
consistent-hash assignment of actor-hosting components to workers
(:mod:`repro.core.sharding`), worker failure detection through store
heartbeats, lease-expiry sweeps, load-aware placement
(:mod:`repro.core.placement_ctl`), and the live partition-handoff protocol
(drain -> fence old epoch -> replay tail -> resume):

1. **drain** -- the leaving component finishes in-flight frames and flushes
   its send outbox (:meth:`~repro.core.runtime.Component.drain`), bounded
   by ``drain_timeout``;
2. **fence** -- the old incarnation leaves the group (or, on a crash, is
   evicted by the session-timeout watchdog); either way the broker fences
   its member id, and the successor's partition-lease acquisition at
   ``epoch + 1`` fences whatever zombie survives even a cold restart;
3. **replay tail** -- the rebalance elects a leader whose reconciliation
   re-places every request stranded in the old incarnation's queue onto
   the live membership (the paper's retry orchestration: dedup by
   (request id, step) keeps the replay exactly-once);
4. **resume** -- the leader lifts the group pause and traffic continues
   against the new incarnation, whose placement entries are unchanged
   (placement stores component *names*, so moving a component between
   workers never invalidates where its actors live).

Client components (no actor types) always stay off the workers, exactly
like the paper's simulators driving the deployment from outside. The
default ``workers=0`` is the single-loop application: no worker loops, no
control loop, no heartbeats and no lease renewal.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.core.actor import Actor, ActorRegistry
from repro.core.api import KarApi
from repro.core.cluster import KarWorker
from repro.core.config import KarConfig
from repro.core.envelope import Request, Response
from repro.core.overload import DEAD_LETTER_PARTITION, DeadLetter
from repro.core.placement_ctl import PlacementController
from repro.core.refs import ActorRef
from repro.core.runtime import Component
from repro.core.sharding import HashRing, parent_partition, sub_partition_names
from repro.kvstore import KVStore, StoreBackend
from repro.mq import Broker, BrokerLog, GroupCoordinator
from repro.persist import build_persistence, reopen_persistence, wipe_persistence
from repro.sim import Kernel, TraceRecorder

__all__ = ["KarApplication"]


class _IdGenerator:
    """Monotonic, deterministic request ids, namespaced per boot.

    A cold restart cannot recover the in-memory counter, so ids carry the
    application's durable boot number instead: ids minted by different
    boots can never collide with the (id, step) dedup evidence and the
    response records still retained in the journals. The first boot keeps
    the bare historical format.
    """

    def __init__(self, prefix: str = "r"):
        self._prefix = prefix
        self._counter = 0

    def fresh(self) -> str:
        self._counter += 1
        return f"{self._prefix}{self._counter:06d}"


class KarApplication:
    """One KAR application: infrastructure, components, and clients.

    ``workers`` event loops (named ``w0``.. unless ``worker_ids`` names
    them) host the actor-hosting components; with zero workers every
    component runs on the application's own loop.
    """

    def __init__(
        self,
        kernel: Kernel,
        config: KarConfig | None = None,
        name: str = "app",
        workers: int = 0,
        *,
        store_backend: StoreBackend | None = None,
        broker_log: BrokerLog | None = None,
        worker_ids: tuple[str, ...] | None = None,
    ):
        self.kernel = kernel
        self.config = config or KarConfig()
        self.name = name
        self.topic_name = f"{name}-topic"
        # The dead-letter parking lot: its own topic, outside the
        # reconciliation catalog, the dead-queue sweeps, and the
        # retention-expiry read paths -- parked calls must outlive all
        # three. It is journal-mirrored like any topic, so the parking lot
        # survives a cold restart.
        self.dead_letter_topic = f"{name}-deadletters"
        self.dead_letters_replayed = 0
        if store_backend is None and broker_log is None:
            store_backend, broker_log = build_persistence(
                self.config.persistence, name
            )
        if store_backend is None or broker_log is None:
            raise ValueError(
                "store_backend and broker_log must be given together"
            )
        self.broker = Broker(kernel, self.config.broker, log=broker_log)
        self.store = KVStore(
            kernel, self.config.store_latency, backend=store_backend
        )
        # Attach-to-service semantics: whatever the durable layer retains
        # (nothing, for fresh backends) becomes this application's state.
        self.restored_records = self.broker.restore_from_log()
        self.boot = int(broker_log.get_meta(f"app:{name}:boot") or 0) + 1
        broker_log.set_meta(f"app:{name}:boot", self.boot)
        self.coordinator = GroupCoordinator(self.broker, name, self.topic_name)
        self.registry = ActorRegistry()
        self.trace = TraceRecorder(kernel)
        self.ids = _IdGenerator("r" if self.boot == 1 else f"r{self.boot}.")
        self.components: dict[str, Component] = {}
        self.component_types: dict[str, frozenset[str]] = {}
        #: Worker event loops keyed by worker id (empty single-loop).
        self.workers: dict[str, KarWorker] = {}
        self._epochs: dict[str, int] = self._restore_epochs()
        self._client: Component | None = None
        self._api: KarApi | None = None
        self._shutdown = False
        self.reminders_in_use = False
        self.external_services: list[Any] = []
        #: Serving-edge observability plane, attached by the HTTP gateway
        #: (``repro.net.gateway``); surfaced as ``stats()["gateway"]``.
        self.gateway_metrics: Any = None
        self.worker_heartbeat_key = f"_cluster:{name}:heartbeats"
        #: Workers the control plane declared failed (evidence surface).
        self.workers_failed: list[str] = []
        #: Component migrations performed (join/leave/crash re-hosting and
        #: load-triggered moves).
        self.migrations = 0
        #: Hot-component splits / cool-down merges performed.
        self.splits = 0
        self.merges = 0
        #: Leases the control plane expired (wedged-worker detections).
        self.lease_expirations = 0
        #: parent component -> its live sub-partition names, while split.
        self.split_children: dict[str, tuple[str, ...]] = {}
        #: Serializes drain->fence->restart handoffs: concurrent movers
        #: (join rebalance, the placement controller, graceful removal)
        #: must not drain or restart the same component at once.
        self._handoff_active = False
        self.placement_ctl = PlacementController(self)
        ids = worker_ids or tuple(f"w{index}" for index in range(workers))
        for worker_id in ids:
            self.workers[worker_id] = KarWorker(self, worker_id)
        if self.workers:
            kernel.spawn(self._control_loop(), name=f"cluster-control:{name}")

    # ------------------------------------------------------------------
    # persistence lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def fresh(
        cls,
        kernel: Kernel,
        config: KarConfig | None = None,
        name: str = "app",
        workers: int = 0,
    ) -> "KarApplication":
        """A guaranteed-clean application: any durable files left behind by
        a previous run under the same name are deleted first."""
        cfg = config or KarConfig()
        wipe_persistence(cfg.persistence, name)
        return cls(kernel, cfg, name, workers)

    def shutdown(self) -> None:
        """Cold stop: abruptly kill every component and release backends.

        Models the death of all application processes at once (a node or
        datacenter restart). Nothing is flushed gracefully beyond what the
        durable backends already acknowledged -- exactly the state a crash
        would leave behind.
        """
        if self._shutdown:
            return
        for worker in self.workers.values():
            worker.coordinator.close()
            if worker.alive:
                worker.process.kill()
        self._shutdown = True
        self.trace.emit("app.shutdown", name=self.name, boot=self.boot)
        for component in self.components.values():
            if component.alive:
                component.process.kill()
        self.coordinator.close()
        self.broker.log.close()
        self.store.backend.close()

    def reopen(self) -> "KarApplication":
        """Build the next boot of this application over the same durable
        backends (shutting this one down first if still running).

        Memory backends carry over as live objects; durable backends are
        re-read from their files, as a brand-new process would. The caller
        re-registers nothing (the actor registry is code, and carries
        over) but must re-add components and :meth:`settle` -- the first
        reconciliation then replays the journals, re-places stranded
        requests, and completes every unsettled call. The worker topology
        carries over too.
        """
        worker_ids = tuple(sorted(self.workers))
        self.shutdown()
        # The dead boot's partitions would otherwise stay resident while
        # the next boot replays the same records from the log.
        self.broker.release_partitions()
        store_backend, broker_log = reopen_persistence(
            self.config.persistence, self.name, self.store.backend, self.broker.log
        )
        app = KarApplication(
            self.kernel,
            self.config,
            self.name,
            store_backend=store_backend,
            broker_log=broker_log,
            worker_ids=worker_ids,
        )
        app.registry = self.registry
        return app

    def _restore_epochs(self) -> dict[str, int]:
        """Component epochs from log metadata: a reopened application must
        mint member ids strictly above every incarnation in the journal,
        or a new component would adopt a dead predecessor's queue."""
        prefix = f"app:{self.name}:epoch:"
        return {
            key[len(prefix):]: int(value)
            for key, value in self.broker.log.meta_items().items()
            if key.startswith(prefix)
        }

    def _record_epoch(self, component_name: str, epoch: int) -> None:
        self.broker.log.set_meta(
            f"app:{self.name}:epoch:{component_name}", epoch
        )

    def register_external_service(self, service: Any) -> Any:
        """Register a stateful service actors interact with directly.

        KAR requires *forceful disconnection* for every stateful service in
        use (Sections 1, 2.3): reconciliation fences failed components on
        each registered service, so their lingering operations cannot land.
        The service must expose ``fence(client_id)``.
        """
        self.external_services.append(service)
        return service

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def register_actor(self, actor_class: type[Actor], name: str | None = None) -> str:
        """Make an actor type available for hosting by components."""
        return self.registry.register(actor_class, name)

    def add_component(
        self, name: str, actor_types: tuple[str, ...] = (), *, worker=None
    ) -> Component:
        """Create and start a component announcing the given actor types.

        ``worker`` pins the component to a worker event loop; otherwise an
        actor-hosting component gets its ring-assigned worker whenever the
        application runs workers.
        """
        for actor_type in actor_types:
            if actor_type not in self.registry:
                raise ValueError(f"actor type {actor_type!r} is not registered")
        if name in self.components and self.components[name].alive:
            raise ValueError(f"component {name!r} is already running")
        if worker is None and actor_types and self.workers:
            worker = self._assign_worker(name)
        epoch = self._epochs.get(name, -1) + 1
        self._epochs[name] = epoch
        self._record_epoch(name, epoch)
        component = Component(self, name, tuple(actor_types), epoch, worker=worker)
        self.components[name] = component
        self.component_types[name] = frozenset(actor_types)
        if worker is not None:
            worker.hosted.add(name)
        return component.start()

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def kill_component(self, name: str) -> None:
        """Abrupt fail-stop of a component (both paired processes)."""
        self.components[name].fail()

    def restart_component(self, name: str, *, worker=None) -> Component:
        """Spawn a fresh incarnation (new member id, new queue) of a
        previously-added component, as a restarted node's replicas would.

        ``worker`` re-hosts the new incarnation on a specific worker event
        loop (the handoff target; by default the ring assignment); the new
        epoch's lease acquisition fences whatever is left of the old
        incarnation.
        """
        types = tuple(sorted(self.component_types[name]))
        old = self.components.get(name)
        if old is not None and old.alive:
            raise ValueError(f"component {name!r} is still alive")
        if old is not None and old.worker is not None:
            old.worker.hosted.discard(name)
        if worker is None and types and self.workers:
            worker = self._assign_worker(name)
        epoch = self._epochs[name] + 1
        self._epochs[name] = epoch
        self._record_epoch(name, epoch)
        component = Component(self, name, types, epoch, worker=worker)
        self.components[name] = component
        if worker is not None:
            worker.hosted.add(name)
        return component.start()

    # ------------------------------------------------------------------
    # worker-aware component hosting
    # ------------------------------------------------------------------
    def _live_workers(self) -> list[KarWorker]:
        return [
            worker
            for worker in self.workers.values()
            if worker.alive and not worker.retired
        ]

    def _assign_worker(self, name: str) -> KarWorker:
        """Consistent-hash placement with bounded load.

        Walks ``name``'s ring successors and takes the first live worker
        whose hosted count is minimal -- ring-stable under membership
        change, perfectly balanced under incremental adds.
        """
        live = self._live_workers()
        if not live:
            raise RuntimeError("no live workers to host components")
        by_id = {worker.worker_id: worker for worker in live}
        ring = HashRing(sorted(by_id))
        floor = min(len(worker.hosted) for worker in live)
        for worker_id in ring.successors(name):
            if len(by_id[worker_id].hosted) <= floor:
                return by_id[worker_id]
        return by_id[next(iter(ring.successors(name)))]  # pragma: no cover

    def worker_of(self, component_name: str) -> str | None:
        component = self.components.get(component_name)
        if component is None or component.worker is None:
            return None
        return component.worker.worker_id

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def add_worker(self, worker_id: str | None = None) -> KarWorker:
        """Start a new worker loop and migrate its ring share onto it."""
        if not self.workers:
            # No control loop runs to detect this worker's failure.
            raise ValueError(
                "a single-loop application (workers=0) cannot add workers"
            )
        if worker_id is None:
            index = len(self.workers)
            while f"w{index}" in self.workers:
                index += 1
            worker_id = f"w{index}"
        if worker_id in self.workers and self.workers[worker_id].alive:
            raise ValueError(f"worker {worker_id!r} is already running")
        worker = self.workers[worker_id] = KarWorker(self, worker_id)
        self.kernel.spawn(
            self._rebalance_components(),
            name=f"cluster-join:{worker_id}",
        )
        return worker

    def kill_worker(self, worker_id: str) -> None:
        """Abrupt fail-stop of a worker loop and everything it hosts.

        The group watchdog evicts the dead members on session timeout and
        the control plane re-hosts their component names on the survivors;
        reconciliation then replays the stranded tail of each migrated
        partition.
        """
        worker = self.workers[worker_id]
        self.trace.emit(
            "worker.kill", worker=worker_id, hosted=sorted(worker.hosted)
        )
        for name in sorted(worker.hosted):
            component = self.components.get(name)
            if (
                component is not None
                and component.alive
                and component.worker is worker
            ):
                component.process.kill()
        worker.process.kill()

    async def remove_worker_async(self, worker_id: str) -> None:
        """Graceful leave: drain and hand off every hosted component, then
        stop the worker loop. The settled set must match a crash's -- the
        only difference is who pays (drain here, reconciliation there)."""
        worker = self.workers[worker_id]
        worker.retired = True
        self.trace.emit(
            "worker.retire", worker=worker_id, hosted=sorted(worker.hosted)
        )
        await self._acquire_handoff_gate()
        try:
            for name in sorted(worker.hosted):
                component = self.components.get(name)
                if component is None or component.worker is not worker:
                    worker.hosted.discard(name)
                    continue
                await self._handoff(component)
        finally:
            self._release_handoff_gate()
        worker.process.kill()

    def remove_worker(
        self, worker_id: str, timeout: float | None = 600.0
    ) -> None:
        """Synchronous driver for :meth:`remove_worker_async`."""
        task = self.kernel.spawn(
            self.remove_worker_async(worker_id),
            name=f"cluster-leave:{worker_id}",
        )
        self.kernel.run_until_complete(task, timeout=timeout)

    async def _handoff(self, component: Component) -> None:
        """Drain -> fence old epoch -> (reconciliation replays the tail)
        -> resume, for one component."""
        name = component.name
        drained = await component.drain(self.config.drain_timeout)
        component.stop()
        target = self._assign_worker(name)
        self.trace.emit(
            "component.handoff",
            component=name,
            drained=drained,
            to_worker=target.worker_id,
        )
        self.migrations += 1
        self.restart_component(name, worker=target)

    # ------------------------------------------------------------------
    # the handoff gate (one drain->fence->restart mover at a time)
    # ------------------------------------------------------------------
    async def _acquire_handoff_gate(self) -> None:
        while self._handoff_active:
            await self.kernel.sleep(0.01)
        self._handoff_active = True

    def _release_handoff_gate(self) -> None:
        self._handoff_active = False

    def _target_worker(self, target_id: str | None, name: str) -> KarWorker:
        """Re-validate a migration target *after* the drain.

        The drain can outlast the target: a worker killed while it is the
        destination of an in-flight handoff must not strand the draining
        component, so a dead or retired target falls back to ring
        assignment over the current live set.
        """
        if target_id is not None:
            target = self.workers.get(target_id)
            if target is not None and target.alive and not target.retired:
                return target
        return self._assign_worker(name)

    # ------------------------------------------------------------------
    # adaptive placement actions (invoked by the placement controller)
    # ------------------------------------------------------------------
    async def _migrate_component(
        self, name: str, target_id: str | None
    ) -> bool:
        """Load-triggered move of one component: the same drain -> fence ->
        replay handoff as a worker join, aimed at a chosen target."""
        await self._acquire_handoff_gate()
        try:
            component = self.components.get(name)
            if (
                component is None
                or not component.alive
                or component.worker is None
            ):
                return False
            source = component.worker
            drained = await component.drain(self.config.drain_timeout)
            if not component.alive:
                # Crashed mid-drain; the failure path owns the re-host.
                return False
            component.stop()
            source.hosted.discard(name)
            windows = source.loop.export_component(name)
            target = self._target_worker(target_id, name)
            self.trace.emit(
                "component.handoff",
                component=name,
                drained=drained,
                to_worker=target.worker_id,
            )
            self.migrations += 1
            self.restart_component(name, worker=target)
            # The load history moves with the component so the controller
            # keeps seeing its true hotness across the handoff.
            target.loop.adopt_component(name, windows)
            return True
        finally:
            self._release_handoff_gate()

    async def _split_component(self, name: str) -> bool:
        """Split a hot component into sub-partitions spread over workers.

        Drain -> fence the parent (it leaves the group; its lease family
        stays fenced at its final epoch) -> start ``split_factor`` children
        announcing the same actor types. Placement re-keys the parent's
        actors by id over the new candidate set on the next send, and
        reconciliation replays whatever the drain left stranded in the
        parent's queue -- the split rides the exact machinery a crash does,
        so exactly-once settlement is preserved by construction.
        """
        await self._acquire_handoff_gate()
        try:
            component = self.components.get(name)
            if (
                component is None
                or not component.alive
                or component.worker is None
                or name in self.split_children
                or parent_partition(name) is not None
            ):
                return False
            types = tuple(sorted(self.component_types.get(name, ())))
            if not types:
                return False
            children = sub_partition_names(
                name, max(2, self.config.split_factor)
            )
            source = component.worker
            drained = await component.drain(self.config.drain_timeout)
            if not component.alive:
                return False
            component.stop()
            source.hosted.discard(name)
            source.loop.forget_component(name)
            self.split_children[name] = children
            self.splits += 1
            self.trace.emit(
                "component.split",
                component=name,
                children=list(children),
                drained=drained,
            )
            targets = self._spread_targets(len(children))
            for child, target in zip(children, targets):
                self.add_component(child, types, worker=target)
            return True
        finally:
            self._release_handoff_gate()

    async def _merge_component(self, name: str) -> bool:
        """Merge a cooled component's sub-partitions back into the parent.

        Children drain and leave one by one; the parent restarts at its
        next epoch and the actors re-key back as child placements die.
        """
        await self._acquire_handoff_gate()
        try:
            children = self.split_children.get(name)
            if children is None:
                return False
            for child in children:
                component = self.components.get(child)
                if component is not None and component.alive:
                    await component.drain(self.config.drain_timeout)
                # The drain may have raced a failure re-host; fence
                # whichever incarnation is current now.
                component = self.components.get(child)
                if component is not None and component.alive:
                    component.stop()
                if component is not None and component.worker is not None:
                    component.worker.hosted.discard(child)
                    component.worker.loop.forget_component(child)
                # Forget the child entirely so no failure path resurrects
                # it after the merge.
                self.components.pop(child, None)
                self.component_types.pop(child, None)
            self.split_children.pop(name, None)
            self.merges += 1
            self.trace.emit(
                "component.merge", component=name, children=list(children)
            )
            self.restart_component(name)
            return True
        finally:
            self._release_handoff_gate()

    def _spread_targets(self, count: int) -> list[KarWorker]:
        """The ``count`` least-busy live workers, cycling if needed."""
        now = self.kernel.now
        live = sorted(
            self._live_workers(),
            key=lambda worker: (
                worker.loop.busy_rate(now),
                len(worker.hosted),
                worker.worker_id,
            ),
        )
        if not live:
            raise RuntimeError("no live workers to host components")
        return [live[index % len(live)] for index in range(count)]

    # ------------------------------------------------------------------
    # control loop: worker failure detection via store heartbeats
    # ------------------------------------------------------------------
    async def _control_loop(self) -> None:
        config = self.config
        backend = self.store.backend
        while not self._shutdown:
            await self.kernel.sleep(config.worker_heartbeat_interval)
            if self._shutdown:
                return
            beats = backend.hgetall(self.worker_heartbeat_key)
            now = self.kernel.now
            for worker_id, worker in list(self.workers.items()):
                if worker.retired:
                    continue
                last = float(beats.get(worker_id, 0.0))
                if now - last > config.worker_session_timeout:
                    self._on_worker_failed(worker)
            if config.lease_ttl is not None:
                self._sweep_expired_leases(self.kernel.now)
            self.placement_ctl.tick(self.kernel.now)

    def _sweep_expired_leases(self, now: float) -> None:
        """Expire partition ownership the holder stopped renewing.

        Heartbeats prove the worker's processes are scheduled; lease
        renewal proves its loop still makes progress. A hosted component
        whose lease age exceeds ``lease_ttl`` therefore sits on a wedged
        worker: expel its member from the group at once and declare the
        worker failed, which re-hosts everything it carried (the successor
        incarnations fence the zombies at epoch + 1).
        """
        ttl = self.config.lease_ttl
        assert ttl is not None
        for worker in list(self.workers.values()):
            if not worker.alive or worker.retired:
                continue
            for name in sorted(worker.hosted):
                component = self.components.get(name)
                if (
                    component is None
                    or not component.alive
                    or component.worker is not worker
                ):
                    continue
                age = self.broker.lease_renewal_age(
                    self.topic_name, name, now
                )
                if age is None or age <= ttl:
                    continue
                self.lease_expirations += 1
                self.trace.emit(
                    "lease.expired",
                    component=name,
                    worker=worker.worker_id,
                    age=round(age, 6),
                )
                worker.coordinator.expel(
                    component.member_id, reason="lease_expired"
                )
                self._on_worker_failed(worker)
                break

    def _on_worker_failed(self, worker: KarWorker) -> None:
        """Re-host a silent worker's components on the survivors."""
        worker.retired = True
        self.workers_failed.append(worker.worker_id)
        self.trace.emit(
            "worker.failed",
            worker=worker.worker_id,
            hosted=sorted(worker.hosted),
        )
        for name in sorted(worker.hosted):
            component = self.components.get(name)
            if component is None or component.worker is not worker:
                worker.hosted.discard(name)
                continue
            if component.alive:
                # A worker that stopped heartbeating is dead by declaration;
                # any still-running hosted process is a zombie to terminate
                # (the paired-process rule applied at worker granularity).
                component.process.kill()
            self.migrations += 1
            self.restart_component(name)
        if worker.alive:
            worker.process.kill()

    async def _rebalance_components(self) -> None:
        """Migrate components whose ring assignment moved (worker join).

        The assignment is load-weighted when the load plane has signal:
        components carry their measured busy rates onto the ring, so a
        join rebalance spreads *load*, not just counts (an idle cluster
        falls back to the legacy count rule). Each move re-validates its
        target after the drain -- a worker killed while it is the target
        of an in-flight handoff must not strand the draining component.
        """
        live_ids = sorted(
            worker.worker_id for worker in self._live_workers()
        )
        if not live_ids:
            return
        hosted_names = sorted(
            name
            for name, component in self.components.items()
            if component.worker is not None and component.alive
        )
        now = self.kernel.now
        weights = {
            name: load["busy_rate"]
            for worker in self._live_workers()
            for name, load in worker.loop.component_loads(now).items()
            if name in worker.hosted
        }
        desired = HashRing(live_ids).assign(hosted_names, weights=weights)
        for name in hosted_names:
            component = self.components.get(name)
            if component is None or not component.alive:
                continue
            current = component.worker
            if (
                current is not None
                and current.worker_id == desired.get(name)
            ):
                continue
            await self._migrate_component(name, desired.get(name))


    # ------------------------------------------------------------------
    # external clients
    # ------------------------------------------------------------------
    def client(self, name: str = "client") -> Component:
        """A component hosting no actors, used to drive the application
        (the paper's simulators / WebAPI run as such components)."""
        if self._client is None or not self._client.alive:
            self._client = self.add_component(name)
        return self._client

    async def call(self, ref: ActorRef, method: str, *args: Any) -> Any:
        """Blocking root invocation from the default external client."""
        return await self.client().invoke(None, ref, method, tuple(args), True)

    async def tell(self, ref: ActorRef, method: str, *args: Any) -> None:
        await self.client().invoke(None, ref, method, tuple(args), False)

    # ------------------------------------------------------------------
    # synchronous driving helpers (tests, benches)
    # ------------------------------------------------------------------
    def run_call(
        self, ref: ActorRef, method: str, *args: Any, timeout: float | None = 600.0
    ) -> Any:
        client = self.client()
        task = self.kernel.spawn(
            client.invoke(None, ref, method, tuple(args), True),
            process=client.process,
            name=f"client.call:{ref}.{method}",
        )
        return self.kernel.run_until_complete(task, timeout=timeout)

    def settle(self, max_wait: float = 120.0) -> None:
        """Drive the kernel until the group has a generation and is
        unpaused (the application is ready to process invocations)."""
        deadline = self.kernel.now + max_wait
        while self.coordinator.generation == 0 or self.coordinator.paused:
            if self.kernel.now >= deadline:
                raise TimeoutError("application did not settle")
            self.kernel.run(until=min(self.kernel.now + 0.5, deadline))

    def live_component_names(self) -> list[str]:
        return sorted(
            member.rsplit("#", 1)[0]
            for member in self.coordinator.member_ids()
        )

    def api(self, client_name: str = "gateway") -> KarApi:
        """The narrow external-operation facade (the sidecar surface the
        HTTP gateway binds to). One facade per application, created on
        first use; its client component starts lazily on first operation."""
        if self._api is None:
            self._api = KarApi(self, client_name)
        return self._api

    # ------------------------------------------------------------------
    # the unified evidence surface
    # ------------------------------------------------------------------
    def stats(self, family: str | None = None) -> dict[str, Any]:
        """The unified evidence tree: every counter family under one
        namespaced roof, with the same shape whatever the worker count.

        ``stats()`` assembles the whole tree; ``stats("transport")``
        returns just one family without paying for the others (the cheap
        form for polling loops). Families: ``transport``, ``store``,
        ``persistence``, ``overload``, ``calls``, ``placement``,
        ``gateway``, ``workers``, ``trace``.
        """
        builders = {
            "transport": self._transport_stats,
            "store": self._store_stats,
            "persistence": self._persistence_stats,
            "overload": self._overload_stats,
            "calls": self._calls_stats,
            "placement": self._placement_stats,
            "gateway": self._gateway_stats,
            "workers": self._workers_stats,
            "trace": self.trace.stats,
        }
        if family is not None:
            try:
                return builders[family]()
            except KeyError:
                raise KeyError(
                    f"unknown stats family {family!r}; "
                    f"expected one of {sorted(builders)}"
                ) from None
        return {name: build() for name, build in builders.items()}

    def _transport_stats(self) -> dict[str, int]:
        """Broker + per-router transport counters: the evidence surface
        for the throughput benchmarks (round trips vs. records sent)."""
        routers = [c.router for c in self.components.values()]
        return {
            "produce_round_trips": self.broker.produce_count,
            "records_appended": self.broker.produce_record_count,
            "outbox_batches": sum(r.batches_flushed for r in routers),
            "outbox_records": sum(r.records_sent for r in routers),
            "largest_batch": max(
                (r.largest_batch for r in routers), default=0
            ),
        }

    def _store_stats(self) -> dict[str, int]:
        """Store-side pipeline counters: latency-paying round trips vs.
        operations landed, mirroring the transport family for the outbox."""
        clients = [
            c.store_client
            for c in self.components.values()
            if c.store_client is not None
        ]
        return {
            "store_round_trips": self.store.round_trips,
            "store_operations": self.store.operation_count,
            "pipeline_batches": sum(
                getattr(client, "batches_flushed", 0) for client in clients
            ),
            "pipeline_ops": sum(
                getattr(client, "ops_pipelined", 0) for client in clients
            ),
            "largest_pipeline_batch": max(
                (getattr(client, "largest_batch", 0) for client in clients),
                default=0,
            ),
        }

    def _calls_stats(self) -> dict[str, Any]:
        """Journal-derived call settlement: the reconciliation leader's own
        pending-call criterion (Section 4.3) applied to the current
        journals. After recovery has run and the workload drained,
        ``unsettled`` must be empty -- every in-flight call at crash time
        was driven to a durable completion."""
        requested, responded = self._journal_call_ids()
        unsettled = sorted(requested - responded)
        return {"unsettled": unsettled, "unsettled_count": len(unsettled)}

    def _placement_stats(self) -> dict[str, Any]:
        """The adaptive-placement slice of the unified evidence surface.

        A single-loop application has no placement controller; the family
        keeps the same shape with everything at rest."""
        clustered = bool(self.workers)
        return {
            "adaptive": clustered and self.config.adaptive_placement,
            "migrations": self.migrations,
            "splits": self.splits,
            "merges": self.merges,
            "lease_expirations": self.lease_expirations,
            "split_children": {
                parent: list(children)
                for parent, children in sorted(self.split_children.items())
            },
            "controller": self.placement_ctl.stats() if clustered else {},
            "load": self.placement_ctl.load_snapshot() if clustered else {},
        }

    def _gateway_stats(self) -> dict[str, Any]:
        """The serving edge's per-route/per-actor-type counters and call
        latency histograms, when an HTTP gateway is attached."""
        if self.gateway_metrics is None:
            return {"attached": False}
        snapshot = dict(self.gateway_metrics.snapshot())
        snapshot["attached"] = True
        return snapshot

    def _workers_stats(self) -> dict[str, Any]:
        return {
            worker_id: worker.stats()
            for worker_id, worker in self.workers.items()
        }

    # ------------------------------------------------------------------
    # overload control: the dead-letter parking lot
    # ------------------------------------------------------------------
    async def park_dead_letter(self, letter: DeadLetter, client_id: str) -> None:
        """Durably append one dead letter (fenced producers still rejected)."""
        await self.broker.produce(
            self.dead_letter_topic, DEAD_LETTER_PARTITION, letter, client_id
        )

    def _dead_letter_values(self) -> list[DeadLetter]:
        topic = self.broker.topics.get(self.dead_letter_topic)
        if topic is None or DEAD_LETTER_PARTITION not in topic.partitions:
            return []
        # snapshot(), not unexpired(): reading the parking lot must never
        # trigger a retention-expiry sweep on it.
        return [
            record.value
            for record in topic.partitions[DEAD_LETTER_PARTITION].snapshot()
            if isinstance(record.value, DeadLetter)
        ]

    def dead_letters(self) -> list[dict[str, Any]]:
        """The parked calls, each with its full failure history."""
        return [letter.describe() for letter in self._dead_letter_values()]

    def dead_letter_index(self) -> set[tuple[str, int]]:
        """Dedup keys of every parked request (reconciliation skips these:
        redelivery of a parked call belongs to the parking lot, not the
        crash-recovery copy path)."""
        return {
            letter.request.dedup_key for letter in self._dead_letter_values()
        }

    def _overload_stats(self) -> dict[str, Any]:
        """Aggregate overload-control evidence across the current component
        incarnations (like the transport family): retry-budget consumption,
        breaker states and transitions, shed counts, and the dead letters
        currently parked, each with its full failure history."""
        guards = [
            component.overload
            for component in self.components.values()
            if component.overload is not None
        ]
        per_guard = [guard.stats(self.kernel.now) for guard in guards]
        totals: dict[str, Any] = {}
        for stats in per_guard:
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        if per_guard:
            totals["max_pending"] = max(s["max_pending"] for s in per_guard)
        letters = self.dead_letters()
        totals["dead_letter_depth"] = len(letters)
        totals["dead_letters"] = letters
        totals["dead_letters_replayed"] = self.dead_letters_replayed
        return totals

    async def redeliver_dead_letters_async(
        self, reset_breakers: bool = True
    ) -> dict[str, int]:
        """Replay every parked call after the fault clears.

        Exactly-once end to end: letters whose request id already has a
        response in the journal are skipped (settled elsewhere -- e.g. a
        reconciliation copy completed while the letter sat parked), the
        batch is deduplicated by (id, step), and each replay re-enters the
        normal routing path -- single placement plus per-component (id,
        step) dedup make a replay that races a recovery copy execute once.
        A replay that fails again simply parks a fresh letter.

        ``reset_breakers`` force-closes every breaker first: invoking
        redelivery is the operator's declaration that the fault cleared,
        and without it the replays would divert straight back to the lot.
        """
        letters = self._dead_letter_values()
        summary = {
            "parked": len(letters),
            "replayed": 0,
            "skipped_settled": 0,
            "skipped_duplicate": 0,
            "breakers_reset": 0,
        }
        if reset_breakers:
            for component in self.components.values():
                if component.alive and component.overload is not None:
                    summary["breakers_reset"] += (
                        component.overload.reset_breakers(self.kernel.now)
                    )
        if not letters:
            return summary
        requested, responded = self._journal_call_ids()
        # Drop the lot up front: a replay that fails again re-parks a fresh
        # letter (with its extended history) instead of duplicating itself.
        self.broker.topic(self.dead_letter_topic).drop_partition(
            DEAD_LETTER_PARTITION
        )
        client = self.client()
        seen: set[tuple[str, int]] = set()
        for letter in letters:
            request = letter.request
            if request.dedup_key in seen:
                summary["skipped_duplicate"] += 1
                continue
            seen.add(request.dedup_key)
            if request.request_id in responded:
                summary["skipped_settled"] += 1
                self.trace.emit(
                    "deadletter.skipped",
                    request=request.request_id,
                    step=request.step,
                    reason="already settled",
                )
                continue
            if request.after_callee is not None and not (
                request.after_callee in requested
                and request.after_callee not in responded
            ):
                # The happen-before callee already settled (or its evidence
                # expired): replaying with the annotation intact would park
                # forever on a response that will never arrive again.
                request = replace(request, after_callee=None)
            await client.router.route_request(request)
            summary["replayed"] += 1
            self.dead_letters_replayed += 1
            self.trace.emit(
                "deadletter.replayed",
                request=request.request_id,
                step=request.step,
                actor=str(request.actor),
                method=request.method,
            )
        return summary

    def redeliver_dead_letters(
        self, reset_breakers: bool = True, timeout: float | None = 600.0
    ) -> dict[str, int]:
        """Synchronous driver for :meth:`redeliver_dead_letters_async`."""
        client = self.client()
        task = self.kernel.spawn(
            self.redeliver_dead_letters_async(reset_breakers),
            process=client.process,
            name="redeliver_dead_letters",
        )
        return self.kernel.run_until_complete(task, timeout=timeout)

    # ------------------------------------------------------------------
    # durability evidence (cold-restart benchmarks and tests)
    # ------------------------------------------------------------------
    def _journal_call_ids(self) -> tuple[set[str], set[str]]:
        """Ids of the retained request records and of the responses."""
        requested: set[str] = set()
        responded: set[str] = set()
        topic = self.broker.topics.get(self.topic_name)
        if topic is None:
            return requested, responded
        now = self.kernel.now
        for partition in topic.partitions.values():
            for record in partition.unexpired(now):
                envelope = record.value
                if isinstance(envelope, Response):
                    responded.add(envelope.request_id)
                elif isinstance(envelope, Request):
                    requested.add(envelope.request_id)
        return requested, responded

    def _persistence_stats(self) -> dict[str, int]:
        """Durable-layer counters: journal volume, compaction, replay."""
        log = self.broker.log
        return {
            "boot": self.boot,
            "records_logged": log.records_logged,
            "records_retained": log.retained_records(),
            "log_compactions": log.compactions,
            "journal_rewrites": getattr(log, "rewrites", 0),
            "restored_records": self.restored_records,
        }
