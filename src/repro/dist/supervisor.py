"""Queue workers, crash-absorbing supervision, and the workqueue backend.

Three roles cooperate around one :class:`~repro.dist.queue.WorkQueue`:

* :class:`QueueWorker` — claims units via lease files, executes them
  through :func:`repro.experiments.runner.run_unit` like every other
  backend, renews its lease from a heartbeat thread, and publishes
  results (or failure records) durably;
* :class:`Supervisor` — the one *requeue authority*: reaps stale
  leases (crashed or hung workers), bumps requeue counters, quarantines
  poison units once their claim budget is spent, respawns dead workers,
  and — when spawning keeps failing — degrades to executing units
  inline so the sweep always makes progress;
* :class:`WorkQueueExecutor` — the :class:`~repro.dist.executors.SweepExecutor`
  gluing both into ``run_comparison(executor=WorkQueueExecutor(...))``:
  create or attach the queue, supervise until every unit is published or
  quarantined, then feed results back to the parent's accounting in
  deterministic unit order with per-worker attribution.

Workers are *disposable by design*: any of them may be SIGKILLed at any
instruction.  Every externally visible state change is one atomic
durable file operation, units are deterministic functions of their
seeds, and duplicated execution publishes identical bytes — so crash
recovery is just "reap the lease and let someone else run it".
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import tempfile
import threading
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence

from ..durable import atomic_write_json
from ..errors import ConfigurationError, SimulationError
from ..obs import events as ev
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..obs.manifest import worker_provenance
from .clock import Clock, SystemClock
from .executors import SweepExecutor, SweepSpec, WorkUnit, make_unit_records
from .leases import Lease
from .queue import UnitRecord, WorkQueue

__all__ = ["QueueWorker", "Supervisor", "WorkQueueExecutor"]


def _default_poll(ttl: float) -> float:
    """A poll period that notices expiry promptly at any TTL scale."""
    return min(0.25, max(0.02, ttl / 10.0))


class _Heartbeat:
    """Daemon thread renewing one lease until stopped or lost.

    The renewal cadence is real time (``Event.wait``), independent of
    the queue's :class:`~repro.dist.clock.Clock`, so fake-clock tests
    stay deterministic: the heartbeat simply renews against whatever
    ``clock.now()`` says when it fires.
    """

    def __init__(self, queue: WorkQueue, lease: Lease, interval: float) -> None:
        self._queue = queue
        self._lease = lease
        self._interval = max(interval, 0.01)
        self._stopped = threading.Event()
        self.renewals = 0
        self._thread = threading.Thread(
            target=self._run, name=f"lease-{lease.unit}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        lease: Optional[Lease] = self._lease
        while not self._stopped.wait(self._interval):
            assert lease is not None
            lease = self._queue.leases.renew(lease)
            if lease is None:
                # Reaped: presumed dead.  Keep executing — publishing a
                # duplicate is benign — but stop touching the lease.
                break
            self.renewals += 1

    def stop(self) -> None:
        self._stopped.set()
        self._thread.join(timeout=5.0)


class QueueWorker:
    """One claim-execute-publish loop over a shared work queue."""

    def __init__(
        self,
        queue: WorkQueue,
        spec: SweepSpec,
        worker_id: str,
        *,
        offset: int = 0,
        poll_interval: Optional[float] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.queue = queue
        # The worker's own copy of the recipe: the queue manifest's
        # trial spills (written by the parent's sweep when spilling is
        # on) redirect traces to the parent's memory-mapped ``.ctb``
        # copies with their travelling fingerprints, so workers joining
        # from any host skip both regeneration and re-hashing.  Failures
        # must never unwind a worker: under on_error="raise" the worker
        # records the failure and the supervisor raises.
        spills = queue.manifest.get("trial_spills") or {}
        self.spec = dataclasses.replace(
            spec,
            trial_spills={int(trial): path for trial, path in spills.items()},
            on_error="skip" if spec.on_error == "raise" else spec.on_error,
        )
        self.worker_id = worker_id
        self.offset = int(offset)
        self.clock: Clock = clock if clock is not None else queue.clock
        self.poll_interval = (
            poll_interval
            if poll_interval is not None
            else _default_poll(queue.ttl)
        )
        self._logger = get_logger("repro.dist.worker")
        self.units_done = 0
        self.units_failed = 0
        self.claims = 0
        self.lease_renewals = 0
        self._metrics_reg = obs_metrics.enabled_registry()

    def run(self) -> None:
        """Work until every unit is published or quarantined.

        Waiting (rather than exiting) when nothing is claimable is what
        lets this worker pick up units requeued after a *different*
        worker's crash.  Every loop iteration refreshes the worker's
        ``metrics/<id>.json`` so watch clients see an idle-but-alive
        worker's timestamp keep moving.
        """
        self.publish_metrics()
        while not self.queue.complete():
            if not self.run_one():
                self.publish_metrics()
                self.clock.sleep(self.poll_interval)

    def run_one(self) -> bool:
        """Claim and execute at most one unit; ``False`` when idle."""
        for unit in self.queue.claimable_units(self.offset):
            claim_no = self.queue.claims_used(unit) + 1
            lease = self.queue.leases.try_claim(
                unit, self.worker_id, claim_no
            )
            if lease is None:
                continue  # lost the O_EXCL race; try the next unit
            self.claims += 1
            self.queue.log_event(
                ev.UNIT_CLAIM, unit=unit, worker=self.worker_id, claim=claim_no
            )
            self._execute_unit(self.queue.read_unit(unit), lease, claim_no)
            self.publish_metrics()
            self.queue.log_event(
                ev.METRICS_SNAPSHOT,
                worker=self.worker_id,
                units_done=self.units_done,
                units_failed=self.units_failed,
            )
            return True
        return False

    def publish_metrics(self) -> None:
        """Atomically write this worker's ``metrics/<id>.json``.

        The file is the watch dashboard's per-worker ground truth:
        identity (host + PID), progress counters, and a queue-clock
        timestamp whose age tells liveness (a worker that stops
        refreshing past the lease TTL is presumed dead).  ``fsync=False``
        because the file is advisory observability state, not sweep
        correctness state — ``os.replace`` atomicity already guarantees
        readers never see a torn frame.
        """
        path = os.path.join(
            self.queue.root, "metrics", f"{self.worker_id}.json"
        )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload: Dict[str, Any] = {
            **worker_provenance(self.worker_id),
            "t": self.clock.now(),
            "units_done": self.units_done,
            "units_failed": self.units_failed,
            "claims": self.claims,
            "lease_renewals": self.lease_renewals,
        }
        try:
            atomic_write_json(path, payload, fsync=False)
        except OSError as error:  # pragma: no cover - diskless degrade
            self._logger.warning(
                "worker metrics write failed", error=str(error)
            )

    def _count_unit(self, outcome: str) -> None:
        reg = self._metrics_reg
        if reg is None:
            return
        reg.counter(
            "repro_dist_worker_units_total",
            help="work units finished by this worker process, by outcome",
            labels={"worker": self.worker_id, "outcome": outcome},
        ).inc()

    def _execute_unit(
        self, record: UnitRecord, lease: Lease, claim_no: int
    ) -> None:
        from ..experiments.runner import run_unit

        heartbeat = _Heartbeat(self.queue, lease, self.queue.ttl / 3.0)
        heartbeat.start()
        try:
            result, error, timing, cache_key = run_unit(
                (record.trial, record.protocol, *record.seeds), self.spec
            )
        finally:
            heartbeat.stop()
            self.lease_renewals += heartbeat.renewals
        if result is not None:
            self.units_done += 1
            self._count_unit("done")
            self.queue.publish_result(
                record.unit,
                result,
                worker=self.worker_id,
                claim=claim_no,
                timing=timing,
                run_key=cache_key,
            )
            self.queue.log_event(
                ev.UNIT_PUBLISH, unit=record.unit, worker=self.worker_id
            )
        else:
            self.units_failed += 1
            self._count_unit("failed")
            error_text = error or "unknown error"
            self.queue.record_failure(
                record.unit,
                worker=self.worker_id,
                claim=claim_no,
                error=error_text,
            )
            self.queue.log_event(
                ev.UNIT_FAIL,
                unit=record.unit,
                worker=self.worker_id,
                error=error_text[:200],
            )
            self._logger.warning(
                "unit failed",
                unit=record.unit,
                worker=self.worker_id,
                claim=claim_no,
                error=error_text[:200],
            )
        self.queue.leases.release_if_held(lease)


class WorkerHandle(Protocol):
    """What the supervisor needs from a spawned worker."""

    worker_id: str

    def is_alive(self) -> bool:
        ...

    def join(self, timeout: Optional[float] = None) -> None:
        ...

    def terminate(self) -> None:
        ...


class _ProcessHandle:
    """A forked worker process as a :class:`WorkerHandle`."""

    def __init__(
        self, worker_id: str, process: "multiprocessing.process.BaseProcess"
    ) -> None:
        self.worker_id = worker_id
        self._process = process

    def is_alive(self) -> bool:
        return self._process.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        self._process.join(timeout)

    def terminate(self) -> None:
        if self._process.is_alive():
            self._process.terminate()


#: Fork-inherited context for spawned queue workers (the same
#: no-pickling trick as the runner's pool path): set by
#: ``WorkQueueExecutor.execute`` before the supervisor spawns anything,
#: cleared afterwards.
_QUEUE_CONTEXT: Optional[Dict[str, Any]] = None


def _forked_worker_main(index: int) -> None:
    context = _QUEUE_CONTEXT
    if context is None:  # pragma: no cover - defensive
        raise SimulationError(
            "queue worker context missing; workers must be forked by "
            "WorkQueueExecutor"
        )
    queue = WorkQueue.open(context["root"])
    stride = max(1, len(queue.unit_ids) // max(int(context["n_workers"]), 1))
    QueueWorker(
        queue,
        context["spec"],
        f"w{index}",
        offset=index * stride,
        poll_interval=context.get("poll_interval"),
    ).run()


def _spawn_forked_worker(index: int) -> WorkerHandle:
    """Default spawn: fork a :func:`_forked_worker_main` process."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigurationError(
            "the workqueue backend's in-process spawner needs the 'fork' "
            "start method"
        )
    mp_context = multiprocessing.get_context("fork")
    worker_id = f"w{index}"
    process = mp_context.Process(
        target=_forked_worker_main,
        args=(index,),
        name=f"repro-sweep-{worker_id}",
        daemon=True,
    )
    process.start()
    return _ProcessHandle(worker_id, process)


class Supervisor:
    """Crash-absorbing supervision of one work queue.

    The supervisor is the only writer of requeue counters and
    quarantine markers, which keeps that accounting single-writer while
    workers stay free to crash at any instruction.  Spawn failures back
    off exponentially (capped); if no worker can be kept alive at all,
    the supervisor executes units *inline*, so a sweep degrades from
    ``n_workers`` down to 1 instead of wedging.
    """

    def __init__(
        self,
        queue: WorkQueue,
        *,
        spec: SweepSpec,
        n_workers: int,
        spawn: Optional[Callable[[int], WorkerHandle]] = None,
        on_error: str = "skip",
        poll_interval: Optional[float] = None,
        clock: Optional[Clock] = None,
        spawn_backoff: float = 0.25,
        spawn_max_backoff: float = 5.0,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.queue = queue
        self.spec = spec
        self.n_workers = int(n_workers)
        self.spawn = spawn if spawn is not None else _spawn_forked_worker
        self.on_error = on_error
        self.clock: Clock = clock if clock is not None else queue.clock
        self.poll_interval = (
            poll_interval
            if poll_interval is not None
            else _default_poll(queue.ttl)
        )
        self.spawn_backoff = float(spawn_backoff)
        self.spawn_max_backoff = float(spawn_max_backoff)
        self.workers: Dict[str, WorkerHandle] = {}
        self.spawn_failures = 0
        self.inline_units = 0
        self._spawn_counter = 0
        self._next_spawn_at = 0.0
        self._inline_worker: Optional[QueueWorker] = None
        self._logger = get_logger("repro.dist.supervisor")
        self._metrics_reg = obs_metrics.enabled_registry()

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Supervise until every unit is published or quarantined."""
        try:
            while not self.queue.complete():
                self.step()
                if self.queue.complete():
                    break
                self.clock.sleep(self.poll_interval)
        finally:
            self._shutdown()
            # One last gauge refresh so a sweep-end snapshot reflects
            # the final queue state, not the state one poll earlier.
            self._publish_queue_gauges(0, 0)

    def step(self) -> None:
        """One supervision round (exposed for fake-clock tests)."""
        requeued = self.reap_expired()
        parked = self.quarantine_exhausted()
        if self.on_error == "raise":
            self._raise_on_failure()
        self._manage_workers()
        self._publish_queue_gauges(len(requeued), len(parked))

    def _publish_queue_gauges(self, requeued: int, parked: int) -> None:
        """Mirror queue depth and churn into the process registry."""
        reg = self._metrics_reg
        if reg is None:
            return
        status = self.queue.status()
        for state in ("pending", "published", "quarantined"):
            reg.gauge(
                "repro_dist_queue_units",
                help="work units currently in each queue state",
                labels={"state": state},
            ).set(float(status[state]))
        reg.gauge(
            "repro_dist_live_workers",
            help="worker handles the supervisor believes are alive",
        ).set(float(len(self.workers)))
        if requeued:
            reg.counter(
                "repro_dist_requeues_total",
                help="units requeued after a stale lease was reaped",
            ).inc(float(requeued))
        if parked:
            reg.counter(
                "repro_dist_quarantines_total",
                help="poison units parked after their claim budget",
            ).inc(float(parked))

    def reap_expired(self) -> List[str]:
        """Clear stale leases; requeue their units if still pending."""
        requeued = []
        for lease in self.queue.leases.active():
            if not self.queue.leases.is_stale(lease):
                continue
            self.queue.leases.release(lease)
            self.queue.log_event(
                ev.UNIT_EXPIRE, unit=lease.unit, worker=lease.worker
            )
            if self.queue.is_done(lease.unit):
                continue  # crashed between publishing and releasing
            claims = self.queue.record_requeue(lease.unit)
            self.queue.log_event(
                ev.UNIT_REQUEUE,
                unit=lease.unit,
                claims=self.queue.claims_used(lease.unit),
            )
            self._logger.warning(
                "lease expired; unit requeued",
                unit=lease.unit,
                worker=lease.worker,
                requeues=claims,
            )
            requeued.append(lease.unit)
        return requeued

    def quarantine_exhausted(self) -> List[str]:
        """Park units whose claim budget is spent (poison units)."""
        parked = []
        for unit in self.queue.unit_ids:
            if self.queue.is_done(unit):
                continue
            if self.queue.claims_used(unit) < self.queue.max_claims:
                continue
            lease = self.queue.leases.read(unit)
            if lease is not None and not self.queue.leases.is_stale(lease):
                continue  # a final claim is still in flight
            failures = self.queue.read_failures(unit)
            reason = (
                failures[-1]["error"]
                if failures
                else "claim budget exhausted by worker crashes"
            )
            self.queue.quarantine(unit, reason)
            self.queue.log_event(
                ev.UNIT_QUARANTINE, unit=unit, reason=str(reason)[:200]
            )
            self._logger.warning(
                "unit quarantined",
                unit=unit,
                claims_used=self.queue.claims_used(unit),
                reason=str(reason)[:200],
            )
            parked.append(unit)
        return parked

    def _raise_on_failure(self) -> None:
        for unit in self.queue.unit_ids:
            failures = self.queue.read_failures(unit)
            if failures:
                first = failures[0]
                raise SimulationError(
                    f"unit {unit} failed on worker {first.get('worker')}: "
                    f"{first.get('error')}"
                )

    def _manage_workers(self) -> None:
        for worker_id, handle in list(self.workers.items()):
            if handle.is_alive():
                continue
            reason = "finished" if self.queue.complete() else "died"
            self.queue.log_event(
                ev.WORKER_EXIT, worker=worker_id, reason=reason
            )
            if reason == "died":
                self._logger.warning(
                    "worker died; its leases will expire", worker=worker_id
                )
            del self.workers[worker_id]
        pending = sum(
            1 for unit in self.queue.unit_ids if not self.queue.is_done(unit)
        )
        desired = min(self.n_workers, pending)
        while len(self.workers) < desired:
            if self.clock.now() < self._next_spawn_at:
                break  # spawn backoff in effect
            index = self._spawn_counter
            try:
                handle = self.spawn(index)
            # repro-lint: ignore[RPL007]
            except Exception as error:
                # Any spawn failure (fork limits, missing start method,
                # injected faults) degrades the sweep to fewer workers;
                # capped-exponential backoff before the next attempt.
                self.spawn_failures += 1
                delay = min(
                    self.spawn_backoff
                    * (2.0 ** (self.spawn_failures - 1)),
                    self.spawn_max_backoff,
                )
                self._next_spawn_at = self.clock.now() + delay
                self._logger.warning(
                    "worker spawn failed; degrading",
                    error=f"{type(error).__name__}: {error}",
                    spawn_failures=self.spawn_failures,
                    retry_in_s=delay,
                    live_workers=len(self.workers),
                )
                break
            self._spawn_counter += 1
            self.workers[handle.worker_id] = handle
            self.queue.log_event(ev.WORKER_SPAWN, worker=handle.worker_id)
        if pending and not self.workers:
            # Fully degraded: no worker could be kept alive.  Execute
            # one unit inline per round so the sweep still finishes.
            if self._inline_worker is None:
                self._inline_worker = QueueWorker(
                    self.queue,
                    self.spec,
                    "supervisor-inline",
                    poll_interval=self.poll_interval,
                    clock=self.clock,
                )
            if self._inline_worker.run_one():
                self.inline_units += 1

    def _shutdown(self) -> None:
        for worker_id, handle in list(self.workers.items()):
            handle.join(timeout=5.0)
            if handle.is_alive():
                handle.terminate()
                handle.join(timeout=5.0)
                reason = "terminated"
            else:
                reason = "finished"
            self.queue.log_event(
                ev.WORKER_EXIT, worker=worker_id, reason=reason
            )
            del self.workers[worker_id]


class WorkQueueExecutor(SweepExecutor):
    """The fault-tolerant distributed backend for ``run_comparison``.

    With ``root=None`` the queue lives in a private temporary directory
    that is removed after the sweep; pass a path (on a shared
    filesystem for multi-host operation) to make the queue inspectable,
    resumable, and joinable by external ``repro sweep worker``
    processes.
    """

    name = "workqueue"

    def __init__(
        self,
        root: Optional[str] = None,
        *,
        n_workers: int = 2,
        ttl: float = 30.0,
        max_claims: int = 3,
        poll_interval: Optional[float] = None,
        clock: Optional[Clock] = None,
        spawn: Optional[Callable[[int], WorkerHandle]] = None,
        scenario: Optional[Dict[str, Any]] = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.root = os.fspath(root) if root is not None else None
        self.n_workers = int(n_workers)
        self.ttl = float(ttl)
        self.max_claims = int(max_claims)
        self.poll_interval = poll_interval
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.spawn = spawn
        self.scenario = scenario

    def execute(
        self,
        units: Sequence[WorkUnit],
        spec: SweepSpec,
        record: Callable[..., None],
    ) -> Optional[Dict[str, Any]]:
        global _QUEUE_CONTEXT
        root = self.root
        cleanup = root is None
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-sweep-")
        records: List[UnitRecord] = make_unit_records(
            units, list(spec.protocols)
        )
        # The trial spills cross the executor seam via the durable
        # manifest, so external `repro sweep worker` processes see them.
        queue = WorkQueue.create(
            root,
            records,
            identity=spec.identity(),
            max_claims=self.max_claims,
            ttl=self.ttl,
            scenario=self.scenario,
            trial_spills=spec.trial_spills,
            clock=self.clock,
        )
        supervisor = Supervisor(
            queue,
            spec=spec,
            n_workers=self.n_workers,
            spawn=self.spawn,
            on_error=spec.on_error,
            poll_interval=self.poll_interval,
            clock=self.clock,
        )
        _QUEUE_CONTEXT = {
            "spec": spec,
            "root": root,
            "n_workers": self.n_workers,
            "poll_interval": self.poll_interval,
        }
        try:
            supervisor.run()
        finally:
            _QUEUE_CONTEXT = None
        try:
            extras = self._collect(queue, records, record, supervisor)
        finally:
            if cleanup:
                # Deleting the mkdtemp scratch queue of an ad-hoc sweep;
                # never durable state, so a torn teardown is harmless.
                # repro-lint: ignore[RPA002]
                shutil.rmtree(root, ignore_errors=True)
        return extras

    def _collect(
        self,
        queue: WorkQueue,
        records: List[UnitRecord],
        record: Callable[..., None],
        supervisor: Supervisor,
    ) -> Dict[str, Any]:
        """Feed published results back in deterministic unit order.

        A unit whose result file is missing or was discarded as corrupt
        and that is not quarantined is reported lost; it runs again when
        the sweep is resumed on the same queue.
        """
        unit_attribution: Dict[str, Dict[str, Any]] = {}
        workers_seen = set()
        for item in records:
            requeues = queue.requeues(item.unit)
            entry = queue.read_result(item.unit)
            if entry is not None:
                meta = entry.meta
                timing = {
                    key: float(value)
                    for key, value in meta.get("timing", {}).items()
                }
                worker = meta.get("worker")
                record(
                    item.trial,
                    item.protocol,
                    entry.result,
                    None,
                    timing,
                    worker=worker,
                )
                unit_attribution[item.unit] = {
                    "status": "published",
                    "worker": worker,
                    "claim": meta.get("claim"),
                    "requeues": requeues,
                    "failures": queue.failure_count(item.unit),
                    "run_key": meta.get("run_key"),
                }
            else:
                info = queue.read_quarantine(item.unit) or {}
                failures = queue.read_failures(item.unit)
                worker = failures[-1].get("worker") if failures else None
                error = str(
                    info.get("reason", "unit lost without a failure record")
                )
                claims = max(int(info.get("claims_used", 0)), 1)
                record(
                    item.trial,
                    item.protocol,
                    None,
                    error,
                    {"attempts": float(len(failures))},
                    worker=worker,
                    attempts=claims,
                )
                unit_attribution[item.unit] = {
                    "status": "quarantined" if info else "lost",
                    "worker": worker,
                    "claim": None,
                    "requeues": requeues,
                    "failures": len(failures),
                    "run_key": None,
                }
            if unit_attribution[item.unit]["worker"] is not None:
                workers_seen.add(unit_attribution[item.unit]["worker"])
        event_counts: Dict[str, int] = {}
        for event in queue.read_events():
            kind = event.get("kind", "?")
            event_counts[kind] = event_counts.get(kind, 0) + 1
        return {
            "dist": {
                "backend": self.name,
                "queue_root": queue.root,
                "ttl": queue.ttl,
                "max_claims": queue.max_claims,
                "workers": sorted(workers_seen),
                "spawn_failures": supervisor.spawn_failures,
                "inline_units": supervisor.inline_units,
                "units": unit_attribution,
                "events": event_counts,
            }
        }
