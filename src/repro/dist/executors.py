"""The pluggable sweep-executor seam.

:func:`repro.experiments.run_comparison` delegates the execution of its
pending ``(trial, protocol)`` units to a :class:`SweepExecutor`:

* :class:`SerialExecutor` — the historical in-process walk;
* :class:`ProcessPoolExecutor` — a single-host fork pool (the
  ``n_workers`` fast path);
* :class:`~repro.dist.supervisor.WorkQueueExecutor` — independent
  worker processes coordinating through an on-disk
  :class:`~repro.dist.queue.WorkQueue` with leases, crash-absorbing
  supervision, and poison-unit quarantine.

Whatever the executor, crash pattern, or retry count, the statistics a
sweep reports are bit-identical: executors only decide *where and when*
units run, never *what* they compute — per-unit seeds come from the
same :class:`numpy.random.SeedSequence` walk, and all accounting is
assembled by the parent in deterministic trial-major order.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..contacts import ContactTrace
    from ..demand import DemandModel
    from ..experiments.runner import FaultsLike, ProtocolFactory
    from ..sim import SimulationConfig
    from ..simcache import SimulationRunCache

__all__ = [
    "ExecutorLike",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "SweepExecutor",
    "SweepSpec",
    "resolve_executor",
]

#: Environment variable selecting the default executor by name
#: (``serial`` / ``process`` / ``workqueue``); unset defers to the
#: historical ``n_workers`` behavior.
ENV_VAR = "REPRO_SWEEP_EXECUTOR"

#: One (trial, protocol, trace seed, request seed, sim seed) work unit.
WorkUnit = Tuple[int, str, int, int, int]


@dataclass
class SweepSpec:
    """Everything an executor (or a remote worker) needs to run units.

    This is the full execution recipe of one sweep *minus* the unit
    list: factories, config, failure policy, cache, and the sweep's
    identity (seed walk + trial count + protocol names), which the
    work-queue backend persists so a resumed or multi-host sweep can
    refuse mismatched state.  *trial_spills* maps a trial index to the
    parent's spilled ``.ctb`` copy of its trace (the zero-copy worker
    handoff); a trial without one is regenerated from its seed.
    """

    trace_factory: Callable[[int], "ContactTrace"]
    demand: "DemandModel"
    config: "SimulationConfig"
    protocols: Dict[str, "ProtocolFactory"]
    n_clients: Optional[int]
    faults: Optional["FaultsLike"]
    on_error: str
    attempts_per_run: int
    profile_dir: Optional[str]
    cache: Optional["SimulationRunCache"]
    base_seed: int
    n_trials: int
    trial_spills: Dict[int, str] = field(default_factory=dict)

    def identity(self) -> Dict[str, Any]:
        """What makes two sweeps "the same sweep" for queue reuse."""
        return {
            "base_seed": int(self.base_seed),
            "n_trials": int(self.n_trials),
            "protocols": sorted(self.protocols),
            "config_fingerprint": self.config.fingerprint(),
        }


class SweepExecutor(abc.ABC):
    """Strategy for executing a sweep's pending work units.

    ``execute`` runs every unit, reporting each completed or failed one
    through ``record`` — a callback with signature
    ``record(trial, protocol, result, error, timing)`` owned by the
    parent (results, telemetry, progress).  The optional return
    value is merged into the sweep manifest (the work-queue backend
    reports worker attribution and lifecycle counts there).
    """

    #: Short name recorded in sweep manifests.
    name: str = ""

    @abc.abstractmethod
    def execute(
        self,
        units: Sequence[WorkUnit],
        spec: SweepSpec,
        record: Callable[..., None],
    ) -> Optional[Dict[str, Any]]:
        ...


class SerialExecutor(SweepExecutor):
    """Run every unit in-process, in order (the historical walk)."""

    name = "serial"

    def execute(
        self,
        units: Sequence[WorkUnit],
        spec: SweepSpec,
        record: Callable[..., None],
    ) -> Optional[Dict[str, Any]]:
        from ..experiments import runner

        runner._run_units_serial(list(units), spec, record)
        return None


class ProcessPoolExecutor(SweepExecutor):
    """Fan units over a single-host fork pool (bit-identical to serial).

    This is the ``repro.dist`` executor wrapping the runner's pool path,
    not :class:`concurrent.futures.ProcessPoolExecutor` (which it uses
    underneath, with an explicitly pinned ``fork`` start method).
    """

    name = "process"

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = int(n_workers)

    def execute(
        self,
        units: Sequence[WorkUnit],
        spec: SweepSpec,
        record: Callable[..., None],
    ) -> Optional[Dict[str, Any]]:
        from ..experiments import runner

        runner._run_units_parallel(
            list(units), spec, record, n_workers=self.n_workers
        )
        return None


#: What ``run_comparison(executor=...)`` accepts: an executor instance,
#: a name (``"serial"`` / ``"process"`` / ``"workqueue"``), or ``None``
#: (defer to :data:`ENV_VAR`, then to the ``n_workers`` behavior).
ExecutorLike = Union[None, str, SweepExecutor]


def resolve_executor(
    setting: ExecutorLike,
    *,
    n_workers: Optional[int] = None,
) -> Optional[SweepExecutor]:
    """Resolve an ``executor=`` argument to an instance (or ``None``).

    ``None`` consults :data:`ENV_VAR`; an unset/empty variable returns
    ``None``, which tells :func:`~repro.experiments.run_comparison` to
    apply its historical ``n_workers`` selection (serial below 2
    effective workers, fork pool otherwise).
    """
    if setting is None:
        env = os.environ.get(ENV_VAR, "").strip()
        if not env:
            return None
        setting = env
    if isinstance(setting, SweepExecutor):
        return setting
    if not isinstance(setting, str):
        raise ConfigurationError(
            f"executor must be None, a name, or a SweepExecutor; "
            f"got {setting!r}"
        )
    name = setting.strip().lower()
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        # repro-lint: ignore[RPL008] our executor wrapper, not a raw pool
        return ProcessPoolExecutor(max(n_workers or 1, 1))
    if name == "workqueue":
        from .supervisor import WorkQueueExecutor

        return WorkQueueExecutor(n_workers=max(n_workers or 2, 1))
    raise ConfigurationError(
        f"unknown executor {setting!r}; expected 'serial', 'process', "
        "or 'workqueue'"
    )


def make_unit_records(
    units: Sequence[WorkUnit], protocol_order: Sequence[str]
) -> List[Any]:
    """Map runner work units to :class:`~repro.dist.queue.UnitRecord`.

    Unit ids are derived from the trial index and the protocol's
    position in the sweep's insertion order, so ids are stable across
    resumes regardless of which units are still pending.
    """
    from .queue import UnitRecord, unit_id

    index = {name: k for k, name in enumerate(protocol_order)}
    return [
        UnitRecord(
            unit=unit_id(trial, index[name]),
            trial=trial,
            protocol=name,
            seeds=(trace_seed, request_seed, sim_seed),
        )
        for trial, name, trace_seed, request_seed, sim_seed in units
    ]
