"""The pluggable sweep-executor seam.

:func:`repro.experiments.run_comparison` delegates the execution of its
``(trial, protocol)`` units to a :class:`SweepExecutor`:

* :class:`SerialExecutor` — the in-process walk;
* :class:`ProcessPoolExecutor` — a single-host fork pool, capped at the
  CPU count and the number of units.

``run_comparison(executor=...)`` is the one execution selector;
:func:`resolve_executor` maps it to an instance.

Whatever the executor or retry count, the statistics a sweep reports
are bit-identical: executors only decide *where and when* units run,
never *what* they compute — every backend runs each unit through
:func:`repro.experiments.runner.run_unit`, per-unit seeds come from
the same :class:`numpy.random.SeedSequence` walk, and all accounting
is assembled by the parent in deterministic trial-major order.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import warnings
from concurrent import futures
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ConfigurationError
from ..obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..contacts import ContactTrace
    from ..demand import DemandModel
    from ..experiments.artifacts import TrialArtifacts
    from ..experiments.runner import FaultsLike, ProtocolFactory
    from ..sim import SimulationConfig, SimulationResult
    from ..simcache import SimulationRunCache

__all__ = [
    "ExecutorLike",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "SweepExecutor",
    "SweepSpec",
    "resolve_executor",
]

#: Environment variable read by ``executor=None``: ``serial`` or a
#: worker count such as ``4``; unset runs serially.
ENV_VAR = "REPRO_SWEEP_EXECUTOR"

#: One (trial, protocol, trace seed, request seed, sim seed) work unit.
WorkUnit = Tuple[int, str, int, int, int]


@dataclass
class SweepSpec:
    """Everything an executor needs to run units.

    This is the full execution recipe of one sweep *minus* the unit
    list: factories, config, failure policy, and cache.  *trial_spills*
    maps a trial index to the parent's spilled ``.ctb`` copy of its
    trace (the zero-copy worker handoff); a trial without one is
    regenerated from its seed.
    *latest_trial* is the executing process's cache of the last
    ``(trial, artifacts)`` pair :func:`~repro.experiments.runner.run_unit`
    built; it is never copied by :func:`dataclasses.replace`.
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
    trial_spills: Dict[int, str] = field(default_factory=dict)
    latest_trial: Optional[Tuple[int, "TrialArtifacts"]] = field(
        default=None, init=False, repr=False, compare=False
    )


class SweepExecutor(abc.ABC):
    """Strategy for executing a sweep's pending work units.

    ``execute`` runs every unit, reporting each completed or failed one
    through ``record`` — a callback with signature
    ``record(trial, protocol, result, error, timing)`` owned by the
    parent (results, telemetry, progress).  The optional return
    value is merged into the sweep manifest (the pool reports the
    worker count that actually ran there).
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
    """Run every unit in-process, in order."""

    name = "serial"

    def execute(
        self,
        units: Sequence[WorkUnit],
        spec: SweepSpec,
        record: Callable[..., None],
    ) -> Optional[Dict[str, Any]]:
        from ..experiments.runner import run_unit

        for unit in units:
            result, error, timing = run_unit(
                unit, spec, profile_as="serial"
            )
            record(unit[0], unit[1], result, error, timing)
        return None


#: The pool's sweep, inherited by the forked workers through memory
#: copy, so trace and protocol factories (typically closures) are never
#: pickled.  Set by :meth:`ProcessPoolExecutor.execute` right before the
#: pool forks and cleared afterwards.
_POOL_SPEC: Optional[SweepSpec] = None


def _pool_unit(
    unit: WorkUnit,
) -> Tuple[
    WorkUnit, Optional["SimulationResult"], Optional[str], Dict[str, float]
]:
    """Execute one unit inside a pooled worker process."""
    from ..experiments.runner import run_unit

    assert _POOL_SPEC is not None, "pool workers must be forked by execute"
    result, error, timing = run_unit(unit, _POOL_SPEC)
    return unit, result, error, timing


class ProcessPoolExecutor(SweepExecutor):
    """Fan units over a single-host fork pool (bit-identical to serial).

    This is the ``repro.dist`` executor, not
    :class:`concurrent.futures.ProcessPoolExecutor` (which it uses
    underneath, with an explicitly pinned ``fork`` start method).  The
    pool is capped at the CPU count and the number of units: more
    workers than cores only add fork and IPC overhead
    (``BENCH_speed.json`` showed 4 workers on one CPU running slower
    than serial).  A cap of 1, or a platform without ``fork``, runs the
    serial walk instead, and the sweep manifest records the executor
    and worker count that actually ran.
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
        global _POOL_SPEC
        cpus = os.cpu_count() or 1
        workers = min(self.n_workers, cpus, len(units))
        if workers < self.n_workers:
            get_logger("repro.experiments.sweep").info(
                "capping sweep workers",
                requested=self.n_workers,
                effective=workers,
                cpu_count=cpus,
                units=len(units),
            )
        fork = "fork" in multiprocessing.get_all_start_methods()
        if workers > 1 and not fork:
            warnings.warn(
                "a process pool needs the 'fork' start method; running "
                "serially",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
        if workers <= 1:
            SerialExecutor().execute(units, spec, record)
            return {"executor": SerialExecutor.name, "n_workers": 1}
        _POOL_SPEC = spec
        try:
            with futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                remaining = {pool.submit(_pool_unit, unit) for unit in units}
                while remaining:
                    done, remaining = futures.wait(
                        remaining, return_when=futures.FIRST_EXCEPTION
                    )
                    for future in done:
                        # Worker exceptions only escape run_unit under
                        # on_error="raise"; propagate the first one
                        # observed and drop the rest of the sweep, like
                        # the serial walk aborting mid-sweep.
                        try:
                            unit, result, error, timing = future.result()
                        except BaseException:
                            for pending in remaining:
                                pending.cancel()
                            raise
                        record(unit[0], unit[1], result, error, timing)
        finally:
            _POOL_SPEC = None
        return {"n_workers": workers}


#: What ``run_comparison(executor=...)`` accepts: ``None`` (read
#: :data:`ENV_VAR`, serial when unset), ``"serial"``, a worker count, or
#: an executor instance.
ExecutorLike = Union[None, int, str, SweepExecutor]


def resolve_executor(setting: ExecutorLike) -> SweepExecutor:
    """Resolve an ``executor=`` argument to an instance.

    ``None`` reads :data:`ENV_VAR` (unset or empty: serial), which takes
    the same strings as the argument: ``"serial"`` or the decimal
    string of a worker count.  A count ``K >= 1`` is a
    :class:`ProcessPoolExecutor` of ``K`` workers; an instance is used
    as-is.  Anything else raises
    :class:`~repro.errors.ConfigurationError` naming the accepted forms.
    """
    if setting is None:
        setting = os.environ.get(ENV_VAR, "").strip() or "serial"
    if isinstance(setting, SweepExecutor):
        return setting
    count: Optional[int] = None
    if isinstance(setting, str):
        text = setting.strip().lower()
        if text == "serial":
            return SerialExecutor()
        if text.isascii() and text.isdigit():
            count = int(text)
    elif isinstance(setting, int) and not isinstance(setting, bool):
        count = setting
    if count is not None and count >= 1:
        # repro-lint: ignore[RPL008] our executor wrapper, not a raw pool
        return ProcessPoolExecutor(count)
    raise ConfigurationError(
        f"executor must be None, 'serial', a worker count >= 1 (an int, "
        f"or its decimal string in {ENV_VAR}), or a SweepExecutor "
        f"instance; got {setting!r}"
    )

