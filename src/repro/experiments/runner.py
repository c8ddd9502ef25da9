"""Multi-trial experiment runner.

The paper's plots average 15+ simulation trials and show 5%/95%
percentile intervals; every algorithm within a trial shares the same
contact trace and request arrivals (paired comparison).  This module
provides exactly that machinery, independent of which scenario or figure
is being reproduced.

A failing protocol factory or simulation raises out of the sweep: runs
are deterministic, so a re-attempt could only fail the same way.
Around that core:

* *resume* — with ``run_cache`` every completed run is stored by
  content key (atomically and durably, see :mod:`repro.simcache`), so
  an interrupted sweep resumes by running it again with the same
  ``run_cache`` root: finished runs come back as cache hits;
* *pluggable executors* — ``executor`` is the one execution selector
  (see :mod:`repro.dist.executors`): the in-process serial walk or a
  fork pool of ``K`` workers (capped at the machine's CPUs).  Every
  backend runs each unit through :func:`run_unit`, per-run seeds come
  from the same :class:`numpy.random.SeedSequence` walk, and completed
  runs return to the parent, so the run cache composes unchanged and
  all backends produce bit-identical statistics;
* *telemetry* — every run yields a :class:`RunTelemetry` record (stage
  timings, outcome) merged into ``ComparisonResult.telemetry``
  in deterministic trial-major order regardless of worker completion
  order; ``progress`` enables a live reporter (structured log lines or
  a user callback) and ``profile_dir`` dumps per-process cProfile
  stats.
"""

from __future__ import annotations

import cProfile
import dataclasses
import os
from dataclasses import dataclass
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

import numpy as np

from ..contacts import ContactTrace
from ..demand import DemandModel, RequestSchedule, generate_requests
from ..durable import PathLike
from ..errors import ConfigurationError
from ..obs.log import get_logger
from ..obs.manifest import environment_provenance
from ..obs.timing import Stopwatch
from ..protocols.base import ReplicationProtocol
from ..sim import SimulationConfig, SimulationResult, simulate
from ..simcache import (
    SimulationRunCache,
    UncacheableRunError,
    resolve_run_cache,
    run_key,
)
from ..types import FloatArray
from .artifacts import TraceRecipe, TraceShape, TrialArtifacts

if TYPE_CHECKING:  # pragma: no cover - typing-only (dist imports us lazily)
    from ..dist.executors import ExecutorLike, SweepSpec, WorkUnit

__all__ = [
    "RequestRecipe",
    "AlgorithmStats",
    "ComparisonResult",
    "RunTelemetry",
    "run_comparison",
    "run_unit",
    "percentile_interval",
]


@dataclass(frozen=True, eq=False)
class RequestRecipe:
    """One sweep trial's request schedule, described by value.

    ``recipe(seed)`` generates the schedule (paper §3.3: Poisson
    arrivals of rate ``d_i·π_{i,n}`` over ``[0, duration]``), so a
    sweep keys a trial's requests by
    :func:`~repro.simcache.fingerprint_request_recipe` — these fields,
    the seed, :data:`repro.demand.REQUEST_CODE_VERSION` and numpy's
    version — and generates them only when a run simulates.  The
    generator's other inputs stay at their defaults, so the fields are
    everything that moves the schedule.  Two recipes are equal, and
    hash equally, when their fields hold the same values.
    """

    demand: DemandModel
    n_clients: int
    duration: float

    def __call__(self, seed: int) -> RequestSchedule:
        # Looked up as a module global per call, so a probe that patches
        # it here sees every generation.
        return generate_requests(
            self.demand, self.n_clients, self.duration, seed=seed
        )

    def _values(self) -> Tuple[Any, ...]:
        return (self.demand.rates.tobytes(), self.n_clients, self.duration)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestRecipe):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


#: What a protocol factory receives for a trial's requests.
RequestSource = Union[RequestSchedule, RequestRecipe]

#: A protocol factory: given the trial's trace shape (its ``n_nodes``
#: and ``duration``) and requests, build a fresh protocol instance.  A
#: sweep over a :class:`~repro.experiments.artifacts.TraceRecipe` passes
#: the recipe, so building a protocol never realizes the trace; any
#: other trace factory passes the realized :class:`ContactTrace`.  A
#: sweep passes every trial's :class:`RequestRecipe`, so building a
#: protocol never generates requests.
ProtocolFactory = Callable[[TraceShape, RequestSource], ReplicationProtocol]

#: Live progress: ``True`` logs through ``repro.obs.log``; a callable
#: receives one dict per completed run (completion order).
ProgressLike = Union[bool, Callable[[Dict[str, Any]], None]]

#: Run-cache selector: ``None`` defers to ``REPRO_SIM_CACHE``, a bool
#: forces it on/off, a path or cache instance enables it at that root.
RunCacheLike = Union[None, bool, str, "os.PathLike[str]", SimulationRunCache]

#: Cache disposition markers carried in the ``_execute_run`` timing dict
#: (floats, since the dict is ``Dict[str, float]``): hit / miss /
#: inputs-not-fingerprintable.
_CACHE_HIT, _CACHE_MISS, _CACHE_UNCACHEABLE = 1.0, 0.0, -1.0


@dataclass(frozen=True)
class RunTelemetry:
    """Stage timings and outcome of one ``(trial, protocol)`` run.

    ``setup_wall_s`` is the trial-input realization cost *paid by this
    run* — the first run of a trial in a given process carries it (and
    the first one that simulates, the cost of realizing a recipe's trace
    or requests), later runs reuse the cached inputs and report 0.
    ``status`` is ``"ok"``, or ``"cached"`` (a run-cache hit, so no
    simulation ran and no timing was observed).

    Timings are host measurements and vary run to run; only the
    *ordering* of telemetry in :attr:`ComparisonResult.telemetry` is
    deterministic (trial-major, protocol in insertion order — the same
    walk that assembles the statistics, independent of worker
    completion order).
    """

    trial: int
    protocol: str
    status: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_wall_s: float = 0.0
    gain_rate: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class _ProgressReporter:
    """Live per-run reporting for a sweep.

    Fires in completion order (what "live" means under a pool); the
    deterministic record is ``ComparisonResult.telemetry``.  With
    ``progress=True`` lines go through the structured logger; a callable
    gets one dict per run with running counts and elapsed time.
    """

    def __init__(self, total: int, progress: ProgressLike) -> None:
        self.total = total
        self.done = 0
        self._callback = progress if callable(progress) else None
        self._logger = (
            get_logger("repro.experiments.sweep")
            if self._callback is None
            else None
        )
        self._timer = Stopwatch()

    def report(self, telemetry: RunTelemetry) -> None:
        self.done += 1
        if self._callback is not None:
            event = {
                "completed": self.done,
                "total": self.total,
                "elapsed_s": self._timer.wall,
            }
            event.update(telemetry.to_dict())
            self._callback(event)
        elif self._logger is not None:
            self._logger.info(
                "run finished",
                run=f"{self.done}/{self.total}",
                trial=telemetry.trial,
                protocol=telemetry.protocol,
                status=telemetry.status,
                wall_s=f"{telemetry.wall_s:.3f}",
                elapsed_s=f"{self._timer.wall:.1f}",
            )

    def finish(self) -> None:
        if self._logger is not None:
            self._logger.info(
                "sweep complete",
                runs=self.total,
                elapsed_s=f"{self._timer.wall:.1f}",
            )


def percentile_interval(
    values: Sequence[float], lower: float = 5.0, upper: float = 95.0
) -> Tuple[float, float]:
    """The paper's 5%/95% confidence band over trial values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError(
            "percentile_interval needs at least one value"
        )
    if np.isnan(arr).all():
        raise ConfigurationError(
            "percentile_interval got all-NaN values; upstream runs "
            "produced no finite gain rates"
        )
    return float(np.percentile(arr, lower)), float(np.percentile(arr, upper))


@dataclass(frozen=True)
class AlgorithmStats:
    """Per-algorithm aggregate over trials."""

    name: str
    gain_rates: FloatArray
    results: Tuple[SimulationResult, ...]

    def __post_init__(self) -> None:
        rates = np.asarray(self.gain_rates, dtype=float)
        if rates.size == 0:
            raise ConfigurationError(
                f"AlgorithmStats({self.name!r}) needs at least one trial "
                "result"
            )
        if np.isnan(rates).all():
            raise ConfigurationError(
                f"AlgorithmStats({self.name!r}) got all-NaN gain rates"
            )
        object.__setattr__(self, "gain_rates", rates)

    @property
    def n_trials(self) -> int:
        return len(self.gain_rates)

    @property
    def mean_gain_rate(self) -> float:
        return float(self.gain_rates.mean())

    @property
    def interval(self) -> Tuple[float, float]:
        return percentile_interval(self.gain_rates)


@dataclass(frozen=True)
class ComparisonResult:
    """All algorithms' stats plus normalized losses vs. the baseline."""

    stats: Dict[str, AlgorithmStats]
    baseline: str
    n_trials: int = 0
    #: One record per ``(trial, protocol)`` run, trial-major order (the
    #: same deterministic walk as the statistics, regardless of worker
    #: completion order).  Values are host timings — metadata only.
    telemetry: Tuple[RunTelemetry, ...] = ()
    #: Sweep-level provenance (config fingerprint, seed walk identity,
    #: environment, total timings, run-cache hit/miss counts).
    manifest: Optional[Dict[str, Any]] = None

    @property
    def n_failures(self) -> int:
        # A failed run raises out of the sweep; kept for callers that
        # count failed units.
        return 0

    def normalized_loss(self, name: str) -> float:
        """The paper's ``(U - U_opt) / |U_opt|`` in percent (<= 0 usually)."""
        if self.baseline not in self.stats or name not in self.stats:
            return float("nan")
        reference = self.stats[self.baseline].mean_gain_rate
        if reference == 0:
            return float("nan")
        value = self.stats[name].mean_gain_rate
        return 100.0 * (value - reference) / abs(reference)

    def losses(self) -> Dict[str, float]:
        return {name: self.normalized_loss(name) for name in self.stats}

    def render(self, title: Optional[str] = None) -> str:
        """An aligned text table: mean gain rate, 5/95% band, loss."""
        from .reporting import render_table

        ranked = sorted(
            self.stats.values(),
            key=lambda s: s.mean_gain_rate,
            reverse=True,
        )
        rows = []
        for stats in ranked:
            lo, hi = stats.interval
            rows.append(
                [
                    stats.name,
                    f"{stats.mean_gain_rate:.4f}",
                    f"[{lo:.4f}, {hi:.4f}]",
                    f"{self.normalized_loss(stats.name):+.2f}%",
                ]
            )
        return render_table(
            ["algorithm", "utility/min", "5-95%", "vs " + self.baseline],
            rows,
            title=title,
        )


def _derive_trial_seeds(
    base_seed: int, n_trials: int
) -> List[Tuple[int, int, int]]:
    """The per-trial (trace, request, sim) seed triples.

    Seeds are drawn unconditionally for every trial — and identically in
    the serial, parallel, and resumed paths — so all of them walk the
    exact same :class:`numpy.random.SeedSequence` child stream.
    """
    seed_seq = np.random.SeedSequence(base_seed)
    return [
        tuple(int(s.generate_state(1)[0]) for s in seed_seq.spawn(3))
        for _ in range(n_trials)
    ]


def _execute_run(
    factory: ProtocolFactory,
    inputs: TrialArtifacts,
    config: SimulationConfig,
    *,
    cache: Optional[SimulationRunCache] = None,
) -> Tuple[SimulationResult, Dict[str, float]]:
    """One (trial, protocol) run; a failing factory or simulation raises.

    Returns ``(result, timing)``.  *timing* reports the simulate stage's
    wall/CPU seconds (0 for a cache hit); with a *cache* it also
    carries a ``"cache"`` marker (hit / miss / uncacheable).

    With a run cache, a content-key hit returns the stored result and
    no simulation happens; a completed miss is stored for next time.
    Runs whose inputs cannot be fingerprinted execute uncached.

    The run uses the trial's shared artifacts: the cache key reuses
    their memoized fingerprints instead of re-hashing per protocol (a
    trace or request recipe's needs nothing realized), and the simulation
    reuses the trial's prebuilt event stream instead of re-merging —
    both substitutions are byte-identical.  The protocol instance built
    to fingerprint the cache key is the one simulated.
    """
    cache_key: Optional[str] = None
    cache_marker: Optional[float] = None
    protocol: Optional[ReplicationProtocol] = None
    if cache is not None:
        protocol = factory(inputs.shape, inputs.request_source)
        try:
            cache_key = run_key(
                config,
                protocol,
                inputs.sim_seed,
                None,
                None,
                config_fingerprint=inputs.config_fingerprint(config),
                trace_fingerprint=inputs.trace_fingerprint(),
                requests_fingerprint=inputs.requests_fingerprint(),
            )
            cache_marker = _CACHE_MISS
        except UncacheableRunError as error:
            cache_marker = _CACHE_UNCACHEABLE
            get_logger("repro.simcache").debug(
                "run not cacheable", error=str(error)
            )
        if cache_key is not None:
            cached = cache.get(cache_key)
            if cached is not None:
                hit_timing = {
                    "wall_s": 0.0,
                    "cpu_s": 0.0,
                    "cache": _CACHE_HIT,
                }
                return cached, hit_timing
    # Realized here, as trial setup, so its time is this run's setup,
    # not its wall.
    setup = Stopwatch()
    trace, requests = inputs.trace, inputs.requests
    setup.stop()
    timer = Stopwatch()
    if protocol is None:
        protocol = factory(inputs.shape, inputs.request_source)
    result = simulate(
        trace,
        requests,
        config,
        protocol,
        seed=inputs.sim_seed,
        prebuilt_events=inputs.event_stream(config),
    )
    timer.stop()
    timing: Dict[str, float] = {
        "wall_s": timer.wall,
        "cpu_s": timer.cpu,
        "setup_wall_s": setup.wall,
    }
    if cache_marker is not None:
        timing["cache"] = cache_marker
    if cache is not None and cache_key is not None:
        cache.put(cache_key, result)
    return result, timing


def _count_cache_marker(
    counts: Dict[str, int], marker: Optional[float]
) -> None:
    """Accumulate one unit's cache disposition into the sweep counters."""
    if marker is None:
        return
    if marker == _CACHE_HIT:
        counts["hits"] += 1
    elif marker == _CACHE_MISS:
        counts["misses"] += 1
    else:
        counts["uncacheable"] += 1


#: Per-process cumulative profiler (lazily created when profiling is
#: requested); shared across all units a process executes so one
#: ``.pstats`` file per process accumulates its whole share of the sweep.
_PROCESS_PROFILER: Optional[cProfile.Profile] = None


def _process_profiler(
    profile_dir: Optional[str],
) -> Optional[cProfile.Profile]:
    global _PROCESS_PROFILER
    if profile_dir is None:
        return None
    if _PROCESS_PROFILER is None:
        _PROCESS_PROFILER = cProfile.Profile()
    return _PROCESS_PROFILER


def _trial_artifacts(
    spec: "SweepSpec", unit: "WorkUnit"
) -> Tuple[TrialArtifacts, float]:
    """The unit's trial artifacts, and the wall time spent building them.

    Only the latest trial's artifacts are kept (on *spec*, so they are
    freed with it): units arrive trial-major, so the trial's other
    protocols reuse its trace, requests, memoized
    fingerprints and premerged event stream, and a process never holds
    two trials' streams.  A trace recipe declares the trace's shape,
    so the trace is realized only when a run simulates; any other
    factory realizes it here.  The requests are a :class:`RequestRecipe`
    over that shape, generated only when a run simulates.
    """
    trial, _, trace_seed, request_seed, sim_seed = unit
    if spec.latest_trial is not None and spec.latest_trial[0] == trial:
        return spec.latest_trial[1], 0.0
    spec.latest_trial = None  # release the previous trial's stream first
    timer = Stopwatch()
    recipe = (
        spec.trace_factory
        if isinstance(spec.trace_factory, TraceRecipe)
        else None
    )
    trace: Optional[ContactTrace] = None
    if recipe is None:
        trace = spec.trace_factory(trace_seed)
    shape: Optional[TraceShape] = recipe if recipe is not None else trace
    assert shape is not None
    request_recipe = RequestRecipe(
        spec.demand,
        shape.n_nodes if spec.n_clients is None else spec.n_clients,
        shape.duration,
    )
    artifacts = TrialArtifacts(
        trace,
        None,
        sim_seed,
        recipe=recipe,
        trace_seed=trace_seed,
        request_recipe=request_recipe,
        request_seed=request_seed,
    )
    timer.stop()
    spec.latest_trial = (trial, artifacts)
    return artifacts, timer.wall


def run_unit(
    unit: "WorkUnit", spec: "SweepSpec", *, profile_as: str = "worker"
) -> Tuple[SimulationResult, Dict[str, float]]:
    """Execute one ``(trial, protocol)`` work unit of *spec*'s sweep.

    Every executor runs its units through here.  The trial's shared
    inputs are built once per trial and process; the unit that builds them
    reports the cost as ``timing["setup_wall_s"]`` (so does the first
    unit that realizes a recipe's trace or requests), later units 0.
    With ``spec.profile_dir`` the run is added to the process's
    cProfile, dumped to ``<profile_as>-<pid>.pstats`` after every unit
    so a crashed worker still leaves its latest snapshot behind.
    Returns :func:`_execute_run`'s ``(result, timing)``.
    """
    inputs, setup_wall = _trial_artifacts(spec, unit)
    profiler = _process_profiler(spec.profile_dir)
    if profiler is not None:
        profiler.enable()
    try:
        result, timing = _execute_run(
            spec.protocols[unit[1]],
            inputs,
            spec.config,
            cache=spec.cache,
        )
    finally:
        if profiler is not None:
            profiler.disable()
            assert spec.profile_dir is not None
            profiler.dump_stats(
                os.path.join(
                    spec.profile_dir, f"{profile_as}-{os.getpid()}.pstats"
                )
            )
    timing["setup_wall_s"] = setup_wall + timing.get("setup_wall_s", 0.0)
    return result, timing


class _SweepAccounting:
    """Per-unit bookkeeping shared by every executor.

    Executors report each finished unit through :meth:`record`; the
    parent owns the outcome maps, live progress and the cache hit/miss
    counters — so all of those behave identically whichever backend ran
    the unit.
    """

    def __init__(
        self,
        *,
        reporter: Optional[_ProgressReporter],
        cache_counts: Dict[str, int],
    ) -> None:
        self.results_map: Dict[Tuple[int, str], SimulationResult] = {}
        self.telemetry_map: Dict[Tuple[int, str], RunTelemetry] = {}
        self.reporter = reporter
        self.cache_counts = cache_counts

    def record(
        self,
        trial: int,
        name: str,
        result: SimulationResult,
        timing: Dict[str, float],
    ) -> None:
        """One finished ``(trial, protocol)`` unit."""
        marker = timing.get("cache")
        _count_cache_marker(self.cache_counts, marker)
        telemetry = RunTelemetry(
            trial=trial,
            protocol=name,
            # "cached" marks a run-cache hit: no simulation was performed.
            status="cached" if marker == _CACHE_HIT else "ok",
            wall_s=timing.get("wall_s", 0.0),
            cpu_s=timing.get("cpu_s", 0.0),
            setup_wall_s=timing.get("setup_wall_s", 0.0),
            gain_rate=result.gain_rate,
        )
        self.telemetry_map[(trial, name)] = telemetry
        if self.reporter is not None:
            self.reporter.report(telemetry)
        self.results_map[(trial, name)] = result


def run_comparison(
    *,
    trace_factory: Callable[[int], ContactTrace],
    demand: DemandModel,
    config: SimulationConfig,
    protocols: Dict[str, ProtocolFactory],
    n_trials: int,
    base_seed: int = 0,
    baseline: str = "OPT",
    n_clients: Optional[int] = None,
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
) -> ComparisonResult:
    """Run every protocol on *n_trials* shared trace/request realizations.

    Parameters
    ----------
    trace_factory:
        Maps a trial seed to a contact trace.  A
        :class:`~repro.experiments.artifacts.TraceRecipe` (what the
        scenario builders return) keys each trial's trace by the recipe
        and seed and realizes it only when a run simulates; any other
        callable is realized per trial and keyed by the trace content.
    protocols:
        Display name -> factory; the factory receives the trial's trace
        shape and request recipe (see :data:`ProtocolFactory`), so
        per-trial baselines can be sized to the trial.
    n_clients:
        How many nodes issue requests (ids ``0..n_clients-1``); ``None``
        means every node of the trial's trace.
    baseline:
        The protocol whose mean gain rate anchors normalized losses.
    progress:
        ``True`` logs one structured line per completed run (and a
        final summary) through ``repro.obs.log``; a callable receives a
        dict per run with running counts, elapsed time, and the run's
        :class:`RunTelemetry` fields.  Reporting fires in completion
        order; the deterministic record is the returned ``telemetry``.
    profile_dir:
        When given, each executing process accumulates a cProfile of
        its simulate stages and dumps ``worker-<pid>.pstats`` (or
        ``serial-<pid>.pstats``) there after every unit.  Inspect with
        ``python -m pstats``.
    run_cache:
        Content-addressed result reuse (see :mod:`repro.simcache`).
        ``None`` defers to the ``REPRO_SIM_CACHE`` environment variable
        (unset disables); ``True``/``False`` force it on/off; a path or
        :class:`~repro.simcache.SimulationRunCache` enables it at that
        root.  Cache hits return the stored result without simulating,
        are reported with ``status="cached"``, and hit/miss counters
        land in the sweep manifest under ``"run_cache"``.  Every
        completed run is stored as it finishes, so an interrupted sweep
        resumes by running it again with the same ``run_cache`` root —
        with statistics bit-identical to an uninterrupted sweep.
    executor:
        Which backend runs the ``(trial, protocol)`` units (see
        :mod:`repro.dist.executors`): ``None`` (default) reads the
        ``REPRO_SWEEP_EXECUTOR`` environment variable and runs serially
        when it is unset; ``"serial"`` is the in-process walk; a worker
        count ``K`` (or its decimal string in the variable) is a
        ``fork`` pool, capped at the CPU count and the number of units,
        that runs serially when the cap is 1 or ``fork`` is missing; a
        :class:`~repro.dist.SweepExecutor` instance is used as-is.
        Per-run seeds come from one seed walk, so every backend
        produces bit-identical statistics.  A pool propagates the first
        *observed* failure, which is not necessarily the earliest
        failing trial.
    """
    if n_trials <= 0:
        raise ConfigurationError(f"n_trials must be > 0, got {n_trials}")
    if n_clients is not None and n_clients < 1:
        raise ConfigurationError(
            f"n_clients must be >= 1 (None for every node), got {n_clients}"
        )
    if baseline not in protocols:
        raise ConfigurationError(
            f"baseline {baseline!r} missing from protocols {sorted(protocols)}"
        )
    profile_path: Optional[str] = None
    if profile_dir is not None:
        profile_path = os.fspath(profile_dir)
        os.makedirs(profile_path, exist_ok=True)
    cache = resolve_run_cache(run_cache)
    cache_counts: Dict[str, int] = {"hits": 0, "misses": 0, "uncacheable": 0}
    sweep_timer = Stopwatch()
    trial_seeds = _derive_trial_seeds(base_seed, n_trials)

    # The dist import happens lazily: repro.dist builds on this module,
    # and by execution time this module is fully initialized.
    from ..dist import executors as dist_executors

    executor_obj = dist_executors.resolve_executor(executor)
    units: List["WorkUnit"] = [
        (trial, name, *trial_seeds[trial])
        for trial in range(n_trials)
        for name in protocols
    ]
    reporter = _ProgressReporter(len(units), progress) if progress else None
    #: (trial, protocol) -> completed result / telemetry, assembled
    #: into trial-major order at the end (identical to the serial walk)
    #: by the executor-agnostic accounting.
    accounting = _SweepAccounting(
        reporter=reporter, cache_counts=cache_counts
    )

    spec = dist_executors.SweepSpec(
        trace_factory=trace_factory,
        demand=demand,
        config=config,
        protocols=dict(protocols),
        n_clients=n_clients,
        profile_dir=profile_path,
        cache=cache,
    )
    executor_extras = executor_obj.execute(units, spec, accounting.record)

    results_map = accounting.results_map
    telemetry_map = accounting.telemetry_map
    collected: Dict[str, List[SimulationResult]] = {
        name: [] for name in protocols
    }
    telemetry_records: List[RunTelemetry] = []
    for trial in range(n_trials):
        for name in protocols:
            key = (trial, name)
            telemetry_records.append(telemetry_map[key])
            collected[name].append(results_map[key])
    if reporter is not None:
        reporter.finish()
    stats = {
        name: AlgorithmStats(
            name=name,
            gain_rates=np.array([r.gain_rate for r in results]),
            results=tuple(results),
        )
        for name, results in collected.items()
    }
    sweep_timer.stop()
    sweep_manifest: Dict[str, Any] = {
        "config_fingerprint": config.fingerprint(),
        "base_seed": base_seed,
        "n_trials": n_trials,
        "protocols": sorted(protocols),
        "executor": executor_obj.name or type(executor_obj).__name__,
        "n_workers": getattr(executor_obj, "n_workers", 1),
        "n_runs_executed": len(units),
        "wall_s": sweep_timer.wall,
        "cpu_s": sweep_timer.cpu,
        "environment": environment_provenance(),
    }
    if cache is not None:
        sweep_manifest["run_cache"] = {
            "root": cache.root,
            "hits": cache_counts["hits"],
            "misses": cache_counts["misses"],
            "uncacheable": cache_counts["uncacheable"],
        }
    if executor_extras:
        sweep_manifest.update(executor_extras)
    return ComparisonResult(
        stats=stats,
        baseline=baseline,
        n_trials=n_trials,
        telemetry=tuple(telemetry_records),
        manifest=sweep_manifest,
    )
