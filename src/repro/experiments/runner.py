"""Multi-trial experiment runner.

The paper's plots average 15+ simulation trials and show 5%/95%
percentile intervals; every algorithm within a trial shares the same
contact trace and request arrivals (paired comparison).  This module
provides exactly that machinery, independent of which scenario or figure
is being reproduced.

Robustness features (all opt-in, defaults preserve the original
behavior):

* *fault injection* — a :class:`~repro.faults.FaultSchedule` (or a
  per-trial factory) shared by every protocol in a trial, so paired
  comparisons stay paired under churn;
* *per-trial fault isolation* — ``on_error`` decides what a failing
  protocol factory or simulation does to the sweep: ``"raise"``
  (propagate, the historical behavior), ``"skip"`` (record the failure
  and keep going), or ``"retry"`` (re-attempt up to
  :data:`MAX_RETRIES` times with capped exponential backoff, then
  skip);
* *partial results* — :class:`ComparisonResult` reports per-run
  :class:`TrialFailure` records alongside the statistics of whatever
  succeeded;
* *resume* — with ``run_cache`` every completed run is stored by
  content key (atomically and durably, see :mod:`repro.simcache`), so
  an interrupted sweep resumes by running it again with the same
  ``run_cache`` root: finished runs come back as cache hits;
* *pluggable executors* — ``executor`` is the one execution selector
  (see :mod:`repro.dist.executors`): the in-process serial walk or a
  fork pool of ``K`` workers (capped at the machine's CPUs).  Every
  backend runs each unit through :func:`run_unit`, per-run seeds come
  from the same :class:`numpy.random.SeedSequence` walk, and completed
  runs return to the parent, so the run cache and the ``on_error``
  policies compose unchanged and all backends produce bit-identical
  statistics;
* *telemetry* — every run yields a :class:`RunTelemetry` record (stage
  timings, attempts, outcome) merged into ``ComparisonResult.telemetry``
  in deterministic trial-major order regardless of worker completion
  order; ``progress`` enables a live reporter (structured log lines or
  a user callback) and ``profile_dir`` dumps per-process cProfile
  stats.
"""

from __future__ import annotations

import cProfile
import dataclasses
import os
import time
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
from ..durable import PathLike, truncate_error_text
from ..errors import ConfigurationError, SimulationError
from ..faults import FaultSchedule
from ..obs.log import get_logger
from ..obs import metrics as obs_metrics
from ..obs.manifest import environment_provenance
from ..obs.timing import Stopwatch
from ..protocols.base import ReplicationProtocol
from ..sim import SimulationConfig, SimulationResult, simulate
from ..simcache import (
    SimulationRunCache,
    UncacheableRunError,
    fingerprint_trace,
    resolve_run_cache,
    run_key,
)
from ..types import FloatArray
from .artifacts import TrialArtifacts, load_spilled_trace, spill_trial_trace

if TYPE_CHECKING:  # pragma: no cover - typing-only (dist imports us lazily)
    from ..dist.executors import ExecutorLike, SweepSpec, WorkUnit

__all__ = [
    "TrialFailure",
    "AlgorithmStats",
    "ComparisonResult",
    "RunTelemetry",
    "run_comparison",
    "run_unit",
    "percentile_interval",
]

#: A protocol factory: given the trial's trace and request schedule,
#: build a fresh protocol instance (heterogeneous OPT needs the trace).
ProtocolFactory = Callable[[ContactTrace, RequestSchedule], ReplicationProtocol]

#: Faults for a sweep: one shared schedule, or a per-trial factory.
FaultsLike = Union[FaultSchedule, Callable[[int], FaultSchedule]]

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

#: ``on_error="retry"`` re-attempts a failed run this many times, the
#: first retry after :data:`RETRY_BACKOFF_S` seconds, doubling per
#: attempt up to :data:`MAX_BACKOFF_S`.
MAX_RETRIES = 2
RETRY_BACKOFF_S = 0.1
MAX_BACKOFF_S = 5.0


@dataclass(frozen=True)
class RunTelemetry:
    """Stage timings and outcome of one ``(trial, protocol)`` run.

    ``setup_wall_s`` is the trial-input realization cost *paid by this
    run* — the first run of a trial in a given process carries it, later
    runs reuse the cached inputs and report 0.  ``status`` is ``"ok"``,
    ``"failed"`` (all attempts exhausted), or ``"cached"`` (a run-cache
    hit, so no simulation ran and no timing was observed).

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
    attempts: int = 0
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

    def finish(self, n_failures: int) -> None:
        if self._logger is not None:
            self._logger.info(
                "sweep complete",
                runs=self.total,
                failures=n_failures,
                elapsed_s=f"{self._timer.wall:.1f}",
            )


@dataclass(frozen=True)
class TrialFailure:
    """One ``(trial, protocol)`` run that failed after all attempts."""

    trial: int
    protocol: str
    error: str
    attempts: int


def percentile_interval(
    values: Sequence[float], lower: float = 5.0, upper: float = 95.0
) -> Tuple[float, float]:
    """The paper's 5%/95% confidence band over trial values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError(
            "percentile_interval needs at least one value (every trial "
            "failed or was filtered out?)"
        )
    if np.isnan(arr).all():
        raise ConfigurationError(
            "percentile_interval got all-NaN values; upstream runs "
            "produced no finite gain rates"
        )
    return float(np.percentile(arr, lower)), float(np.percentile(arr, upper))


@dataclass(frozen=True)
class AlgorithmStats:
    """Per-algorithm aggregate over (successful) trials."""

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
    """All algorithms' stats plus normalized losses vs. the baseline.

    ``failures`` lists every ``(trial, protocol)`` run that did not
    complete (only possible with ``on_error="skip"``/``"retry"``);
    algorithms whose runs *all* failed are absent from ``stats``.
    """

    stats: Dict[str, AlgorithmStats]
    baseline: str
    failures: Tuple[TrialFailure, ...] = ()
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
        return len(self.failures)

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
        table = render_table(
            ["algorithm", "utility/min", "5-95%", "vs " + self.baseline],
            rows,
            title=title,
        )
        if not self.failures:
            return table
        lines = [table, "", f"failed runs ({self.n_failures}):"]
        lines.extend(
            f"  trial {f.trial} {f.protocol}: {f.error} "
            f"({f.attempts} attempt{'s' if f.attempts != 1 else ''})"
            for f in self.failures
        )
        return "\n".join(lines)


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
    attempts_per_run: int,
    on_error: str,
    cache: Optional[SimulationRunCache] = None,
) -> Tuple[Optional[SimulationResult], Optional[str], Dict[str, float]]:
    """One (trial, protocol) run with the retry/skip policy applied.

    Returns ``(result, None, timing)`` on success and ``(None, error
    string, timing)`` after all attempts failed; with
    ``on_error="raise"`` the first failure propagates.  *timing* reports
    the simulate stage's wall/CPU seconds (backoff sleeps excluded) and
    the number of attempts actually made; with a *cache* it also
    carries a ``"cache"`` marker (hit / miss / uncacheable).

    With a run cache, a content-key hit returns the stored result with
    zero attempts — no simulation happens; a completed miss is stored
    for next time.  Runs whose inputs cannot be fingerprinted execute
    uncached.

    The run uses the trial's shared artifacts: the cache key reuses
    their memoized content fingerprints instead of re-hashing the
    arrays per protocol, and the simulation reuses the trial's prebuilt
    event stream (built from ``inputs.faults``) instead of re-merging —
    both substitutions are byte-identical.  The protocol instance built
    to fingerprint the cache key is reused for the first simulation
    attempt rather than discarded and rebuilt (it is factory-fresh
    either way; retries still rebuild).
    """
    cache_key: Optional[str] = None
    cache_marker: Optional[float] = None
    probe: Optional[ReplicationProtocol] = None
    if cache is not None:
        try:
            probe = factory(inputs.trace, inputs.requests)
        # repro-lint: ignore[RPL007]
        except Exception:
            # A failing factory is the attempt loop's business (retry
            # policy, error accounting) — never the cache's: the same
            # error re-raises from the attempt loop below.
            probe = None
        if probe is not None:
            try:
                cache_key = run_key(
                    config,
                    probe,
                    inputs.sim_seed,
                    inputs.trace,
                    inputs.requests,
                    inputs.faults,
                    trace_fingerprint=inputs.trace_fingerprint(),
                    requests_fingerprint=inputs.requests_fingerprint(),
                    faults_fingerprint=inputs.faults_fingerprint(),
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
                    "attempts": 0.0,
                    "cache": _CACHE_HIT,
                }
                return cached, None, hit_timing
    result: Optional[SimulationResult] = None
    last_error: Optional[BaseException] = None
    wall_s = 0.0
    cpu_s = 0.0
    attempts_made = 0
    for attempt in range(attempts_per_run):
        if attempt:
            delay = min(
                RETRY_BACKOFF_S * (2.0 ** (attempt - 1)), MAX_BACKOFF_S
            )
            if delay > 0:
                time.sleep(delay)
        attempts_made = attempt + 1
        timer = Stopwatch()
        try:
            # The cache probe is a factory-fresh, never-run protocol —
            # reuse it for the first attempt instead of building an
            # identical twin.  Retries rebuild: a failed attempt may
            # have mutated protocol state.
            if attempt == 0 and probe is not None:
                protocol = probe
            else:
                protocol = factory(inputs.trace, inputs.requests)
            result = simulate(
                inputs.trace,
                inputs.requests,
                config,
                protocol,
                seed=inputs.sim_seed,
                faults=inputs.faults,
                prebuilt_events=inputs.event_stream(config),
            )
            timer.stop()
            wall_s += timer.wall
            cpu_s += timer.cpu
            break
        except Exception as error:
            timer.stop()
            wall_s += timer.wall
            cpu_s += timer.cpu
            if on_error == "raise":
                raise
            last_error = error
    timing: Dict[str, float] = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "attempts": attempts_made,
    }
    if cache_marker is not None:
        timing["cache"] = cache_marker
    if result is not None:
        if cache is not None and cache_key is not None:
            cache.put(cache_key, result)
        return result, None, timing
    error_text = f"{type(last_error).__name__}: {last_error}"
    return None, error_text, timing


def _run_status(
    result: Optional[SimulationResult], timing: Dict[str, float]
) -> str:
    """Telemetry status of one executed unit.

    ``"cached"`` marks a run-cache hit: no simulation was performed.
    """
    if result is None:
        return "failed"
    if timing.get("cache") == _CACHE_HIT:
        return "cached"
    return "ok"


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
    protocols reuse its trace, requests, fault schedule, memoized
    fingerprints and premerged event stream, and a process never holds
    two trials' streams.  A spilled trial memory-maps the parent's
    ``.ctb`` copy (with its travelling fingerprint) instead of
    regenerating the trace; any other trial regenerates from its seed.
    """
    trial, _, trace_seed, request_seed, sim_seed = unit
    if spec.latest_trial is not None and spec.latest_trial[0] == trial:
        return spec.latest_trial[1], 0.0
    spec.latest_trial = None  # release the previous trial's stream first
    timer = Stopwatch()
    faults = spec.faults(trial) if callable(spec.faults) else spec.faults
    spill_path = spec.trial_spills.get(trial)
    trace_fingerprint: Optional[str] = None
    if spill_path is not None:
        trace, trace_fingerprint = load_spilled_trace(spill_path)
    else:
        trace = spec.trace_factory(trace_seed)
    requests = generate_requests(
        spec.demand,
        spec.n_clients or trace.n_nodes,
        trace.duration,
        seed=request_seed,
    )
    artifacts = TrialArtifacts(
        trace,
        requests,
        sim_seed,
        faults=faults,
        trace_fingerprint=trace_fingerprint,
    )
    timer.stop()
    spec.latest_trial = (trial, artifacts)
    return artifacts, timer.wall


def run_unit(
    unit: "WorkUnit", spec: "SweepSpec", *, profile_as: str = "worker"
) -> Tuple[Optional[SimulationResult], Optional[str], Dict[str, float]]:
    """Execute one ``(trial, protocol)`` work unit of *spec*'s sweep.

    Every executor runs its units through here.  The trial's shared
    inputs are built once per trial and process (a per-trial fault
    factory is called once per trial); the unit that builds them
    reports the cost as ``timing["setup_wall_s"]``, later units 0.
    With ``spec.profile_dir`` the run is added to the process's
    cProfile, dumped to ``<profile_as>-<pid>.pstats`` after every unit
    so a crashed worker still leaves its latest snapshot behind.
    Returns :func:`_execute_run`'s ``(result, error, timing)``.
    """
    inputs, setup_wall = _trial_artifacts(spec, unit)
    profiler = _process_profiler(spec.profile_dir)
    if profiler is not None:
        profiler.enable()
    try:
        result, error, timing = _execute_run(
            spec.protocols[unit[1]],
            inputs,
            spec.config,
            attempts_per_run=spec.attempts_per_run,
            on_error=spec.on_error,
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
    timing["setup_wall_s"] = setup_wall
    return result, error, timing


class _SweepAccounting:
    """Per-unit bookkeeping shared by every executor.

    Executors report each finished unit through :meth:`record`; the
    parent owns the outcome maps, live progress, the cache hit/miss
    counters, and the failure-text byte bound — so all of those behave
    identically whichever backend ran the unit.
    """

    def __init__(
        self,
        *,
        reporter: Optional[_ProgressReporter],
        cache_counts: Dict[str, int],
        attempts_per_run: int,
    ) -> None:
        self.results_map: Dict[Tuple[int, str], SimulationResult] = {}
        self.failures_map: Dict[Tuple[int, str], TrialFailure] = {}
        self.telemetry_map: Dict[Tuple[int, str], RunTelemetry] = {}
        self.reporter = reporter
        self.cache_counts = cache_counts
        self.attempts_per_run = attempts_per_run

    def record(
        self,
        trial: int,
        name: str,
        result: Optional[SimulationResult],
        error: Optional[str],
        timing: Dict[str, float],
    ) -> None:
        """One finished ``(trial, protocol)`` unit, success or failure."""
        _count_cache_marker(self.cache_counts, timing.get("cache"))
        telemetry = RunTelemetry(
            trial=trial,
            protocol=name,
            status=_run_status(result, timing),
            wall_s=timing.get("wall_s", 0.0),
            cpu_s=timing.get("cpu_s", 0.0),
            setup_wall_s=timing.get("setup_wall_s", 0.0),
            attempts=int(timing.get("attempts", 0)),
            gain_rate=result.gain_rate if result is not None else None,
        )
        self.telemetry_map[(trial, name)] = telemetry
        if self.reporter is not None:
            self.reporter.report(telemetry)
        if result is None:
            self.failures_map[(trial, name)] = TrialFailure(
                trial=trial,
                protocol=name,
                error=truncate_error_text(error or "unknown error"),
                attempts=self.attempts_per_run,
            )
            return
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
    faults: Optional[FaultsLike] = None,
    on_error: str = "raise",
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
    trial_spill_dir: Optional[PathLike] = None,
) -> ComparisonResult:
    """Run every protocol on *n_trials* shared trace/request realizations.

    Parameters
    ----------
    trace_factory:
        Maps a trial seed to a contact trace (synthetic generators close
        over their configuration here).
    protocols:
        Display name -> factory; the factory receives the trial's trace
        and requests so trace-dependent baselines (heterogeneous OPT) can
        be built per trial.
    baseline:
        The protocol whose mean gain rate anchors normalized losses.
    faults:
        Optional fault injection: a :class:`~repro.faults.FaultSchedule`
        applied to every trial, or a callable ``trial -> FaultSchedule``
        for per-trial variation.  Every protocol within a trial sees the
        same faults (the comparison stays paired).
    on_error:
        ``"raise"`` propagates the first failure (historical behavior);
        ``"skip"`` records it and continues; ``"retry"`` re-attempts up
        to :data:`MAX_RETRIES` times with exponential backoff
        (:data:`RETRY_BACKOFF_S` doubling per attempt, capped at
        :data:`MAX_BACKOFF_S`), then records the failure and continues.
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
        produces bit-identical statistics.  With ``on_error="raise"`` a
        pool propagates the first *observed* failure, which is not
        necessarily the earliest failing trial.
    trial_spill_dir:
        Zero-copy trial handoff for parallel sweeps:
        the parent realizes each pending trial's trace once, spills it
        to ``<dir>/trial-<k>.ctb``, and workers memory-map that copy
        (sharing the page cache) instead of each regenerating it from
        the trial seed.  With a run cache the trace fingerprint is
        computed once at spill time and travels in the spill header,
        so workers never re-hash.  Spilled traces take the engine's
        streamed mode — bit-identical to eager.  The directory is
        created if needed; files are left behind for inspection and
        reuse.  Ignored by the plain serial path, which realizes each
        trial exactly once anyway.
    """
    if n_trials <= 0:
        raise ConfigurationError(f"n_trials must be > 0, got {n_trials}")
    if baseline not in protocols:
        raise ConfigurationError(
            f"baseline {baseline!r} missing from protocols {sorted(protocols)}"
        )
    if on_error not in ("raise", "skip", "retry"):
        raise ConfigurationError(
            f"on_error must be 'raise', 'skip', or 'retry', got {on_error!r}"
        )
    profile_path: Optional[str] = None
    if profile_dir is not None:
        profile_path = os.fspath(profile_dir)
        os.makedirs(profile_path, exist_ok=True)
    cache = resolve_run_cache(run_cache)
    cache_counts: Dict[str, int] = {"hits": 0, "misses": 0, "uncacheable": 0}
    sweep_timer = Stopwatch()
    attempts_per_run = 1 + (MAX_RETRIES if on_error == "retry" else 0)
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
    #: (trial, protocol) -> completed result / failure / telemetry,
    #: assembled into trial-major order at the end (identical to the
    #: serial walk) by the executor-agnostic accounting.
    accounting = _SweepAccounting(
        reporter=reporter,
        cache_counts=cache_counts,
        attempts_per_run=attempts_per_run,
    )

    # Zero-copy trial handoff: realize each trial's trace once in the
    # parent, spill it to .ctb, and let every worker memory-map that
    # copy.  The serial walk realizes each trial exactly once anyway,
    # so it skips the spill (and keeps the faster eager mode).
    trial_spills: Dict[int, str] = {}
    if trial_spill_dir is not None and not isinstance(
        executor_obj, dist_executors.SerialExecutor
    ):
        spill_root = os.fspath(trial_spill_dir)
        os.makedirs(spill_root, exist_ok=True)
        spill_timer = Stopwatch()
        for trial in range(n_trials):
            spill_trace = trace_factory(trial_seeds[trial][0])
            trial_spills[trial] = spill_trial_trace(
                spill_trace,
                os.path.join(spill_root, f"trial-{trial}.ctb"),
                trace_fingerprint=(
                    fingerprint_trace(spill_trace)
                    if cache is not None
                    else None
                ),
            )
            del spill_trace
        spill_timer.stop()
        get_logger("repro.experiments.sweep").info(
            "spilled trial traces",
            trials=len(trial_spills),
            dir=spill_root,
            wall_s=f"{spill_timer.wall:.2f}",
        )

    spec = dist_executors.SweepSpec(
        trace_factory=trace_factory,
        demand=demand,
        config=config,
        protocols=dict(protocols),
        n_clients=n_clients,
        faults=faults,
        on_error=on_error,
        attempts_per_run=attempts_per_run,
        profile_dir=profile_path,
        cache=cache,
        trial_spills=trial_spills,
    )
    executor_extras = executor_obj.execute(units, spec, accounting.record)

    results_map = accounting.results_map
    failures_map = accounting.failures_map
    telemetry_map = accounting.telemetry_map
    collected: Dict[str, List[SimulationResult]] = {
        name: [] for name in protocols
    }
    failures: List[TrialFailure] = []
    telemetry_records: List[RunTelemetry] = []
    for trial in range(n_trials):
        for name in protocols:
            key = (trial, name)
            if key in telemetry_map:
                telemetry_records.append(telemetry_map[key])
            if key in results_map:
                collected[name].append(results_map[key])
            elif key in failures_map:
                failures.append(failures_map[key])
    if reporter is not None:
        reporter.finish(len(failures))
    if not any(collected.values()):
        raise SimulationError(
            f"every run failed across {n_trials} trial(s); "
            f"first failure: {failures[0].protocol}: {failures[0].error}"
        )
    stats = {
        name: AlgorithmStats(
            name=name,
            gain_rates=np.array([r.gain_rate for r in results]),
            results=tuple(results),
        )
        for name, results in collected.items()
        if results
    }
    sweep_timer.stop()
    sweep_manifest: Dict[str, Any] = {
        "config_fingerprint": config.fingerprint(),
        "base_seed": base_seed,
        "n_trials": n_trials,
        "protocols": sorted(protocols),
        "executor": executor_obj.name or type(executor_obj).__name__,
        "n_workers": getattr(executor_obj, "n_workers", 1),
        "n_spilled_trials": len(trial_spills),
        "n_runs_executed": len(units),
        "n_failures": len(failures),
        "wall_s": sweep_timer.wall,
        "cpu_s": sweep_timer.cpu,
        "environment": environment_provenance(),
    }
    metrics_reg = obs_metrics.enabled_registry()
    if metrics_reg is not None:
        sweep_manifest["metrics"] = metrics_reg.snapshot()
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
        failures=tuple(failures),
        n_trials=n_trials,
        telemetry=tuple(telemetry_records),
        manifest=sweep_manifest,
    )
