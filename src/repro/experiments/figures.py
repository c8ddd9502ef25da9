"""Regeneration of every figure in the paper.

Each ``figureN`` function reproduces the corresponding plot's data series
and returns a structured result whose ``render()`` prints the same
rows/series the paper reports.  Absolute values differ from the paper
(our substrate is a simulator and synthetic traces — see DESIGN.md §2);
the shapes, orderings, and crossovers are the reproduction targets.

* Figure 1 — the delay-utility families, three panels;
* Figure 2 — the optimal power-law allocation exponent ``1/(2-alpha)``,
  cross-checked against the relaxed solver;
* Figure 3 — QCR with vs. without mandate routing over time (expected
  and observed utility, top-5 replica counts, mandate totals);
* Figure 4 — normalized loss vs. OPT for all algorithms under
  homogeneous contacts (power-``alpha`` and step-``tau`` sweeps);
* Figure 5 — the conference trace: utility over time and loss-vs-``tau``
  on the actual and memoryless-control traces;
* Figure 6 — the vehicular trace: loss sweeps for the power, step, and
  exponential families.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..allocation import (
    homogeneous_welfare,
    power_allocation_exponent,
    solve_relaxed,
)
from ..demand import DemandModel
from ..durable import PathLike
from ..protocols import QCRConfig
from ..sim import SimulationResult
from ..types import FloatArray
from ..utility import (
    DelayUtility,
    ExponentialUtility,
    PowerUtility,
    StepUtility,
    power_family,
)
from ..obs.log import get_logger
from .profiles import EffortProfile, current_profile
from .reporting import render_loss_sweep, render_table
from .runner import ProgressLike, RunCacheLike, run_comparison
from .scenarios import (
    MU,
    RHO,
    Scenario,
    conference_scenario,
    homogeneous_scenario,
    run_scenario,
    standard_protocols,
    vehicular_scenario,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dist.executors import ExecutorLike

__all__ = [
    "SweepPanel",
    "TimeSeriesPanel",
    "Figure1Result",
    "Figure2Result",
    "Figure3Result",
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "recommended_timeout",
]

_STANDARD_SUITE = ("OPT", "QCR", "SQRT", "PROP", "UNI", "DOM")


def recommended_timeout(
    utility: DelayUtility, duration: float
) -> Optional[float]:
    """A request-abandonment horizon matched to the utility's time scale.

    After ten deadlines (step) or twenty mean-decay times (exponential)
    any further wait contributes (essentially) zero gain, so dropping the
    request changes measured utility negligibly while bounding simulator
    state.  Unbounded waiting costs get no timeout.
    """
    if isinstance(utility, StepUtility):
        return min(10.0 * utility.tau, duration)
    if isinstance(utility, ExponentialUtility):
        return min(20.0 / utility.nu, duration)
    return None


# ----------------------------------------------------------------------
# shared series containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPanel:
    """Normalized-loss series over one impatience-parameter sweep."""

    title: str
    x_label: str
    x_values: Tuple[float, ...]
    #: algorithm -> one loss (percent, vs OPT) per x value.
    losses: Dict[str, Tuple[float, ...]]

    def render(self) -> str:
        return render_loss_sweep(
            self.x_label,
            self.x_values,
            {k: list(v) for k, v in self.losses.items()},
            title=self.title,
        )


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Named time series over a common time axis."""

    title: str
    times: FloatArray
    series: Dict[str, FloatArray]

    def render(self, max_rows: int = 25) -> str:
        stride = max(1, len(self.times) // max_rows)
        headers = ["t"] + list(self.series.keys())
        rows = []
        for k in range(0, len(self.times), stride):
            rows.append(
                [f"{self.times[k]:g}"]
                + [f"{self.series[name][k]:.4g}" for name in self.series]
            )
        return render_table(headers, rows, title=self.title)


def _sweep(
    scenario_for: Callable[[float], Scenario],
    x_values: Sequence[float],
    *,
    n_trials: int,
    base_seed: int,
    include: Sequence[str] = _STANDARD_SUITE,
    title: str,
    x_label: str,
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
) -> SweepPanel:
    losses: Dict[str, List[float]] = {name: [] for name in include}
    logger = get_logger("repro.experiments.figures")
    for index, x in enumerate(x_values):
        scenario = scenario_for(x)
        if progress:
            logger.info(
                "sweep point",
                panel=title,
                point=f"{index + 1}/{len(x_values)}",
                **{x_label: f"{x:g}"},
            )
        comparison = run_scenario(
            scenario,
            n_trials=n_trials,
            base_seed=base_seed + index,
            include=include,
            progress=progress,
            profile_dir=profile_dir,
            run_cache=run_cache,
            executor=executor,
        )
        for name in include:
            losses[name].append(comparison.normalized_loss(name))
    return SweepPanel(
        title=title,
        x_label=x_label,
        x_values=tuple(x_values),
        losses={k: tuple(v) for k, v in losses.items()},
    )


# ----------------------------------------------------------------------
# Figure 1 — delay-utility families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure1Result:
    """``h(t)`` curves for the three motivating panels."""

    times: FloatArray
    panels: Dict[str, Dict[str, FloatArray]]

    def render(self) -> str:
        blocks = []
        for panel, curves in self.panels.items():
            headers = ["t"] + list(curves.keys())
            rows = []
            for k in range(len(self.times)):
                rows.append(
                    [f"{self.times[k]:.2f}"]
                    + [f"{curves[name][k]:.4g}" for name in curves]
                )
            blocks.append(render_table(headers, rows, title=f"Figure 1 {panel}"))
        return "\n\n".join(blocks)


def figure1(n_points: int = 11, t_max: float = 5.0) -> Figure1Result:
    """Evaluate the paper's example delay-utilities on ``(0, t_max]``."""
    times = np.linspace(t_max / n_points, t_max, n_points)
    panels = {
        "(a) advertising revenue": {
            "step tau=1": np.asarray(StepUtility(1.0)(times)),
            "exp nu=0.1": np.asarray(ExponentialUtility(0.1)(times)),
            "exp nu=1": np.asarray(ExponentialUtility(1.0)(times)),
        },
        "(b) time-critical information": {
            "power a=2 (excl.)": times ** (1 - 1.999) / (1.999 - 1),
            "power a=1.5": np.asarray(PowerUtility(1.5)(times)),
            "neglog (a=1)": np.asarray(power_family(1.0)(times)),
        },
        "(c) waiting cost": {
            "power a=0.5": np.asarray(PowerUtility(0.5)(times)),
            "power a=0": np.asarray(PowerUtility(0.0)(times)),
            "power a=-1": np.asarray(PowerUtility(-1.0)(times)),
        },
    }
    return Figure1Result(times=times, panels=panels)


# ----------------------------------------------------------------------
# Figure 2 — optimal allocation exponent
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure2Result:
    """Closed-form exponent vs. the exponent fitted on solver output."""

    alphas: FloatArray
    closed_form: FloatArray
    fitted: FloatArray

    def render(self) -> str:
        rows = [
            [f"{a:.2f}", f"{c:.4f}", f"{f:.4f}"]
            for a, c, f in zip(self.alphas, self.closed_form, self.fitted)
        ]
        return render_table(
            ["alpha", "1/(2-alpha)", "fitted exponent"],
            rows,
            title="Figure 2 — optimal allocation x_i ∝ d_i^e",
        )


def figure2(
    alphas: Optional[Sequence[float]] = None,
    *,
    n_items: int = 50,
    n_servers: int = 200,
    rho: int = RHO,
    mu: float = MU,
) -> Figure2Result:
    """Fit the relaxed-optimum power law for each *alpha*.

    A large server count keeps all items off the boundary so the fitted
    log-log slope matches the closed form.
    """
    if alphas is None:
        alphas = np.linspace(-2.0, 1.5, 15)
    alphas = np.asarray(list(alphas), dtype=float)
    demand = DemandModel.pareto(n_items, omega=1.0)
    closed = np.array([power_allocation_exponent(a) for a in alphas])
    fitted = np.empty_like(closed)
    budget = float(rho * n_servers)
    for k, alpha in enumerate(alphas):
        utility = power_family(float(alpha))
        counts = solve_relaxed(
            demand, utility, mu, n_servers, budget
        ).counts
        interior = (counts > 1e-6) & (counts < n_servers - 1e-6)
        logs_d = np.log(demand.rates[interior])
        logs_x = np.log(counts[interior])
        slope = np.polyfit(logs_d, logs_x, 1)[0]
        fitted[k] = slope
    return Figure2Result(alphas=alphas, closed_form=closed, fitted=fitted)


# ----------------------------------------------------------------------
# Figure 3 — mandate routing over time
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure3Result:
    """Time evolution of QCR vs. QCRWOM (and fixed references)."""

    expected_utility: TimeSeriesPanel
    observed_utility: TimeSeriesPanel
    replicas_with_routing: TimeSeriesPanel
    replicas_without_routing: TimeSeriesPanel
    mandate_totals: TimeSeriesPanel

    def render(self) -> str:
        return "\n\n".join(
            panel.render()
            for panel in (
                self.expected_utility,
                self.observed_utility,
                self.replicas_with_routing,
                self.replicas_without_routing,
                self.mandate_totals,
            )
        )


def figure3(
    profile: Optional[EffortProfile] = None,
    *,
    alpha: float = 0.0,
    total_demand: float = 8.0,
    base_seed: int = 303,
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
) -> Figure3Result:
    """Reproduce Figure 3 (homogeneous contacts, power ``alpha = 0``).

    Uses a stronger request load and the undamped Table-1 reaction scale
    so the replication dynamics — and QCRWOM's stranded-mandate
    divergence — are clearly visible within the horizon.
    """
    profile = profile or current_profile()
    utility = power_family(alpha)
    scenario = homogeneous_scenario(
        utility,
        duration=profile.duration,
        total_demand=total_demand,
        record_interval=profile.duration / 40,
    )
    protocols = standard_protocols(
        scenario,
        include=("OPT", "QCR", "QCRWOM", "UNI", "DOM"),
        qcr_config=QCRConfig(psi_scale=0.3),
    )
    comparison = run_comparison(
        trace_factory=scenario.trace_factory,
        demand=scenario.demand,
        config=scenario.config,
        protocols=protocols,
        n_trials=profile.n_trials,
        base_seed=base_seed,
        baseline="OPT",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )

    def first(name: str) -> SimulationResult:
        return comparison.stats[name].results[0]

    times = first("QCR").snapshot_times

    def expected_series(name: str) -> FloatArray:
        values = np.zeros(len(times))
        for result in comparison.stats[name].results:
            values += np.array(
                [
                    homogeneous_welfare(
                        counts,
                        scenario.demand,
                        utility,
                        scenario.mu_estimate,
                        scenario.n_nodes,
                        pure_p2p=True,
                        n_clients=scenario.n_nodes,
                        count_floor=0.5,
                    )
                    for counts in result.snapshot_counts
                ]
            )
        return values / len(comparison.stats[name].results)

    expected = TimeSeriesPanel(
        title="Figure 3(a) — expected utility U(x(t))",
        times=times,
        series={
            name: expected_series(name)
            for name in ("OPT", "UNI", "DOM", "QCRWOM", "QCR")
        },
    )

    window_times = (
        np.arange(len(first("QCR").window_gains)) + 0.5
    ) * first("QCR").window_length

    def observed_series(name: str) -> FloatArray:
        stacked = np.stack(
            [r.window_gains for r in comparison.stats[name].results]
        )
        return stacked.mean(axis=0) / first(name).window_length

    observed = TimeSeriesPanel(
        title="Figure 3(b) — observed utility (per-window gain rate)",
        times=window_times,
        series={
            name: observed_series(name)
            for name in ("OPT", "UNI", "DOM", "QCRWOM", "QCR")
        },
    )

    def replica_panel(name: str, label: str) -> TimeSeriesPanel:
        tracked = first(name).snapshot_tracked
        assert tracked is not None
        return TimeSeriesPanel(
            title=label,
            times=times,
            series={
                f"msg {k + 1}": tracked[:, k] for k in range(tracked.shape[1])
            },
        )

    mandates = TimeSeriesPanel(
        title="Figure 3 (extra) — total outstanding mandates",
        times=times,
        series={
            name: np.asarray(first(name).snapshot_mandates).sum(axis=1)
            for name in ("QCR", "QCRWOM")
        },
    )
    return Figure3Result(
        expected_utility=expected,
        observed_utility=observed,
        replicas_with_routing=replica_panel(
            "QCR", "Figure 3(c) — replicas of 5 most-requested (QCR)"
        ),
        replicas_without_routing=replica_panel(
            "QCRWOM", "Figure 3(d) — replicas of 5 most-requested (QCRWOM)"
        ),
        mandate_totals=mandates,
    )


# ----------------------------------------------------------------------
# Figure 4 — homogeneous comparison sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure4Result:
    power_panel: SweepPanel
    step_panel: SweepPanel

    def render(self) -> str:
        return self.power_panel.render() + "\n\n" + self.step_panel.render()


def figure4(
    profile: Optional[EffortProfile] = None,
    *,
    base_seed: int = 404,
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
) -> Figure4Result:
    """Reproduce Figure 4 (homogeneous contacts)."""
    profile = profile or current_profile()

    def power_scenario(alpha: float) -> Scenario:
        return homogeneous_scenario(
            power_family(alpha), duration=profile.duration,
            record_interval=None,
        )

    def step_scenario(tau: float) -> Scenario:
        scenario = homogeneous_scenario(
            StepUtility(tau), duration=profile.duration, record_interval=None
        )
        timeout = recommended_timeout(StepUtility(tau), profile.duration)
        return replace(
            scenario,
            config=replace(scenario.config, request_timeout=timeout),
        )

    power_panel = _sweep(
        power_scenario,
        profile.power_alphas,
        n_trials=profile.n_trials,
        base_seed=base_seed,
        title="Figure 4 (left) — homogeneous, power delay-utility",
        x_label="alpha",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
    step_panel = _sweep(
        step_scenario,
        profile.step_taus,
        n_trials=profile.n_trials,
        base_seed=base_seed + 1000,
        title="Figure 4 (right) — homogeneous, step delay-utility",
        x_label="tau",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
    return Figure4Result(power_panel=power_panel, step_panel=step_panel)


# ----------------------------------------------------------------------
# Figure 5 — conference trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure5Result:
    utility_over_time: TimeSeriesPanel
    actual_panel: SweepPanel
    synthesized_panel: SweepPanel

    def render(self) -> str:
        return "\n\n".join(
            (
                self.utility_over_time.render(),
                self.actual_panel.render(),
                self.synthesized_panel.render(),
            )
        )


def figure5(
    profile: Optional[EffortProfile] = None,
    *,
    time_panel_tau: float = 60.0,
    base_seed: int = 505,
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
) -> Figure5Result:
    """Reproduce Figure 5 (conference trace, step delay-utility).

    The time panel uses a one-hour deadline so the diurnal alternation is
    visible; the sweeps use the profile's ``tau`` grid.
    """
    profile = profile or current_profile()

    def scenario_for(variant: str, tau: float) -> Scenario:
        scenario = conference_scenario(
            StepUtility(tau), variant=variant, record_interval=None
        )
        timeout = recommended_timeout(StepUtility(tau), 10 * tau)
        return replace(
            scenario,
            config=replace(
                scenario.config,
                request_timeout=timeout,
                window_length=60.0,
            ),
        )

    # Panel (a): hourly observed utility over the three days.
    time_scenario = scenario_for("actual", time_panel_tau)
    comparison = run_comparison(
        trace_factory=time_scenario.trace_factory,
        demand=time_scenario.demand,
        config=time_scenario.config,
        protocols=standard_protocols(time_scenario),
        n_trials=profile.n_trials,
        base_seed=base_seed,
        baseline="OPT",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
    reference = comparison.stats["QCR"].results[0]
    window_times = (
        np.arange(len(reference.window_gains)) + 0.5
    ) * reference.window_length
    time_panel = TimeSeriesPanel(
        title=(
            "Figure 5(a) — conference trace, hourly utility "
            f"(step tau={time_panel_tau:g} min)"
        ),
        times=window_times,
        series={
            name: np.stack(
                [r.window_gains for r in comparison.stats[name].results]
            ).mean(axis=0)
            / reference.window_length
            for name in comparison.stats
        },
    )

    actual_panel = _sweep(
        lambda tau: scenario_for("actual", tau),
        profile.step_taus,
        n_trials=profile.n_trials,
        base_seed=base_seed + 1000,
        title="Figure 5(b) — loss vs tau (actual trace)",
        x_label="tau",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
    synthesized_panel = _sweep(
        lambda tau: scenario_for("synthesized", tau),
        profile.step_taus,
        n_trials=profile.n_trials,
        base_seed=base_seed + 2000,
        title="Figure 5(c) — loss vs tau (synthesized memoryless trace)",
        x_label="tau",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
    return Figure5Result(
        utility_over_time=time_panel,
        actual_panel=actual_panel,
        synthesized_panel=synthesized_panel,
    )


# ----------------------------------------------------------------------
# Figure 6 — vehicular trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure6Result:
    power_panel: SweepPanel
    step_panel: SweepPanel
    exponential_panel: SweepPanel

    def render(self) -> str:
        return "\n\n".join(
            (
                self.power_panel.render(),
                self.step_panel.render(),
                self.exponential_panel.render(),
            )
        )


def figure6(
    profile: Optional[EffortProfile] = None,
    *,
    base_seed: int = 606,
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
) -> Figure6Result:
    """Reproduce Figure 6 (vehicular trace, three utility families)."""
    profile = profile or current_profile()

    def scenario_for(utility: DelayUtility) -> Scenario:
        scenario = vehicular_scenario(utility, record_interval=None)
        timeout = recommended_timeout(utility, 14400.0)
        return replace(
            scenario,
            config=replace(scenario.config, request_timeout=timeout),
        )

    power_panel = _sweep(
        lambda alpha: scenario_for(power_family(alpha)),
        profile.power_alphas,
        n_trials=profile.n_trials,
        base_seed=base_seed,
        title="Figure 6(a) — vehicular, power delay-utility",
        x_label="alpha",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
    step_panel = _sweep(
        lambda tau: scenario_for(StepUtility(tau)),
        profile.step_taus,
        n_trials=profile.n_trials,
        base_seed=base_seed + 1000,
        title="Figure 6(b) — vehicular, step delay-utility",
        x_label="tau",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
    exponential_panel = _sweep(
        lambda nu: scenario_for(ExponentialUtility(nu)),
        profile.exp_nus,
        n_trials=profile.n_trials,
        base_seed=base_seed + 2000,
        title="Figure 6(c) — vehicular, exponential delay-utility",
        x_label="nu",
        progress=progress,
        profile_dir=profile_dir,
        run_cache=run_cache,
        executor=executor,
    )
    return Figure6Result(
        power_panel=power_panel,
        step_panel=step_panel,
        exponential_panel=exponential_panel,
    )
