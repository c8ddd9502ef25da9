"""Extension E4 — per-node adaptive meeting-rate estimation for QCR.

QCR's reaction function contains one global constant: the meeting rate
``mu`` (Table 1).  On heterogeneous traces that constant is wrong for
most nodes — a cab that meets ten peers an hour and one that meets one
should not react identically.  This extension lets each node estimate its
own per-pair rate from the contacts it has observed (still purely local
information) and plugs the estimate into the reaction.

The benchmark compares fixed-constant QCR against adaptive QCR on the
vehicular trace for step and exponential impatience, with the submodular
OPT as the anchor.
"""

from __future__ import annotations

from repro.experiments import run_comparison, standard_protocols, vehicular_scenario
from repro.experiments.figures import recommended_timeout
from repro.experiments.reporting import render_table
from repro.experiments.scenarios import default_qcr_config
from repro.protocols import QCR
from repro.utility import ExponentialUtility, StepUtility

from dataclasses import replace


def run_extension(profile):
    rows = []
    summary = {}
    for utility, label in (
        (StepUtility(30.0), "step tau=30"),
        (ExponentialUtility(0.05), "exp nu=0.05"),
    ):
        scenario = vehicular_scenario(utility, record_interval=None)
        timeout = recommended_timeout(utility, 14400.0)
        scenario = replace(
            scenario,
            config=replace(scenario.config, request_timeout=timeout),
        )
        base_config = default_qcr_config(
            utility, scenario.n_nodes, scenario.mu_estimate
        )
        protocols = standard_protocols(scenario, include=("OPT", "QCR"))
        protocols["QCR-adaptive"] = lambda tr, rq, _c=base_config: QCR(
            utility,
            scenario.mu_estimate,
            replace(_c, adaptive_mu=True),
        )
        comparison = run_comparison(
            trace_factory=scenario.trace_factory,
            demand=scenario.demand,
            config=scenario.config,
            protocols=protocols,
            n_trials=profile.n_trials,
            base_seed=909,
            baseline="OPT",
        )
        losses = comparison.losses()
        summary[label] = losses
        rows.append(
            [
                label,
                f"{losses['QCR']:+.1f}%",
                f"{losses['QCR-adaptive']:+.1f}%",
            ]
        )
    return rows, summary


def test_adaptive_rate_estimation(benchmark, emit, profile):
    rows, summary = benchmark.pedantic(
        run_extension, args=(profile,), rounds=1, iterations=1
    )
    emit(
        "extension_adaptive_mu",
        render_table(
            ["impatience", "QCR (global mu)", "QCR (adaptive mu)"],
            rows,
            title="E4 — adaptive meeting-rate estimation (vehicular trace)",
        ),
    )
    # Adaptation must not hurt materially on any tested impatience level.
    for losses in summary.values():
        assert losses["QCR-adaptive"] > losses["QCR"] - 5.0
