"""Ablation A4 — separating heterogeneity from time statistics.

Section 6.3 claims: "Heterogeneity per se does not seem to greatly impact
the performance of QCR."  The three conference-trace variants let us test
exactly that:

* ``actual`` — heterogeneous rates + bursty/diurnal times;
* ``rate_matched`` — same heterogeneous rates, memoryless times
  (isolates heterogeneity);
* ``synthesized`` — identical rates, memoryless times (the homogeneous
  control).

If the claim holds, QCR's loss on ``rate_matched`` is close to the
``synthesized`` control, and fixed allocations (DOM especially) move much
more across the ``actual`` / ``rate_matched`` divide (their gains come
from bursty time statistics, not heterogeneity).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import conference_scenario, run_scenario
from repro.experiments.figures import recommended_timeout
from repro.experiments.reporting import render_table
from repro.utility import StepUtility

TAU = 10.0
VARIANTS = ("actual", "rate_matched", "synthesized")


def run_ablation(profile):
    losses = {}
    for variant in VARIANTS:
        scenario = conference_scenario(
            StepUtility(TAU), variant=variant, record_interval=None
        )
        timeout = recommended_timeout(StepUtility(TAU), 10 * TAU)
        scenario = replace(
            scenario,
            config=replace(scenario.config, request_timeout=timeout),
        )
        comparison = run_scenario(
            scenario,
            n_trials=profile.n_trials,
            base_seed=1201,
            include=("OPT", "QCR", "SQRT", "PROP", "DOM"),
        )
        losses[variant] = comparison.losses()
    return losses


def test_heterogeneity_vs_time_statistics(benchmark, emit, profile):
    losses = benchmark.pedantic(
        run_ablation, args=(profile,), rounds=1, iterations=1
    )
    algorithms = ("QCR", "SQRT", "PROP", "DOM")
    rows = [
        [name] + [f"{losses[v][name]:+.1f}%" for v in VARIANTS]
        for name in algorithms
    ]
    emit(
        "ablation_heterogeneity",
        render_table(
            ["algorithm", *VARIANTS],
            rows,
            title=(
                f"A4 — heterogeneity vs time statistics "
                f"(conference trace, step tau={TAU:g})"
            ),
        ),
    )
    # "Heterogeneity per se does not greatly impact QCR": moving from the
    # homogeneous control to heterogeneous-but-memoryless rates shifts
    # QCR's loss by a bounded amount.
    qcr_shift = abs(
        losses["rate_matched"]["QCR"] - losses["synthesized"]["QCR"]
    )
    assert qcr_shift < 15.0
