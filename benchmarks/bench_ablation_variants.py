"""Ablation A2 — QCR design knobs.

Sweeps the free constant of the reaction function (``psi_scale``), the
burst cap, and the protocol-semantics variants (mandate routing off, pull
execution, no cache-on-fulfill) on the homogeneous power-``alpha=0``
scenario.  This is the experiment behind the harness default of damping
unbounded power-family reactions (DESIGN.md §5): large reaction constants
reach equilibrium faster but pay a variance penalty under the concave
welfare.
"""

from __future__ import annotations

from repro.experiments import homogeneous_scenario, run_comparison, standard_protocols
from repro.experiments.reporting import render_table
from repro.protocols import QCR, QCRConfig
from repro.utility import PowerUtility

VARIANTS = [
    ("scale=1.0", QCRConfig(psi_scale=1.0)),
    ("scale=0.3", QCRConfig(psi_scale=0.3)),
    ("scale=0.1", QCRConfig(psi_scale=0.1)),
    ("scale=0.1+cap", QCRConfig(psi_scale=0.1, max_mandates_per_request=25)),
    ("scale=0.1, no routing", QCRConfig(psi_scale=0.1, mandate_routing=False)),
    ("scale=0.1, pull exec", QCRConfig(psi_scale=0.1, pull_execution=True)),
    (
        "scale=0.1, no cache-on-fulfill",
        QCRConfig(psi_scale=0.1, cache_on_fulfill=False),
    ),
    (
        "scale=0.1, no pure corr",
        QCRConfig(psi_scale=0.1, pure_correction=False),
    ),
]


def run_ablation(profile):
    utility = PowerUtility(0.0)
    scenario = homogeneous_scenario(
        utility, duration=profile.duration, record_interval=None
    )
    protocols = standard_protocols(scenario, include=("OPT",))
    for label, config in VARIANTS:
        protocols[label] = (
            lambda tr, rq, _c=config: QCR(utility, scenario.mu_estimate, _c)
        )
    comparison = run_comparison(
        trace_factory=scenario.trace_factory,
        demand=scenario.demand,
        config=scenario.config,
        protocols=protocols,
        n_trials=profile.n_trials,
        base_seed=777,
        baseline="OPT",
    )
    return comparison


def test_qcr_variant_ablation(benchmark, emit, profile):
    comparison = benchmark.pedantic(
        run_ablation, args=(profile,), rounds=1, iterations=1
    )
    losses = comparison.losses()
    rows = [
        [label, f"{losses[label]:+.1f}%"]
        for label, _ in VARIANTS
    ]
    emit(
        "ablation_variants",
        render_table(
            ["QCR variant", "loss vs OPT"],
            rows,
            title="A2 — QCR design-knob ablation (homogeneous, power alpha=0)",
        ),
    )
    # The damped reaction dominates the raw Table-1 constant here.
    assert losses["scale=0.1"] > losses["scale=1.0"]
