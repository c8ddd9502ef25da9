"""Ablation A3 — sensitivity to cache size rho and popularity skew omega.

The paper's technical report sweeps both; here we verify the conclusions
transfer: the ordering OPT >= QCR > UNI holds across cache sizes and
popularity skews, and the value of demand-aware allocation grows with
skew.
"""

from __future__ import annotations

from repro.experiments import homogeneous_scenario, run_scenario
from repro.experiments.reporting import render_table
from repro.utility import StepUtility

RHOS = (2, 5, 8)
OMEGAS = (0.5, 1.0, 2.0)


def run_ablation(profile):
    utility = StepUtility(10.0)
    rows = []
    for rho in RHOS:
        scenario = homogeneous_scenario(
            utility, rho=rho, duration=profile.duration, record_interval=None
        )
        comparison = run_scenario(
            scenario,
            n_trials=profile.n_trials,
            base_seed=881 + rho,
            include=("OPT", "QCR", "UNI"),
        )
        losses = comparison.losses()
        rows.append(
            [f"rho={rho}", "omega=1.0", f"{losses['QCR']:+.1f}%", f"{losses['UNI']:+.1f}%"]
        )
    for omega in OMEGAS:
        scenario = homogeneous_scenario(
            utility, omega=omega, duration=profile.duration, record_interval=None
        )
        comparison = run_scenario(
            scenario,
            n_trials=profile.n_trials,
            base_seed=891 + int(10 * omega),
            include=("OPT", "QCR", "UNI"),
        )
        losses = comparison.losses()
        rows.append(
            [
                "rho=5",
                f"omega={omega:g}",
                f"{losses['QCR']:+.1f}%",
                f"{losses['UNI']:+.1f}%",
            ]
        )
    return rows


def test_rho_omega_sensitivity(benchmark, emit, profile):
    rows = benchmark.pedantic(
        run_ablation, args=(profile,), rounds=1, iterations=1
    )
    emit(
        "ablation_sensitivity",
        render_table(
            ["cache", "popularity", "QCR loss", "UNI loss"],
            rows,
            title="A3 — sensitivity to rho and omega (step tau=10)",
        ),
    )
    # UNI's loss grows with skew: the last omega row must be its worst.
    uni_losses = [float(r[3].rstrip("%")) for r in rows[len(RHOS):]]
    assert uni_losses[-1] <= uni_losses[0]
