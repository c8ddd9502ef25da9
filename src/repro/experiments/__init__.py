"""Experiment harness: scenarios, runners, and figure/table regeneration."""

from .figures import (
    Figure1Result,
    Figure2Result,
    Figure3Result,
    Figure4Result,
    Figure5Result,
    Figure6Result,
    SweepPanel,
    TimeSeriesPanel,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    recommended_timeout,
)
from .artifacts import TrialArtifacts, load_spilled_trace, spill_trial_trace
from .benchmark import BENCH_FILENAME, render_speed_report, run_speed_benchmark
from .profiles import EffortProfile, current_profile
from .reporting import render_loss_sweep, render_table
from .runner import (
    AlgorithmStats,
    ComparisonResult,
    TrialFailure,
    percentile_interval,
    run_comparison,
)
from .scenarios import (
    Scenario,
    conference_scenario,
    default_qcr_config,
    homogeneous_scenario,
    run_scenario,
    standard_protocols,
    vehicular_scenario,
)
from .tables import Table1Verification, verify_table1

__all__ = [
    "EffortProfile",
    "current_profile",
    "Scenario",
    "homogeneous_scenario",
    "conference_scenario",
    "vehicular_scenario",
    "default_qcr_config",
    "standard_protocols",
    "run_scenario",
    "run_comparison",
    "ComparisonResult",
    "AlgorithmStats",
    "TrialFailure",
    "TrialArtifacts",
    "load_spilled_trace",
    "spill_trial_trace",
    "percentile_interval",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "recommended_timeout",
    "Figure1Result",
    "Figure2Result",
    "Figure3Result",
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "SweepPanel",
    "TimeSeriesPanel",
    "verify_table1",
    "Table1Verification",
    "render_table",
    "render_loss_sweep",
    "run_speed_benchmark",
    "render_speed_report",
    "BENCH_FILENAME",
]
