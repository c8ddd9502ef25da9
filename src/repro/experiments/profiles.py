"""Effort profiles: paper-scale vs. laptop-scale experiment parameters.

Every benchmark honors the ``REPRO_BENCH_SCALE`` environment variable:
``quick`` (default) runs reduced trials/horizons so the whole suite
finishes in minutes; ``full`` uses the paper's scale (15+ trials,
5000-minute horizons, dense sweeps).  Shapes and orderings are stable
across profiles; only confidence intervals tighten.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError

__all__ = ["EffortProfile", "current_profile"]

_ENV_VAR = "REPRO_BENCH_SCALE"


@dataclass(frozen=True)
class EffortProfile:
    """Scaling knobs shared by the figure experiments."""

    label: str
    n_trials: int
    duration: float
    #: Power-impatience sweep (Figures 4-left and 6-left).
    power_alphas: Tuple[float, ...]
    #: Step-deadline sweep (Figures 4-right, 5, 6-middle), minutes.
    step_taus: Tuple[float, ...]
    #: Exponential-impatience sweep (Figure 6-right), 1/minutes.
    exp_nus: Tuple[float, ...]

    @classmethod
    def quick(cls) -> "EffortProfile":
        return cls(
            label="quick",
            n_trials=3,
            duration=2000.0,
            power_alphas=(-2.0, -1.0, 0.0, 0.5),
            step_taus=(1.0, 10.0, 100.0, 1000.0),
            exp_nus=(0.001, 0.01, 0.1, 1.0),
        )

    @classmethod
    def full(cls) -> "EffortProfile":
        return cls(
            label="full",
            n_trials=15,
            duration=5000.0,
            power_alphas=(-2.0, -1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75),
            step_taus=(1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0),
            exp_nus=(0.0001, 0.001, 0.01, 0.1, 1.0, 10.0),
        )

    @classmethod
    def from_env(cls) -> "EffortProfile":
        value = os.environ.get(_ENV_VAR, "quick").strip().lower()
        if value == "quick":
            return cls.quick()
        if value == "full":
            return cls.full()
        raise ConfigurationError(
            f"{_ENV_VAR} must be 'quick' or 'full', got {value!r}"
        )


def current_profile() -> EffortProfile:
    """The profile selected by the environment (default: quick)."""
    return EffortProfile.from_env()
