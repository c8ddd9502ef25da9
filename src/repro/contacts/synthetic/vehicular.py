"""Synthetic vehicular trace — the Cabspotting substitute.

The paper extracts contacts from a day of San Francisco taxicab GPS data,
with two cabs "in contact whenever they are less than 200 m apart".  That
data set is not available offline, so this generator reproduces the same
construction on synthetic cab movement: random-waypoint mobility over a
city-scale area, positions sampled every few seconds, and an encounter
event whenever a pair enters the 200 m range
(:func:`repro.mobility.extract_contacts`).

The result shares the properties the paper leans on: strongly
heterogeneous pair rates (cabs that roam the same region meet often),
bursty encounter trains, and a large fraction of pairs that rarely meet.
Times in the returned trace are in **minutes** for consistency with the
rest of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import ConfigurationError
from ...mobility import RandomWaypointModel, extract_contacts
from ...types import FloatArray, SeedLike, as_rng
from ..trace import ContactTrace

__all__ = ["VehicularTraceConfig", "vehicular_trace"]


@dataclass(frozen=True)
class VehicularTraceConfig:
    """Parameters of the synthetic vehicular trace.

    Distances in meters, durations in hours/seconds as noted; the
    generated trace uses minutes.
    """

    n_nodes: int = 50
    duration_hours: float = 24.0
    area_side_m: float = 6000.0
    speed_min_mps: float = 5.0
    speed_max_mps: float = 15.0
    pause_min_s: float = 0.0
    pause_max_s: float = 300.0
    contact_radius_m: float = 200.0
    sample_interval_s: float = 15.0
    #: Std-dev of each cab's home territory (meters); ``None`` disables
    #: territories and gives classic uniform random-waypoint.
    home_zone_std_m: float = 1500.0

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError(f"need >= 2 nodes, got {self.n_nodes}")
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be > 0")
        if self.area_side_m <= 0:
            raise ConfigurationError("area_side_m must be > 0")
        if self.contact_radius_m <= 0:
            raise ConfigurationError("contact_radius_m must be > 0")
        if self.sample_interval_s <= 0:
            raise ConfigurationError("sample_interval_s must be > 0")

    @property
    def duration_minutes(self) -> float:
        """Trace length in minutes."""
        return self.duration_hours * 60.0

    @property
    def trace_duration(self) -> float:
        """The ``duration`` of the trace :func:`vehicular_trace` returns.

        That is the last position sample in minutes, which passes
        :attr:`duration_minutes` when ``sample_interval_s`` does not
        divide the horizon.
        """
        return float(_sample_times_s(self)[-1]) * (1.0 / 60.0)


def _sample_times_s(config: VehicularTraceConfig) -> FloatArray:
    """Position sample times in seconds, through the horizon."""
    horizon_s = config.duration_hours * 3600.0
    return np.arange(
        0.0, horizon_s + config.sample_interval_s, config.sample_interval_s
    )


def vehicular_trace(
    config: VehicularTraceConfig = VehicularTraceConfig(),
    seed: SeedLike = None,
) -> ContactTrace:
    """Sample a synthetic vehicular trace per *config*."""
    rng = as_rng(seed)
    model = RandomWaypointModel(
        width=config.area_side_m,
        height=config.area_side_m,
        speed_min=config.speed_min_mps,
        speed_max=config.speed_max_mps,
        pause_min=config.pause_min_s,
        pause_max=config.pause_max_s,
        home_std=config.home_zone_std_m,
    )
    times_s = _sample_times_s(config)
    positions = model.sample_positions(config.n_nodes, times_s, seed=rng)
    trace_seconds = extract_contacts(
        positions, times_s, radius=config.contact_radius_m
    )
    return trace_seconds.time_scaled(1.0 / 60.0)
