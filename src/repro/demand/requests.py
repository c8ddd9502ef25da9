"""Request-arrival generation (paper Section 3.3).

Node ``n`` creates new requests for item ``i`` as a Poisson process of rate
``d_i * pi_{i,n}``.  :class:`RequestSchedule` materializes one realization
of all arrival processes over a finite horizon as three parallel arrays
sorted by time, ready for merging with a contact trace in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..types import FloatArray, IntArray, SeedLike, as_rng
from .popularity import DemandModel
from .profiles import validate_profile

__all__ = ["RequestSchedule", "generate_requests"]


@dataclass(frozen=True)
class RequestSchedule:
    """A time-sorted realization of request arrivals.

    Attributes
    ----------
    times:
        Arrival times, non-decreasing, within ``[0, duration]``.
    items:
        Requested item id per arrival.
    nodes:
        Requesting client id per arrival.
    duration:
        The generation horizon.
    """

    times: FloatArray
    items: IntArray
    nodes: IntArray
    duration: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        items = np.asarray(self.items, dtype=np.int64)
        nodes = np.asarray(self.nodes, dtype=np.int64)
        if not (len(times) == len(items) == len(nodes)):
            raise ConfigurationError("times/items/nodes lengths differ")
        if len(times) and np.any(np.diff(times) < 0):
            raise ConfigurationError("request times must be sorted")
        if len(times) and (times[0] < 0 or times[-1] > self.duration):
            raise ConfigurationError("request times must lie in [0, duration]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, int, int]]:
        for k in range(len(self.times)):
            yield float(self.times[k]), int(self.items[k]), int(self.nodes[k])

    def per_item_counts(self, n_items: int) -> IntArray:
        """Number of generated requests per item id."""
        return np.bincount(self.items, minlength=n_items).astype(np.int64)

    def sliced(self, t_start: float, t_end: float) -> "RequestSchedule":
        """Return the sub-schedule with ``t_start <= t < t_end``."""
        mask = (self.times >= t_start) & (self.times < t_end)
        return RequestSchedule(
            times=self.times[mask],
            items=self.items[mask],
            nodes=self.nodes[mask],
            duration=self.duration,
        )

    @staticmethod
    def concatenate(
        schedules: "Sequence[RequestSchedule]",
    ) -> "RequestSchedule":
        """Join schedules back-to-back in time.

        Models evolving demand: generate each epoch from a different
        :class:`~repro.demand.popularity.DemandModel` and concatenate.
        """
        if not schedules:
            raise ConfigurationError("need at least one schedule")
        offsets = np.cumsum([0.0] + [s.duration for s in schedules[:-1]])
        return RequestSchedule(
            times=np.concatenate(
                [s.times + off for s, off in zip(schedules, offsets)]
            ),
            items=np.concatenate([s.items for s in schedules]),
            nodes=np.concatenate([s.nodes for s in schedules]),
            duration=float(sum(s.duration for s in schedules)),
        )


def generate_requests(
    demand: DemandModel,
    n_clients: int,
    duration: float,
    *,
    profile: Optional[FloatArray] = None,
    seed: SeedLike = None,
) -> RequestSchedule:
    """Sample a :class:`RequestSchedule` over ``[0, duration]``.

    Arrivals form a Poisson process of total rate ``demand.total_rate``;
    each arrival independently picks an item by popularity and then a
    client from the item's profile row (uniform when *profile* is ``None``).
    """
    if n_clients <= 0:
        raise ConfigurationError(f"n_clients must be > 0, got {n_clients}")
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    rng = as_rng(seed)
    n_events = rng.poisson(demand.total_rate * duration)
    times = np.sort(rng.uniform(0.0, duration, size=n_events))
    items = _draw_items(rng, demand, n_events)
    nodes = _draw_nodes(rng, demand, n_clients, items, profile)
    return RequestSchedule(
        times=times, items=items, nodes=nodes, duration=duration
    )


def _draw_items(
    rng: np.random.Generator, demand: DemandModel, n_events: int
) -> IntArray:
    """Popularity-weighted item ids for *n_events* arrivals."""
    return rng.choice(
        demand.n_items, size=n_events, p=demand.probabilities
    ).astype(np.int64)


def _draw_nodes(
    rng: np.random.Generator,
    demand: DemandModel,
    n_clients: int,
    items: IntArray,
    profile: Optional[FloatArray],
) -> IntArray:
    """Client ids for each arrival, honoring per-item profiles."""
    n_events = len(items)
    if profile is None:
        return rng.integers(0, n_clients, size=n_events, dtype=np.int64)
    profile = validate_profile(profile, demand.n_items, n_clients)
    nodes = np.empty(n_events, dtype=np.int64)
    # Sample nodes item-by-item so each arrival uses its item's row.
    for item in np.unique(items):
        mask = items == item
        nodes[mask] = rng.choice(
            n_clients, size=int(mask.sum()), p=profile[item]
        )
    return nodes
