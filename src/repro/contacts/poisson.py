"""Memoryless (Poisson) contact generators — the paper's analytic model.

Section 3.4: contacts between nodes ``m`` and ``n`` form independent
Poisson processes of intensity ``mu_{m,n}``.  The *homogeneous* case
(``mu_{m,n} = mu`` for all pairs) is the setting of Theorem 2 and the
Section 6.2 experiments.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..types import FloatArray, SeedLike, as_rng
from .trace import ContactTrace

__all__ = ["homogeneous_poisson_trace", "heterogeneous_poisson_trace"]


def homogeneous_poisson_trace(
    n_nodes: int,
    rate: float,
    duration: float,
    seed: SeedLike = None,
) -> ContactTrace:
    """Sample a trace where every pair meets at Poisson rate *rate*.

    The superposition of all pair processes is Poisson with total rate
    ``rate * n_pairs``; we draw the total event count, uniform event times,
    and a uniform pair per event — an exact sample of the joint process.
    """
    if n_nodes < 2:
        raise ConfigurationError(f"need >= 2 nodes, got {n_nodes}")
    if rate <= 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    rng = as_rng(seed)

    n_pairs = n_nodes * (n_nodes - 1) // 2
    n_events = rng.poisson(rate * n_pairs * duration)
    times = np.sort(rng.uniform(0.0, duration, size=n_events))
    pair_index = rng.integers(0, n_pairs, size=n_events)
    node_a, node_b = _pair_from_index(pair_index, n_nodes)
    return ContactTrace(
        times=times,
        node_a=node_a,
        node_b=node_b,
        n_nodes=n_nodes,
        duration=duration,
    )


def heterogeneous_poisson_trace(
    rate_matrix: FloatArray,
    duration: float,
    seed: SeedLike = None,
) -> ContactTrace:
    """Sample a trace with per-pair Poisson intensities *rate_matrix*.

    *rate_matrix* must be a symmetric non-negative ``(n, n)`` matrix with a
    zero diagonal (``mu_{m,n}`` of Section 3.4).
    """
    rates = np.asarray(rate_matrix, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise ConfigurationError("rate_matrix must be square")
    n_nodes = rates.shape[0]
    if n_nodes < 2:
        raise ConfigurationError(f"need >= 2 nodes, got {n_nodes}")
    if not np.allclose(rates, rates.T):
        raise ConfigurationError("rate_matrix must be symmetric")
    if np.any(np.diag(rates) != 0):
        raise ConfigurationError("rate_matrix diagonal must be zero")
    if np.any(rates < 0) or not np.all(np.isfinite(rates)):
        raise ConfigurationError("rates must be finite and >= 0")
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    rng = as_rng(seed)

    iu = np.triu_indices(n_nodes, k=1)
    pair_rates = rates[iu]
    total = pair_rates.sum()
    if total <= 0:
        raise ConfigurationError("at least one pair rate must be positive")
    n_events = rng.poisson(total * duration)
    times = np.sort(rng.uniform(0.0, duration, size=n_events))
    chosen = rng.choice(len(pair_rates), size=n_events, p=pair_rates / total)
    return ContactTrace(
        times=times,
        node_a=iu[0][chosen],
        node_b=iu[1][chosen],
        n_nodes=n_nodes,
        duration=duration,
    )


def _pair_from_index(index: np.ndarray, n_nodes: int) -> tuple:
    """Map pair indices ``0..n_pairs-1`` to ``(a, b)`` with ``a < b``.

    Uses the row-major upper-triangle enumeration: pair ``k`` belongs to
    row ``a`` where rows have ``n-1-a`` entries.  Counting ``r`` pairs
    back from the end turns the shrinking rows into the standard
    triangular sequence, so the row index comes from one closed-form
    inversion ``t = floor((sqrt(8r+1)-1)/2)`` — no data-dependent
    fix-up loops.
    """
    index = np.asarray(index, dtype=np.int64)
    n = n_nodes
    n_pairs = n * (n - 1) // 2
    r = n_pairs - 1 - index
    t = ((np.sqrt(8.0 * r.astype(np.float64) + 1.0) - 1.0) * 0.5).astype(
        np.int64
    )
    # float sqrt can land one row off near triangular numbers; a single
    # exact integer step in each direction restores T(t) <= r < T(t+1).
    t += (t + 1) * (t + 2) // 2 <= r
    t -= t * (t + 1) // 2 > r
    a = n - 2 - t
    b = n - 1 - (r - t * (t + 1) // 2)
    return a, b
