"""Mean-field replica dynamics — Eq. (7) of the paper.

QCR's fluid limit: each fulfilled request for item ``i`` (rate ``d_i``)
creates ``psi(|S| / x_i)`` replicas, and every replica written erases a
uniformly random cached copy, so item ``i`` loses copies in proportion to
its share ``x_i / (rho |S|)`` of the global cache:

```
dx_i/dt = d_i psi(|S|/x_i) - (x_i / (rho |S|)) * sum_j d_j psi(|S|/x_j)
```

The stable fixed point satisfies the Property-1 balance condition when
``psi`` is the Property-2 reaction function — integrating this ODE next to
a simulation run is the ablation A1 of DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..demand import DemandModel
from ..errors import ConfigurationError
from ..types import FloatArray
from ..utility import DelayUtility
from .relaxed import solve_relaxed

__all__ = ["DynamicsResult", "replica_dynamics", "dynamics_equilibrium"]

#: Items are never driven below this fractional count (the simulator's
#: sticky replica plays the same role: no item ever fully disappears).
_X_FLOOR = 1e-6


@dataclass(frozen=True)
class DynamicsResult:
    """Trajectory of the Eq. (7) mean-field dynamics."""

    times: FloatArray
    #: Replica counts, shape ``(n_times, n_items)``.
    trajectory: FloatArray

    @property
    def final_counts(self) -> FloatArray:
        return self.trajectory[-1]


def replica_dynamics(
    x0: FloatArray,
    demand: DemandModel,
    utility: DelayUtility,
    mu: float,
    n_servers: int,
    rho: int,
    t_end: float,
    *,
    psi_scale: float = 1.0,
    n_eval: int = 200,
    rtol: float = 1e-7,
) -> DynamicsResult:
    """Integrate Eq. (7) from the initial counts *x0* until *t_end*.

    ``psi_scale`` multiplies the reaction function; it rescales time but
    not the equilibrium, mirroring the free constant of Property 2.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (demand.n_items,):
        raise ConfigurationError(
            f"x0 shape {x0.shape} != ({demand.n_items},)"
        )
    if np.any(x0 <= 0):
        raise ConfigurationError(
            "initial counts must be > 0 (Eq. (7) cannot recreate a lost item; "
            "the simulator's sticky replica guarantees the same)"
        )
    if t_end <= 0:
        raise ConfigurationError(f"t_end must be > 0, got {t_end}")
    rates = demand.rates

    def creation(x: FloatArray) -> FloatArray:
        return np.array(
            [
                d * psi_scale * utility.psi(n_servers / xi, n_servers, mu)
                for d, xi in zip(rates, x)
            ]
        )

    def rhs(_t: float, x: FloatArray) -> FloatArray:
        x = np.maximum(x, _X_FLOOR)
        created = creation(x)
        erased = x / (rho * n_servers) * created.sum()
        flow = created - erased
        # Box projection at the natural cap x_i <= |S|: with replication
        # "without rewriting" no new copy can be made of an item every
        # server already holds, so outward flow stops at the boundary.
        at_cap = x >= n_servers
        flow[at_cap] = np.minimum(flow[at_cap], 0.0)
        return flow

    from scipy.integrate import solve_ivp

    solution = solve_ivp(
        rhs,
        (0.0, t_end),
        np.maximum(x0, _X_FLOOR),
        t_eval=np.linspace(0.0, t_end, n_eval),
        rtol=rtol,
        method="RK45",
    )
    if not solution.success:  # pragma: no cover - scipy failure
        raise ConfigurationError(f"ODE integration failed: {solution.message}")
    return DynamicsResult(times=solution.t, trajectory=solution.y.T)


def dynamics_equilibrium(
    demand: DemandModel,
    utility: DelayUtility,
    mu: float,
    n_servers: int,
    rho: int,
) -> FloatArray:
    """The stable fixed point of Eq. (7).

    At equilibrium creation balances erasure per item, which is exactly
    the Property-1 balance condition with total count ``rho * n_servers``
    — i.e. the relaxed optimal allocation.
    """
    result = solve_relaxed(
        demand, utility, mu, n_servers, budget=float(rho * n_servers)
    )
    return result.counts
