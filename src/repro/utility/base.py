"""Delay-utility functions: the paper's model of user impatience.

A delay-utility function ``h(t)`` (Section 3.2) maps the waiting time of a
request to the gain obtained when it is fulfilled after that wait.  ``h`` is
monotone non-increasing; it may be negative (waiting *costs*), and ``h(0+)``
may be infinite for time-critical content (in which case the paper restricts
its use to the dedicated-node scenario).

:class:`DelayUtility` fixes the interface every family implements and
provides generic numeric implementations — built on the differential measure
``c = -h'`` (:mod:`repro.utility.measures`) — of every derived quantity the
paper uses:

``laplace_c(rate)``
    ``integral of exp(-rate*t) c(t) dt``; by Lemma 1 the expected gain of a
    request fulfilled at exponential rate ``lambda`` is
    ``h(0+) - laplace_c(lambda)``.
``expected_gain(rate)``
    ``E[h(Y)]`` for ``Y ~ Exp(rate)`` — the per-request utility term.
``phi(x, mu)``
    the balance transform of Property 1,
    ``phi(x) = integral of mu*t*exp(-mu*t*x) c(t) dt``; the relaxed optimum
    equalizes ``d_i * phi(x_i)`` across items.
``psi(y, n_servers, mu)``
    the QCR reaction function of Property 2,
    ``psi(y) = (|S|/y) * phi(|S|/y)``.

Closed-form subclasses (step, exponential, power, negative-log) override the
numeric versions with the expressions of Table 1; property-based tests verify
closed form against the numeric fallback.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from ..errors import UtilityDomainError
from ..types import ArrayLike, FloatArray
from .measures import DifferentialMeasure

__all__ = ["DelayUtility"]


class DelayUtility(ABC):
    """Abstract base class for monotone non-increasing delay-utilities."""

    # ------------------------------------------------------------------
    # primitives every family must define
    # ------------------------------------------------------------------
    @abstractmethod
    def __call__(self, t: ArrayLike) -> ArrayLike:
        """Evaluate ``h(t)`` for ``t > 0`` (vectorized over numpy arrays).

        Contract: on an array of delays the result equals, bit for bit,
        the elementwise evaluation on each delay as a Python float.  The
        simulation engine relies on it: it evaluates a run's gains in
        one array call instead of one call per fulfilment.
        """

    @property
    @abstractmethod
    def h0(self) -> float:
        """The limit ``h(0+)``; may be ``math.inf``."""

    @property
    @abstractmethod
    def gain_never(self) -> float:
        """The limit of ``h(t)`` as ``t -> inf``; may be ``-math.inf``.

        This is the gain credited to a request that is never fulfilled.
        """

    @property
    @abstractmethod
    def differential(self) -> DifferentialMeasure:
        """The differential delay-utility measure ``c = -h'``."""

    @property
    def name(self) -> str:
        """Short human-readable name used in reports."""
        return type(self).__name__

    # ------------------------------------------------------------------
    # derived quantities with generic numeric implementations
    # ------------------------------------------------------------------
    @property
    def finite_at_zero(self) -> bool:
        """Whether ``h(0+)`` is finite.

        Utilities with infinite ``h(0+)`` must be used in the dedicated-node
        scenario (the paper, Section 3.2): a client that already caches the
        item it requests would otherwise realize an infinite gain.
        """
        return math.isfinite(self.h0)

    def laplace_c(self, rate: float) -> float:
        """Return ``integral of exp(-rate*t) c(t) dt`` over ``(0, inf)``.

        May be infinite when ``c`` is not integrable near zero and
        ``h(0+) = inf`` (power utilities with ``alpha >= 1``).
        """
        if rate < 0:
            raise UtilityDomainError(f"rate must be >= 0, got {rate}")
        return self.differential.laplace(rate)

    def expected_gain(self, rate: float) -> float:
        """Return ``E[h(Y)]`` for a fulfillment delay ``Y ~ Exp(rate)``.

        ``rate == 0`` (no replica anywhere) yields :attr:`gain_never`.
        """
        if rate < 0:
            raise UtilityDomainError(f"rate must be >= 0, got {rate}")
        if rate == 0:
            return self.gain_never
        if math.isinf(rate):
            return self.h0
        if self.finite_at_zero:
            return self.h0 - self.laplace_c(rate)
        return self._expected_gain_numeric(rate)

    def _expected_gain_numeric(self, rate: float) -> float:
        """Numeric ``E[h(Y)]`` by integrating ``h`` against the Exp density.

        Fallback used when ``h(0+)`` is infinite, so the Lemma-1 identity
        ``h(0+) - laplace_c(rate)`` cannot be applied directly.
        """

        def integrand(t: float) -> float:
            return float(self(t)) * rate * math.exp(-rate * t)

        from scipy.integrate import quad

        # quad does not accept break points together with an infinite bound,
        # so split at a few mean-multiples: the head panel isolates the
        # possible singularity of h at zero.
        split = 10.0 / rate
        head, _ = quad(integrand, 0.0, split, points=[0.0], limit=200)
        tail, _ = quad(integrand, split, math.inf, limit=200)
        return head + tail

    def expected_gains(self, rates: Iterable[float]) -> FloatArray:
        """Vectorized :meth:`expected_gain` over an iterable of rates."""
        return np.array([self.expected_gain(r) for r in rates], dtype=float)

    def phi(self, x: float, mu: float = 1.0) -> float:
        """Return ``phi(x) = integral of mu*t*exp(-mu*t*x) c(t) dt``.

        This is ``(1/d_i) * dU/dx_i`` in the homogeneous continuous-time
        model (Property 1): the marginal welfare of a fractional extra
        replica when ``x`` replicas are present.  Defined for ``x >= 0``;
        ``phi(0)`` may be infinite for heavy-tailed differential measures.
        """
        if x < 0:
            raise UtilityDomainError(f"replica count must be >= 0, got {x}")
        if mu <= 0:
            raise UtilityDomainError(f"meeting rate must be > 0, got {mu}")
        return self.differential.integrate(
            lambda t: mu * t * math.exp(-mu * t * x)
        )

    def phi_inverse(self, value: float, mu: float = 1.0) -> float:
        """Return ``x >= 0`` with ``phi(x) = value`` (``phi`` is decreasing).

        Returns ``0`` when ``value >= phi(0)`` and ``math.inf`` as
        ``value -> 0``; the relaxed-allocation solver clips the result to
        the feasible range.  The generic implementation brackets by
        doubling and bisects; closed-form families override it.
        """
        if value <= 0:
            raise UtilityDomainError(f"phi value must be > 0, got {value}")
        if mu <= 0:
            raise UtilityDomainError(f"meeting rate must be > 0, got {mu}")
        if self.phi(0.0, mu) <= value:
            return 0.0
        lo, hi = 0.0, 1.0
        for _ in range(200):
            if self.phi(hi, mu) < value:
                break
            lo, hi = hi, hi * 2.0
        else:  # pragma: no cover - value astronomically small
            return math.inf
        for _ in range(100):
            mid = (lo + hi) / 2.0
            if self.phi(mid, mu) >= value:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def psi(self, y: float, n_servers: int, mu: float = 1.0) -> float:
        """Return the QCR reaction ``psi(y) = (|S|/y) * phi(|S|/y)``.

        ``y`` is the final value of a request's query counter; ``psi(y)`` is
        the number of replicas QCR creates on fulfillment (Property 2).
        """
        if y <= 0:
            raise UtilityDomainError(f"query count must be > 0, got {y}")
        if n_servers <= 0:
            raise UtilityDomainError(
                f"n_servers must be > 0, got {n_servers}"
            )
        ratio = n_servers / y
        return ratio * self.phi(ratio, mu)

    # ------------------------------------------------------------------
    # discrete-time contact model counterparts
    # ------------------------------------------------------------------
    def delta_c(self, k: int, delta: float) -> float:
        """Return ``delta_c(k*delta) = h(k*delta) - h((k+1)*delta)``.

        The discrete-time differential delay-utility of Section 3.5.
        ``k = 0`` uses ``h(0+)`` and may be infinite.
        """
        if k < 0:
            raise UtilityDomainError(f"slot index must be >= 0, got {k}")
        if delta <= 0:
            raise UtilityDomainError(f"slot length must be > 0, got {delta}")
        left = self.h0 if k == 0 else float(self(k * delta))
        return left - float(self((k + 1) * delta))

    def expected_gain_discrete(
        self,
        failure_prob: float,
        delta: float,
        *,
        tol: float = 1e-12,
        max_terms: int = 10_000_000,
    ) -> float:
        """Expected gain in the discrete-time model (Lemma 1).

        ``failure_prob`` is the per-slot probability that the request is
        *not* fulfilled (``prod_m (1 - x_{i,m} mu_{m,n} delta)`` in Lemma 1).
        Returns ``h(delta) - sum_{k>=1} failure_prob**k * delta_c(k*delta)``,
        truncating the series once the geometric envelope falls below *tol*.
        """
        if not 0.0 <= failure_prob <= 1.0:
            raise UtilityDomainError(
                f"failure probability must be in [0, 1], got {failure_prob}"
            )
        # repro-lint: ignore[RPL005] exact domain boundary: the series
        # degenerates only at exactly 1.0, which is representable and
        # validated just above.
        if failure_prob == 1.0:
            return self.gain_never
        total = float(self(delta))
        weight = 1.0
        for k in range(1, max_terms):
            weight *= failure_prob
            step = self.delta_c(k, delta)
            term = weight * step
            total -= term
            # Geometric envelope: remaining terms are bounded by
            # weight * (h(k*delta) - gain_never) when that is finite, and by
            # term / (1 - failure_prob) once delta_c is non-increasing.
            if weight < tol and abs(term) < tol * max(1.0, abs(total)):
                break
        return total

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name}>"
