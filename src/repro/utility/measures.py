"""Differential delay-utility measures.

The paper (Section 3.5) defines the *differential delay-utility*
``c_i(t) = -dh_i/dt`` — the marginal loss of utility per extra unit of
waiting time.  For smooth utilities ``c`` is an ordinary density; for
non-differentiable utilities such as the step function it is a measure with
Dirac atoms (the paper: "the derivative measure in the sense of the
distribution").

:class:`DifferentialMeasure` represents such a measure as a density part plus
a list of point atoms, and knows how to integrate weight functions against
itself.  This lets the generic (numeric) implementations of the ``phi``
transform, the Laplace transform, and expected gains in
:mod:`repro.utility.base` be *exact* for every delay-utility family,
including those with atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.annotations import declared_effects

__all__ = ["Atom", "DifferentialMeasure"]


@dataclass(frozen=True)
class Atom:
    """A Dirac atom of the differential measure.

    A delay-utility ``h`` that drops by ``mass`` at time ``location``
    contributes an atom: waiting past ``location`` instantaneously loses
    ``mass`` units of utility.
    """

    location: float
    mass: float

    def __post_init__(self) -> None:
        if self.location < 0:
            raise ValueError(f"atom location must be >= 0, got {self.location}")
        if self.mass < 0:
            raise ValueError(f"atom mass must be >= 0, got {self.mass}")


@dataclass(frozen=True)
class DifferentialMeasure:
    """A positive measure on ``(0, inf)``: density part plus Dirac atoms.

    Parameters
    ----------
    density:
        Density of the absolutely-continuous part, evaluated pointwise.
        ``None`` means the measure is purely atomic.
    atoms:
        Point masses of the measure.
    singular_at_zero:
        True when the density is unbounded as ``t -> 0`` (e.g. power-family
        ``t**-alpha``).  The integrator then splits the first panel so
        ``scipy.integrate.quad`` handles the endpoint singularity.
    breakpoints:
        Extra panel boundaries where the density is non-smooth (e.g. knots
        of a piecewise-linear delay-utility); improves quadrature accuracy.
    """

    density: Optional[Callable[[float], float]] = None
    atoms: Tuple[Atom, ...] = field(default_factory=tuple)
    singular_at_zero: bool = False
    breakpoints: Tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.density is None and not self.atoms:
            raise ValueError("measure must have a density part or atoms")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    @declared_effects()  # pure: both callbacks are closed-form math
    def integrate(
        self,
        weight: Callable[[float], float],
        upper: float = math.inf,
        *,
        rtol: float = 1e-10,
    ) -> float:
        """Return ``integral over (0, upper] of weight(t) dC(t)``.

        The weight is integrated against the density with
        :func:`scipy.integrate.quad` (splitting at atoms and, when flagged,
        near zero), then atom contributions ``mass * weight(location)`` are
        added for atoms with ``0 < location <= upper``.

        Declared pure for ``repro analyze``: the ``weight`` callback and
        the measure's ``density`` are delay-utility integrands —
        closed-form math defined next to the utility families — so the
        calls through them are deterministic even though the static
        call graph cannot resolve them.
        """
        total = 0.0
        if self.density is not None:
            total += self._integrate_density(weight, upper, rtol)
        for atom in self.atoms:
            if 0.0 < atom.location <= upper:
                total += atom.mass * weight(atom.location)
        return total

    @declared_effects()  # pure: see `integrate` — same callbacks
    def _integrate_density(
        self, weight: Callable[[float], float], upper: float, rtol: float
    ) -> float:
        from scipy.integrate import quad

        density = self.density
        assert density is not None

        def integrand(t: float) -> float:
            return weight(t) * density(t)

        breakpoints = sorted(
            {a.location for a in self.atoms if 0.0 < a.location < upper}
            | {b for b in self.breakpoints if 0.0 < b < upper}
        )
        panels: List[Tuple[float, float]] = []
        lower = 0.0
        for point in breakpoints:
            panels.append((lower, point))
            lower = point
        panels.append((lower, upper))

        total = 0.0
        for left, right in panels:
            if right <= left:
                continue
            if math.isinf(right):
                value, _ = quad(integrand, left, right, epsrel=rtol, limit=200)
            # repro-lint: ignore[RPL005] panel edges are constructed from
            # the literal 0.0 above, so the sentinel compare is exact.
            elif left == 0.0 and self.singular_at_zero:
                # quad handles endpoint singularities if told where they are.
                value, _ = quad(
                    integrand,
                    left,
                    right,
                    epsrel=rtol,
                    limit=200,
                    points=[left],
                )
            else:
                value, _ = quad(integrand, left, right, epsrel=rtol, limit=200)
            total += value
        return total

    # ------------------------------------------------------------------
    # convenience transforms
    # ------------------------------------------------------------------
    def laplace(self, rate: float) -> float:
        """Return ``integral of exp(-rate * t) dC(t)``."""
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        return self.integrate(lambda t: math.exp(-rate * t))

    def total_mass(self, upper: float = math.inf) -> float:
        """Return the measure's total mass on ``(0, upper]``.

        Equals ``h(0+) - h(upper)`` for the generating delay-utility.
        """
        return self.integrate(lambda _t: 1.0, upper=upper)

    def scaled(self, factor: float) -> "DifferentialMeasure":
        """Return the measure scaled by a non-negative *factor*."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        density = self.density
        new_density = None
        if density is not None:
            new_density = lambda t, _d=density: factor * _d(t)  # noqa: E731
        return DifferentialMeasure(
            density=new_density,
            atoms=tuple(Atom(a.location, factor * a.mass) for a in self.atoms),
            singular_at_zero=self.singular_at_zero,
            breakpoints=self.breakpoints,
        )

    @staticmethod
    def combine(
        measures: Sequence["DifferentialMeasure"],
    ) -> "DifferentialMeasure":
        """Return the sum of several measures (used by mixture utilities)."""
        if not measures:
            raise ValueError("need at least one measure to combine")
        densities = [m.density for m in measures if m.density is not None]
        atoms: List[Atom] = []
        for m in measures:
            atoms.extend(m.atoms)

        combined_density = None
        if densities:

            def combined_density(t: float, _ds=tuple(densities)) -> float:
                return sum(d(t) for d in _ds)

        breakpoints: List[float] = []
        for m in measures:
            breakpoints.extend(m.breakpoints)
        return DifferentialMeasure(
            density=combined_density,
            atoms=tuple(atoms),
            singular_at_zero=any(m.singular_at_zero for m in measures),
            breakpoints=tuple(sorted(set(breakpoints))),
        )
