"""Runtime-no-op decorators that seed the static effect analysis.

The analyzer reads these *syntactically* (it never imports analyzed
code), so they must stay importable from a dependency-free module —
this one imports nothing outside the stdlib ``typing``.

``@declared_effects(...)`` replaces a function's inferred effect set
with the declared one.  It is the structured escape hatch for
primitives whose correctness argument lives outside the type of
syntactic analysis we do — e.g. a quadrature routine that calls
caller-supplied callbacks is pure whenever those callbacks are
closed-form math, which no call graph can see, so it declares no
effects at all:

    @declared_effects()
    def integrate(self, weight, upper=math.inf): ...
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

__all__ = ["declared_effects"]

F = TypeVar("F", bound=Callable[..., Any])


def declared_effects(*effects: str) -> Callable[[F], F]:
    """Declare a function's effect set, overriding inference.

    *effects* are effect names from :mod:`repro.analysis.effects`
    (``"PURE"`` or an empty argument list declares purity).  The
    decorator does nothing at runtime.
    """

    def decorate(func: F) -> F:
        return func

    return decorate
