"""RPL002 — no wall-clock time in simulation logic.

Simulated time is event time; reading the host clock inside the library
makes results depend on machine load and breaks replay (the reference-
equivalence tests compare event-by-event).  Timing is legitimate only in
the benchmark harness and the provenance shim: the ``benchmarks/`` tree,
the runner's timing shim ``experiments/benchmark.py``, and the telemetry
stopwatch ``obs/timing.py`` (whose measurements land in manifests, never
in simulation state) are exempt by path.  Everything else that wants a
duration goes through :class:`repro.obs.timing.Stopwatch`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import iter_calls
from ..effects import CLOCK_CALLS
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["WallClockRule"]


class WallClockRule(Rule):
    code = "RPL002"
    name = "no-wall-clock"
    summary = (
        "simulation logic must be driven by event time, never the host "
        "clock (exempt: benchmarks/, experiments/benchmark.py, "
        "obs/timing.py)"
    )
    hint = (
        "use the simulation's event time; wall-clock timing belongs in "
        "benchmarks/, the experiments/benchmark.py shim, or the "
        "obs/timing.py provenance stopwatch"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.in_directory("benchmarks") or ctx.parts[:1] == ("benchmarks",):
            return False
        if ctx.matches("experiments", "benchmark.py"):
            return False
        return not ctx.matches("obs", "timing.py")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for call, name in iter_calls(tree):
            if name in CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    call,
                    f"'{name}' reads the host clock; results become "
                    "machine- and load-dependent",
                )
