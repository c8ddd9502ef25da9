"""RPL001 / RPL002 — unseeded randomness and host-clock reads, per file.

The reproduction's headline property is bit-identical seeded runs
(serial vs. parallel sweeps, optimized vs. reference engine).  Any use
of the stdlib ``random`` module, numpy's *global* RNG state or OS
entropy breaks that silently: global state is shared across protocols
within a trial and differs between the serial walk and forked workers.
All randomness must flow through explicitly seeded
:class:`numpy.random.Generator` objects (``repro.types.as_rng`` / the
``sim/seeding.py`` path).  Reading the host clock does the same to
simulated time: results come to depend on machine load, and the
reference-equivalence tests compare event by event.

Both rules resolve each call's dotted name through the module's imports
and ask :func:`~repro.analysis.effects.classify_external_call` whether
it is ``UNSEEDED_RNG`` or ``WALL_CLOCK`` — the same tables RPA001 reads.
The rules flag a hazard anywhere in a file; RPA001 flags it only when
it reaches a deterministic surface.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..astutil import iter_calls
from ..callgraph import _collect_imports, _ModuleSymbols
from ..effects import UNSEEDED_RNG, WALL_CLOCK, classify_external_call
from ..findings import Finding
from ..program import ModuleInfo
from .base import FileContext, Rule

__all__ = ["UnseededRngRule", "WallClockRule"]


def _hazard_calls(
    tree: ast.Module, ctx: FileContext, effect: str
) -> Iterator[Tuple[ast.Call, str]]:
    """Every call in *tree* that the effect tables classify as *effect*.

    Yields the call with the table's note on it.  A name whose head is
    not an import (a builtin, a local) is looked up as written.
    """
    symbols = _ModuleSymbols(
        ModuleInfo(ctx.display_path, ctx.display_path, "", tree)
    )
    _collect_imports(symbols)
    for call, name in iter_calls(tree):
        if name is None:
            continue
        head, _, rest = name.partition(".")
        if head in symbols.imports:
            module, symbol = symbols.imports[head]
            head = module if symbol is None else f"{module}.{symbol}"
        dotted = f"{head}.{rest}" if rest else head
        classified = classify_external_call(dotted, call)
        if classified is not None and classified[0] == effect:
            yield call, classified[1]


class UnseededRngRule(Rule):
    code = "RPL001"
    name = "no-unseeded-rng"
    summary = (
        "randomness must come from explicitly seeded numpy Generators, "
        "never the stdlib random module or numpy's global RNG state"
    )
    hint = (
        "thread a seed or np.random.Generator through repro.types.as_rng "
        "(initial placement goes through sim/seeding.py)"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib 'random' module is unseeded global "
                            "state; it breaks bit-identical replay",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        ctx,
                        node,
                        "import from stdlib 'random' relies on unseeded "
                        "global state",
                    )
        for call, note in _hazard_calls(tree, ctx, UNSEEDED_RNG):
            yield self.finding(
                ctx, call, f"{note}; seeded runs are no longer reproducible"
            )


class WallClockRule(Rule):
    code = "RPL002"
    name = "no-wall-clock"
    summary = (
        "simulation logic must be driven by event time, never the host "
        "clock (exempt: benchmarks/, obs/timing.py)"
    )
    hint = (
        "use the simulation's event time; wall-clock timing belongs in "
        "benchmarks/ or the obs/timing.py provenance stopwatch"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # Timing is legitimate only in the benchmarks and the telemetry
        # stopwatch, whose measurements land in manifests, never in
        # simulation state.
        if ctx.in_directory("benchmarks") or ctx.parts[:1] == ("benchmarks",):
            return False
        return not ctx.matches("obs", "timing.py")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for call, note in _hazard_calls(tree, ctx, WALL_CLOCK):
            yield self.finding(
                ctx,
                call,
                f"{note}; results become machine- and load-dependent",
            )
