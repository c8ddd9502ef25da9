"""RPL001 — seeded determinism.

The reproduction's headline property is bit-identical seeded runs
(serial vs. parallel sweeps, optimized vs. reference engine).  Any use
of the stdlib ``random`` module or numpy's *global* RNG state breaks
that silently: global state is shared across protocols within a trial
and differs between the serial walk and forked workers.  All randomness
must flow through explicitly seeded :class:`numpy.random.Generator`
objects (``repro.types.as_rng`` / the ``sim/seeding.py`` path).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import iter_calls
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["DeterminismRule"]

#: numpy.random module-level functions that touch the hidden global
#: ``RandomState`` (the legacy API).  ``default_rng``/``SeedSequence``/
#: ``Generator``/bit generators are the sanctioned, explicit-state API.
_LEGACY_GLOBAL = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "get_state",
        "set_state",
    }
)


class DeterminismRule(Rule):
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
        for call, name in iter_calls(tree):
            if name is None:
                continue
            head, _, tail = name.rpartition(".")
            if head in ("np.random", "numpy.random") and tail in _LEGACY_GLOBAL:
                yield self.finding(
                    ctx,
                    call,
                    f"'{name}' uses numpy's hidden global RandomState; "
                    "seeded runs are no longer reproducible",
                )
            elif tail == "default_rng" and not call.args and not call.keywords:
                yield self.finding(
                    ctx,
                    call,
                    "default_rng() without a seed draws OS entropy; every "
                    "RNG must be derived from the run's seed",
                )
