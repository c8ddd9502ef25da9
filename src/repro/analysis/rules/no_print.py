"""RPL009 — no bare ``print()`` in experiment orchestration code.

Sweeps run for minutes to hours, fan out over worker processes, and are
resumed from checkpoints; their status output must be filterable by
level, carry structured fields, and interleave sanely across processes.
A bare ``print()`` gives none of that — it writes to stdout (where
figure/table renderings go), cannot be silenced in tests, and loses the
(trial, protocol) context that makes a line greppable.  Experiment code
reports through :func:`repro.obs.log.get_logger` instead.

Scope is ``src/repro/experiments/`` only: the CLI layer prints its
``render()`` output on purpose, and library code elsewhere simply has
nothing to say.  Deliberate exceptions (there are few) use an inline
``# repro-lint: ignore[RPL009]`` suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["NoPrintRule"]


class NoPrintRule(Rule):
    code = "RPL009"
    name = "no-print-in-experiments"
    summary = (
        "experiment orchestration reports through repro.obs.log, "
        "never bare print() (scope: experiments/)"
    )
    hint = (
        "use get_logger(__name__).info(message, **fields) from "
        "repro.obs.log; printing belongs in the CLI layer"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_directory("experiments")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "bare print() in experiment code: unleveled, "
                    "unstructured, and mixed into stdout renderings",
                )
