"""RPL010 — no unsupervised sleep-based retry loops.

A ``while`` loop that waits with ``time.sleep`` has no a-priori bound:
when the condition never flips (a process that died, a file that never
appears) the process spins forever with no one watching.  The one
sanctioned shape for waiting is a bounded retry — a ``for attempt in
range(attempts)`` loop with capped exponential backoff.  Only the
``benchmarks/`` harness is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted_name
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["RetrySleepRule"]

#: Callee names that block on the host clock inside a loop.
_SLEEP_CALLS = frozenset({"time.sleep", "sleep"})


def _sleeps_in(node: ast.AST) -> Iterator[ast.Call]:
    """Every sleep call lexically inside *node*, skipping nested defs.

    A function defined inside a ``while`` body runs on its own
    schedule — its sleeps are judged by the loop (if any) that the
    function itself contains, not by the enclosing loop.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(child, ast.Call) and dotted_name(child.func) in _SLEEP_CALLS:
            yield child
        yield from _sleeps_in(child)


class RetrySleepRule(Rule):
    code = "RPL010"
    name = "no-unsupervised-retry-sleep"
    summary = (
        "while-loops must not wait with time.sleep (exempt: "
        "benchmarks/)"
    )
    hint = (
        "bound the loop (for attempt in range(n) with capped backoff)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not (
            ctx.in_directory("benchmarks")
            or ctx.parts[:1] == ("benchmarks",)
        )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.While):
                continue
            for call in _sleeps_in(node):
                yield self.finding(
                    ctx,
                    call,
                    "sleep inside a while-loop is an unbounded retry: "
                    "nothing reaps the wait if the condition never "
                    "flips",
                )
