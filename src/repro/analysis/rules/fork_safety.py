"""RPL008 — fork-safety of parallel work units.

The parallel sweep runner fans ``(trial, protocol)`` units over a
``fork`` process pool and promises bit-identical results.  That promise
has three structural preconditions:

* the pool's start method is pinned explicitly (``mp_context=``) — the
  platform default flipped to ``spawn`` on macOS and is changing on
  Linux, and the fork-inherited ``_POOL_SPEC`` pattern silently breaks
  under ``spawn``;
* submitted callables are module-level functions, not lambdas/closures
  (unpicklable under spawn, and closure captures are exactly the state
  that diverges between parent and child);
* RNG *objects* never cross the process boundary — a Generator captured
  at submit time has parent-side state; workers must derive their own
  from integer seeds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted_name
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["ForkSafetyRule"]

_POOL_CONSTRUCTORS = frozenset(
    {
        "ProcessPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "futures.ProcessPoolExecutor",
    }
)

#: Receiver-name fragments that mark a submit/map target as a pool.
_POOL_RECEIVERS = ("pool", "executor")


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(keyword.arg == name for keyword in call.keywords)


def _is_rng_like(node: ast.AST) -> bool:
    """Heuristic: an RNG object crossing into a work unit."""
    if isinstance(node, ast.Name) and node.id in ("rng", "generator"):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func) or ""
        return name.rsplit(".", 1)[-1] == "default_rng"
    return False


class ForkSafetyRule(Rule):
    code = "RPL008"
    name = "fork-safe-work-units"
    summary = (
        "parallel work units must be picklable, seed-driven, and run on "
        "a pool with an explicitly pinned start method"
    )
    hint = (
        "pin mp_context=multiprocessing.get_context('fork'), submit "
        "module-level functions, and pass integer seeds (derive "
        "Generators inside the worker)"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _POOL_CONSTRUCTORS and not _has_keyword(
                node, "mp_context"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "ProcessPoolExecutor without mp_context=: the "
                    "platform-default start method is not fork "
                    "everywhere, and fork-inherited worker context "
                    "breaks under spawn",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "submit",
                "map",
            ):
                receiver = dotted_name(node.func.value) or ""
                if not any(
                    fragment in receiver.lower()
                    for fragment in _POOL_RECEIVERS
                ):
                    continue
                for arg in node.args:
                    if isinstance(arg, ast.Lambda):
                        yield self.finding(
                            ctx,
                            arg,
                            "lambda submitted to a process pool: "
                            "unpicklable under spawn and captures "
                            "parent-side state",
                        )
                    elif _is_rng_like(arg):
                        yield self.finding(
                            ctx,
                            arg,
                            "RNG object crosses the fork boundary; its "
                            "state is the parent's at fork time — pass "
                            "an integer seed instead",
                        )
