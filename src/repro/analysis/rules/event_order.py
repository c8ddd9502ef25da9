"""RPL004 — stable event-stream ordering in the engine.

The engine merges three individually time-sorted streams — faults,
requests, contacts — with one stable ``np.lexsort`` keyed on
``(kinds, times)``: primary key time, tie-break by kind code so that
same-instant events apply fault → request → contact, and original order
within each stream is preserved.  The parallel-determinism and
reference-equivalence guarantees assume exactly this order; an ad-hoc
re-sort (default ``np.sort``/``np.argsort`` are unstable introsorts) or
a lexsort with a different key silently reorders same-time events.

Scope: modules under ``sim/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import iter_calls
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["EventOrderRule"]

_STABLE_KINDS = ("stable", "mergesort")


def _kind_keyword(call: ast.Call) -> object:
    for keyword in call.keywords:
        if keyword.arg == "kind" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value
    return None


class EventOrderRule(Rule):
    code = "RPL004"
    name = "stable-event-order"
    summary = (
        "event-stream merges in sim/ must keep the stable "
        "(kinds, times) lexsort key (fault -> request -> contact)"
    )
    hint = (
        "merge events with np.lexsort((kinds, times)) — time-primary, "
        "kind tie-break — or pass kind='stable' to argsort/sort; see "
        "Simulation._build_event_stream"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_directory("sim")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for call, name in iter_calls(tree):
            if name is None:
                continue
            tail = name.rsplit(".", 1)[-1]
            if tail == "lexsort":
                yield from self._check_lexsort(ctx, call)
            elif tail == "argsort" and _kind_keyword(call) not in _STABLE_KINDS:
                yield self.finding(
                    ctx,
                    call,
                    "argsort without kind='stable' can reorder same-time "
                    "events and break replay",
                )
            elif name in ("np.sort", "numpy.sort") and (
                _kind_keyword(call) not in _STABLE_KINDS
            ):
                yield self.finding(
                    ctx,
                    call,
                    "np.sort without kind='stable' is an unstable "
                    "introsort; same-time events may swap",
                )

    def _check_lexsort(
        self, ctx: FileContext, call: ast.Call
    ) -> Iterator[Finding]:
        keys = call.args[0] if call.args else None
        if not isinstance(keys, (ast.Tuple, ast.List)) or len(keys.elts) < 2:
            yield self.finding(
                ctx,
                call,
                "lexsort needs an explicit (kinds, times) key tuple so "
                "the merge order is auditable",
            )
            return
        rendered = [ast.unparse(element) for element in keys.elts]
        # lexsort's *last* key is primary: it must be the event times.
        primary_is_time = "time" in rendered[-1]
        has_kind_tiebreak = any(
            "kind" in text or "priority" in text for text in rendered[:-1]
        )
        if not (primary_is_time and has_kind_tiebreak):
            yield self.finding(
                ctx,
                call,
                f"lexsort key ({', '.join(rendered)}) drops the stable "
                "fault -> request -> contact order: the last (primary) "
                "key must be the times, with a kind tie-break before it",
            )
