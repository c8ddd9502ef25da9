"""RPL011 — event kinds are schema constants, not string literals.

Every trace event kind lives in the :mod:`repro.obs.events` registry
(``EVENT_FIELDS``) next to its field schema; call sites name kinds
through the registry's constants (``trace_events.DELIVER``,
``ev.REPLICA_ADD``, ...).  A string literal at an emit site bypasses
that single source of truth: a typo mints a kind the registry has never
heard of, readers silently skip it, and the whole-program schema-drift
checker (``repro analyze`` RPA003/RPA004) is the only thing left to
notice — after the trace is already written.

This rule catches the drift at the file level, before it compiles into
a trace: any ``*.emit("literal", ...)`` or ``*.log_event("literal",
...)`` outside :mod:`repro.obs` itself is flagged.  The registry module
and its neighbours are exempt — that is where the literals are
*defined* and where sinks forward fully-formed event records.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import iter_calls
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["EventLiteralRule"]

#: Method tails that take an event kind as their first argument.
_EMIT_TAILS = ("emit", "log_event")


class EventLiteralRule(Rule):
    code = "RPL011"
    name = "event-kind-literals"
    summary = (
        "event kinds at emit sites come from the repro.obs.events "
        "registry, never string literals (exempt: obs/)"
    )
    hint = (
        "import the kind from repro.obs.events (e.g. "
        "`from repro.obs import events as trace_events; "
        "tracer.emit(trace_events.DELIVER, ...)`)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # The registry package defines the literals and its sinks
        # forward whole event records; everywhere else must go through
        # the constants.
        return not ctx.in_directory("obs")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for call, name in iter_calls(tree):
            if name is None or "." not in name:
                continue
            if name.rsplit(".", 1)[-1] not in _EMIT_TAILS:
                continue
            if not call.args:
                continue
            first = call.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                yield self.finding(
                    ctx,
                    first,
                    f"event kind {first.value!r} passed as a string "
                    "literal; emit sites must use the schema constant "
                    "from repro.obs.events",
                )
