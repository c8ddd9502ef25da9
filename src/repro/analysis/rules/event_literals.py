"""RPL011 — event kinds are schema constants, not string literals.

Every trace event kind lives in the :mod:`repro.obs.events` registry
(``EVENT_FIELDS``) next to its field schema; call sites name kinds
through the registry's constants (``trace_events.DELIVER``,
``ev.REPLICA_ADD``, ...).  A string literal at an emit site bypasses
that single source of truth: a typo mints a kind the registry has never
heard of, and readers silently skip it.

The whole-program schema check RPA003 flags an *unregistered* kind at
its emit site statically, whether it is spelled as a literal or not.
This rule is the only check that flags a *registered* kind spelled as
a literal: any ``*.emit("literal", ...)`` outside :mod:`repro.obs`
itself.  The registry module and its neighbours are exempt — that is
where the literals are *defined* and where sinks forward fully-formed
event records.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import iter_calls
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["EventLiteralRule"]


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
            if name is None or not name.endswith(".emit"):
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
