"""RPL003 — protocol purity.

Replication protocols react to engine events; the engine owns replica
accounting (cache contents, replica counts, the outstanding-request
book).  A protocol that writes that state directly
desynchronizes the engine's metrics — welfare numbers stay plausible but
stop matching Eq. 1 — so protocols may only create replicas through
``sim.insert_copy`` / ``sim.set_initial_allocation`` and may only mutate
their *own* per-node state (the QCR mandate book).

Scope: modules under ``protocols/``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..astutil import dotted_name
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["ProtocolPurityRule"]

#: NodeState attributes owned by the engine; protocols read, never write.
_ENGINE_OWNED_ATTRS = frozenset(
    {"cache", "outstanding", "counter", "created_at", "is_server", "is_client"}
)

#: Mutating Cache methods a protocol must never call directly.
_CACHE_MUTATORS = frozenset(
    {"insert", "add", "discard", "pin", "fill_random", "pop", "clear"}
)

#: Engine-owned NodeState methods that mutate the request book.
_NODE_MUTATORS = frozenset({"add_request"})


def _engine_owned_attr(node: ast.AST) -> Optional[str]:
    """The engine-owned attribute name when *node* targets one."""
    if isinstance(node, ast.Attribute) and node.attr in _ENGINE_OWNED_ATTRS:
        return node.attr
    return None


class ProtocolPurityRule(Rule):
    code = "RPL003"
    name = "protocol-purity"
    summary = (
        "protocols mutate caches only via sim.insert_copy and never "
        "write engine-owned node state"
    )
    hint = (
        "create/remove replicas via sim.insert_copy/sim.remove_copy so "
        "the engine's replica accounting stays consistent; protocol "
        "state belongs in the mandates book or on the protocol object"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_directory("protocols")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    yield from self._check_store(ctx, node, target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    yield from self._check_store(ctx, node, target)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_store(
        self, ctx: FileContext, stmt: ast.AST, target: ast.AST
    ) -> Iterator[Finding]:
        # x.cache = ... / del x.cache / x.outstanding[i] = ...
        attr = _engine_owned_attr(target)
        if attr is not None and not self._is_self_store(target):
            yield self.finding(
                ctx,
                stmt,
                f"protocol writes engine-owned node attribute '.{attr}'",
            )
            return
        if isinstance(target, ast.Subscript):
            attr = _engine_owned_attr(target.value)
            if attr is not None:
                yield self.finding(
                    ctx,
                    stmt,
                    f"protocol mutates engine-owned '.{attr}' contents",
                )

    @staticmethod
    def _is_self_store(target: ast.AST) -> bool:
        """Allow ``self.cache = ...`` style protocol-object state."""
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )

    def _check_call(
        self, ctx: FileContext, call: ast.Call
    ) -> Iterator[Finding]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        # <expr>.cache.<mutator>(...)
        if (
            func.attr in _CACHE_MUTATORS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "cache"
        ):
            name = dotted_name(func) or f"<expr>.cache.{func.attr}"
            yield self.finding(
                ctx,
                call,
                f"direct cache mutation '{name}(...)' bypasses the "
                "engine's replica accounting",
            )
        elif func.attr in _NODE_MUTATORS:
            yield self.finding(
                ctx,
                call,
                f"'.{func.attr}(...)' mutates the engine-owned request "
                "book",
            )
        # <expr>.outstanding.<mutator>(...) — popping/clearing requests.
        elif (
            isinstance(func.value, ast.Attribute)
            and func.value.attr in ("outstanding",)
            and func.attr in ("pop", "clear", "setdefault", "update")
        ):
            yield self.finding(
                ctx,
                call,
                "protocol mutates the engine-owned outstanding-request "
                "book",
            )
