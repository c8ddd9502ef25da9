"""RPL007 — broad exception handlers that swallow diagnostics.

``except:`` / ``except Exception`` around a loader or checkpoint path
can swallow :class:`~repro.errors.TraceFormatError` (a corrupt trace
silently becomes an empty one) or checkpoint-corruption errors (a sweep
quietly restarts from scratch).  Broad handlers are allowed only when
the handler visibly re-raises (``except Exception: cleanup(); raise``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import is_name_constant
from ..findings import Finding
from .base import FileContext, Rule

__all__ = ["BroadExceptRule"]


def _is_broad(handler_type: ast.AST) -> bool:
    if is_name_constant(handler_type, "Exception", "BaseException"):
        return True
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(element) for element in handler_type.elts)
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains a re-raise on some path."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


class BroadExceptRule(Rule):
    code = "RPL007"
    name = "no-swallowed-errors"
    summary = (
        "bare/broad except may swallow TraceFormatError or checkpoint "
        "corruption; catch specific errors or re-raise"
    )
    hint = (
        "catch the specific exception (TraceFormatError, "
        "ConfigurationError, OSError, ...) or re-raise on at least one "
        "path"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not _reraises(node):
                    yield self.finding(
                        ctx,
                        node,
                        "bare 'except:' swallows every error including "
                        "KeyboardInterrupt",
                    )
            elif _is_broad(node.type) and not _reraises(node):
                caught = ast.unparse(node.type)
                yield self.finding(
                    ctx,
                    node,
                    f"'except {caught}' without a re-raise can swallow "
                    "TraceFormatError / checkpoint corruption",
                )
