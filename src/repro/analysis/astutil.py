"""AST helpers shared by the call graph, the checkers and the rules."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

__all__ = ["dotted_name", "iter_calls", "is_name_constant"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve a ``Name``/``Attribute`` chain to ``a.b.c``, else ``None``."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def iter_calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every call in *tree* paired with its dotted callee name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node, dotted_name(node.func)


def is_name_constant(node: ast.AST, *names: str) -> bool:
    """True when *node* is a bare name or attribute tail in *names*.

    Matches both ``Exception`` and e.g. ``builtins.Exception``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return False
    return dotted in names or dotted.rsplit(".", 1)[-1] in names
