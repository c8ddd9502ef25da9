"""Per-file rule base: :class:`Rule` and its :class:`FileContext`.

The runner calls :meth:`Rule.check` once per parsed module (package
modules and loose files alike) with the module's AST and a
:class:`FileContext`.

Rules scope themselves by *logical path* — the path parts below the
package root (``src/repro/sim/engine.py`` → ``("sim", "engine.py")``).
Test fixtures mirror the package layout under ``tests/analysis/fixtures/``,
so a fixture at ``fixtures/rules/protocols/bad.py`` exercises the same
scoping as real code in ``src/repro/protocols/``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Tuple

from ..findings import Finding

__all__ = ["FileContext", "Rule"]

#: Anchors below which the logical path starts; ``repro`` covers the real
#: package, ``fixtures`` covers the analyzer's test corpus.
_PATH_ANCHORS = ("repro", "fixtures")


def logical_parts(path: Path) -> Tuple[str, ...]:
    """Path parts below the last package anchor (``repro``/``fixtures``).

    The top-level ``benchmarks/`` tree has no package anchor above it;
    it anchors *inclusively* so rules can recognize it by its first
    part regardless of where the repository is checked out.
    """
    parts = path.parts
    for anchor in _PATH_ANCHORS:
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            return parts[index + 1 :]
    if "benchmarks" in parts:
        index = len(parts) - 1 - parts[::-1].index("benchmarks")
        return parts[index:]
    return parts[-1:]


class FileContext:
    """Everything a rule may know about the file under analysis."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.display_path = str(path)
        self.parts = logical_parts(path)

    def in_directory(self, name: str) -> bool:
        """True when the file sits (anywhere) under package dir *name*."""
        return name in self.parts[:-1]

    def matches(self, *suffix: str) -> bool:
        """True when the logical path ends with *suffix* parts."""
        return self.parts[-len(suffix) :] == suffix


class Rule:
    """Base class for per-file rules."""

    #: Stable rule code, e.g. ``"RPL001"``.
    code: str = ""
    #: Short kebab-case name used in ``--list-rules``.
    name: str = ""
    #: One-line description of what the rule protects.
    summary: str = ""
    #: Default fix hint attached to findings.
    hint: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Path-level scoping; default is every file."""
        return True

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        hint: str = "",
    ) -> Finding:
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            hint=hint or self.hint,
        )

