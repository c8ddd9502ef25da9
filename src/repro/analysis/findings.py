"""The one finding record every rule and checker produces.

A finding pins one violation to a source location and carries the rule
code (``RPL001``…, ``RPA001``…), a human-readable message, a fix hint
and, for whole-program checks, the inter-procedural *trace* — the chain
of call sites from the checked root down to the leaf operation that
introduced the effect.  Per-file rules leave the trace empty.  Findings
sort by (file, line, column, code) so reports are stable across runs —
the analyzer itself must be deterministic, for obvious reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = ["Finding", "PathStep"]


@dataclass(frozen=True, order=True)
class PathStep:
    """One hop of a propagation path."""

    path: str
    line: int
    symbol: str
    note: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.symbol} — {self.note}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "note": self.note,
        }


@dataclass(frozen=True, order=True)
class Finding:
    """One violation at a source location.

    ``col`` is 1-based; whole-program findings anchor a line and use 0.
    ``trace[0]`` is the checked root (surface / durability root /
    emission site) and the last step is the leaf operation.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""
    trace: Tuple[PathStep, ...] = ()

    def render(self) -> str:
        """``path:line:col: CODE message``, then the hint and the path."""
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        if len(self.trace) > 1:
            lines = [text, "    propagation path:"]
            lines.extend(f"      {step.render()}" for step in self.trace)
            text = "\n".join(lines)
        return text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form used by ``--format json``."""
        return {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
            "trace": [step.to_dict() for step in self.trace],
        }

    def fingerprint(self) -> str:
        """Line-number-free identity (SARIF ``partialFingerprints``).

        Stable across unrelated edits to the same files: built from the
        rule code, the anchor file, and the message (which names the
        symbols involved, not their line numbers).
        """
        return f"{self.code}::{self.path}::{self.message}"
