"""Inline suppression comments.

A finding on line *n* is suppressed by a trailing (same-line) comment::

    risky_call()  # repro-lint: ignore[RPL002] timing shim, not sim logic

or by a standalone directive comment, which applies to the next code
line (justifications go on the comment lines above it)::

    # Timing shim used only by the benchmark harness.
    # repro-lint: ignore[RPL002]
    risky_call()

``ignore[CODE1,CODE2]`` suppresses only the listed codes; a bare
``# repro-lint: ignore`` suppresses every rule on that line.  A
``# repro-lint: skip-file`` comment anywhere in the first ten lines
excludes the whole file (used for vendored or generated code).

Comments are located with :mod:`tokenize`, so ``# repro-lint:`` inside a
string literal is never mistaken for a directive.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet

__all__ = ["SuppressionMap", "parse_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>ignore|skip-file)"
    r"(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)

#: Sentinel code set meaning "every rule".
_ALL: FrozenSet[str] = frozenset({"*"})

_SKIP_FILE_SCAN_LINES = 10


@dataclass
class SuppressionMap:
    """Per-line suppressed rule codes for one source file."""

    skip_file: bool = False
    #: line number -> suppressed codes ({"*"} means all).
    by_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def is_suppressed(self, line: int, code: str) -> bool:
        if self.skip_file:
            return True
        codes = self.by_line.get(line)
        if codes is None:
            return False
        return codes is _ALL or "*" in codes or code in codes


def parse_suppressions(source: str) -> SuppressionMap:
    """Extract every suppression directive from *source*."""
    suppressions = SuppressionMap()
    if "repro-lint" not in source:
        return suppressions  # no directive: skip the tokenizer
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST parse will report the real error; nothing to suppress.
        return suppressions
    #: Lines holding actual code (any non-comment, non-trivia token).
    code_lines = set()
    for token in tokens:
        if token.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            continue
        for line in range(token.start[0], token.end[0] + 1):
            code_lines.add(line)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        line = token.start[0]
        match = _DIRECTIVE.search(token.string)
        if match is None:
            continue
        if match.group("kind") == "skip-file":
            if line <= _SKIP_FILE_SCAN_LINES:
                suppressions.skip_file = True
            continue
        listed = match.group("codes")
        codes = (
            frozenset(code.strip() for code in listed.split(",") if code.strip())
            if listed
            else _ALL
        )
        if line not in code_lines:
            # Standalone directive: applies to the next code line.
            following = [n for n in code_lines if n > line]
            if not following:
                continue
            line = min(following)
        previous = suppressions.by_line.get(line)
        if previous is not None and codes is not _ALL and previous is not _ALL:
            codes = previous | codes
        suppressions.by_line[line] = codes
    return suppressions
