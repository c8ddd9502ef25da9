"""Whole-program checkers over inferred effect summaries.

Each checker is a function ``(program, graph, summaries) -> findings``.
All of them honor the shared ``# repro-lint: ignore[RPAxxx]``
suppression comments at *either* end of a propagation path: the line of
the leaf operation or the ``def`` line of the checked root (see
:meth:`repro.analysis.program.Program.suppresses`).
"""

from __future__ import annotations

from .determinism import check_determinism
from .schema import check_schema

__all__ = ["check_determinism", "check_schema"]
