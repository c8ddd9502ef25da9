"""Analysis driver: parse once, run the selected rules and checks.

:func:`run_analysis` is the programmatic entry point behind
``repro analyze``.  A package directory (one holding ``__init__.py``)
is parsed into a :class:`~repro.analysis.program.Program`; the per-file
``RPL`` rules visit its modules, and the whole-program ``RPA`` checks
build the call graph and effect summaries over it.  Loose ``.py`` files
(``benchmarks/``, single fixtures) get the per-file rules only.

Output ordering is deterministic end to end — modules parse in sorted
order, the fixed point iterates sorted qnames, findings sort by
location — so CI diffs and SARIF artifacts are stable across machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigurationError
from .callgraph import CallGraph, build_call_graph
from .checkers import check_determinism, check_schema
from .findings import Finding
from .inference import EffectSummary, infer_effects
from .program import Program
from .rules import RULES, FileContext

__all__ = ["AnalysisReport", "CHECKS", "WARNING_CODES", "run_analysis"]

#: Schema version of the ``--format json`` payload.
JSON_VERSION = 2

#: code -> (name, one-line description) — the one rule catalog.
CHECKS: Dict[str, Tuple[str, str]] = {
    "RPA001": (
        "determinism-boundary",
        "unseeded RNG, host-clock reads, hash-order iteration, and "
        "dynamic calls must not reach a declared-deterministic surface",
    ),
    "RPA003": (
        "schema-unknown-kind",
        "every emitted trace-event kind must exist in the "
        "repro.obs.events registry",
    ),
    "RPA004": (
        "schema-dead-entry",
        "every registry entry should be emitted somewhere (warning)",
    ),
    **{rule.code: (rule.name, rule.summary) for rule in RULES},
}

#: Codes that report but never fail the run.
WARNING_CODES = frozenset({"RPA004"})

Checker = Callable[
    [Program, CallGraph, Dict[str, EffectSummary]], List[Finding]
]

#: Whole-program checkers and the codes each one reports.
_CHECKERS: Tuple[Tuple[FrozenSet[str], Checker], ...] = (
    (frozenset({"RPA001"}), check_determinism),
    (frozenset({"RPA003", "RPA004"}), check_schema),
)


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    n_modules: int = 0
    n_functions: int = 0
    #: Findings silenced by ``# repro-lint:`` directives.
    n_suppressed: int = 0
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Kept for tests and tooling; never serialized.  None when no
    #: whole-program check ran.
    graph: Optional[CallGraph] = None
    summaries: Optional[Dict[str, EffectSummary]] = None

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.code not in WARNING_CODES]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.code in WARNING_CODES]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.parse_errors

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.extend(
            f"{path}: parse error: {message}"
            for path, message in self.parse_errors
        )
        summary = (
            f"{len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s) across {self.n_modules} module(s) / "
            f"{self.n_functions} function(s), {self.n_suppressed} "
            "suppressed"
        )
        if self.parse_errors:
            summary += f", {len(self.parse_errors)} parse error(s)"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        payload = {
            "version": JSON_VERSION,
            "tool": "repro-analyze",
            "n_modules": self.n_modules,
            "n_functions": self.n_functions,
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "n_suppressed": self.n_suppressed,
            "parse_errors": [
                {"file": path, "message": message}
                for path, message in self.parse_errors
            ],
            "findings": [finding.to_dict() for finding in self.findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_sarif(self) -> str:
        """Minimal SARIF 2.1.0 — what code-scanning upload endpoints need."""
        results = []
        for finding in self.findings:
            related = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": step.path},
                        "region": {"startLine": step.line},
                    },
                    "message": {"text": f"{step.symbol} — {step.note}"},
                }
                for step in finding.trace
            ]
            result = {
                "ruleId": finding.code,
                "level": (
                    "warning" if finding.code in WARNING_CODES else "error"
                ),
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": max(finding.col, 1),
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproAnalyze/v1": finding.fingerprint()
                },
            }
            if related:
                result["relatedLocations"] = related
            results.append(result)
        payload = {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-analyze",
                            "version": str(JSON_VERSION),
                            "rules": [
                                {
                                    "id": code,
                                    "name": name,
                                    "shortDescription": {"text": text},
                                }
                                for code, (name, text) in sorted(
                                    CHECKS.items()
                                )
                            ],
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _selected_codes(select: Optional[Sequence[str]]) -> FrozenSet[str]:
    """The codes to run; an unknown code is a configuration error."""
    if not select:
        return frozenset(CHECKS)
    unknown = [code for code in select if code not in CHECKS]
    if unknown:
        raise ConfigurationError(
            f"unknown rule code(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(CHECKS))}"
        )
    return frozenset(select)


def _load(
    paths: Sequence[str], source_overrides: Optional[Mapping[str, str]]
) -> List[Program]:
    """The package program (if any) plus one program of loose files."""
    programs: List[Program] = []
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if (path / "__init__.py").is_file():
            if programs:
                raise ConfigurationError(
                    f"one package directory per run, got a second: {path}"
                )
            programs.append(
                Program.load(path, source_overrides=source_overrides)
            )
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.is_file():
            files.append(path)
        elif not path.exists():
            raise ConfigurationError(f"no such file or directory: {path}")
    seen = {
        Path(module.path).resolve()
        for program in programs
        for module in program.modules.values()
    }
    loose: List[Path] = []
    for path in files:
        if path.resolve() not in seen:
            seen.add(path.resolve())
            loose.append(path)
    programs.append(Program.load_files(loose))
    return programs


def _check_files(program: Program, codes: FrozenSet[str]) -> List[Finding]:
    """Run the selected per-file rules over every module of *program*."""
    rules = [rule for rule in RULES if rule.code in codes]
    findings: List[Finding] = []
    for module in program.modules.values():
        if module.suppressions.skip_file:
            continue
        ctx = FileContext(Path(module.path))
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            findings.extend(
                finding
                for finding in rule.check(module.tree, ctx)
                if not program.suppresses(
                    finding.code, (finding.path, finding.line)
                )
            )
    return findings


def run_analysis(
    paths: Sequence[str] = ("src/repro",),
    *,
    select: Optional[Sequence[str]] = None,
    source_overrides: Optional[Mapping[str, str]] = None,
) -> AnalysisReport:
    """Analyze *paths* (one package directory plus loose files).

    *select* lists the codes to run (default: all); unselected rules
    and checks never execute, and a selection without ``RPA`` codes
    builds no call graph.  *source_overrides* substitutes module
    sources of the package in memory (the seeded regression tests
    inject defects this way).
    """
    codes = _selected_codes(select)
    checkers = [checker for own, checker in _CHECKERS if own & codes]
    report = AnalysisReport()
    for program in _load(paths, source_overrides):
        report.n_modules += len(program.modules)
        report.parse_errors.extend(program.parse_errors)
        report.findings.extend(_check_files(program, codes))
        if program.package and checkers:
            report.graph = build_call_graph(program)
            report.summaries = infer_effects(report.graph)
            report.n_functions = len(report.graph.functions)
            for checker in checkers:
                report.findings.extend(
                    finding
                    for finding in checker(
                        program, report.graph, report.summaries
                    )
                    if finding.code in codes
                )
        report.n_suppressed += sum(
            count
            for code, count in program.suppressed.items()
            if code in codes
        )
    report.findings.sort()
    return report
