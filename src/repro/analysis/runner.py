"""Analysis driver: parse, build the graph, infer, check, baseline.

:func:`run_analysis` is the programmatic entry point behind
``repro analyze``.  Output ordering is deterministic end to end —
modules parse in sorted order, the fixed point iterates sorted qnames,
findings sort by location — so CI diffs and SARIF artifacts are stable
across machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .baseline import load_baseline, split_by_baseline
from .callgraph import CallGraph, build_call_graph
from .checkers import check_determinism, check_durability, check_schema
from .findings import AnalysisFinding
from .inference import EffectSummary, infer_effects
from .program import Program

__all__ = ["AnalysisReport", "CHECKS", "WARNING_CODES", "run_analysis"]

#: Schema version of the ``--format json`` payload.
JSON_VERSION = 1

#: code -> (name, one-line description) — the check catalog.
CHECKS: Dict[str, Tuple[str, str]] = {
    "RPA001": (
        "determinism-boundary",
        "unseeded RNG, host-clock reads, hash-order iteration, and "
        "dynamic calls must not reach a declared-deterministic surface",
    ),
    "RPA002": (
        "durability",
        "raw filesystem writes reachable from repro.dist or the "
        "run cache (repro.simcache) must go through repro.durable",
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
}

#: Codes that report but never fail the run.
WARNING_CODES = frozenset({"RPA004"})


@dataclass
class AnalysisReport:
    """Outcome of one whole-program analysis run."""

    findings: List[AnalysisFinding] = field(default_factory=list)
    baselined: List[AnalysisFinding] = field(default_factory=list)
    n_modules: int = 0
    n_functions: int = 0
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Kept for tests and tooling; never serialized.
    graph: Optional[CallGraph] = None
    summaries: Optional[Dict[str, EffectSummary]] = None

    @property
    def errors(self) -> List[AnalysisFinding]:
        return [f for f in self.findings if f.code not in WARNING_CODES]

    @property
    def warnings(self) -> List[AnalysisFinding]:
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
            f"{self.n_functions} function(s)"
        )
        if self.baselined:
            summary += f", {len(self.baselined)} baselined"
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
            "n_baselined": len(self.baselined),
            "parse_errors": [
                {"file": path, "message": message}
                for path, message in self.parse_errors
            ],
            "findings": [finding.to_dict() for finding in self.findings],
            "baselined": sorted(
                finding.fingerprint() for finding in self.baselined
            ),
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
                                "startColumn": finding.col + 1,
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


_CHECKERS = (
    check_determinism,
    check_durability,
    check_schema,
)


def run_analysis(
    root: str = "src/repro",
    *,
    package: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
    baseline_path: Optional[Path] = None,
    source_overrides: Optional[Mapping[str, str]] = None,
) -> AnalysisReport:
    """Analyze the package tree at *root* and return the report.

    *select* restricts the run to the listed check codes.
    *baseline_path*, when given and existing, partitions findings into
    new vs. baselined.  *source_overrides* substitutes module sources
    in memory (the seeded regression tests inject nondeterminism this
    way).
    """
    program = Program.load(
        Path(root), package=package, source_overrides=source_overrides
    )
    graph = build_call_graph(program)
    summaries = infer_effects(graph)
    findings: List[AnalysisFinding] = []
    for checker in _CHECKERS:
        for finding in checker(program, graph, summaries):
            assert isinstance(finding, AnalysisFinding)
            findings.append(finding)
    if select:
        wanted = frozenset(select)
        findings = [f for f in findings if f.code in wanted]
    findings.sort()
    baseline = (
        load_baseline(baseline_path) if baseline_path is not None else None
    )
    new, baselined = split_by_baseline(findings, baseline)
    return AnalysisReport(
        findings=new,
        baselined=baselined,
        n_modules=len(program.modules),
        n_functions=len(graph.functions),
        parse_errors=list(program.parse_errors),
        graph=graph,
        summaries=summaries,
    )
