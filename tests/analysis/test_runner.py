"""Report rendering, rule selection, and CLI exit codes."""

import argparse
import json
from pathlib import Path

import pytest

from repro.analysis.cli import add_analyze_arguments, cmd_analyze
from repro.analysis.findings import Finding, PathStep
from repro.analysis.rules import RULES
from repro.analysis.runner import CHECKS, run_analysis
from repro.cli import main
from repro.errors import ConfigurationError

FIXPKG = Path(__file__).parent / "fixtures" / "fixpkg"


def make_finding(message, path="pkg/mod.py", code="RPA001"):
    return Finding(
        path=path,
        line=3,
        col=0,
        code=code,
        message=message,
        hint="",
        trace=(
            PathStep(path=path, line=3, symbol="pkg.mod.f", note="calls g"),
            PathStep(path=path, line=9, symbol="pkg.mod.g", note="leaf"),
        ),
    )


def test_fingerprint_is_line_free():
    a = make_finding("same message")
    b = Finding(
        path=a.path, line=99, col=7, code=a.code, message=a.message
    )
    assert a.fingerprint() == b.fingerprint()


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixpkg_report():
    return run_analysis([str(FIXPKG)])


def test_render_json_shape(fixpkg_report):
    payload = json.loads(fixpkg_report.render_json())
    assert payload["tool"] == "repro-analyze"
    assert payload["n_modules"] == len(list(FIXPKG.glob("*.py")))
    assert isinstance(payload["findings"], list)


def test_render_sarif_shape(fixpkg_report):
    sarif = json.loads(fixpkg_report.render_sarif())
    assert sarif["version"] == "2.1.0"
    driver = sarif["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-analyze"
    assert {rule["id"] for rule in driver["rules"]} == set(CHECKS)
    for result in sarif["runs"][0]["results"]:
        assert result["ruleId"] in CHECKS
        assert "reproAnalyze/v1" in result["partialFingerprints"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser()
    add_analyze_arguments(parser)
    return parser.parse_args(argv)


def test_cli_clean_run_exits_zero(capsys):
    # The fixture package has no surfaces, dist tree, or event
    # registry, so every whole-program checker comes back clean (its
    # deliberate clock reads are per-file RPL002 findings).
    code = cmd_analyze(
        parse_args([str(FIXPKG), "--select", "RPA001,RPA002,RPA003,RPA004"])
    )
    assert code == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_list_checks(capsys):
    code = cmd_analyze(parse_args(["--list-rules"]))
    assert code == 0
    out = capsys.readouterr().out
    assert len(CHECKS) == 15
    for check in CHECKS:
        assert check in out


def test_cli_unknown_select_code_fails(capsys):
    # A typo in a CI selector must not turn the gate into a no-op.
    with pytest.raises(ConfigurationError, match="RPA999"):
        run_analysis([str(FIXPKG)], select=["RPA999"])
    assert main(["analyze", str(FIXPKG), "--select", "RPA999"]) == 1
    assert "unknown rule code" in capsys.readouterr().err


# ----------------------------------------------------------------------
# selection decides what runs
# ----------------------------------------------------------------------
def test_rpl_only_selection_builds_no_call_graph():
    report = run_analysis([str(FIXPKG)], select=["RPL001", "RPL002"])
    assert report.graph is None and report.summaries is None
    assert report.n_functions == 0
    assert report.n_modules == len(list(FIXPKG.glob("*.py")))


def test_unselected_rules_do_not_run(monkeypatch):
    def boom(self, tree, ctx):
        raise AssertionError(f"{self.code} ran unselected")

    for rule in RULES:
        if rule.code != "RPL002":
            monkeypatch.setattr(type(rule), "check", boom)
    report = run_analysis([str(FIXPKG)], select=["RPL002", "RPA003"])
    assert report.graph is not None
    assert {f.code for f in report.findings} <= {"RPL002", "RPA003"}
