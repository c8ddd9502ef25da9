"""``repro analyze`` on loose files: suppressions, JSON mode, selection,
CLI wiring."""

import json
from pathlib import Path

import pytest

from repro.analysis.runner import JSON_VERSION, run_analysis
from repro.cli import main
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parents[1] / "analysis" / "fixtures" / "rules"


class TestSuppressions:
    def test_trailing_and_standalone_ignores(self) -> None:
        report = run_analysis([str(FIXTURES / "suppressed.py")])
        # trailing[RPL002], standalone[RPL002], bare ignore all suppress;
        # the wrong-code directive does not.
        assert report.n_suppressed == 3
        assert [f.code for f in report.findings] == ["RPL002"]
        assert report.findings[0].line > 15

    def test_skip_file(self) -> None:
        report = run_analysis([str(FIXTURES / "skipfile.py")])
        assert report.findings == []
        assert report.ok

    def test_suppression_comment_in_string_is_inert(self, tmp_path) -> None:
        path = tmp_path / "strings.py"
        path.write_text(
            'LABEL = "# repro-lint: ignore[RPL002]"\n'
            "import time\n"
            "NOW = time.time()\n"
        )
        report = run_analysis([str(path)])
        assert [f.code for f in report.findings] == ["RPL002"]


class TestRunner:
    def test_select_restricts_rules(self) -> None:
        report = run_analysis(
            [str(FIXTURES / "rpl001_bad.py")], select=["RPL002"]
        )
        assert report.findings == []

    def test_unknown_select_code_raises(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown rule code"):
            run_analysis([str(FIXTURES)], select=["RPL999"])

    def test_missing_path_raises(self) -> None:
        with pytest.raises(ConfigurationError, match="no such file"):
            run_analysis(["does/not/exist"])

    def test_parse_error_reported_not_raised(self, tmp_path) -> None:
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        report = run_analysis([str(bad)])
        assert not report.ok
        assert len(report.parse_errors) == 1
        assert "broken.py" in report.parse_errors[0][0]

    def test_deterministic_ordering(self) -> None:
        first = run_analysis([str(FIXTURES)])
        second = run_analysis([str(FIXTURES)])
        assert [f.render() for f in first.findings] == [
            f.render() for f in second.findings
        ]
        assert first.findings == sorted(first.findings)


class TestJsonFormat:
    def test_payload_shape(self) -> None:
        report = run_analysis([str(FIXTURES / "rpl002_bad.py")])
        payload = json.loads(report.render_json())
        assert payload["version"] == JSON_VERSION
        assert payload["tool"] == "repro-analyze"
        assert payload["n_errors"] == len(payload["findings"]) > 0
        entry = payload["findings"][0]
        assert set(entry) == {
            "file",
            "line",
            "col",
            "code",
            "message",
            "hint",
            "trace",
        }
        assert entry["trace"] == []

    def test_round_trips_through_json(self) -> None:
        report = run_analysis([str(FIXTURES)])
        payload = json.loads(report.render_json())
        assert len(payload["findings"]) == len(report.findings)
        assert payload["n_suppressed"] == report.n_suppressed


class TestCli:
    def test_exit_one_on_findings(self, capsys) -> None:
        code = main(["analyze", str(FIXTURES / "rpl002_bad.py")])
        captured = capsys.readouterr()
        assert code == 1
        assert "RPL002" in captured.out
        assert "hint:" in captured.out

    def test_exit_zero_on_clean(self, capsys) -> None:
        code = main(["analyze", str(FIXTURES / "rpl001_good.py")])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_flag(self, capsys) -> None:
        code = main(
            ["analyze", str(FIXTURES / "rpl002_bad.py"), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-analyze"

    def test_select_flag(self, capsys) -> None:
        code = main(
            [
                "analyze",
                str(FIXTURES / "rpl002_bad.py"),
                "--select",
                "RPL001",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_list_rules(self, capsys) -> None:
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL008", "RPA001"):
            assert code in out
