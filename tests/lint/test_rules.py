"""Per-file ``RPL`` rules of ``repro analyze``: one true-positive and
one clean-pass fixture each."""

from pathlib import Path

import pytest

from repro.analysis.rules import RULES
from repro.analysis.runner import run_analysis

FIXTURES = Path(__file__).parents[1] / "analysis" / "fixtures" / "rules"

#: code -> (bad fixture, good fixture, minimum expected true positives).
RULE_FIXTURES = {
    "RPL001": ("rpl001_bad.py", "rpl001_good.py", 5),
    "RPL002": ("rpl002_bad.py", "rpl002_good.py", 3),
    "RPL003": (
        "protocols/rpl003_bad.py",
        "protocols/rpl003_good.py",
        6,
    ),
    "RPL004": ("sim/rpl004_bad.py", "sim/rpl004_good.py", 4),
    "RPL005": (
        "allocation/rpl005_bad.py",
        "allocation/rpl005_good.py",
        4,
    ),
    "RPL006": ("rpl006_bad.py", "rpl006_good.py", 5),
    "RPL007": ("rpl007_bad.py", "rpl007_good.py", 3),
    "RPL008": ("rpl008_bad.py", "rpl008_good.py", 3),
    "RPL009": (
        "experiments/rpl009_bad.py",
        "experiments/rpl009_good.py",
        4,
    ),
    "RPL010": ("rpl010_bad.py", "rpl010_good.py", 3),
    "RPL011": ("rpl011_bad.py", "rpl011_good.py", 4),
}


def codes_in(path: Path) -> list:
    report = run_analysis([str(path)])
    assert report.graph is None
    assert not report.parse_errors, report.parse_errors
    return [finding.code for finding in report.findings]


def test_every_rule_has_fixtures() -> None:
    registered = {rule.code for rule in RULES}
    assert registered == set(RULE_FIXTURES)


@pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
def test_bad_fixture_detected(code: str) -> None:
    bad, _, min_findings = RULE_FIXTURES[code]
    codes = codes_in(FIXTURES / bad)
    assert codes.count(code) >= min_findings, codes


@pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
def test_good_fixture_clean(code: str) -> None:
    _, good, _ = RULE_FIXTURES[code]
    codes = codes_in(FIXTURES / good)
    assert code not in codes, codes


@pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
def test_good_fixture_fully_clean(code: str) -> None:
    """Good fixtures trip no rule at all, not just their own."""
    _, good, _ = RULE_FIXTURES[code]
    assert codes_in(FIXTURES / good) == []


def test_wallclock_exempt_paths() -> None:
    assert codes_in(FIXTURES / "benchmarks" / "rpl002_exempt.py") == []
    assert codes_in(FIXTURES / "experiments" / "benchmark.py") == []


def test_retry_sleep_checked_under_dist() -> None:
    """dist/ has no RPL010 carve-out: a sleep-polling loop there is flagged."""
    assert codes_in(FIXTURES / "dist" / "rpl010_polling.py") == ["RPL010"]


def test_no_print_silent_outside_experiments() -> None:
    """print() is only an RPL009 finding under experiments/."""
    source = (FIXTURES / "experiments" / "rpl009_bad.py").read_text()
    copy = FIXTURES / "rpl009_relocated_tmp.py"
    copy.write_text(source)
    try:
        assert "RPL009" not in codes_in(copy)
    finally:
        copy.unlink()


def test_findings_carry_location_and_hint() -> None:
    report = run_analysis([str(FIXTURES / "rpl002_bad.py")])
    finding = report.findings[0]
    assert finding.line > 1
    assert finding.col >= 1
    assert finding.code == "RPL002"
    assert finding.hint
    assert "rpl002_bad.py" in finding.path


def test_scoped_rules_silent_outside_their_package() -> None:
    """The same source is clean when it lives outside the rule's scope."""
    source = (FIXTURES / "sim" / "rpl004_bad.py").read_text()
    copy = FIXTURES / "rpl004_relocated_tmp.py"
    copy.write_text(source)
    try:
        assert "RPL004" not in codes_in(copy)
    finally:
        copy.unlink()
