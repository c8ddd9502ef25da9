"""Per-file rule, packaging and type-check gates for the shipped tree.

The per-file ``RPL`` rules of ``repro analyze`` are clean on
``src/repro``, ``benchmarks`` and ``examples`` taken one tree at a time
(the whole-program run over the first two is in
``tests/analysis/test_clean_head.py``), the PEP 561 marker ships, and
(when mypy is installed) ``mypy`` is clean under the pyproject config.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.rules import RULES
from repro.analysis.runner import run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
RPL_CODES = [rule.code for rule in RULES]


def test_src_repro_is_lint_clean() -> None:
    report = run_analysis([str(SRC)], select=RPL_CODES)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro analyze found violations at HEAD:\n{rendered}"
    assert not report.parse_errors
    # The four per-file suppressions (RPL005/007/008), among them the
    # three utility/ sentinel comparisons.
    assert report.n_suppressed == 4


def test_benchmarks_tree_is_lint_clean() -> None:
    report = run_analysis([str(REPO_ROOT / "benchmarks")], select=RPL_CODES)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro analyze found violations at HEAD:\n{rendered}"
    assert report.n_modules == len(list((REPO_ROOT / "benchmarks").rglob("*.py")))


def test_examples_tree_is_lint_clean() -> None:
    examples = REPO_ROOT / "examples"
    report = run_analysis([str(examples)], select=RPL_CODES)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro analyze found violations at HEAD:\n{rendered}"
    assert report.n_modules == len(list(examples.rglob("*.py"))) >= 6


def test_py_typed_marker_ships() -> None:
    assert (SRC / "py.typed").is_file()


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean() -> None:  # pragma: no cover - needs mypy
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
