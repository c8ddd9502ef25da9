"""The shipped tree must satisfy its own static analysis.

This is the CI gate in miniature: one ``repro analyze src/repro
benchmarks`` run, every rule and check, is clean at HEAD — every
genuine finding fixed, every false positive suppressed inline with a
justification.
"""

from pathlib import Path

import pytest

from repro.analysis.runner import run_analysis
from repro.analysis.surfaces import collect_surfaces

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BENCHMARKS = REPO_ROOT / "benchmarks"


@pytest.fixture(scope="module")
def report():
    return run_analysis([str(SRC), str(BENCHMARKS)])


def test_src_repro_is_analysis_clean(report):
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro analyze found violations at HEAD:\n{rendered}"
    # Clean means *clean*: no errors, no dead-registry warnings either.
    assert not report.findings, rendered
    assert not report.parse_errors
    # Four per-file (RPL005/007/008) suppressions and no whole-program
    # one.
    assert report.n_suppressed == 4


def test_analysis_is_not_vacuous(report):
    # Guard against the analyzer silently seeing an empty world.
    n_files = len(list(SRC.rglob("*.py"))) + len(list(BENCHMARKS.rglob("*.py")))
    assert report.n_modules == n_files >= 120
    assert report.n_functions >= 700
    assert report.graph is not None and report.summaries is not None
    surfaces = collect_surfaces(report.graph)
    assert len(surfaces) >= 30
    # Spot-check two load-bearing summaries: the engine hot loop is
    # pure, and the provenance stopwatch does read the host clock.
    run_plain = report.summaries["repro.sim.engine:Simulation._run_plain"]
    assert run_plain.effects == frozenset()
    section = report.summaries["repro.obs.timing:_Section.__enter__"]
    assert section.effects == frozenset({"WALL_CLOCK"})
