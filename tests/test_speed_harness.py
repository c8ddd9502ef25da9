"""The speed harness's gate, checked on fake reports.

``benchmarks/bench_speed.py`` is a script, not part of the package, so it
is loaded by path.  A real run times simulations; these tests feed its
gate and its ``main`` hand-built reports instead.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.experiments import TrialArtifacts
from repro.sim import SimulationConfig
from repro.utility import StepUtility

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location(
        "bench_speed", REPO_ROOT / "benchmarks" / "bench_speed.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOOD = {
    "engine": {
        "min_speedup": 3.0,
        "cases": [
            {"protocol": "OPT", "utility": "step", "bit_identical": True},
            {"protocol": "QCR", "utility": "step", "bit_identical": True},
        ],
    },
    "sweep_amortization": {
        "sweep": {"speedup": 1.3, "bit_identical": True},
        "traced_run": {"bit_identical": True},
        "fingerprint_probe": {"bit_identical": True},
    },
    "allocation": {
        "identical_allocation": True,
        "celf_evaluations": 100,
        "naive_evaluations": 900,
    },
}


#: check -> (report path, a value that violates only it, text it names)
FAILURES = {
    "floor": (("engine", "min_speedup"), 1.2, "min_speedup 1.200x"),
    "engine": (
        ("engine", "cases", 1, "bit_identical"),
        False,
        "not bit-identical: engine QCR (step)",
    ),
    **{
        name: (
            ("sweep_amortization", name, "bit_identical"),
            False,
            f"not bit-identical: sweep_amortization.{name}",
        )
        for name in ("sweep", "traced_run", "fingerprint_probe")
    },
    "merge_once": (
        ("sweep_amortization", "sweep", "speedup"),
        0.9,
        "merge-once sweep is 0.900x",
    ),
    "allocation": (
        ("allocation", "identical_allocation"),
        False,
        "allocations differ",
    ),
    "celf_evaluations": (
        ("allocation", "celf_evaluations"),
        900,
        "CELF evaluations 900 are not fewer",
    ),
}


def test_gate_passes_a_good_report(harness):
    assert harness.gate(GOOD, 1.5) == []


def test_gate_has_no_floor_by_default(harness):
    report = copy.deepcopy(GOOD)
    report["engine"]["min_speedup"] = 0.5
    assert harness.gate(report) == []


@pytest.mark.parametrize("check", sorted(FAILURES))
def test_gate_names_each_failed_check(harness, check):
    (*keys, last), value, named = FAILURES[check]
    report = copy.deepcopy(GOOD)
    target = report
    for key in keys:
        target = target[key]
    target[last] = value
    failures = harness.gate(report, 1.5)
    assert len(failures) == 1, failures
    assert named in failures[0]


@pytest.mark.parametrize("identical", [True, False])
def test_main_exits_on_a_failed_gate(
    harness, monkeypatch, tmp_path, capsys, identical
):
    report = copy.deepcopy(GOOD)
    report["allocation"]["identical_allocation"] = identical
    output = tmp_path / "BENCH_speed.json"
    monkeypatch.setattr(harness, "run_speed_benchmark", lambda **_: report)
    monkeypatch.setattr(harness, "render_speed_report", lambda _: "report")
    monkeypatch.setattr(harness, "BENCH_PATH", output)
    status = harness.main(["--quick", "--min-speedup", "1.5"])
    assert status == (0 if identical else 1)
    assert ("allocations differ" in capsys.readouterr().err) != identical
    assert json.loads(output.read_text(encoding="utf-8")) == report


def test_report_lands_at_the_repo_root(harness):
    assert harness.BENCH_PATH == REPO_ROOT / "BENCH_speed.json"


def test_sharing_disabled_returns_none(harness):
    """The merge-per-protocol baseline withholds the shared stream, and
    only while it is active."""
    demand = DemandModel.pareto(4, omega=1.0, total_rate=2.0)
    config = SimulationConfig(n_items=4, rho=2, utility=StepUtility(5.0))
    trace = homogeneous_poisson_trace(6, 0.1, 80.0, seed=3)
    requests = generate_requests(demand, trace.n_nodes, trace.duration, seed=4)
    inputs = TrialArtifacts(trace, requests, 17)
    with harness._merge_per_protocol():
        assert inputs.event_stream(config) is None
    assert inputs.event_stream(config) is not None
