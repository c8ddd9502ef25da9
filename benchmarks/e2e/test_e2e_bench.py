"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The workloads run in-process on a tiny effort profile (one trial, one
alpha/tau, a short homogeneous horizon), so the suite takes seconds
rather than the minutes one real repeat takes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import layers
import run
import speed
import workloads
from repro.experiments.profiles import EffortProfile

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = EffortProfile(
    label="tiny",
    n_trials=1,
    duration=200.0,
    power_alphas=(0.0,),
    step_taus=(10.0,),
    exp_nus=(0.1,),
)


def _originals():
    return {
        (path, attr): getattr(layers.resolve_owner(path), attr)
        for path, attr in layers.patch_targets(traced=True)
    }


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """Untraced and traced repeats of a cache-off and the resume workload."""
    originals = _originals()
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "WARM_PASSES", 1)
        for name in ("fig4-quick", "fig5-resume"):
            workload = workloads.WORKLOADS[name]
            sweep = workloads.prepare(workload, None, profile=TINY)
            result = run.WorkloadRun(workload, None)
            for traced in (False, True):
                cache_dir = tmp_path_factory.mktemp(name)
                report = workloads.measure(
                    workload,
                    sweep,
                    cache_dir=str(cache_dir),
                    recorder=layers.SpanRecorder() if traced else None,
                )
                if traced:
                    result.traced = report
                else:
                    report.update(setup_s=0.5, setup_kernel_s=[0.04])
                    result.reports.append(report)
                    result.setups.append(report)
            runs[name] = result
    return runs, originals


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    golden = json.loads((HERE / "golden.json").read_text())
    for name, workload in workloads.WORKLOADS.items():
        assert golden[name]["seed"] == workload.default_seed


def test_every_listed_metric_is_printed_with_its_unit(measured):
    runs, _ = measured
    for result in runs.values():
        verdict = result.verdict({})
        assert verdict["correct"], verdict["problems"]
        printed = "\n".join(run.render(result, verdict))
        for section in ("end_to_end", "per_layer"):
            line = run.result_line(result, verdict, BENCHMARK[section])
            assert line["correct"]
            for spec in BENCHMARK[section]:
                assert run.unit_of(spec["name"]) == spec["unit"]
                assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
                assert any(
                    row.split()[:3][::2] == [spec["name"], spec["unit"]]
                    for row in printed.splitlines()
                ), spec["name"]


def test_traced_and_untraced_digests_match(measured):
    runs, _ = measured
    for result in runs.values():
        digests = {
            entry["digest"]
            for report in result.reports + [result.traced]
            for entry in report["passes"]
        }
        assert len(digests) == 1
    resume = runs["fig5-resume"].reports[0]["passes"]
    assert [p["kind"] for p in resume] == ["cold", "warm"]
    assert resume[1]["simulations"] == 0 and resume[0]["simulations"] > 0


def test_wrapped_attributes_are_restored(measured):
    _, originals = measured
    assert _originals() == originals
    with pytest.raises(RuntimeError):
        with layers.instrumented(layers.Counters(), layers.SpanRecorder()):
            assert _originals() != originals
            raise RuntimeError("sweep failed")
    assert _originals() == originals


def test_layers_tile_the_traced_sweep(measured):
    runs, _ = measured
    for result in runs.values():
        metrics = result.per_layer()
        assert 0 <= metrics["unattributed_frac"] <= 0.05
        assert metrics["sim.engine.n_runs"] > 0
        assert metrics["sim.engine.init_s"] >= 0
    resume = runs["fig5-resume"].per_layer()
    assert resume["simcache.n_hits"] > 0
    assert resume["simcache.bytes_written"] > 0


def _span(id, parent, name, start, end, **attrs):
    return layers.Span(id, parent, name, start, end, attrs)


def test_self_time_arithmetic():
    spans = [
        _span(0, None, "experiments.figure", 0.0, 10.0),
        _span(1, 0, "experiments.sweep", 1.0, 4.0),
        _span(2, 1, "contacts", 2.0, 3.0),
        # Overlapping siblings are covered once; a child running past
        # its parent is clipped to the parent's end.
        _span(3, 0, "experiments.sweep", 3.0, 6.0),
        _span(4, 0, "experiments.sweep", 8.0, 12.0),
    ]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_engine_phases_split_the_simulate_span():
    spans = [
        _span(0, None, "experiments.figure", 0.0, 10.0),
        _span(1, 0, "sim.engine", 1.0, 5.0, protocol="DOM", timeout=True,
              phases={"merge": 0.5, "run": 2.0, "settle": 0.5},
              n_events=1000, n_expired=3),
        _span(2, 0, "sim.engine", 5.0, 7.0, protocol="OPT", timeout=False,
              phases={"merge": 0.25, "run": 1.0, "settle": 0.25},
              n_events=500, n_expired=0),
    ]
    recorder = layers.SpanRecorder()
    recorder.spans = spans
    metrics = layers.layer_metrics(recorder, traced_wall=10.0)
    assert metrics["sim.engine.init_s"] == pytest.approx(1.5)
    assert metrics["sim.engine.run_s"] == pytest.approx(3.0)
    assert metrics["sim.engine.run_s.DOM"] == pytest.approx(2.0)
    assert metrics["sim.engine.run_s.timeout"] == pytest.approx(2.0)
    assert metrics["sim.engine.events_per_s"] == pytest.approx(500.0)
    assert metrics["experiments.figure_self_s"] == pytest.approx(4.0)
    assert metrics["unattributed_frac"] == pytest.approx(0.0)


def test_each_stretch_is_scaled_by_the_samples_around_it():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # Kernel runs of ref, 2*ref and ref, each followed by a 1 s stretch.
    probe.samples = [ref, 2 * ref, ref]
    probe.marks = [
        (0.0, 0.0, ref, ref),
        (1 + ref, 0.5 + ref, 1 + 3 * ref, 0.5 + 3 * ref),
        (2 + 3 * ref, 1 + 3 * ref, 2 + 4 * ref, 1 + 4 * ref),
    ]
    wall, cpu, scaled_wall, scaled_cpu = probe.span(
        ref, ref, 2 + 3 * ref, 1 + 3 * ref
    )
    assert wall == pytest.approx(2.0) and cpu == pytest.approx(1.0)
    assert scaled_wall == pytest.approx(2.0 / 1.5)
    assert scaled_cpu == pytest.approx(1.0 / 1.5)


def test_timed_sampling_is_ordered_and_restores_the_alarm():
    probe = speed.SpeedProbe()
    handler = signal.getsignal(signal.SIGALRM)
    with probe.sampling(interval=0.01):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 5
    starts = [mark[0] for mark in probe.marks]
    assert starts == sorted(starts)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_an_unhooked_probe_makes_the_workload_incorrect():
    result = run.WorkloadRun(workloads.WORKLOADS["fig4-quick"], None)
    result.reports.append({"passes": [{
        "kind": "sweep", "simulations": 0, "events": 0, "units": 0,
        "failures": 0, "digest": "d", "problem": None,
    }]})
    problems = result.verdict({})["problems"]
    assert any("runner.simulate was never called" in p for p in problems)
    assert any("run_comparison" in p for p in problems)


def _result(sweep_samples):
    workload = {
        "seed": 404,
        "correct": True,
        "attempted": 144,
        "failed": 0,
        "end_to_end": {},
    }
    for spec in BENCHMARK["end_to_end"]:
        samples = [10.0, 10.1, 9.9, 10.05, 9.95]
        if spec["name"] in ("sweep_s", "sweep_cpu_s"):
            samples = sweep_samples
        workload["end_to_end"][spec["name"]] = run.summarize(samples)
    return {"workloads": {"fig4-quick": workload}}


def test_compare_flags_a_20_percent_slowdown(tmp_path, capsys):
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    paths = []
    for label, samples in (
        ("parent", parent),
        ("same", list(reversed(parent))),
        ("slow", [1.2 * s for s in parent]),
    ):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(_result(samples)))
        paths.append(str(path))
    assert compare.main([paths[0], paths[1]]) == 0
    assert compare.main([paths[0], paths[2]]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_compare_calls_a_wide_spread_unresolved():
    spec = {"better": "lower", "bound": 0.1}
    parent = run.summarize([10.0, 9.0, 11.0, 10.0])
    change = run.summarize([10.5, 8.0, 13.0, 10.5])
    assert compare.judge(parent, change, spec)[1] == "unresolved"


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig4-quick"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
