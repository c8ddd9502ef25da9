"""Speed benchmark: engine throughput and parallel-sweep scaling.

Runs the same harness as ``repro bench`` and writes ``BENCH_speed.json``
at the repo root so the performance trajectory is tracked alongside the
figure artifacts.  Scale follows ``REPRO_BENCH_SCALE`` (quick/full); the
parallel sweep asks for 4 workers, capped at the CPU count.

Assertions cover *correctness only* (optimized engine and parallel
runner must be bit-identical to their baselines); timings are recorded,
never gated — CI boxes are too noisy for hard thresholds.
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments import (
    BENCH_FILENAME,
    current_profile,
    render_speed_report,
    run_speed_benchmark,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_speed_benchmark(emit):
    profile = current_profile()
    output = REPO_ROOT / BENCH_FILENAME
    report = run_speed_benchmark(
        quick=profile.label == "quick",
        output=output,
    )
    emit("BENCH_speed", render_speed_report(report))

    assert all(case["bit_identical"] for case in report["engine"]["cases"])
    assert report["parallel"]["bit_identical"]
    assert all(
        case["bit_identical"]
        for case in report["sweep_amortization"].values()
    )
    assert report["allocation"]["identical_allocation"]
    assert (
        report["allocation"]["celf_evaluations"]
        < report["allocation"]["naive_evaluations"]
    )
    on_disk = json.loads(output.read_text(encoding="utf-8"))
    assert on_disk["format"] == report["format"]
    assert on_disk["engine"]["min_speedup"] == report["engine"]["min_speedup"]
