"""The benchmark's workloads, and the subprocess that runs one repeat.

Each workload is a paper figure regenerated through the public API
(``repro.experiments.figures.figure4`` / ``figure5``) on the quick
profile's parameter grid, with :data:`TRIALS` trial(s), serial
execution and the run cache pinned.  ``--seed`` replaces the figure's
``base_seed``; the program receives only the inputs it derives from it.

Run by ``run.py``, one fresh interpreter per repeat::

    python3 benchmarks/e2e/workloads.py --mode sweep --workload fig4-quick \\
        --seed 404 --spawned-at <time.monotonic() of the parent>

and prints one JSON line.  ``--mode setup`` stops at the first sweep
call, ``--mode traced`` also records the layer spans.

This module imports the program only inside functions, so ``run.py``
can read :data:`WORKLOADS` without loading it (or growing its RSS).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import layers
import speed

__all__ = [
    "WARM_PASSES",
    "WORKLOADS",
    "Workload",
    "check_result",
    "measure",
    "prepare",
    "result_digest",
]

#: Warm re-sweeps over the filled cache per ``fig5-resume`` repeat.
WARM_PASSES = 5
#: Trials per sweep.  The quick profile's three would make one repeat
#: 25-45 s at the reference speed and twice that on a busy host, longer
#: than the 30 s a benchmark run of ``BENCHMARK.json`` measures.
#: Every per-trial cost (trace, requests, the OPT solve, the event
#: stream) and every per-unit cost (one engine run per protocol and
#: sweep point) scales with the trial count alike, so one trial keeps
#: each layer's share of the sweep.
TRIALS = 1
#: Host-speed samples right after set-up, to scale ``setup_s`` by.
SETUP_KERNEL_SAMPLES = 25


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: The ``repro.experiments.figures`` function that renders it.
    figure: str
    #: The figure's own default ``base_seed``.
    default_seed: int
    #: Fill a fresh run cache once, then time warm re-sweeps over it.
    resume: bool


#: Why these three: see README.md and the ``why`` of each workload in
#: BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig4-quick", "figure4", 404, resume=False),
        Workload("fig5-quick", "figure5", 505, resume=False),
        Workload("fig5-resume", "figure5", 505, resume=True),
    )
}


def prepare(
    workload: Workload, seed: Optional[int], profile: Any = None
) -> Callable[[Any], Any]:
    """Import the program and bind the workload's figure call.

    *profile* replaces the workload's effort profile (the self-tests
    use a tiny one).  The returned callable takes the ``run_cache=``
    setting of one pass.
    """
    from repro.experiments import figures
    from repro.experiments.profiles import EffortProfile

    figure = getattr(figures, workload.figure)
    if profile is None:
        profile = dataclasses.replace(EffortProfile.quick(), n_trials=TRIALS)
        if workload.resume:
            profile = dataclasses.replace(profile, step_taus=(1.0, 10.0))
    base_seed = workload.default_seed if seed is None else seed

    def sweep(run_cache: Any) -> Any:
        return figure(
            profile, base_seed=base_seed, run_cache=run_cache, executor="serial"
        )

    return sweep


def _panels(result: Any) -> List[tuple]:
    """(field name, x values or times, named series) per figure panel."""
    panels = []
    for spec in dataclasses.fields(result):
        panel = getattr(result, spec.name)
        if hasattr(panel, "losses"):
            panels.append((spec.name, panel.x_values, panel.losses))
        else:
            panels.append((spec.name, panel.times, panel.series))
    return panels


def result_digest(result: Any) -> str:
    """sha256 over ``float.hex`` of every loss and series value."""
    sha = hashlib.sha256()

    def put(text: str) -> None:
        sha.update(text.encode("utf-8") + b"\0")

    for name, axis, series in _panels(result):
        put(name)
        for x in axis:
            put(float(x).hex())
        for label, values in series.items():
            put(label)
            for value in values:
                put(float(value).hex())
    return sha.hexdigest()


def check_result(result: Any) -> Optional[str]:
    """Why the figure is wrong for any seed, or ``None``.

    Every value must be finite, and OPT's loss against itself (the
    sweeps' baseline) must be exactly zero.
    """
    for name, _, series in _panels(result):
        for label, values in series.items():
            if not all(math.isfinite(float(v)) for v in values):
                return f"{name}: {label} has a non-finite value"
        if hasattr(getattr(result, name), "losses"):
            if any(float(v) != 0.0 for v in series.get("OPT", ())):
                return f"{name}: OPT's loss against itself is not 0"
    return None


def _directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


def measure(
    workload: Workload,
    sweep: Callable[[Any], Any],
    *,
    cache_dir: Optional[str] = None,
    probe: Optional[speed.SpeedProbe] = None,
    recorder: Optional[layers.SpanRecorder] = None,
) -> Dict[str, Any]:
    """Run one repeat's passes and report each one.

    Cache-off workloads make one pass.  ``fig5-resume`` makes one cold
    pass into the empty *cache_dir*, then :data:`WARM_PASSES` warm ones
    over it.  Every untraced pass reports its wall and CPU seconds both
    raw and scaled to the reference host speed by the samples *probe*
    (a new one if none is given) took from just before it to just after
    it (see ``speed.py``), and the samples themselves.  With a
    *recorder* the passes are traced instead and the per-layer metrics
    are returned under ``"layers"``.
    """
    counters = layers.Counters()
    if recorder is not None:
        probe = None
    elif probe is None:
        probe = speed.SpeedProbe()
    passes: List[Dict[str, Any]] = []
    #: (index of the sample just before, clock readings) of each pass.
    spans: List[tuple] = []
    store_bytes = 0

    def one_pass(kind: str, run_cache: Any) -> None:
        before = dataclasses.asdict(counters)
        if probe is not None:
            probe.sample()
            first = len(probe.samples) - 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if recorder is None:
            result = sweep(run_cache)
        else:
            result, _ = recorder.call(
                "experiments.figure", {"kind": kind}, sweep, run_cache
            )
        clocks = (wall0, cpu0, time.perf_counter(), time.process_time())
        if probe is not None:
            spans.append((first, clocks))
        record = {
            key: value - before[key]
            for key, value in dataclasses.asdict(counters).items()
        }
        record.update(
            kind=kind,
            wall_s=clocks[2] - wall0,
            cpu_s=clocks[3] - cpu0,
            digest=result_digest(result),
            problem=check_result(result),
        )
        passes.append(record)

    sampling = (
        probe.sampling() if probe is not None else contextlib.nullcontext()
    )
    with layers.instrumented(counters, recorder), sampling:
        start = time.perf_counter()
        if workload.resume:
            if cache_dir is None:
                raise ValueError(f"{workload.name} needs a cache directory")
            one_pass("cold", cache_dir)
            store_bytes = _directory_bytes(cache_dir)
            for _ in range(WARM_PASSES):
                one_pass("warm", cache_dir)
        else:
            one_pass("sweep", False)
        section_s = time.perf_counter() - start
    report: Dict[str, Any] = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if probe is not None:
        probe.sample()
        bounds = [low for low, _ in spans] + [len(probe.samples) - 1]
        for entry, (low, clocks), high in zip(passes, spans, bounds[1:]):
            wall, cpu, scaled_wall, scaled_cpu = probe.span(*clocks)
            entry.update(
                wall_s=wall,
                cpu_s=cpu,
                scaled_wall_s=scaled_wall,
                scaled_cpu_s=scaled_cpu,
                kernel_s=probe.samples[low:high + 1],
            )
    if recorder is not None:
        metrics = layers.layer_metrics(recorder, section_s)
        metrics["simcache.bytes_written"] = store_bytes
        report["layers"] = metrics
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "sweep", "traced"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--spans", default=None,
                        help="write the traced pass's spans here (JSONL)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sweep = prepare(workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    probe = speed.SpeedProbe()
    for _ in range(SETUP_KERNEL_SAMPLES):
        probe.sample()
    report: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_kernel_s": list(probe.samples),
    }
    if args.mode != "setup":
        recorder = layers.SpanRecorder() if args.mode == "traced" else None
        report.update(
            measure(workload, sweep, cache_dir=args.cache_dir, probe=probe,
                    recorder=recorder)
        )
        if recorder is not None and args.spans:
            recorder.write_jsonl(args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
