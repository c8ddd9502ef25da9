"""End-to-end figure-sweep benchmark.

Times the paper-figure sweeps users wait for, one fresh interpreter per
repeat, and checks that every repeat renders the same figure.  Run from
the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds N] [--trace 0|1] [--out DIR]

Per workload, repeats run back to back (interleaved across workloads)
while the next one is expected to finish within ``--seconds``; there is
always at least one.  Timings are scaled to a reference host speed
(see ``speed.py``).  ``--trace 1`` makes one traced repeat per
workload instead and reports the per-layer metrics.  Standard output
ends with one JSON line per workload (the last line, when one workload
is chosen)::

    {"correct": true, "attempted": 144, "failed": 0, "metrics": {...}}

whose metrics are those BENCHMARK.json lists under ``end_to_end``
(``--trace 0``) or ``per_layer`` (``--trace 1``).  The exit status is 0
only when every workload is correct.  See README.md for the workloads,
the metrics and how to compare two commits with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: setup_s is the median of at least this many fresh interpreters.
SETUP_SAMPLES = 7
#: A repeat that takes longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 170.0
#: Pinned so the sweep stays on one core of a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    """A workload subprocess died, timed out or printed no report."""


def unit_of(metric: str) -> str:
    """A metric's unit, from the suffix of its last dotted part that has
    one (``sim.engine.run_s.DOM`` is in seconds); counts have none."""
    for part in reversed(metric.split(".")):
        for suffix, unit in (
            ("_per_s", "1/s"),
            ("_s", "s"),
            ("_mb", "MB"),
            ("_frac", "frac"),
            ("bytes_written", "bytes"),
        ):
            if part.endswith(suffix):
                return unit
    return "count"


def summarize(samples: List[float]) -> Dict[str, Any]:
    """Median, quartiles and the raw samples of one metric."""
    median = statistics.median(samples)
    q1, _, q3 = (
        statistics.quantiles(samples, n=4)
        if len(samples) > 1
        else (median, median, median)
    )
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(samples),
        "samples": samples,
    }


class WorkloadRun:
    """Everything measured for one workload in this invocation."""

    def __init__(self, workload: workloads.Workload, seed: Optional[int]):
        self.workload = workload
        self.seed = workload.default_seed if seed is None else seed
        #: Reports of the untraced repeats, in order.
        self.reports: List[Dict[str, Any]] = []
        #: (setup_s, host-speed samples taken right after) per interpreter.
        self.setups: List[Dict[str, Any]] = []
        self.traced: Optional[Dict[str, Any]] = None
        self.errors: List[str] = []
        self.elapsed = 0.0

    @property
    def name(self) -> str:
        return self.workload.name

    def timed_passes(self) -> List[Dict[str, Any]]:
        """(pass, events behind its figure) for every timed pass."""
        timed = []
        for report in self.reports:
            behind = sum(p["events"] for p in report["passes"])
            for entry in report["passes"]:
                if entry["kind"] in ("sweep", "warm"):
                    timed.append(dict(entry, events_behind=behind))
        return timed

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        """Timings at the reference host speed (see speed.py), then the
        raw wall times and host-speed samples they were scaled from."""
        timed = self.timed_passes()
        if not timed:
            return {}
        kernel = [
            s for r in self.reports for p in r["passes"] for s in p["kernel_s"]
        ]
        metrics = {
            "setup_s": summarize([
                speed.normalize(s["setup_s"], s["setup_kernel_s"])
                for s in self.setups
            ]),
            "sweep_s": summarize([p["scaled_wall_s"] for p in timed]),
            "sweep_cpu_s": summarize([p["scaled_cpu_s"] for p in timed]),
            "events_per_s": summarize(
                [p["events_behind"] / p["scaled_wall_s"] for p in timed]
            ),
            "peak_rss_mb": summarize([r["peak_rss_mb"] for r in self.reports]),
            "setup_wall_s": summarize([s["setup_s"] for s in self.setups]),
            "sweep_wall_s": summarize([p["wall_s"] for p in timed]),
            "host_kernel_s": summarize(kernel),
        }
        cold = [
            p["scaled_wall_s"]
            for r in self.reports
            for p in r["passes"]
            if p["kind"] == "cold"
        ]
        if cold:
            metrics["cold_sweep_s"] = summarize(cold)
        return metrics

    def per_layer(self) -> Dict[str, float]:
        return dict(self.traced["layers"]) if self.traced else {}

    def verdict(self, golden: Dict[str, Any]) -> Dict[str, Any]:
        """Correctness over every pass this invocation made."""
        problems = list(self.errors)
        reports = self.reports + ([self.traced] if self.traced else [])
        passes = [p for r in reports for p in r["passes"]]
        problems += [p["problem"] for p in passes if p["problem"]]
        digests = sorted({p["digest"] for p in passes})
        if len(digests) > 1:
            problems.append(f"passes disagree: {len(digests)} digests")
        expected = golden.get(self.name, {})
        if (
            digests
            and expected.get("seed") == self.seed
            and digests != [expected.get("sha256")]
        ):
            problems.append(
                f"digest {digests[0]} differs from the golden "
                f"{expected.get('sha256')} for seed {self.seed}"
            )
        if any(p["kind"] == "warm" and p["simulations"] for p in passes):
            problems.append("a warm re-sweep simulated instead of reading")
        if any(not p["units"] for p in passes):
            problems.append(
                "figures.run_comparison / run_scenario were never called;"
                " probe unhooked"
            )
        if any(p["kind"] != "warm" and not p["simulations"] for p in passes):
            problems.append("runner.simulate was never called; probe unhooked")
        # A repeat whose interpreter died counts as one failed unit.
        failed = sum(p["failures"] for p in passes) + len(self.errors)
        return {
            "correct": not problems and failed == 0,
            "attempted": sum(p["units"] for p in passes) + len(self.errors),
            "failed": failed,
            "digest": digests[0] if len(digests) == 1 else None,
            "problems": problems,
        }


def child_env() -> Dict[str, str]:
    """The parent's environment without ``REPRO_*``, pointed at src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def spawn(
    mode: str,
    run: WorkloadRun,
    scratch: str,
    spans: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter and return its report."""
    cache_dir = (
        tempfile.mkdtemp(prefix=f"{run.name}-", dir=scratch)
        if run.workload.resume
        else None
    )
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--mode", mode,
        "--workload", run.name,
        "--seed", str(run.seed),
    ]
    if cache_dir:
        command += ["--cache-dir", cache_dir]
    if spans:
        command += ["--spans", spans]
    try:
        spawned_at = time.monotonic()
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} repeat timed out after {CHILD_TIMEOUT_S} s")
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        raise ChildFailed(
            f"{mode} repeat exited {done.returncode}: " + " | ".join(tail)
        )
    return json.loads(lines[-1])


def measure_all(
    runs: List[WorkloadRun], seconds: float, trace: bool, out: Optional[Path]
) -> None:
    """Trace each workload once, or interleave the workloads' timed
    repeats and then top up their set-up samples."""
    scratch_root = ROOT / ".e2e_bench"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        if trace:
            for run in runs:
                spans = out / f"{run.name}.spans.jsonl" if out else None
                try:
                    run.traced = spawn(
                        "traced", run, scratch, str(spans) if spans else None
                    )
                except ChildFailed as error:
                    run.errors.append(str(error))
            return
        pending = list(runs)
        while pending:
            for run in list(pending):
                started = time.monotonic()
                try:
                    report = spawn("sweep", run, scratch)
                except ChildFailed as error:
                    run.errors.append(str(error))
                    pending.remove(run)
                    continue
                took = time.monotonic() - started
                run.reports.append(report)
                run.setups.append(report)
                run.elapsed += took
                if run.elapsed + took > seconds:
                    pending.remove(run)
        for run in runs:
            try:
                while not run.errors and len(run.setups) < SETUP_SAMPLES:
                    run.setups.append(spawn("setup", run, scratch))
            except ChildFailed as error:
                run.errors.append(str(error))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another invocation still uses it


def render(run: WorkloadRun, verdict: Dict[str, Any]) -> List[str]:
    """Human-readable lines: every metric by name, with its unit."""
    lines = [
        f"== {run.name} (seed {run.seed}, {len(run.reports)} repeat(s), "
        f"{verdict['attempted']} units, {verdict['failed']} failed, "
        f"{'correct' if verdict['correct'] else 'INCORRECT'}) =="
    ]
    lines += [f"  problem: {text}" for text in verdict["problems"]]
    for name, stats in run.end_to_end().items():
        lines.append(
            f"  {name:<34} {stats['median']:>14.6g} {unit_of(name):<6}"
            f" median of {stats['n']}, IQR {stats['iqr']:.4g}"
        )
    layer = run.per_layer()
    if layer:
        lines.append("  per layer (traced repeat):")
        lines += [
            f"  {name:<34} {value:>14.6g} {unit_of(name)}"
            for name, value in layer.items()
        ]
    return lines


def result_line(
    run: WorkloadRun, verdict: Dict[str, Any], listed: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """The JSON object for one workload, with the metrics BENCHMARK.json
    lists for this mode (a metric that could not be measured is left
    out and makes the workload incorrect)."""
    values = {k: v["median"] for k, v in run.end_to_end().items()}
    values.update(run.per_layer())
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in listed
        if spec["name"] in values
    }
    return {
        "correct": verdict["correct"] and len(metrics) == len(listed),
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end figure-sweep benchmark."
    )
    parser.add_argument(
        "--workload", action="append", choices=list(workloads.WORKLOADS),
        help="repeatable; default: every workload",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="replaces each figure's base_seed (default: its own)",
    )
    parser.add_argument(
        "--seconds", type=float, default=60.0,
        help="measuring budget per workload (default 60: about five "
        "repeats each)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write result.json and the traced spans here",
    )
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    names = args.workload or list(workloads.WORKLOADS)
    runs = [WorkloadRun(workloads.WORKLOADS[n], args.seed) for n in names]
    measure_all(runs, args.seconds, bool(args.trace), args.out)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    results: Dict[str, Any] = {}
    lines: List[str] = []
    exit_code = 0
    for run in runs:
        verdict = run.verdict(golden)
        line = result_line(run, verdict, listed)
        if not line["correct"]:
            exit_code = 1
            print(f"error: {run.name} is incorrect: "
                  + "; ".join(verdict["problems"] or ["metrics missing"]),
                  file=sys.stderr)
        print("\n".join(render(run, verdict)))
        lines.append(json.dumps(line))
        results[run.name] = {
            "seed": run.seed,
            "correct": line["correct"],
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "digest": verdict["digest"],
            "problems": verdict["problems"],
            "end_to_end": run.end_to_end(),
            "per_layer": run.per_layer(),
        }
    if args.out:
        document = {
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "workloads": results,
        }
        (args.out / "result.json").write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
    print("\n".join(lines))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
