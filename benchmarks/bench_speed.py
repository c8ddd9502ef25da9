"""The speed harness: measured, tracked, gated performance.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_speed.py            # full scale
    PYTHONPATH=src python benchmarks/bench_speed.py --quick --min-speedup 1.5

Three measurements, all written to ``BENCH_speed.json`` at the repo root
so the perf trajectory is tracked across changes (docs/performance.md
describes each case):

* **engine throughput** — events per second of the optimized
  :class:`~repro.sim.engine.Simulation` against the frozen
  :class:`~repro.sim._reference.ReferenceSimulation` on five
  (protocol, utility) cases; both engines must give bit-identical
  results, and the speedup is their wall-clock ratio.
* **sweep amortization** — a 3-protocol sweep merging its event stream
  once per trial against once per protocol, a traced run on a prebuilt
  stream, and the memoized-fingerprint cache probe; every sub-case must
  give the exact same result.
* **allocation solver** — the lazy (CELF) heterogeneous greedy against
  the textbook one; both must return the identical allocation, and the
  report records the marginal-gain evaluations each made.

:func:`gate` turns a report into one failure line per violated check,
and the script exits 1 if there is any.  Only the engine floor
(``--min-speedup``) and merge-once beating merge-per-protocol read a
timing; the rest check identities and evaluation counts.  Pool runs are
not measured here: tier-1's ``tests/experiments/test_parallel_runner.py``
checks that a pooled sweep equals the serial one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import sys
import time
import tracemalloc
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple
from unittest import mock

import numpy as np

from repro.allocation.submodular import (
    HeterogeneousProblem,
    greedy_heterogeneous,
)
from repro.demand import DemandModel, generate_requests
from repro.experiments import (
    TrialArtifacts,
    homogeneous_scenario,
    recommended_timeout,
    render_table,
    run_comparison,
    standard_protocols,
)
from repro.experiments.scenarios import Scenario
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.sim._reference import ReferenceSimulation
from repro.sim.engine import Simulation, simulate
from repro.sim.events import build_event_stream
from repro.simcache import fingerprint_trace, run_key
from repro.utility import (
    ExponentialUtility,
    PowerUtility,
    ShiftedUtility,
    StepUtility,
)

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_speed.json"
_FORMAT = "repro-speed-benchmark"
_VERSION = 4


def _results_identical(a, b) -> bool:
    """Exact (bit-level) equality of two SimulationResults.

    Manifests are provenance (they carry host timings that differ on
    every run) and are excluded from the comparison.
    """

    def bits(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, float):
            return value.hex()
        return value

    return all(
        bits(getattr(a, spec.name)) == bits(getattr(b, spec.name))
        for spec in dataclasses.fields(a)
        if spec.name != "manifest"
    )


def _merge_per_protocol() -> ContextManager[Any]:
    """Sweeps inside build one event stream per run, not per trial.

    The sweep-amortization baseline: with the trial's shared stream
    withheld, every protocol's run merges its own stream, which is what
    sweeps did before per-trial sharing.  Results are bit-identical
    either way; only the merge count differs.
    """
    return mock.patch.object(
        TrialArtifacts, "event_stream", lambda self, config: None
    )


def _interleaved_best(
    prepare_a: Callable[[], Callable[[], Any]],
    prepare_b: Callable[[], Callable[[], Any]],
    repeats: int,
) -> Tuple[float, float, Any, Any]:
    """Interleaved best-of-*repeats* timing of two calls, with results.

    Each *prepare* returns the zero-argument call to time, so setup
    (building a simulation) stays off the clock.  Alternating the two
    within each repeat keeps slow machine-load drift correlated between
    the measurements, which stabilizes their ratio far better than
    timing each in its own sequential block.
    """
    best = [float("inf"), float("inf")]
    results: List[Any] = [None, None]
    for _ in range(repeats):
        for side, prepare in enumerate((prepare_a, prepare_b)):
            call = prepare()
            start = time.perf_counter()
            results[side] = call()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1], results[0], results[1]


def _run_peak_mb(build: Callable[[], Simulation]) -> float:
    """Peak Python-heap (MB) of one run phase, measured by tracemalloc.

    Setup happens before tracing starts, so the figure isolates what the
    event pipeline itself allocates — the quantity the columnar layout
    is supposed to keep flat.  Tracemalloc slows execution, which is why this
    is a separate run and never shares a process phase with the timers.
    """
    sim = build()
    tracemalloc.start()
    try:
        sim.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _bench_engine_case(
    scenario: Scenario,
    protocol_name: str,
    *,
    seed: int,
    repeats: int,
) -> Dict[str, Any]:
    """Time optimized vs. reference engine on one (scenario, protocol)."""
    factories = standard_protocols(scenario, include=(protocol_name,))
    trace = scenario.trace_factory(seed)
    requests = generate_requests(
        scenario.demand, trace.n_nodes, trace.duration, seed=seed + 1
    )
    n_events = len(trace.times) + len(requests.times)

    def build(cls) -> Simulation:
        protocol = factories[protocol_name](trace, requests)
        return cls(
            trace, requests, scenario.config, protocol, seed=seed + 2
        )

    ref_seconds, opt_seconds, ref_result, opt_result = _interleaved_best(
        lambda: build(ReferenceSimulation).run,
        lambda: build(Simulation).run,
        repeats,
    )
    return {
        "protocol": protocol_name,
        "utility": scenario.config.utility.name,
        "n_events": n_events,
        "reference_seconds": ref_seconds,
        "optimized_seconds": opt_seconds,
        "reference_events_per_sec": n_events / ref_seconds,
        "optimized_events_per_sec": n_events / opt_seconds,
        "speedup": ref_seconds / opt_seconds,
        "bit_identical": _results_identical(ref_result, opt_result),
        "optimized_run_peak_mb": _run_peak_mb(lambda: build(Simulation)),
    }


def _comparisons_identical(a, b) -> bool:
    """Exact equality of two ComparisonResults' per-protocol gain rates."""
    return set(a.stats) == set(b.stats) and all(
        np.array_equal(a.stats[name].gain_rates, b.stats[name].gain_rates)
        for name in a.stats
    )


def _bench_sweep_amortization(
    scenario: Scenario,
    *,
    n_trials: int,
    base_seed: int,
    repeats: int,
) -> Dict[str, Any]:
    """The trial-scoped amortization layer's three sub-cases.

    * **sweep** — merge per protocol (under :func:`_merge_per_protocol`)
      versus once per trial, the default;
    * **traced_run** — a traced run on a prebuilt stream versus a fresh
      inline merge; result and trace events must both match;
    * **fingerprint_probe** — a cache-key probe with a memoized trace
      fingerprint versus inline sha256 passes.
    """
    protocols = standard_protocols(scenario, include=("OPT", "SQRT", "UNI"))
    kwargs = dict(
        trace_factory=scenario.trace_factory,
        demand=scenario.demand,
        config=scenario.config,
        protocols=protocols,
        n_trials=n_trials,
        base_seed=base_seed,
        baseline="OPT",
        # Pinned, so REPRO_SIM_CACHE cannot turn the timed sweeps into
        # cache reads, nor REPRO_SWEEP_EXECUTOR into a pool.
        run_cache=False,
        executor="serial",
    )

    def per_protocol_sweep():
        with _merge_per_protocol():
            return run_comparison(**kwargs)

    per_protocol_seconds, merge_once_seconds, per_protocol, merged = (
        _interleaved_best(
            lambda: per_protocol_sweep,
            lambda: lambda: run_comparison(**kwargs),
            repeats,
        )
    )
    sweep_case = {
        "n_trials": n_trials,
        "n_protocols": len(protocols),
        "merge_per_protocol_seconds": per_protocol_seconds,
        "merge_once_seconds": merge_once_seconds,
        "speedup": per_protocol_seconds / merge_once_seconds,
        "bit_identical": _comparisons_identical(per_protocol, merged),
    }

    # One realized trial for the traced/micro cases.
    trace = scenario.trace_factory(base_seed + 100)
    requests = generate_requests(
        scenario.demand, trace.n_nodes, trace.duration, seed=base_seed + 101
    )
    # Traced run: prebuilt stream vs. inline merge.
    stream = build_event_stream(trace, requests, scenario.config)
    factory = protocols["UNI"]

    def traced(prebuilt):
        sink = MemorySink()
        result = simulate(
            trace,
            requests,
            scenario.config,
            factory(trace, requests),
            seed=base_seed + 103,
            tracer=Tracer(sink),
            prebuilt_events=prebuilt,
        )
        return result, sink.events

    fresh_result, fresh_events = traced(None)
    prebuilt_result, prebuilt_events = traced(stream)
    traced_case = {
        "protocol": "UNI",
        "n_trace_events": len(fresh_events),
        "bit_identical": (
            _results_identical(fresh_result, prebuilt_result)
            and fresh_events == prebuilt_events
        ),
    }

    # Cache-probe: inline sha256 passes vs. memoized fingerprints.
    protocol = factory(trace, requests)
    trace_fp = fingerprint_trace(trace)
    key_args = (scenario.config, protocol, base_seed + 103, trace, requests)
    fresh_seconds, memo_seconds, fresh_key, memo_key = _interleaved_best(
        lambda: lambda: run_key(*key_args),
        lambda: lambda: run_key(*key_args, trace_fingerprint=trace_fp),
        repeats,
    )
    probe_case = {
        "fresh_probe_seconds": fresh_seconds,
        "memoized_probe_seconds": memo_seconds,
        "speedup": fresh_seconds / memo_seconds,
        "bit_identical": fresh_key == memo_key,
    }

    return {
        "sweep": sweep_case,
        "traced_run": traced_case,
        "fingerprint_probe": probe_case,
    }


def _bench_allocation(
    *,
    n_items: int,
    n_servers: int,
    n_clients: int,
    rho: int,
    seed: int,
) -> Dict[str, Any]:
    """Time CELF vs. the non-lazy greedy on one heterogeneous instance."""
    rng = np.random.default_rng(seed)
    demand = DemandModel.pareto(n_items, omega=1.0, total_rate=4.0)
    rates = rng.gamma(shape=2.0, scale=0.01, size=(n_servers, n_clients))
    problem = HeterogeneousProblem(
        demand=demand,
        utility=StepUtility(25.0),
        rate_matrix=rates,
        rho=rho,
    )
    lazy_seconds, naive_seconds, lazy, naive = _interleaved_best(
        lambda: lambda: greedy_heterogeneous(problem),
        lambda: lambda: greedy_heterogeneous(problem, lazy=False),
        1,
    )
    return {
        "n_items": n_items,
        "n_servers": n_servers,
        "n_clients": n_clients,
        "rho": rho,
        "naive_seconds": naive_seconds,
        "celf_seconds": lazy_seconds,
        "speedup": naive_seconds / lazy_seconds,
        "naive_evaluations": naive.evaluations,
        "celf_evaluations": lazy.evaluations,
        "evaluations_saved_pct": 100.0
        * (1.0 - lazy.evaluations / naive.evaluations),
        "identical_allocation": bool(
            np.array_equal(lazy.allocation, naive.allocation)
        ),
    }


def run_speed_benchmark(*, quick: bool) -> Dict[str, Any]:
    """Run every measurement and return the report.

    ``quick`` shrinks horizons and trial counts for CI smoke runs and
    times the engine best-of-3 instead of best-of-7; the structure of
    the report is identical at both scales.
    """
    repeats = 3 if quick else 7
    duration = 400.0 if quick else 2000.0
    sweep_duration = 200.0 if quick else 600.0
    n_trials = 4 if quick else 8

    utility = StepUtility(10.0)
    engine_scenario = homogeneous_scenario(
        utility, duration=duration, record_interval=None
    )
    # DOM runs under the figure panels' request timeout, so its
    # never-servable requests expire.
    dom_scenario = dataclasses.replace(
        engine_scenario,
        config=dataclasses.replace(
            engine_scenario.config,
            request_timeout=recommended_timeout(utility, duration),
        ),
    )
    # Fig. 4's alpha panel: a waiting cost and no timeout, so every
    # gain is evaluated and folded after the loop.
    power_scenario = homogeneous_scenario(
        PowerUtility(0.0), duration=duration, record_interval=None
    )
    # A non-step utility with credited abandonments: a timeout of one
    # mean-decay time abandons about a quarter of the requests, so the
    # abandonment log, a non-step ``truncate`` settle and with it the
    # post-run dict order all count.
    decay = ExponentialUtility(0.2)
    shifted_scenario = homogeneous_scenario(
        ShiftedUtility(decay, -0.5), duration=duration, record_interval=None
    )
    shifted_scenario = dataclasses.replace(
        shifted_scenario,
        config=dataclasses.replace(
            shifted_scenario.config, request_timeout=1.0 / decay.nu
        ),
    )
    cases = [
        _bench_engine_case(scenario, name, seed=11, repeats=repeats)
        for scenario, name in (
            (engine_scenario, "OPT"),
            (engine_scenario, "QCR"),
            (dom_scenario, "DOM"),
            (power_scenario, "OPT"),
            (shifted_scenario, "UNI"),
        )
    ]
    amortization = _bench_sweep_amortization(
        homogeneous_scenario(
            utility, duration=sweep_duration, record_interval=None
        ),
        n_trials=n_trials,
        base_seed=31,
        repeats=3,
    )
    allocation = _bench_allocation(
        n_items=20 if quick else 40,
        n_servers=15 if quick else 40,
        n_clients=30 if quick else 80,
        rho=3 if quick else 5,
        seed=23,
    )
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "scale": "quick" if quick else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "engine": {
            "cases": cases,
            "min_speedup": min(case["speedup"] for case in cases),
        },
        "sweep_amortization": amortization,
        "allocation": allocation,
    }


def gate(report: Dict[str, Any], min_speedup: float = 0.0) -> List[str]:
    """One failure line per check *report* violates; empty if it passes."""
    engine = report["engine"]
    amort = report["sweep_amortization"]
    alloc = report["allocation"]
    failures = []
    if engine["min_speedup"] < min_speedup:
        failures.append(
            f"engine min_speedup {engine['min_speedup']:.3f}x is below "
            f"the required {min_speedup:.3f}x"
        )
    diverged = [
        f"engine {case['protocol']} ({case['utility']})"
        for case in engine["cases"]
        if not case["bit_identical"]
    ] + [
        f"sweep_amortization.{name}"
        for name, case in sorted(amort.items())
        if not case["bit_identical"]
    ]
    if diverged:
        failures.append("not bit-identical: " + ", ".join(diverged))
    if amort["sweep"]["speedup"] < 1.0:
        failures.append(
            f"merge-once sweep is {amort['sweep']['speedup']:.3f}x "
            "merge-per-protocol, below 1.0x"
        )
    if not alloc["identical_allocation"]:
        failures.append("CELF and textbook greedy allocations differ")
    if alloc["celf_evaluations"] >= alloc["naive_evaluations"]:
        failures.append(
            f"CELF evaluations {alloc['celf_evaluations']:,} are not "
            f"fewer than the textbook greedy's "
            f"{alloc['naive_evaluations']:,}"
        )
    return failures


def render_speed_report(report: Dict[str, Any]) -> str:
    """An aligned text summary of a :func:`run_speed_benchmark` report."""
    engine_table = render_table(
        [
            "protocol",
            "utility",
            "ref ev/s",
            "opt ev/s",
            "speedup",
            "peak MB",
            "bit-identical",
        ],
        [
            [
                case["protocol"],
                case["utility"],
                f"{case['reference_events_per_sec']:,.0f}",
                f"{case['optimized_events_per_sec']:,.0f}",
                f"{case['speedup']:.2f}x",
                f"{case['optimized_run_peak_mb']:.1f}",
                "yes" if case["bit_identical"] else "NO",
            ]
            for case in report["engine"]["cases"]
        ],
        title=f"engine throughput ({report['scale']} scale)",
    )
    amort = report["sweep_amortization"]
    sweep = amort["sweep"]
    probe = amort["fingerprint_probe"]
    alloc = report["allocation"]
    rows = [
        [
            "merge-once sweep",
            f"{sweep['merge_per_protocol_seconds']:.2f}s per-protocol / "
            f"{sweep['merge_once_seconds']:.2f}s = {sweep['speedup']:.2f}x",
        ],
        [
            "traced prebuilt run",
            f"{amort['traced_run']['n_trace_events']:,} trace events",
        ],
        [
            "cache probe",
            f"{1e3 * probe['fresh_probe_seconds']:.2f}ms fresh / "
            f"{1e3 * probe['memoized_probe_seconds']:.2f}ms memoized "
            f"= {probe['speedup']:.0f}x",
        ],
        [
            "CELF allocation",
            f"{alloc['n_items']} items x {alloc['n_servers']} servers, "
            f"rho={alloc['rho']}: {alloc['naive_seconds']:.3f}s textbook / "
            f"{alloc['celf_seconds']:.3f}s = {alloc['speedup']:.2f}x",
        ],
        [
            "CELF evaluations",
            f"{alloc['celf_evaluations']:,} of {alloc['naive_evaluations']:,}"
            f" ({alloc['evaluations_saved_pct']:.1f}% saved)",
        ],
    ]
    amort_table = render_table(
        ["metric", "value"], rows, title="sweep amortization and allocation"
    )
    return engine_table + "\n\n" + amort_table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Time the engine against its frozen baseline, the sweep "
            "amortization layer and the CELF greedy; write "
            f"{BENCH_PATH.name} at the repo root and gate the report."
        )
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced horizons and trials, best-of-3 instead of best-of-7",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) when the engine min_speedup falls below this",
    )
    args = parser.parse_args(argv)
    report = run_speed_benchmark(quick=args.quick)
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(render_speed_report(report))
    print(f"\nwrote {BENCH_PATH}")
    failures = gate(report, args.min_speedup)
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"gate passed: engine min_speedup "
        f"{report['engine']['min_speedup']:.3f}x >= {args.min_speedup:.3f}x, "
        "every case bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
