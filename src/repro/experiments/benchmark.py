"""The ``repro bench`` speed harness: measured, tracked performance.

Four measurements, all written to ``BENCH_speed.json`` at the repo root
so the perf trajectory is tracked across PRs:

* **engine throughput** — one simulation run (events processed per
  second) on the optimized :class:`~repro.sim.engine.Simulation` versus
  the frozen pre-optimization baseline
  (:class:`~repro.sim._reference.ReferenceSimulation`), for a hook-free
  static protocol (OPT), for QCR, and for DOM under the figure panels'
  request timeout, all on a step utility; for OPT on Fig. 4's
  waiting-cost utility ``h(t) = -t`` (power, alpha = 0) without a
  timeout, whose gains the engine evaluates and folds after the run;
  and for UNI on an exponential utility shifted below zero, with a
  timeout, so abandonments are credited.  The static protocols take the
  closed-form kernel (:mod:`repro.sim.static`).
  Both engines must produce bit-identical results; the speedup is
  their wall-clock ratio.
* **parallel sweep** — a small :func:`~repro.experiments.run_comparison`
  sweep run serially and on a pool of ``n_workers`` processes; the
  statistics must be bit-identical and the speedup is the wall-clock
  ratio.  On a single-core container the parallel run cannot beat
  serial — the recorded ``cpu_count`` says how to read the number.
* **sweep amortization** — the trial-scoped sharing layer: a
  3-protocol sweep with the merged event stream built once per trial
  versus once per protocol, a traced run on a prebuilt stream, and
  the memoized-fingerprint cache probe.  Every sub-case asserts exact
  result equality; CI fails the quick run if merge-once is not faster
  or any case diverges.
* **allocation solver** — the lazy (CELF) heterogeneous greedy of
  :func:`~repro.allocation.greedy_heterogeneous` versus the textbook
  non-lazy greedy on a trace-sized instance.  Both must return the
  identical allocation; the report records wall time and the number of
  marginal-gain evaluations each performed (the lazy savings).

Timing numbers are noisy by nature; consumers (CI's perf-smoke job)
should fail on *crashes or identity violations*, never on timings.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import platform
import time
import tracemalloc
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from ..allocation.submodular import (
    HeterogeneousProblem,
    greedy_heterogeneous,
)
from ..demand import DemandModel, generate_requests
from ..obs.sinks import MemorySink
from ..obs.tracer import Tracer
from ..sim._reference import ReferenceSimulation
from ..sim.engine import Simulation, simulate
from ..sim.events import build_event_stream
from ..simcache import fingerprint_trace, run_key
from ..utility import (
    ExponentialUtility,
    PowerUtility,
    ShiftedUtility,
    StepUtility,
)
from .artifacts import TrialArtifacts
from .figures import recommended_timeout
from .reporting import render_table
from .runner import run_comparison
from .scenarios import Scenario, homogeneous_scenario, standard_protocols

__all__ = [
    "run_speed_benchmark",
    "render_speed_report",
    "BENCH_FILENAME",
]

BENCH_FILENAME = "BENCH_speed.json"
_FORMAT = "repro-speed-benchmark"
_VERSION = 3

PathLike = Union[str, "os.PathLike[str]"]


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


@contextlib.contextmanager
def _merge_per_protocol() -> Iterator[None]:
    """Sweeps inside build one event stream per run, not per trial.

    The sweep-amortization baseline: with the trial's shared stream
    withheld, every protocol's run merges its own stream, which is what
    sweeps did before per-trial sharing.  Results are bit-identical
    either way; only the merge count differs.
    """
    shared = TrialArtifacts.event_stream
    setattr(TrialArtifacts, "event_stream", lambda self, config: None)
    try:
        yield
    finally:
        setattr(TrialArtifacts, "event_stream", shared)


def _time_run(build: Callable[[], Simulation], repeats: int) -> Tuple[float, Any]:
    """Best-of-*repeats* wall time of one ``Simulation.run()``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        sim = build()
        start = time.perf_counter()
        result = sim.run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _time_run_pair(
    build_ref: Callable[[], Simulation],
    build_opt: Callable[[], Simulation],
    repeats: int,
) -> Tuple[float, float, Any, Any]:
    """Interleaved best-of-*repeats* timing of two engines.

    Alternating reference/optimized runs within each repeat keeps slow
    machine-load drift correlated between the two measurements, which
    stabilizes the reported ratio far better than timing each engine
    in its own sequential block.
    """
    ref_best = float("inf")
    opt_best = float("inf")
    ref_result = None
    opt_result = None
    for _ in range(repeats):
        sim = build_ref()
        start = time.perf_counter()
        ref_result = sim.run()
        ref_best = min(ref_best, time.perf_counter() - start)
        sim = build_opt()
        start = time.perf_counter()
        opt_result = sim.run()
        opt_best = min(opt_best, time.perf_counter() - start)
    return ref_best, opt_best, ref_result, opt_result


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

    ref_seconds, opt_seconds, ref_result, opt_result = _time_run_pair(
        lambda: build(ReferenceSimulation), lambda: build(Simulation), repeats
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


def _bench_parallel_sweep(
    scenario: Scenario,
    *,
    n_trials: int,
    n_workers: int,
    base_seed: int,
) -> Dict[str, Any]:
    """Time a run_comparison sweep serially vs. on a worker pool.

    ``effective_workers`` is the pool width the sweep actually ran with
    (capped at the CPU count): on a single-core host the pool cannot
    beat serial, the measured ratio is pure scheduling noise, and the
    report says so
    (``speedup_meaningful: false``) instead of publishing it as a win.
    """
    protocols = standard_protocols(scenario, include=("OPT", "QCR", "SQRT"))
    kwargs = dict(
        trace_factory=scenario.trace_factory,
        demand=scenario.demand,
        config=scenario.config,
        protocols=protocols,
        n_trials=n_trials,
        base_seed=base_seed,
        baseline="OPT",
    )
    start = time.perf_counter()
    # Pinned, so REPRO_SWEEP_EXECUTOR cannot turn the baseline into a pool.
    serial = run_comparison(**kwargs, executor="serial")
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_comparison(**kwargs, executor=n_workers)
    parallel_seconds = time.perf_counter() - start
    assert parallel.manifest is not None
    effective_workers = int(parallel.manifest["n_workers"])
    return {
        "n_trials": n_trials,
        "n_workers": n_workers,
        "effective_workers": effective_workers,
        "n_runs": n_trials * len(protocols),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "speedup_meaningful": effective_workers > 1,
        "bit_identical": _comparisons_identical(serial, parallel),
    }


def _bench_sweep_amortization(
    scenario: Scenario,
    *,
    n_trials: int,
    base_seed: int,
    repeats: int = 2,
) -> Dict[str, Any]:
    """The trial-scoped amortization layer, measured end to end.

    Three sub-cases, every one gated on exact result equality:

    * **sweep** — a 3-protocol sweep merging per protocol (merge +
      payload pass per run under :func:`_merge_per_protocol`, the
      pre-amortization behaviour) versus once per trial (the default,
      reused read-only); interleaved best-of-*repeats* like the engine
      timer.
    * **traced_run** — one fully traced run on a prebuilt
      stream versus a fresh inline merge; both the result and the
      emitted trace-event sequence must match exactly.
    * **fingerprint_probe** — a microbenchmark of the other amortized
      quantity: a cache-key probe with memoized content fingerprints
      versus inline sha256 passes.
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
    )
    per_protocol_seconds = float("inf")
    merge_once_seconds = float("inf")
    per_protocol = merged = None
    for _ in range(repeats):
        start = time.perf_counter()
        with _merge_per_protocol():
            per_protocol = run_comparison(**kwargs)
        per_protocol_seconds = min(
            per_protocol_seconds, time.perf_counter() - start
        )
        start = time.perf_counter()
        merged = run_comparison(**kwargs)
        merge_once_seconds = min(
            merge_once_seconds, time.perf_counter() - start
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
    fresh_seconds = float("inf")
    memo_seconds = float("inf")
    fresh_key = memo_key = ""
    for _ in range(max(repeats, 3)):
        start = time.perf_counter()
        fresh_key = run_key(
            scenario.config, protocol, base_seed + 103, trace, requests
        )
        fresh_seconds = min(fresh_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        memo_key = run_key(
            scenario.config,
            protocol,
            base_seed + 103,
            trace,
            requests,
            trace_fingerprint=trace_fp,
        )
        memo_seconds = min(memo_seconds, time.perf_counter() - start)
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
    start = time.perf_counter()
    lazy = greedy_heterogeneous(problem)
    lazy_seconds = time.perf_counter() - start
    start = time.perf_counter()
    naive = greedy_heterogeneous(problem, lazy=False)
    naive_seconds = time.perf_counter() - start
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


def run_speed_benchmark(
    *,
    quick: bool = False,
    n_workers: int = 4,
    repeats: Optional[int] = None,
    output: Optional[PathLike] = BENCH_FILENAME,
) -> Dict[str, Any]:
    """Run the full speed harness and (optionally) write *output*.

    ``quick`` shrinks horizons and trial counts for CI smoke runs; the
    structure of the report is identical at both scales.
    """
    if repeats is None:
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
    sweep_scenario = homogeneous_scenario(
        utility, duration=sweep_duration, record_interval=None
    )
    parallel = _bench_parallel_sweep(
        sweep_scenario,
        n_trials=n_trials,
        n_workers=n_workers,
        base_seed=17,
    )
    amortization = _bench_sweep_amortization(
        sweep_scenario,
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
    report: Dict[str, Any] = {
        "format": _FORMAT,
        "version": _VERSION,
        "scale": "quick" if quick else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "engine": {
            "cases": cases,
            "min_speedup": min(case["speedup"] for case in cases),
        },
        "parallel": parallel,
        "sweep_amortization": amortization,
        "allocation": allocation,
    }
    if output is not None:
        tmp_path = f"{os.fspath(output)}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        os.replace(tmp_path, output)
    return report


def render_speed_report(report: Dict[str, Any]) -> str:
    """An aligned text summary of a :func:`run_speed_benchmark` report."""
    engine_rows = [
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
    ]
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
        engine_rows,
        title=f"engine throughput ({report['scale']} scale)",
    )
    par = report["parallel"]
    par_speedup = f"{par['speedup']:.2f}x"
    if not par.get("speedup_meaningful", True):
        par_speedup += " (noise: 1 effective worker)"
    parallel_table = render_table(
        ["metric", "value"],
        [
            ["runs", par["n_runs"]],
            ["workers", par["n_workers"]],
            ["effective workers", par.get("effective_workers", "?")],
            ["serial", f"{par['serial_seconds']:.2f}s"],
            ["parallel", f"{par['parallel_seconds']:.2f}s"],
            ["speedup", par_speedup],
            ["bit-identical", "yes" if par["bit_identical"] else "NO"],
            ["cpu count", report["cpu_count"]],
        ],
        title="parallel sweep",
    )
    amort = report["sweep_amortization"]
    sweep = amort["sweep"]
    traced = amort["traced_run"]
    probe = amort["fingerprint_probe"]
    amort_table = render_table(
        ["metric", "value"],
        [
            [
                "sweep (plain)",
                f"{sweep['merge_per_protocol_seconds']:.2f}s per-protocol "
                f"/ {sweep['merge_once_seconds']:.2f}s merge-once "
                f"= {sweep['speedup']:.2f}x",
            ],
            [
                "traced prebuilt run",
                f"{traced['n_trace_events']:,} events, "
                + ("bit-identical" if traced["bit_identical"] else "DIVERGED"),
            ],
            [
                "cache probe",
                f"{1e3 * probe['fresh_probe_seconds']:.2f}ms fresh / "
                f"{1e3 * probe['memoized_probe_seconds']:.2f}ms memoized "
                f"= {probe['speedup']:.0f}x",
            ],
            [
                "bit-identical",
                "yes"
                if all(
                    case["bit_identical"]
                    for case in (sweep, traced, probe)
                )
                else "NO",
            ],
        ],
        title="sweep amortization (shared streams, memoized fingerprints)",
    )
    alloc = report["allocation"]
    size = (
        f"{alloc['n_items']} items x {alloc['n_servers']} servers, "
        f"rho={alloc['rho']}"
    )
    alloc_table = render_table(
        ["metric", "value"],
        [
            ["instance", size],
            ["naive greedy", f"{alloc['naive_seconds']:.3f}s"],
            ["lazy (CELF)", f"{alloc['celf_seconds']:.3f}s"],
            ["speedup", f"{alloc['speedup']:.2f}x"],
            ["naive evals", f"{alloc['naive_evaluations']:,}"],
            ["CELF evals", f"{alloc['celf_evaluations']:,}"],
            ["evals saved", f"{alloc['evaluations_saved_pct']:.1f}%"],
            [
                "identical allocation",
                "yes" if alloc["identical_allocation"] else "NO",
            ],
        ],
        title="allocation solver (lazy vs. naive greedy)",
    )
    return (
        engine_table
        + "\n\n"
        + parallel_table
        + "\n\n"
        + amort_table
        + "\n\n"
        + alloc_table
    )
