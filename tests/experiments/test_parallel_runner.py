"""Parallel runner determinism: n_workers must never change results.

The process pool is purely a wall-clock optimization; every test here
asserts *bit-identical* statistics between ``n_workers=4`` and the
serial path, including under per-trial fault schedules, skip-on-error
sweeps, and resume through the run cache.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel
from repro.errors import ConfigurationError
from repro.experiments import run_comparison
from repro.faults import FaultSchedule
from repro.protocols import prop_protocol, uni_protocol
from repro.sim import SimulationConfig
from repro.utility import StepUtility

N, I, RHO = 8, 6, 2
DURATION = 150.0

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel runner needs the fork start method",
)


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    """Pretend the machine has 8 cores.

    The runner caps ``n_workers`` at ``os.cpu_count()``; on a 1-CPU CI
    box that would silently route every ``n_workers=4`` test through
    the serial path and stop exercising the pool.
    """
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 8)


def trace_factory(seed):
    return homogeneous_poisson_trace(N, 0.1, DURATION, seed=seed)


def make_protocols(demand):
    return {
        "OPT": lambda tr, rq: prop_protocol(demand, tr.n_nodes, RHO),
        "UNI": lambda tr, rq: uni_protocol(demand, tr.n_nodes, RHO),
    }


@pytest.fixture
def setup():
    demand = DemandModel.pareto(I, omega=1.0, total_rate=2.0)
    config = SimulationConfig(n_items=I, rho=RHO, utility=StepUtility(5.0))
    return demand, config


def sweep(demand, config, protocols, **kwargs):
    kwargs.setdefault("n_trials", 3)
    kwargs.setdefault("base_seed", 1)
    return run_comparison(
        trace_factory=trace_factory,
        demand=demand,
        config=config,
        protocols=protocols,
        **kwargs,
    )


def assert_identical(a, b):
    assert set(a.stats) == set(b.stats)
    for name in a.stats:
        assert np.array_equal(
            a.stats[name].gain_rates, b.stats[name].gain_rates
        ), name
        for x, y in zip(a.stats[name].results, b.stats[name].results):
            assert x.total_gain == y.total_gain
            assert x.n_fulfilled == y.n_fulfilled
            assert np.array_equal(x.final_counts, y.final_counts)


class TestParallelDeterminism:
    def test_pool_matches_serial(self, setup):
        demand, config = setup
        serial = sweep(demand, config, make_protocols(demand))
        parallel = sweep(demand, config, make_protocols(demand), n_workers=4)
        assert_identical(serial, parallel)

    def test_single_worker_means_serial(self, setup):
        demand, config = setup
        serial = sweep(demand, config, make_protocols(demand))
        one = sweep(demand, config, make_protocols(demand), n_workers=1)
        assert_identical(serial, one)

    def test_pool_matches_serial_under_per_trial_faults(self, setup):
        demand, config = setup
        faults = lambda trial: FaultSchedule.crash_wave(  # noqa: E731
            DURATION / 2, range(trial + 1), wipe_cache=True
        )
        serial = sweep(demand, config, make_protocols(demand), faults=faults)
        parallel = sweep(
            demand, config, make_protocols(demand), faults=faults, n_workers=4
        )
        assert_identical(serial, parallel)
        crashes = [r.n_crashes for r in parallel.stats["UNI"].results]
        assert crashes == [1, 2, 3]

    def test_invalid_worker_count_rejected(self, setup):
        demand, config = setup
        with pytest.raises(ConfigurationError, match="n_workers"):
            sweep(demand, config, make_protocols(demand), n_workers=0)


class TestParallelErrorPolicies:
    def test_skip_reports_same_failures_as_serial(self, setup):
        demand, config = setup

        def protocols():
            # Fails deterministically from the trial's trace realization,
            # so serial and parallel sweeps fail on the same runs.
            def moody(tr, rq):
                if len(tr) > 445:  # trips only on trial 0's realization
                    raise RuntimeError(f"dense trace ({len(tr)} contacts)")
                return uni_protocol(demand, tr.n_nodes, RHO)

            built = make_protocols(demand)
            built["MOODY"] = moody
            return built

        serial = sweep(demand, config, protocols(), on_error="skip")
        parallel = sweep(
            demand, config, protocols(), on_error="skip", n_workers=4
        )
        assert serial.failures  # the seeds above do produce odd traces
        assert len(serial.failures) < serial.n_trials
        assert [
            (f.trial, f.protocol, f.error, f.attempts)
            for f in parallel.failures
        ] == [
            (f.trial, f.protocol, f.error, f.attempts)
            for f in serial.failures
        ]
        assert_identical(serial, parallel)

    def test_raise_propagates_from_worker(self, setup):
        demand, config = setup
        protocols = make_protocols(demand)
        protocols["BAD"] = lambda tr, rq: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        with pytest.raises(RuntimeError, match="boom"):
            sweep(demand, config, protocols, n_workers=4)


class TestParallelCheckpoint:
    """Resume through the run cache with a process pool."""

    def test_parallel_resume_of_interrupted_serial_sweep(
        self, setup, tmp_path
    ):
        demand, config = setup
        cache = tmp_path / "cache"
        uninterrupted = sweep(demand, config, make_protocols(demand))

        calls = {"n": 0}

        def dying_uni(tr, rq):
            calls["n"] += 1
            if calls["n"] >= 2:  # die mid-sweep, after one UNI run
                raise KeyboardInterrupt
            return uni_protocol(demand, tr.n_nodes, RHO)

        protocols = make_protocols(demand)
        protocols["UNI"] = dying_uni
        with pytest.raises(KeyboardInterrupt):
            sweep(demand, config, protocols, run_cache=cache)

        resumed = sweep(
            demand,
            config,
            make_protocols(demand),
            run_cache=cache,
            n_workers=4,
        )
        assert_identical(uninterrupted, resumed)
        assert resumed.manifest["executor"] == "process"
        restored = {
            (r.trial, r.protocol)
            for r in resumed.telemetry
            if r.status == "cached"
        }
        assert restored == {(0, "OPT"), (0, "UNI"), (1, "OPT")}
        assert resumed.manifest["run_cache"]["hits"] == len(restored)

    def test_parallel_sweep_writes_complete_checkpoint(self, setup, tmp_path):
        """Every unit a pooled sweep runs lands in the run cache."""
        demand, config = setup
        cache = tmp_path / "cache"
        first = sweep(
            demand, config, make_protocols(demand),
            run_cache=cache, n_workers=4,
        )
        assert first.manifest["run_cache"]["misses"] == 6

        reloaded = sweep(
            demand, config, make_protocols(demand), run_cache=cache
        )
        assert_identical(first, reloaded)
        assert reloaded.manifest["run_cache"]["hits"] == 6
        assert all(r.status == "cached" for r in reloaded.telemetry)
