"""Executor determinism: the executor spec must never change results.

Every backend is purely a wall-clock choice; every test here asserts
*bit-identical* statistics between a pool and the serial path,
including a failing run, which every backend raises, and resume
through the run cache.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel
from repro.dist import ProcessPoolExecutor
from repro.dist import executors as dist_executors
from repro.errors import ConfigurationError
from repro.experiments import run_comparison
from repro.protocols import prop_protocol, uni_protocol
from repro.sim import SimulationConfig
from repro.simcache import SimulationRunCache
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

    Pools are capped at ``os.cpu_count()``; on a 1-CPU CI box that
    would silently route every ``executor=4`` test through the serial
    path and stop exercising the pool.
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


def moody_protocols(demand):
    """The standard pair plus a factory that fails on one trial only.

    It fails deterministically from the trial's trace realization, so
    every backend fails on the same run.
    """

    def moody(tr, rq):
        if len(tr) > 445:  # trips only on trial 0's realization
            raise RuntimeError(f"dense trace ({len(tr)} contacts)")
        return uni_protocol(demand, tr.n_nodes, RHO)

    return dict(make_protocols(demand), MOODY=moody)


class TestExecutorEquivalence:
    def test_every_spec_matches(self, setup, monkeypatch):
        demand, config = setup
        monkeypatch.delenv(dist_executors.ENV_VAR, raising=False)
        specs = [
            (None, "serial", 1),
            ("serial", "serial", 1),
            (1, "serial", 1),
            (2, "process", 2),
            (ProcessPoolExecutor(2), "process", 2),
        ]
        results = []
        errors = []
        for executor, name, workers in specs:
            result = sweep(
                demand, config, make_protocols(demand), executor=executor
            )
            assert result.manifest["executor"] == name, executor
            assert result.manifest["n_workers"] == workers, executor
            results.append(result)
            # The seeds above do produce an odd trace, and every backend
            # raises its run's error.
            with pytest.raises(RuntimeError, match="dense trace") as error:
                sweep(
                    demand, config, moody_protocols(demand),
                    executor=executor,
                )
            errors.append(str(error.value))

        assert len(set(errors)) == 1
        reference = results[0]
        for result, (executor, _, _) in zip(results[1:], specs[1:]):
            assert_identical(reference, result)
            assert [
                (r.trial, r.protocol, r.status) for r in result.telemetry
            ] == [
                (r.trial, r.protocol, r.status) for r in reference.telemetry
            ], executor


class TestParallelDeterminism:
    def test_pool_matches_serial(self, setup):
        demand, config = setup
        serial = sweep(demand, config, make_protocols(demand))
        parallel = sweep(demand, config, make_protocols(demand), executor=4)
        assert_identical(serial, parallel)

    def test_single_worker_means_serial(self, setup):
        demand, config = setup
        serial = sweep(demand, config, make_protocols(demand))
        one = sweep(demand, config, make_protocols(demand), executor=1)
        assert_identical(serial, one)
        assert one.manifest["executor"] == "serial"
        assert one.manifest["n_workers"] == 1

    def test_invalid_worker_count_rejected(self, setup):
        demand, config = setup
        with pytest.raises(ConfigurationError, match="worker count"):
            sweep(demand, config, make_protocols(demand), executor=0)


class TestWorkerCap:
    @pytest.mark.parametrize("as_instance", [False, True])
    def test_int_and_instance_specs_are_capped_alike(
        self, setup, monkeypatch, as_instance
    ):
        """Six requested workers on two CPUs fork a pool of two."""
        import concurrent.futures
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        widths = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def recording_pool(*args, max_workers, **kwargs):
            widths.append(max_workers)
            return real_pool(*args, max_workers=max_workers, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", recording_pool
        )
        demand, config = setup
        result = sweep(
            demand,
            config,
            make_protocols(demand),
            executor=ProcessPoolExecutor(6) if as_instance else 6,
        )
        assert widths == [2]
        assert result.manifest["executor"] == "process"
        assert result.manifest["n_workers"] == 2

    def test_missing_fork_falls_back_to_serial(self, setup, monkeypatch):
        monkeypatch.setattr(
            multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        demand, config = setup
        with pytest.warns(RuntimeWarning, match="fork"):
            result = sweep(
                demand,
                config,
                make_protocols(demand),
                executor=ProcessPoolExecutor(4),
            )
        assert result.manifest["executor"] == "serial"
        assert result.manifest["n_workers"] == 1


class TestParallelErrorPolicies:
    def test_raise_propagates_from_worker(self, setup):
        demand, config = setup
        protocols = make_protocols(demand)
        protocols["BAD"] = lambda tr, rq: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        with pytest.raises(RuntimeError, match="boom"):
            sweep(demand, config, protocols, executor=4)


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
            executor=4,
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
            run_cache=cache, executor=4,
        )
        assert first.manifest["run_cache"]["misses"] == 6

        reloaded = sweep(
            demand, config, make_protocols(demand), run_cache=cache
        )
        assert_identical(first, reloaded)
        assert reloaded.manifest["run_cache"]["hits"] == 6
        assert all(r.status == "cached" for r in reloaded.telemetry)

    def test_pool_counts_cache_traffic_in_the_callers_stats(
        self, setup, tmp_path
    ):
        """Forked workers count on their own copies of the cache; the
        pool adds their counts to the caller's, as the serial walk
        counts there directly."""
        demand, config = setup
        counts = {}
        for executor in ("serial", 4):
            cache = SimulationRunCache(tmp_path / str(executor))
            passes = []
            for _ in range(2):
                sweep(
                    demand, config, make_protocols(demand),
                    run_cache=cache, executor=executor,
                )
                passes.append(cache.stats.to_dict())
            counts[executor] = passes
        assert counts[4] == counts["serial"]
        assert counts[4][-1] == {
            "hits": 6, "misses": 6, "stores": 6, "errors": 0,
        }
