"""Sweep robustness: failure propagation, resume, stat guards."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel
from repro.errors import ConfigurationError
from repro.experiments import (
    AlgorithmStats,
    percentile_interval,
    run_comparison,
)
from repro.experiments import runner as runner_mod
from repro.protocols import prop_protocol, uni_protocol
from repro.sim import SimulationConfig
from repro.simcache import SimulationRunCache
from repro.simcache.store import result_from_dict, result_to_dict
from repro.utility import StepUtility

from ..sim._bitwise import assert_bit_identical

N, I, RHO = 8, 6, 2
DURATION = 150.0


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


class TestFailurePropagation:
    def test_failing_factory_raises(self, setup):
        demand, config = setup
        protocols = make_protocols(demand)
        protocols["BAD"] = lambda tr, rq: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        with pytest.raises(RuntimeError, match="boom"):
            sweep(demand, config, protocols)


class TestCheckpoint:
    """Resume through the run cache, the sweep's one persistence path."""

    def test_result_round_trips_exactly(self, setup):
        demand, config = setup
        result = sweep(
            demand,
            config,
            make_protocols(demand),
            n_trials=1,
        )
        original = result.stats["UNI"].results[0]
        rebuilt = result_from_dict(result_to_dict(original))
        for spec in dataclasses.fields(original):
            x, y = getattr(original, spec.name), getattr(rebuilt, spec.name)
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y), spec.name
                assert x.dtype == y.dtype, spec.name
            elif isinstance(x, float) and np.isnan(x):
                assert np.isnan(y), spec.name
            else:
                assert x == y, spec.name

    def test_interrupted_sweep_resumes_identically(self, setup, tmp_path):
        """Rerunning a killed sweep with the same run cache resumes it."""
        demand, config = setup
        cache = tmp_path / "cache"
        uninterrupted = sweep(demand, config, make_protocols(demand))

        calls = {"n": 0}

        def dying_uni(tr, rq):
            calls["n"] += 1
            if calls["n"] >= 2:  # die on the second trial
                raise KeyboardInterrupt
            return uni_protocol(demand, tr.n_nodes, RHO)

        protocols = make_protocols(demand)
        protocols["UNI"] = dying_uni
        with pytest.raises(KeyboardInterrupt):
            sweep(demand, config, protocols, run_cache=cache)

        resumed = sweep(
            demand, config, make_protocols(demand), run_cache=cache
        )
        for name in ("OPT", "UNI"):
            for x, y in zip(
                resumed.stats[name].results,
                uninterrupted.stats[name].results,
            ):
                assert_bit_identical(x, y)
        restored = {
            (r.trial, r.protocol)
            for r in resumed.telemetry
            if r.status == "cached"
        }
        assert restored == {(0, "OPT"), (0, "UNI"), (1, "OPT")}
        assert resumed.manifest["run_cache"]["hits"] == len(restored)
        assert resumed.manifest["run_cache"]["misses"] == 3

    def test_completed_sweep_is_not_resimulated(
        self, setup, tmp_path, monkeypatch
    ):
        demand, config = setup
        cache = tmp_path / "cache"
        first = sweep(demand, config, make_protocols(demand), run_cache=cache)

        def exploding(*args, **kwargs):
            raise AssertionError("should have been loaded from the cache")

        monkeypatch.setattr(runner_mod, "simulate", exploding)
        reloaded = sweep(
            demand, config, make_protocols(demand), run_cache=cache
        )
        assert np.array_equal(
            reloaded.stats["UNI"].gain_rates, first.stats["UNI"].gain_rates
        )
        assert all(r.status == "cached" for r in reloaded.telemetry)


#: A two-worker pool sweep of this module's workload over a run cache.
#: Trial 0 runs normally; every later trial's trace factory stalls, so
#: the sweep cannot finish before the test SIGKILLs it.
_CRASH_SWEEP = textwrap.dedent(
    """
    import os
    import sys
    import time

    os.cpu_count = lambda: 2  # a real two-worker pool on a 1-CPU host

    from tests.experiments import test_runner_robustness as mod
    from repro.demand import DemandModel
    from repro.experiments.runner import _derive_trial_seeds
    from repro.sim import SimulationConfig
    from repro.utility import StepUtility

    n_trials = int(sys.argv[2])
    first_seed = _derive_trial_seeds(1, n_trials)[0][0]

    def stalling_trace_factory(seed):
        if seed != first_seed:
            time.sleep(60)  # killed long before this returns
        return mod.trace_factory(seed)

    demand = DemandModel.pareto(mod.I, omega=1.0, total_rate=2.0)
    config = SimulationConfig(
        n_items=mod.I, rho=mod.RHO, utility=StepUtility(5.0)
    )
    mod.run_comparison(
        trace_factory=stalling_trace_factory,
        demand=demand,
        config=config,
        protocols=mod.make_protocols(demand),
        n_trials=n_trials,
        base_seed=1,
        executor=2,
        run_cache=sys.argv[1],
    )
    """
)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the crashed sweep runs on a fork pool",
)
class TestCrashResume:
    def test_sigkilled_pool_sweep_resumes_identically(self, setup, tmp_path):
        """A SIGKILLed pool sweep resumes bit-identically from its cache."""
        demand, config = setup
        n_trials = 3
        cache_root = tmp_path / "cache"
        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), str(repo_root)]
        )
        env.pop("REPRO_SWEEP_EXECUTOR", None)
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CRASH_SWEEP,
                str(cache_root),
                str(n_trials),
            ],
            cwd=repo_root,
            env=env,
            start_new_session=True,  # the pool workers share its group
        )
        cache = SimulationRunCache(cache_root)
        try:
            for _ in range(1500):
                if len(cache) or child.poll() is not None:
                    break
                time.sleep(0.01)
            assert child.poll() is None, (
                f"the sweep exited ({child.returncode}) before the kill"
            )
            assert len(cache) >= 1, "no run reached the cache in 15 s"
        finally:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        assert child.returncode == -signal.SIGKILL
        n_stored = len(cache)
        assert 1 <= n_stored <= 2  # only trial 0 could finish

        resumed = sweep(
            demand,
            config,
            make_protocols(demand),
            n_trials=n_trials,
            run_cache=cache_root,
        )
        uncached = sweep(
            demand, config, make_protocols(demand), n_trials=n_trials
        )
        for name in ("OPT", "UNI"):
            for x, y in zip(
                resumed.stats[name].results, uncached.stats[name].results
            ):
                assert_bit_identical(x, y)
        restored = {
            (r.trial, r.protocol)
            for r in resumed.telemetry
            if r.status == "cached"
        }
        assert len(restored) == n_stored
        assert restored <= {(0, "OPT"), (0, "UNI")}
        assert resumed.manifest["run_cache"]["hits"] == n_stored
        n_units = 2 * n_trials
        assert resumed.manifest["run_cache"]["misses"] == n_units - n_stored


class TestStatGuards:
    """Satellite: empty / all-NaN inputs fail loudly, not cryptically."""

    def test_percentile_interval_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one value"):
            percentile_interval([])

    def test_percentile_interval_all_nan_rejected(self):
        with pytest.raises(ConfigurationError, match="all-NaN"):
            percentile_interval([float("nan"), float("nan")])

    def test_algorithm_stats_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one trial"):
            AlgorithmStats(name="X", gain_rates=np.zeros(0), results=())

    def test_algorithm_stats_all_nan_rejected(self):
        with pytest.raises(ConfigurationError, match="all-NaN"):
            AlgorithmStats(
                name="X",
                gain_rates=np.array([float("nan")]),
                results=(),
            )
