"""Fault-tolerant sweeps: on_error policies, resume, stat guards."""

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
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import (
    AlgorithmStats,
    percentile_interval,
    run_comparison,
)
from repro.experiments import runner as runner_mod
from repro.faults import FaultSchedule
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


class TestOnErrorPolicies:
    def test_raise_is_default(self, setup):
        demand, config = setup
        protocols = make_protocols(demand)
        protocols["BAD"] = lambda tr, rq: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        with pytest.raises(RuntimeError, match="boom"):
            sweep(demand, config, protocols)

    def test_skip_reports_partial_results(self, setup):
        demand, config = setup
        calls = {"n": 0}

        def flaky(tr, rq):
            calls["n"] += 1
            if calls["n"] == 2:  # fail exactly on trial 1
                raise RuntimeError("boom")
            return uni_protocol(demand, tr.n_nodes, RHO)

        protocols = make_protocols(demand)
        protocols["FLAKY"] = flaky
        result = sweep(demand, config, protocols, on_error="skip")
        assert result.n_trials == 3
        assert result.stats["OPT"].n_trials == 3
        assert result.stats["FLAKY"].n_trials == 2
        (failure,) = result.failures
        assert failure.trial == 1
        assert failure.protocol == "FLAKY"
        assert failure.error == "RuntimeError: boom"
        assert failure.attempts == 1
        assert "failed runs (1):" in result.render()

    def test_skip_drops_fully_failed_protocol(self, setup):
        demand, config = setup
        protocols = make_protocols(demand)
        protocols["BAD"] = lambda tr, rq: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        result = sweep(demand, config, protocols, on_error="skip")
        assert "BAD" not in result.stats
        assert result.n_failures == 3
        assert np.isnan(result.normalized_loss("BAD"))

    def test_retry_recovers_transient_failures(self, setup, monkeypatch):
        monkeypatch.setattr(runner_mod, "RETRY_BACKOFF_S", 0.0)
        demand, config = setup
        attempts = {"n": 0}

        def flaky(tr, rq):
            attempts["n"] += 1
            if attempts["n"] % 2 == 1:  # every first attempt fails
                raise RuntimeError("transient")
            return uni_protocol(demand, tr.n_nodes, RHO)

        protocols = {"OPT": make_protocols(demand)["OPT"], "FLAKY": flaky}
        result = sweep(demand, config, protocols, on_error="retry")
        assert not result.failures
        assert result.stats["FLAKY"].n_trials == 3

    def test_retry_gives_up_after_max_retries(self, setup, monkeypatch):
        monkeypatch.setattr(runner_mod, "RETRY_BACKOFF_S", 0.0)
        demand, config = setup
        protocols = make_protocols(demand)
        protocols["BAD"] = lambda tr, rq: (_ for _ in ()).throw(
            RuntimeError("persistent")
        )
        result = sweep(
            demand, config, protocols, n_trials=1, on_error="retry"
        )
        (failure,) = result.failures
        assert runner_mod.MAX_RETRIES == 2
        assert failure.attempts == 3  # 1 initial + 2 retries

    def test_every_run_failing_raises(self, setup):
        demand, config = setup
        protocols = {
            "OPT": lambda tr, rq: (_ for _ in ()).throw(RuntimeError("boom"))
        }
        with pytest.raises(SimulationError, match="every run failed"):
            sweep(demand, config, protocols, on_error="skip")

    def test_invalid_policy_rejected(self, setup):
        demand, config = setup
        with pytest.raises(ConfigurationError, match="on_error"):
            sweep(demand, config, make_protocols(demand), on_error="ignore")

    def test_failure_error_text_is_byte_bounded(self, setup):
        """A pathological exception message must not bloat the records.

        Recursive reprs and deeply nested tracebacks can reach
        megabytes; everything persisted (queue failure files, quarantine
        markers, telemetry) stores the TrialFailure error, so it is
        truncated to MAX_ERROR_BYTES at the source.
        """
        from repro.durable import MAX_ERROR_BYTES

        demand, config = setup
        protocols = make_protocols(demand)
        protocols["BAD"] = lambda tr, rq: (_ for _ in ()).throw(
            RuntimeError("corrupt state: " + "x" * (MAX_ERROR_BYTES * 8))
        )
        result = sweep(
            demand, config, protocols, n_trials=1, on_error="skip"
        )
        (failure,) = result.failures
        assert len(failure.error.encode("utf-8")) <= MAX_ERROR_BYTES
        assert failure.error.startswith("RuntimeError: corrupt state:")
        assert "truncated" in failure.error


class TestFaultsThreading:
    def test_shared_schedule_applies_to_every_run(self, setup):
        demand, config = setup
        faults = FaultSchedule.crash_wave(
            DURATION / 2, [0, 1], wipe_cache=False
        )
        result = sweep(demand, config, make_protocols(demand), faults=faults)
        for stats in result.stats.values():
            assert all(r.n_crashes == 2 for r in stats.results)

    def test_per_trial_factory(self, setup):
        demand, config = setup
        result = sweep(
            demand,
            config,
            make_protocols(demand),
            faults=lambda trial: FaultSchedule.crash_wave(
                DURATION / 2, range(trial + 1), wipe_cache=False
            ),
        )
        crashes = [r.n_crashes for r in result.stats["UNI"].results]
        assert crashes == [1, 2, 3]


class TestCheckpoint:
    """Resume through the run cache, the sweep's one persistence path."""

    def test_result_round_trips_exactly(self, setup):
        demand, config = setup
        result = sweep(
            demand,
            config,
            make_protocols(demand),
            n_trials=1,
            faults=FaultSchedule.crash_wave(50.0, [0], recover_at=60.0),
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
