"""Sweep instrumentation: telemetry records, progress, manifests, profiles."""

from __future__ import annotations

import io

import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel
from repro.experiments import run_comparison
from repro.experiments.runner import RunTelemetry
from repro.obs.log import set_log_stream
from repro.protocols import prop_protocol, uni_protocol
from repro.sim import SimulationConfig
from repro.utility import StepUtility

N, I, RHO = 8, 6, 2
N_TRIALS = 3


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    """Pretend the machine has 8 cores so ``executor=2`` tests stay on
    the pool path (pools are capped at ``os.cpu_count()``)."""
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 8)


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


def sweep(demand, config, **kwargs):
    return run_comparison(
        trace_factory=lambda seed: homogeneous_poisson_trace(
            N, 0.1, 120.0, seed=seed
        ),
        demand=demand,
        config=config,
        protocols=make_protocols(demand),
        n_trials=N_TRIALS,
        base_seed=11,
        **kwargs,
    )


class TestTelemetryRecords:
    def test_one_record_per_unit_in_trial_major_order(self, setup):
        demand, config = setup
        result = sweep(demand, config)
        assert len(result.telemetry) == N_TRIALS * 2
        order = [(r.trial, r.protocol) for r in result.telemetry]
        assert order == [
            (trial, name)
            for trial in range(N_TRIALS)
            for name in ("OPT", "UNI")
        ]
        for record in result.telemetry:
            assert record.status == "ok"
            assert record.wall_s >= 0.0
            assert record.cpu_s >= 0.0
            assert record.gain_rate is not None

    def test_parallel_telemetry_matches_serial_shape(self, setup):
        demand, config = setup
        serial = sweep(demand, config)
        parallel = sweep(demand, config, executor=2)
        assert [
            (r.trial, r.protocol, r.status) for r in serial.telemetry
        ] == [(r.trial, r.protocol, r.status) for r in parallel.telemetry]
        # Statistics stay bit-identical regardless of telemetry.
        for name in serial.stats:
            assert (
                serial.stats[name].gain_rates.tolist()
                == parallel.stats[name].gain_rates.tolist()
            )

    def test_to_dict_round_trip(self):
        record = RunTelemetry(
            trial=1, protocol="OPT", status="ok", wall_s=0.5, gain_rate=2.0
        )
        data = record.to_dict()
        assert data["trial"] == 1
        assert data["gain_rate"] == 2.0


class TestProgress:
    def test_callback_receives_every_unit(self, setup):
        demand, config = setup
        seen = []
        sweep(demand, config, progress=seen.append)
        assert len(seen) == N_TRIALS * 2
        assert [u["completed"] for u in seen] == list(
            range(1, N_TRIALS * 2 + 1)
        )
        for update in seen:
            assert update["total"] == N_TRIALS * 2
            assert update["status"] == "ok"
            assert update["elapsed_s"] >= 0.0

    def test_progress_true_logs_lines(self, setup):
        demand, config = setup
        stream = io.StringIO()
        set_log_stream(stream)
        try:
            sweep(demand, config, progress=True)
        finally:
            set_log_stream(None)
        lines = stream.getvalue().splitlines()
        assert len(lines) >= N_TRIALS * 2
        assert any("sweep complete" in line for line in lines)


class TestSweepManifest:
    def test_result_manifest_shape(self, setup):
        demand, config = setup
        result = sweep(demand, config)
        manifest = result.manifest
        assert manifest is not None
        assert manifest["config_fingerprint"] == config.fingerprint()
        assert manifest["base_seed"] == 11
        assert manifest["n_trials"] == N_TRIALS
        assert manifest["protocols"] == ["OPT", "UNI"]
        assert manifest["n_runs_executed"] == N_TRIALS * 2
        assert manifest["wall_s"] >= 0.0
        assert "python" in manifest["environment"]

    def test_cache_resume_is_cached(self, setup, tmp_path):
        demand, config = setup
        cache = str(tmp_path / "cache")
        first = sweep(demand, config, run_cache=cache)
        assert first.manifest["run_cache"]["misses"] == N_TRIALS * 2
        resumed = sweep(demand, config, run_cache=cache)
        assert all(r.status == "cached" for r in resumed.telemetry)
        assert all(r.wall_s == r.cpu_s == 0.0 for r in resumed.telemetry)
        assert resumed.manifest["run_cache"]["hits"] == N_TRIALS * 2
        assert (
            resumed.manifest["config_fingerprint"]
            == first.manifest["config_fingerprint"]
        )
        for name in first.stats:
            assert (
                first.stats[name].gain_rates.tolist()
                == resumed.stats[name].gain_rates.tolist()
            )


class TestProfiling:
    def test_serial_profile_dump(self, setup, tmp_path):
        demand, config = setup
        profile_dir = tmp_path / "profiles"
        sweep(demand, config, profile_dir=str(profile_dir))
        dumps = list(profile_dir.glob("serial-*.pstats"))
        assert len(dumps) == 1
        import pstats

        stats = pstats.Stats(str(dumps[0]))
        assert stats.total_calls > 0

    def test_parallel_profile_dump(self, setup, tmp_path):
        demand, config = setup
        profile_dir = tmp_path / "profiles"
        sweep(demand, config, executor=2, profile_dir=str(profile_dir))
        dumps = list(profile_dir.glob("worker-*.pstats"))
        assert dumps, "expected at least one worker profile"
