"""TrialArtifacts: memoized fingerprints, shared streams, spill handoff.

The amortization contract has two halves: each per-trial artifact is
computed *at most once* (the memo tests count underlying hash passes),
and reusing it never changes a single bit of any result (the sweep
tests compare shared/unshared and spilled/regenerated runs exactly).
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.contacts.binary import binary_trace_metadata
from repro.demand import DemandModel, generate_requests
from repro.experiments import TrialArtifacts, run_comparison
from repro.experiments.benchmark import _merge_per_protocol
from repro.experiments.artifacts import (
    SPILL_FINGERPRINT_KEY,
    load_spilled_trace,
    spill_trial_trace,
)
from repro.faults import FaultSchedule
from repro.protocols import prop_protocol, uni_protocol
from repro.sim import SimulationConfig
from repro.simcache import (
    fingerprint_faults,
    fingerprint_requests,
    fingerprint_trace,
    run_key,
)
from repro.utility import StepUtility

N, I, RHO = 6, 4, 2
DURATION = 80.0

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="executor backends need the fork start method",
)


def trace_factory(seed):
    return homogeneous_poisson_trace(N, 0.1, DURATION, seed=seed)


@pytest.fixture
def demand():
    return DemandModel.pareto(I, omega=1.0, total_rate=2.0)


@pytest.fixture
def config():
    return SimulationConfig(n_items=I, rho=RHO, utility=StepUtility(5.0))


@pytest.fixture
def protocols(demand):
    return {
        "OPT": lambda tr, rq: prop_protocol(demand, tr.n_nodes, RHO),
        "UNI": lambda tr, rq: uni_protocol(demand, tr.n_nodes, RHO),
    }


@pytest.fixture
def workload(demand):
    trace = trace_factory(3)
    requests = generate_requests(demand, trace.n_nodes, trace.duration, seed=4)
    return trace, requests


# ----------------------------------------------------------------------
# the memo: one hash pass per trial artifact, ever
# ----------------------------------------------------------------------
class TestFingerprintMemo:
    def test_one_hash_pass_per_artifact(self, workload, monkeypatch):
        trace, requests = workload
        faults = FaultSchedule.node_churn(
            trace.n_nodes,
            crash_rate=0.01,
            mean_downtime=10.0,
            duration=trace.duration,
            seed=5,
        )
        calls = {"trace": 0, "requests": 0, "faults": 0}

        import repro.experiments.artifacts as artifacts_mod

        def counting(kind, real):
            def wrapper(obj):
                calls[kind] += 1
                return real(obj)

            return wrapper

        monkeypatch.setattr(
            artifacts_mod,
            "fingerprint_trace",
            counting("trace", fingerprint_trace),
        )
        monkeypatch.setattr(
            artifacts_mod,
            "fingerprint_requests",
            counting("requests", fingerprint_requests),
        )
        monkeypatch.setattr(
            artifacts_mod,
            "fingerprint_faults",
            counting("faults", fingerprint_faults),
        )
        inputs = TrialArtifacts(trace, requests, 17, faults=faults)
        for _ in range(5):  # one probe per protocol in a 5-protocol sweep
            inputs.trace_fingerprint()
            inputs.requests_fingerprint()
            inputs.faults_fingerprint()
        assert calls == {"trace": 1, "requests": 1, "faults": 1}

    def test_preseeded_fingerprint_never_hashes(self, workload, monkeypatch):
        trace, requests = workload
        fp = fingerprint_trace(trace)

        import repro.experiments.artifacts as artifacts_mod

        def boom(_obj):
            raise AssertionError("spilled fingerprint must be trusted")

        monkeypatch.setattr(artifacts_mod, "fingerprint_trace", boom)
        inputs = TrialArtifacts(trace, requests, 17, trace_fingerprint=fp)
        assert inputs.trace_fingerprint() == fp

    def test_memoized_run_key_is_byte_identical(
        self, workload, config, demand
    ):
        trace, requests = workload
        protocol = uni_protocol(demand, trace.n_nodes, RHO)
        inputs = TrialArtifacts(trace, requests, 17)
        fresh = run_key(config, protocol, 17, trace, requests)
        memoized = run_key(
            config,
            protocol,
            17,
            trace,
            requests,
            trace_fingerprint=inputs.trace_fingerprint(),
            requests_fingerprint=inputs.requests_fingerprint(),
        )
        assert fresh == memoized


class TestEventStreamMemo:
    def test_stream_built_once_per_config(self, workload, config):
        trace, requests = workload
        inputs = TrialArtifacts(trace, requests, 17)
        first = inputs.event_stream(config)
        assert first is not None
        assert inputs.event_stream(config) is first

    def test_sharing_disabled_returns_none(self, workload, config):
        """The benchmark's merge-per-protocol baseline withholds the
        shared stream, and only while it is active."""
        trace, requests = workload
        inputs = TrialArtifacts(trace, requests, 17)
        with _merge_per_protocol():
            assert inputs.event_stream(config) is None
        assert inputs.event_stream(config) is not None

    def test_memmapped_trace_never_materializes(
        self, workload, config, tmp_path
    ):
        trace, requests = workload
        path = tmp_path / "t.ctb"
        spill_trial_trace(trace, path)
        mapped, _fp = load_spilled_trace(path)
        inputs = TrialArtifacts(mapped, requests, 17)
        assert inputs.event_stream(config) is None

    def test_drop_releases_the_memo(self, workload, config):
        trace, requests = workload
        inputs = TrialArtifacts(trace, requests, 17)
        first = inputs.event_stream(config)
        inputs.drop_event_stream()
        rebuilt = inputs.event_stream(config)
        assert rebuilt is not None and rebuilt is not first


# ----------------------------------------------------------------------
# spill round trip
# ----------------------------------------------------------------------
class TestSpill:
    def test_round_trip_preserves_columns_and_fingerprint(
        self, workload, tmp_path
    ):
        trace, _ = workload
        fp = fingerprint_trace(trace)
        path = tmp_path / "trial-0.ctb"
        returned = spill_trial_trace(trace, path, trace_fingerprint=fp)
        assert returned == os.fspath(path)
        assert binary_trace_metadata(path) == {SPILL_FINGERPRINT_KEY: fp}
        loaded, loaded_fp = load_spilled_trace(path)
        assert loaded_fp == fp
        assert np.array_equal(np.asarray(loaded.times), trace.times)
        assert np.array_equal(np.asarray(loaded.node_a), trace.node_a)
        assert np.array_equal(np.asarray(loaded.node_b), trace.node_b)
        # the spilled bytes hash to the same content fingerprint
        assert fingerprint_trace(loaded) == fp

    def test_spill_without_fingerprint(self, workload, tmp_path):
        trace, _ = workload
        path = tmp_path / "bare.ctb"
        spill_trial_trace(trace, path)
        loaded, loaded_fp = load_spilled_trace(path)
        assert loaded_fp is None
        assert np.array_equal(np.asarray(loaded.times), trace.times)


# ----------------------------------------------------------------------
# sweep-level bit-identity: shared vs. unshared, spilled vs. regenerated
# ----------------------------------------------------------------------
def sweep(demand, config, protocols, **kwargs):
    kwargs.setdefault("run_cache", False)
    return run_comparison(
        trace_factory=trace_factory,
        demand=demand,
        config=config,
        protocols=protocols,
        n_trials=2,
        base_seed=11,
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


class TestSweepSharing:
    def test_shared_vs_unshared_serial(
        self, demand, config, protocols, monkeypatch
    ):
        from repro.experiments import artifacts

        builds = []
        build = artifacts.build_event_stream

        def counting_build(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(artifacts, "build_event_stream", counting_build)
        shared = sweep(demand, config, protocols)
        assert len(builds) == 2  # one merge per trial, not per protocol
        with _merge_per_protocol():
            unshared = sweep(demand, config, protocols)
        assert len(builds) == 2  # every run merged inline instead
        assert_identical(shared, unshared)

    def test_shared_with_faults(
        self, demand, config, protocols, monkeypatch
    ):
        from repro.experiments import runner

        factory_calls = []

        def faults(trial):
            factory_calls.append(trial)
            return FaultSchedule.node_churn(
                N,
                crash_rate=0.01,
                mean_downtime=10.0,
                duration=DURATION,
                seed=100 + trial,
            )

        prebuilt = []
        simulate = runner.simulate

        def recording_simulate(*args, **kwargs):
            prebuilt.append(kwargs["prebuilt_events"] is not None)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(runner, "simulate", recording_simulate)
        shared = sweep(demand, config, protocols, faults=faults)
        # One fault schedule per trial, so every protocol of the trial
        # runs on the trial's prebuilt stream.
        assert factory_calls == [0, 1]
        assert prebuilt == [True] * (2 * len(protocols))
        with _merge_per_protocol():
            unshared = sweep(demand, config, protocols, faults=faults)
        assert_identical(shared, unshared)


@fork_only
class TestSpillHandoff:
    def test_pool_spill_matches_serial(
        self, demand, config, protocols, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        serial = sweep(demand, config, protocols)
        spilled = sweep(
            demand,
            config,
            protocols,
            executor=2,
            trial_spill_dir=tmp_path / "spills",
        )
        assert_identical(serial, spilled)
        assert spilled.manifest["n_spilled_trials"] == 2
        spill_files = sorted(os.listdir(tmp_path / "spills"))
        assert spill_files == ["trial-0.ctb", "trial-1.ctb"]
        for name in spill_files:
            meta = binary_trace_metadata(tmp_path / "spills" / name)
            assert meta == {}  # no cache -> no fingerprint spilled

    def test_pool_spill_carries_fingerprint_with_cache(
        self, demand, config, protocols, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        serial = sweep(demand, config, protocols)
        spilled = sweep(
            demand,
            config,
            protocols,
            executor=2,
            run_cache=tmp_path / "cache",
            trial_spill_dir=tmp_path / "spills",
        )
        assert_identical(serial, spilled)
        for name in sorted(os.listdir(tmp_path / "spills")):
            meta = binary_trace_metadata(tmp_path / "spills" / name)
            assert SPILL_FINGERPRINT_KEY in meta

    def test_serial_executor_never_spills(
        self, demand, config, protocols, tmp_path
    ):
        result = sweep(
            demand,
            config,
            protocols,
            trial_spill_dir=tmp_path / "spills",
        )
        assert result.manifest["n_spilled_trials"] == 0
        assert not (tmp_path / "spills").exists() or not os.listdir(
            tmp_path / "spills"
        )
