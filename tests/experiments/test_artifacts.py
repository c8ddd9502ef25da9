"""TrialArtifacts: memoized fingerprints and shared streams.

The amortization contract has two halves: each per-trial artifact is
computed *at most once* (the memo tests count underlying hash passes),
and reusing it never changes a single bit of any result (the sweep
tests compare shared and unshared runs exactly).  A pool sweep equals
the serial walk bit for bit (``tests/dist/test_executors.py``,
``tests/experiments/test_telemetry.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.experiments import TrialArtifacts, run_comparison
from repro.experiments.benchmark import _merge_per_protocol
from repro.protocols import prop_protocol, uni_protocol
from repro.sim import SimulationConfig
from repro.simcache import (
    fingerprint_requests,
    fingerprint_trace,
    run_key,
)
from repro.utility import StepUtility

N, I, RHO = 6, 4, 2
DURATION = 80.0

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
        calls = {"trace": 0, "requests": 0}

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
        inputs = TrialArtifacts(trace, requests, 17)
        for _ in range(5):  # one probe per protocol in a 5-protocol sweep
            inputs.trace_fingerprint()
            inputs.requests_fingerprint()
        assert calls == {"trace": 1, "requests": 1}

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


# ----------------------------------------------------------------------
# sweep-level bit-identity: shared vs. unshared
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

