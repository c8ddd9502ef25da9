"""Tests for scenario builders and the standard protocol suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contacts.synthetic import (
    ConferenceTraceConfig,
    VehicularTraceConfig,
    vehicular_trace,
)
from repro.errors import ConfigurationError
from repro.experiments import (
    default_qcr_config,
    conference_scenario,
    homogeneous_scenario,
    run_scenario,
    standard_protocols,
    vehicular_scenario,
)
from repro.experiments import scenarios as scenarios_mod
from repro.utility import ExponentialUtility, PowerUtility, StepUtility

FAST_CONF = ConferenceTraceConfig(n_nodes=12, n_days=1)
FAST_VEH = VehicularTraceConfig(
    n_nodes=12, duration_hours=4.0, sample_interval_s=60.0
)


class TestBuilders:
    def test_homogeneous_defaults(self):
        scenario = homogeneous_scenario(StepUtility(5.0))
        assert scenario.n_nodes == 50
        assert not scenario.heterogeneous
        trace = scenario.trace_factory(0)
        assert trace.n_nodes == 50
        assert trace.duration == 5000.0

    def test_with_utility(self):
        scenario = homogeneous_scenario(StepUtility(5.0))
        other = scenario.with_utility(ExponentialUtility(0.1))
        assert isinstance(other.config.utility, ExponentialUtility)
        assert other.demand is scenario.demand

    def test_conference_variants(self):
        for variant in ("actual", "synthesized", "rate_matched"):
            scenario = conference_scenario(
                StepUtility(60.0), trace_config=FAST_CONF, variant=variant
            )
            trace = scenario.trace_factory(1)
            assert trace.n_nodes == 12
        with pytest.raises(ConfigurationError):
            conference_scenario(StepUtility(60.0), variant="bogus")

    def test_vehicular(self):
        scenario = vehicular_scenario(
            StepUtility(60.0), trace_config=FAST_VEH
        )
        assert scenario.heterogeneous
        assert scenario.mu_estimate > 0

    def test_vehicular_probe_is_memoized(self, monkeypatch):
        scenarios_mod._vehicular_mean_rate.cache_clear()
        first = vehicular_scenario(StepUtility(60.0), trace_config=FAST_VEH)
        fresh = max(vehicular_trace(FAST_VEH, seed=0).mean_pair_rate, 1e-6)
        assert first.mu_estimate == fresh

        def no_trace(*args, **kwargs):
            raise AssertionError("a second build must not realize a trace")

        monkeypatch.setattr(scenarios_mod, "vehicular_trace", no_trace)
        second = vehicular_scenario(
            ExponentialUtility(0.1), trace_config=FAST_VEH, variant="synthesized"
        )
        assert second.mu_estimate == fresh

    def test_trace_factories_deterministic(self):
        scenario = conference_scenario(
            StepUtility(60.0), trace_config=FAST_CONF
        )
        a = scenario.trace_factory(9)
        b = scenario.trace_factory(9)
        assert np.array_equal(a.times, b.times)


class TestDefaultQcrConfig:
    def test_scale_normalizes_typical_burst(self):
        """The damping keeps a typical fulfillment's expected replica
        burst at the target, across families."""
        for utility in (StepUtility(5.0), PowerUtility(0.0), PowerUtility(-1.0)):
            config = default_qcr_config(utility, 50, 0.05)
            burst = config.psi_scale * utility.psi(10.0, 50, 0.05)
            assert burst <= 0.15 + 1e-9

    def test_tiny_reactions_left_alone(self):
        # A long deadline makes psi exponentially small: no damping.
        config = default_qcr_config(StepUtility(500.0), 50, 0.05)
        assert config.psi_scale == 1.0

    def test_stronger_reactions_damped_more(self):
        mild = default_qcr_config(PowerUtility(0.0), 50, 0.05)
        strong = default_qcr_config(PowerUtility(-1.0), 50, 0.05)
        assert strong.psi_scale < mild.psi_scale < 1.0
        assert strong.max_mandates_per_request is not None


class TestStandardProtocols:
    def test_all_names_built(self):
        scenario = homogeneous_scenario(StepUtility(5.0), duration=100.0)
        suite = standard_protocols(
            scenario,
            include=("OPT", "QCR", "QCRWOM", "SQRT", "PROP", "UNI", "DOM", "PASSIVE"),
        )
        trace = scenario.trace_factory(0)
        for name, factory in suite.items():
            protocol = factory(trace, None)
            assert protocol is not None

    def test_unknown_name_rejected(self):
        scenario = homogeneous_scenario(StepUtility(5.0), duration=100.0)
        with pytest.raises(ConfigurationError):
            standard_protocols(scenario, include=("NOPE",))

    def test_heterogeneous_opt_uses_trace(self):
        scenario = conference_scenario(
            StepUtility(60.0), trace_config=FAST_CONF
        )
        suite = standard_protocols(scenario, include=("OPT",))
        trace = scenario.trace_factory(2)
        protocol = suite["OPT"](trace, None)
        assert protocol.name == "OPT"


class TestRunScenario:
    def test_small_end_to_end(self):
        scenario = homogeneous_scenario(
            StepUtility(5.0),
            n_nodes=10,
            n_items=6,
            rho=2,
            duration=300.0,
            total_demand=2.0,
            record_interval=None,
        )
        comparison = run_scenario(
            scenario, n_trials=2, include=("OPT", "QCR", "UNI")
        )
        losses = comparison.losses()
        assert losses["OPT"] == pytest.approx(0.0)
        assert set(losses) == {"OPT", "QCR", "UNI"}
