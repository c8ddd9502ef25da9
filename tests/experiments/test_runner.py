"""Tests for the multi-trial comparison runner."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel
from repro.errors import ConfigurationError
from repro.experiments import percentile_interval, run_comparison
from repro.experiments import runner as runner_mod
from repro.protocols import uni_protocol, prop_protocol
from repro.sim import SimulationConfig
from repro.utility import StepUtility

N, I, RHO = 8, 6, 2


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


class TestRunComparison:
    def test_basic_run(self, setup):
        demand, config = setup
        result = run_comparison(
            trace_factory=lambda seed: homogeneous_poisson_trace(
                N, 0.1, 150.0, seed=seed
            ),
            demand=demand,
            config=config,
            protocols=make_protocols(demand),
            n_trials=3,
            base_seed=1,
        )
        assert set(result.stats) == {"OPT", "UNI"}
        assert len(result.stats["OPT"].gain_rates) == 3
        assert result.normalized_loss("OPT") == pytest.approx(0.0)

    def test_losses_relative_to_baseline(self, setup):
        demand, config = setup
        result = run_comparison(
            trace_factory=lambda seed: homogeneous_poisson_trace(
                N, 0.1, 150.0, seed=seed
            ),
            demand=demand,
            config=config,
            protocols=make_protocols(demand),
            n_trials=2,
            base_seed=2,
        )
        losses = result.losses()
        opt = result.stats["OPT"].mean_gain_rate
        uni = result.stats["UNI"].mean_gain_rate
        assert losses["UNI"] == pytest.approx(100 * (uni - opt) / abs(opt))

    def test_deterministic(self, setup):
        demand, config = setup

        def run():
            return run_comparison(
                trace_factory=lambda seed: homogeneous_poisson_trace(
                    N, 0.1, 100.0, seed=seed
                ),
                demand=demand,
                config=config,
                protocols=make_protocols(demand),
                n_trials=2,
                base_seed=3,
            )

        a, b = run(), run()
        assert np.array_equal(
            a.stats["UNI"].gain_rates, b.stats["UNI"].gain_rates
        )

    def test_validation(self, setup):
        demand, config = setup
        with pytest.raises(ConfigurationError):
            run_comparison(
                trace_factory=lambda seed: homogeneous_poisson_trace(
                    N, 0.1, 100.0, seed=seed
                ),
                demand=demand,
                config=config,
                protocols=make_protocols(demand),
                n_trials=0,
            )
        with pytest.raises(ConfigurationError):
            run_comparison(
                trace_factory=lambda seed: homogeneous_poisson_trace(
                    N, 0.1, 100.0, seed=seed
                ),
                demand=demand,
                config=config,
                protocols=make_protocols(demand),
                n_trials=1,
                baseline="MISSING",
            )

    @pytest.mark.parametrize("n_clients", [0, -3])
    def test_non_positive_n_clients_is_rejected(self, setup, n_clients):
        """``n_clients=0`` used to mean "every node" without a word."""
        demand, config = setup
        with pytest.raises(ConfigurationError, match="n_clients"):
            run_comparison(
                trace_factory=lambda seed: homogeneous_poisson_trace(
                    N, 0.1, 100.0, seed=seed
                ),
                demand=demand,
                config=config,
                protocols=make_protocols(demand),
                n_trials=1,
                n_clients=n_clients,
                run_cache=False,
            )

    @pytest.mark.parametrize("n_clients, resolved", [(None, N), (3, 3)])
    def test_request_recipe_records_the_resolved_count(
        self, setup, n_clients, resolved
    ):
        demand, config = setup
        seen = []

        def uni(tr, rq):
            seen.append(rq)
            return uni_protocol(demand, tr.n_nodes, RHO)

        run_comparison(
            trace_factory=lambda seed: homogeneous_poisson_trace(
                N, 0.1, 100.0, seed=seed
            ),
            demand=demand,
            config=config,
            protocols={"UNI": uni},
            n_trials=1,
            baseline="UNI",
            n_clients=n_clients,
            run_cache=False,
        )
        assert [rq.n_clients for rq in seen] == [resolved]
        assert int(seen[0](0).nodes.max()) < resolved

    def test_request_generation_error_is_not_a_failed_run(
        self, setup, monkeypatch
    ):
        """Requests are generated as trial setup, so a generator error
        propagates once."""
        demand, config = setup
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("no schedule")

        monkeypatch.setattr(runner_mod, "generate_requests", broken)
        with pytest.raises(RuntimeError, match="no schedule"):
            run_comparison(
                trace_factory=lambda seed: homogeneous_poisson_trace(
                    N, 0.1, 100.0, seed=seed
                ),
                demand=demand,
                config=config,
                protocols=make_protocols(demand),
                n_trials=1,
                run_cache=False,
            )
        assert len(calls) == 1

    def test_request_generation_is_timed_as_setup(self, setup, monkeypatch):
        demand, config = setup
        real = runner_mod.generate_requests

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "generate_requests", slow)
        result = run_comparison(
            trace_factory=lambda seed: homogeneous_poisson_trace(
                N, 0.1, 100.0, seed=seed
            ),
            demand=demand,
            config=config,
            protocols=make_protocols(demand),
            n_trials=1,
            run_cache=False,
        )
        first = result.telemetry[0]
        assert first.setup_wall_s >= 0.05
        assert first.wall_s < 0.05


class TestRender:
    def test_table_contents(self, setup):
        demand, config = setup
        result = run_comparison(
            trace_factory=lambda seed: homogeneous_poisson_trace(
                N, 0.1, 100.0, seed=seed
            ),
            demand=demand,
            config=config,
            protocols=make_protocols(demand),
            n_trials=2,
            base_seed=9,
        )
        text = result.render(title="demo")
        assert text.splitlines()[0] == "demo"
        assert "OPT" in text and "UNI" in text
        assert "vs OPT" in text


class TestPercentiles:
    def test_interval(self):
        lo, hi = percentile_interval(list(range(101)))
        assert lo == pytest.approx(5.0)
        assert hi == pytest.approx(95.0)

    def test_stats_interval(self, setup):
        demand, config = setup
        result = run_comparison(
            trace_factory=lambda seed: homogeneous_poisson_trace(
                N, 0.1, 100.0, seed=seed
            ),
            demand=demand,
            config=config,
            protocols=make_protocols(demand),
            n_trials=4,
            base_seed=4,
        )
        lo, hi = result.stats["UNI"].interval
        assert lo <= result.stats["UNI"].mean_gain_rate <= hi
