"""Shared tiny-sweep fixtures for the distributed-backend tests."""

from __future__ import annotations

import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel
from repro.dist import SweepSpec
from repro.protocols import prop_protocol, uni_protocol
from repro.sim import SimulationConfig
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


def make_spec(demand, config, protocols, **overrides) -> SweepSpec:
    """A minimal but fully real execution recipe for direct dist tests."""
    fields = dict(
        trace_factory=trace_factory,
        demand=demand,
        config=config,
        protocols=protocols,
        n_clients=None,
        faults=None,
        on_error="skip",
        attempts_per_run=1,
        profile_dir=None,
        cache=None,
        base_seed=7,
        n_trials=2,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def make_units(protocols, n_trials=2):
    """Handmade (trial, protocol, seeds...) units with a fixed seed walk."""
    return [
        (trial, name, 100 + trial, 200 + trial, 300 + trial)
        for trial in range(n_trials)
        for name in protocols
    ]
