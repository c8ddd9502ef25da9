"""Tests for the heterogeneous (lazy submodular) greedy — the OPT baseline."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import (
    HeterogeneousProblem,
    greedy_heterogeneous,
    greedy_homogeneous,
    heterogeneous_welfare,
)
from repro.demand import DemandModel
from repro.errors import ConfigurationError
from repro.utility import (
    ExponentialUtility,
    MixtureUtility,
    NegLogUtility,
    PowerUtility,
    StepUtility,
)


def homogeneous_matrix(n, mu, *, zero_diag=False):
    rates = np.full((n, n), mu)
    if zero_diag:
        np.fill_diagonal(rates, 0.0)
    return rates


class TestAgainstHomogeneous:
    def test_matches_homogeneous_greedy_welfare(self):
        """On homogeneous inputs the submodular greedy recovers the exact
        Theorem-2 optimum."""
        n, mu, rho = 8, 0.1, 2
        demand = DemandModel.pareto(6, omega=1.0)
        utility = StepUtility(4.0)
        problem = HeterogeneousProblem(
            demand=demand,
            utility=utility,
            rate_matrix=homogeneous_matrix(n, mu, zero_diag=True),
            rho=rho,
            server_of_client=np.arange(n),
        )
        result = greedy_heterogeneous(problem)
        exact = greedy_homogeneous(
            demand, utility, mu, n, rho, pure_p2p=True, n_clients=n
        )
        assert result.welfare == pytest.approx(exact.welfare, rel=1e-9)

    def test_dedicated_case(self):
        n_servers, n_clients, mu = 5, 4, 0.2
        demand = DemandModel.pareto(4)
        utility = StepUtility(3.0)
        problem = HeterogeneousProblem(
            demand=demand,
            utility=utility,
            rate_matrix=np.full((n_servers, n_clients), mu),
            rho=1,
        )
        result = greedy_heterogeneous(problem)
        exact = greedy_homogeneous(demand, utility, mu, n_servers, 1)
        assert result.welfare == pytest.approx(exact.welfare, rel=1e-9)


class TestGuarantee:
    def brute_force(self, problem):
        """Exhaustive optimum over feasible allocations (tiny instances)."""
        demand = problem.demand
        n_items, n_servers = demand.n_items, problem.n_servers
        cells = [(i, m) for i in range(n_items) for m in range(n_servers)]
        budget = problem.rho * n_servers
        best = -np.inf
        for size in range(budget + 1):
            for chosen in combinations(cells, size):
                loads = np.zeros(n_servers, dtype=int)
                allocation = np.zeros((n_items, n_servers), dtype=np.int8)
                feasible = True
                for i, m in chosen:
                    loads[m] += 1
                    if loads[m] > problem.rho:
                        feasible = False
                        break
                    allocation[i, m] = 1
                if not feasible:
                    continue
                value = heterogeneous_welfare(
                    allocation,
                    demand,
                    problem.utility,
                    problem.rate_matrix,
                    server_of_client=problem.server_of_client,
                    rate_floor=problem.rate_floor,
                )
                best = max(best, value)
        return best

    def test_greedy_within_bound_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            rates = rng.uniform(0.0, 0.5, size=(3, 3))
            demand = DemandModel.from_weights(rng.uniform(0.2, 3.0, size=3))
            problem = HeterogeneousProblem(
                demand=demand,
                utility=StepUtility(float(rng.uniform(1.0, 10.0))),
                rate_matrix=rates,
                rho=1,
            )
            greedy_value = greedy_heterogeneous(problem).welfare
            optimum = self.brute_force(problem)
            assert greedy_value >= (1 - 1 / np.e) * optimum - 1e-9
            assert greedy_value <= optimum + 1e-9


class TestBehaviour:
    def test_respects_capacity(self):
        demand = DemandModel.pareto(5)
        problem = HeterogeneousProblem(
            demand=demand,
            utility=StepUtility(5.0),
            rate_matrix=np.full((4, 4), 0.1),
            rho=2,
        )
        allocation = greedy_heterogeneous(problem).allocation
        assert allocation.sum(axis=0).max() <= 2

    def test_places_near_demand(self):
        """Copies go to servers that actually meet the requesting clients."""
        demand = DemandModel.from_weights([1.0])
        rates = np.array(
            [[1.0, 1.0], [0.01, 0.01], [0.01, 0.01]]
        )  # server 0 meets everyone
        problem = HeterogeneousProblem(
            demand=demand, utility=StepUtility(2.0), rate_matrix=rates, rho=1
        )
        allocation = greedy_heterogeneous(problem).allocation
        assert allocation[0, 0] == 1

    def test_rate_floor_keeps_unbounded_costs_finite(self):
        demand = DemandModel.pareto(3)
        rates = np.zeros((3, 3))
        rates[0, 0] = 0.5
        problem = HeterogeneousProblem(
            demand=demand,
            utility=PowerUtility(0.0),
            rate_matrix=rates,
            rho=1,
            rate_floor=0.01,
        )
        result = greedy_heterogeneous(problem)
        assert np.isfinite(result.welfare)

    def test_lazy_evaluations_bounded(self):
        demand = DemandModel.pareto(6)
        problem = HeterogeneousProblem(
            demand=demand,
            utility=StepUtility(5.0),
            rate_matrix=np.random.default_rng(3).uniform(0, 0.3, (6, 6)),
            rho=2,
        )
        result = greedy_heterogeneous(problem)
        # Never more than (initial full scan + per-acceptance rescans of
        # every cell) — the lazy heap should stay well under the naive
        # O(selections * cells) bound.
        n_cells = 6 * 6
        assert result.evaluations <= n_cells * (problem.rho * 6 + 1)

    def test_validation(self):
        demand = DemandModel.pareto(3)
        with pytest.raises(ConfigurationError):
            HeterogeneousProblem(
                demand=demand,
                utility=StepUtility(1.0),
                rate_matrix=np.ones((2, 2)),
                rho=0,
            )
        with pytest.raises(ConfigurationError):
            HeterogeneousProblem(
                demand=demand,
                utility=PowerUtility(1.5),  # infinite h(0+)
                rate_matrix=np.ones((2, 2)),
                rho=1,
                server_of_client=np.arange(2),
            )

    def test_unbounded_cost_zero_rate_needs_floor(self):
        """-inf - (-inf) marginals are NaN, which the heap orders
        arbitrarily: refuse the instance instead of returning a
        corrupted allocation."""
        rates = np.zeros((3, 3))
        rates[0, 0] = 0.5
        with pytest.raises(ConfigurationError, match="rate_floor"):
            HeterogeneousProblem(
                demand=DemandModel.pareto(3),
                utility=PowerUtility(0.0),
                rate_matrix=rates,
                rho=1,
            )

    def test_unbounded_cost_zero_weight_needs_floor(self):
        """A client that never asks for an item turns its +inf first-copy
        gain into 0 * inf = NaN."""
        pi = np.full((2, 3), 0.5)
        pi[:, 2] = 0.0
        with pytest.raises(ConfigurationError, match="rate_floor"):
            HeterogeneousProblem(
                demand=DemandModel.pareto(2),
                utility=NegLogUtility(),
                rate_matrix=np.full((2, 3), 0.1),
                rho=1,
                pi=pi,
            )


#: (utility, rate_floor); unbounded costs without a floor need positive
#: rates and weights, which the strategy below then draws.
ORACLE_UTILITIES = [
    (StepUtility(2.0), 0.0),
    (StepUtility(300.0), 0.0),
    (ExponentialUtility(0.5), 0.0),
    (PowerUtility(0.5), 0.0),
    (PowerUtility(0.5), 1e-3),
    (PowerUtility(1.5), 1e-3),
    (NegLogUtility(), 1e-3),
    (MixtureUtility([(0.5, StepUtility(4.0)), (0.5, StepUtility(40.0))]), 0.0),
]


@st.composite
def oracle_instances(draw):
    utility, floor = draw(st.sampled_from(ORACLE_UTILITIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_items = draw(st.integers(1, 6))
    n_servers = draw(st.integers(1, 7))
    colocated = utility.finite_at_zero and draw(st.booleans())
    # Past 128 columns a row sum is split into pairwise blocks.
    n_clients = (
        n_servers if colocated else draw(st.sampled_from([1, 4, 9, 150]))
    )
    rates = rng.gamma(0.7, 0.05, size=(n_servers, n_clients))
    if floor > 0:
        # A floor that binds (0 < rate < ~floor) breaks submodularity, and
        # with it the lazy walk's equivalence to the textbook greedy.
        rates = np.maximum(rates, 4 * floor)
    unbounded = floor == 0 and utility.gain_never == -np.inf
    if not unbounded and draw(st.booleans()):
        rates[rng.random(rates.shape) < 0.3] = 0.0
    pi = None
    if draw(st.booleans()):
        pi = rng.dirichlet(np.ones(n_clients), size=n_items)
    return HeterogeneousProblem(
        demand=DemandModel.from_weights(rng.uniform(0.1, 3.0, n_items)),
        utility=utility,
        rate_matrix=rates,
        rho=draw(st.integers(1, 3)),
        pi=pi,
        server_of_client=np.arange(n_clients) if colocated else None,
        rate_floor=floor,
    )


class TestLazyOracle:
    @settings(max_examples=60, deadline=None)
    @given(problem=oracle_instances())
    def test_lazy_matches_textbook_greedy(self, problem):
        """The lazy heap with per-item batched marginals makes exactly the
        decisions of the per-pair textbook greedy."""
        lazy = greedy_heterogeneous(problem)
        naive = greedy_heterogeneous(problem, lazy=False)
        assert np.array_equal(lazy.allocation, naive.allocation)
        assert float(lazy.welfare).hex() == float(naive.welfare).hex()
        assert lazy.evaluations <= naive.evaluations
