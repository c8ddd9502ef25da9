"""Pins the heterogeneous greedy's allocations to ``GREEDY_CODE_VERSION``.

Trace OPT runs are keyed in the run cache by their problem plus
:data:`repro.allocation.submodular.GREEDY_CODE_VERSION`, not by the
allocation solved from it.  A change to ``greedy_heterogeneous`` that
moves an allocation would otherwise serve stale cached OPT runs.  These
tests take a sha256 of the allocation bytes on small seeded problems
(step, exponential and power utilities, the power ones under a binding
``rate_floor``, each with and without ``server_of_client``) and fail with
the instruction to bump the version; record the new digests here in
the same change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.allocation import HeterogeneousProblem, greedy_heterogeneous
from repro.demand import DemandModel
from repro.utility import ExponentialUtility, PowerUtility, StepUtility

N_NODES, N_ITEMS, RHO = 24, 30, 3

#: name -> (utility, with server_of_client, rate_floor, digest)
PINNED = {
    "step-tau60": (
        StepUtility(60.0), False, 0.0,
        "3777a416791b20ccf5b90870983bda161570951a9cc6f48ca143e68ef0618130",
    ),
    "step-tau60-colocated": (
        StepUtility(60.0), True, 0.0,
        "d698cffc4e40c1ff95af9e3cefc97d024dcc58706764be15f88473acaa11ad0d",
    ),
    "exp-nu0.01": (
        ExponentialUtility(0.01), False, 0.0,
        "8f9a0e2b817f2b328e4c65b275cbe5c68ff99c531e0f4078b80e66da3384f778",
    ),
    "exp-nu0.01-colocated": (
        ExponentialUtility(0.01), True, 0.0,
        "eff52a348683304f50c58ccb805b111b2f1448696987276fa303b490ad2ce697",
    ),
    "power0.5-floor": (
        PowerUtility(0.5), False, 2e-4,
        "4899b6d7e5301fbaee73610f3335f9bb3c08641c712498a6f23f389e0a899ec5",
    ),
    "power0.5-floor-colocated": (
        PowerUtility(0.5), True, 2e-4,
        "eaa18d53fa4631b8c386f64df5c8a523b1ae969f4858fa7b6eeb608d9298a26d",
    ),
    "power1.5-floor": (
        PowerUtility(1.5), False, 2e-4,
        "01b7d3eca40d8973e24d3298fa6834a000eb480ce43d71f4409610d0ccf544c2",
    ),
    # h(0+) is infinite for alpha > 1, so no client may be a server: the
    # mapping marks every client as a non-server.
    "power1.5-floor-mapped": (
        PowerUtility(1.5), True, 2e-4,
        "14d1f518ba8c760c6c89e81253b47d516a2f7faf8ac62c934c9de180a2f2db4e",
    ),
}


def pinned_problem(name):
    utility, mapped, floor, _ = PINNED[name]
    rng = np.random.default_rng(sorted(PINNED).index(name) + 71)
    rates = rng.gamma(0.5, 2e-3, size=(N_NODES, N_NODES))
    rates[rng.random((N_NODES, N_NODES)) < 0.3] = 0.0
    np.fill_diagonal(rates, 0.0)
    mapping = None
    if mapped:
        mapping = np.arange(N_NODES)
        if not utility.finite_at_zero:
            mapping = np.full(N_NODES, -1)
    return HeterogeneousProblem(
        demand=DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0),
        utility=utility,
        rate_matrix=rates,
        rho=RHO,
        server_of_client=mapping,
        rate_floor=floor,
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_allocation_matches_pinned_digest(name):
    problem = pinned_problem(name)
    allocation = greedy_heterogeneous(problem).allocation
    assert allocation.sum() == RHO * N_NODES
    if problem.rate_floor > 0:
        # The floor binds: some (item, client) rate of the solution is
        # below it, so the clamp decides part of the welfare.
        fulfill = allocation.astype(float) @ problem.rate_matrix
        assert np.any(fulfill < problem.rate_floor)
    digest = hashlib.sha256(allocation.tobytes()).hexdigest()
    assert digest == PINNED[name][-1], (
        f"greedy_heterogeneous returned a different allocation on {name!r}: "
        "cached trace OPT runs are keyed by the problem, not the "
        "allocation, so bump `GREEDY_CODE_VERSION` in "
        "repro/allocation/submodular.py and record the new digests here"
    )
