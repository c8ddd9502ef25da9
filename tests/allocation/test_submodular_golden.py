"""Golden digests of the heterogeneous greedy's output.

The lazy greedy (CELF) is the paper's OPT baseline on traces, and the
run cache keys every OPT run on the allocation it returns.  These tests
pin, for a few seeded 50 x 50 instances shaped like the quick Fig. 5
sweep (50 items, rho = 5, sparse pair rates), a sha256 over the
returned ``allocation`` bytes, ``float.hex`` of the ``welfare`` and the
``evaluations`` count.  Any change to a decision, to the bits of the
welfare or to how many marginal gains the heap walk consumes moves the
digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.allocation import HeterogeneousProblem, greedy_heterogeneous
from repro.demand import DemandModel
from repro.utility import PowerUtility, StepUtility

N_NODES, N_ITEMS, RHO = 50, 50, 5

#: name -> (utility, co-located servers, rate_floor, evaluations, digest)
GOLDEN = {
    "step-tau1": (
        StepUtility(1.0), False, 0.0,
        2870,
        "8a953a414d53a562b6f400422730a3fc236a9fe315797610ca4d44a0394ec975",
    ),
    "step-tau60": (
        StepUtility(60.0), False, 0.0,
        4279,
        "051a1d498bf3dcb266abaee4265dc3af7fd95f3dd2dfb9e3fae0909d52e6d731",
    ),
    "step-tau1000": (
        StepUtility(1000.0), False, 0.0,
        7863,
        "01f1b1484b4a2e5d305297f915e3fc5bfa739cd5960b5bc1ed29e46861fe04a0",
    ),
    "step-tau60-colocated": (
        StepUtility(60.0), True, 0.0,
        4538,
        "862274d00f3b90aaf91769fcfa96a6002e48e654fec2b4c9d95a20fab68db4a4",
    ),
    "power0.5-floor-colocated": (
        PowerUtility(0.5), True, 1e-4,
        8155,
        "afa362243dee16f31d3f257aa852ee43059ffd1a3941374378bc8e360282e725",
    ),
}


def golden_problem(name):
    utility, colocated, floor, _, _ = GOLDEN[name]
    seed = sorted(GOLDEN).index(name) + 31
    rng = np.random.default_rng(seed)
    rates = rng.gamma(0.5, 2e-3, size=(N_NODES, N_NODES))
    rates[rng.random((N_NODES, N_NODES)) < 0.3] = 0.0
    np.fill_diagonal(rates, 0.0)
    return HeterogeneousProblem(
        demand=DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0),
        utility=utility,
        rate_matrix=rates,
        rho=RHO,
        server_of_client=np.arange(N_NODES) if colocated else None,
        rate_floor=floor,
    )


def result_digest(result):
    digest = hashlib.sha256()
    digest.update(result.allocation.tobytes())
    digest.update(float(result.welfare).hex().encode())
    digest.update(str(int(result.evaluations)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_lazy_greedy_matches_golden(name):
    *_, evaluations, digest = GOLDEN[name]
    result = greedy_heterogeneous(golden_problem(name))
    assert result.allocation.sum() == RHO * N_NODES
    assert result.evaluations == evaluations
    assert result_digest(result) == digest
