"""Pins what a sweep's request recipes realize to ``REQUEST_CODE_VERSION``.

Sweeps key each trial's requests in the run cache by their recipe
(demand, client count, horizon and seed) together with
:data:`repro.demand.REQUEST_CODE_VERSION`, not by the realized schedule.
A change to request generation that moves a realized schedule would
otherwise serve stale cached runs.  These tests take a sha256 of the
realized columns and horizon for the scenario demand, a second Pareto
exponent, a second seed and a non-default client count, and fail with
the instruction to bump the version; record the new digests here in the
same change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.demand import DemandModel
from repro.experiments import RequestRecipe
from repro.experiments.scenarios import (
    N_ITEMS,
    N_NODES,
    PARETO_OMEGA,
    TOTAL_DEMAND,
)

SEED = 2026
DURATION = 1000.0
SCENARIO = DemandModel.pareto(N_ITEMS, omega=PARETO_OMEGA, total_rate=TOTAL_DEMAND)
STEEP = DemandModel.pareto(N_ITEMS, omega=2.0, total_rate=TOTAL_DEMAND)

#: name -> (recipe, seed, number of requests, digest)
PINNED = {
    "scenario": (
        RequestRecipe(SCENARIO, N_NODES, DURATION),
        SEED,
        3934,
        "5ab568e26ea41c1a519c817178d4875fd6e0acb88ba0e64e54d4201d26faf02d",
    ),
    "omega-2": (
        RequestRecipe(STEEP, N_NODES, DURATION),
        SEED,
        3934,
        "0ce65b11bef6a3795ea58b4f34d3e38e643d9f3eb561ab5c8452610a2ce1911c",
    ),
    "seed-2027": (
        RequestRecipe(SCENARIO, N_NODES, DURATION),
        SEED + 1,
        3893,
        "650485a7d8c51c387270e0dcc0b3b82e91191d15315edc22ba61ec74a901f4fa",
    ),
    "n_clients-12": (
        RequestRecipe(SCENARIO, 12, DURATION),
        SEED,
        3934,
        "44b0ed261a7104f83712fcb4242b2718c855ad9f8a5c337fb0886cb7a1877101",
    ),
}


def schedule_digest(requests):
    sha = hashlib.sha256()
    for column in (requests.times, requests.items, requests.nodes):
        sha.update(column.tobytes())
    sha.update(repr(requests.duration).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_realized_schedule_matches_pinned_digest(name):
    recipe, seed, n_requests, pinned = PINNED[name]
    requests = recipe(seed)
    assert requests.duration == recipe.duration
    assert int(requests.nodes.max()) < recipe.n_clients
    assert (len(requests), schedule_digest(requests)) == (n_requests, pinned), (
        f"{recipe!r} realized a different schedule for seed {seed}: cached "
        "runs key a sweep's requests by their recipe, not their content, "
        "so bump `REQUEST_CODE_VERSION` in repro/demand/__init__.py and "
        "record the new digests here"
    )
