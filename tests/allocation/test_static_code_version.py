"""Pins the static competitors' allocations to ``STATIC_CODE_VERSION``.

UNI, SQRT, PROP, DOM and homogeneous OPT runs are keyed in the run cache
by their builders' inputs plus
:data:`repro.allocation.submodular.STATIC_CODE_VERSION`, not by the
allocation built from them.  A change to the closed forms, to
``quantize_counts``, ``place_copies`` or ``greedy_homogeneous`` that
moves an allocation would otherwise serve stale cached runs.  These
tests take a sha256 of the counts each builder places, of
``greedy_homogeneous``'s counts (step, exponential and power utilities,
with and without ``pure_p2p`` and ``n_clients``) and of one seeded
placement, and fail with the instruction to bump the version; record the
new digests here in the same change.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.allocation import greedy_homogeneous, place_copies
from repro.demand import DemandModel
from repro.protocols import (
    dom_protocol,
    prop_protocol,
    sqrt_protocol,
    uni_protocol,
)
from repro.utility import ExponentialUtility, PowerUtility, StepUtility

N_SERVERS, N_ITEMS, RHO, MU = 20, 30, 3, 0.05

BUMP = (
    "cached static runs are keyed by the builders' inputs, not the "
    "allocation, so bump `STATIC_CODE_VERSION` in "
    "repro/allocation/submodular.py and record the new digests here"
)

#: builder -> digest of the per-item counts it places.
PINNED_BUILDERS = {
    "uni": (
        uni_protocol,
        "19c7e638092da6ad840a6e35229a3bc6c65edadb9f80c2bcfc58acf5249a2d5b",
    ),
    "sqrt": (
        sqrt_protocol,
        "d1a1638b1f9582f4ea6f978edea4d98dee8e732319f7077b27e685584381fbff",
    ),
    "prop": (
        prop_protocol,
        "d23b16ea0901fc652c49c24c82498ba4170f039b1c8683439d5ca7ca77ad62a3",
    ),
    "dom": (
        dom_protocol,
        "8bd8dbe37848f3730c7f9567c2ee676171f3aaf37ba5842ae1944985e3a8f4dd",
    ),
}

#: name -> (utility, pure_p2p, n_clients, digest of greedy counts)
PINNED_GREEDY = {
    "step-tau20": (
        StepUtility(20.0), False, None,
        "d82c4d9cbc8e5a62f3591fb6b82359d0a6967a26d93f47ca6f47f176eb24267d",
    ),
    "step-tau20-p2p": (
        StepUtility(20.0), True, N_SERVERS,
        "f036a76751e62a1584a19ddc3c3a3ef5a8bc4f3d6ce3e867cc5bb4cac845c05a",
    ),
    "exp-nu0.05": (
        ExponentialUtility(0.05), False, None,
        "ea34f604c42e4d53bf296297fa90fbbb4f3ba9a8087ea38ea268ad0424eee4c5",
    ),
    "exp-nu0.05-p2p": (
        ExponentialUtility(0.05), True, N_SERVERS,
        "fd47d1c2a577dc61f5bd3ef24ab1b44217b6a522fde5fc996acd105244fd47dc",
    ),
    # More clients than servers: each copy serves a smaller share of
    # self-requests.
    "exp-nu0.05-p2p-60clients": (
        ExponentialUtility(0.05), True, 60,
        "ea34f604c42e4d53bf296297fa90fbbb4f3ba9a8087ea38ea268ad0424eee4c5",
    ),
    "power0.5": (
        PowerUtility(0.5), False, None,
        "fec1553f0d3fdf003774c67f77d81fb36f4da377dbe1b52aeba389f4e9f79255",
    ),
    "power0.5-p2p": (
        PowerUtility(0.5), True, N_SERVERS,
        "4da90e032072bef13fba89d84603bf69a950910f0890f05e7522b9438f1a398c",
    ),
    # h(0+) is infinite for alpha > 1, so the standard suite never
    # builds it pure-P2P.
    "power1.5": (
        PowerUtility(1.5), False, None,
        "1befa581f97492c7c7154ef135b442c927aa5c4949a32770ebcdf03fc4f5e472",
    ),
}

#: Digest of SQRT's counts placed by ``place_copies`` with seed 5.
PINNED_PLACEMENT = (
    "9ca4af3100f99f0e5f51c2b6660c7c6e6615475f53d14450cd1733180ef97d32"
)


def demand():
    return DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def placed_counts(protocol):
    """The per-item counts *protocol* places on a simulation stub."""
    placed = []
    sim = SimpleNamespace(
        n_servers=N_SERVERS,
        config=SimpleNamespace(rho=RHO),
        rng=np.random.default_rng(0),
        set_initial_allocation=placed.append,
    )
    protocol.initialize(sim)
    (allocation,) = placed
    return allocation.sum(axis=1, dtype=np.int64)


@pytest.mark.parametrize("name", sorted(PINNED_BUILDERS))
def test_builder_counts_match_pinned_digest(name):
    builder, pinned = PINNED_BUILDERS[name]
    counts = placed_counts(builder(demand(), N_SERVERS, RHO))
    assert counts.sum() == RHO * N_SERVERS
    assert digest(counts) == pinned, (
        f"{name}_protocol placed different counts: {BUMP}"
    )


@pytest.mark.parametrize("name", sorted(PINNED_GREEDY))
def test_greedy_counts_match_pinned_digest(name):
    utility, pure_p2p, n_clients, pinned = PINNED_GREEDY[name]
    counts = greedy_homogeneous(
        demand(), utility, MU, N_SERVERS, RHO,
        pure_p2p=pure_p2p, n_clients=n_clients,
    ).counts
    assert counts.dtype == np.int64
    assert counts.sum() == RHO * N_SERVERS
    assert digest(counts) == pinned, (
        f"greedy_homogeneous returned different counts on {name!r}: {BUMP}"
    )


def test_seeded_placement_matches_pinned_digest():
    counts = placed_counts(sqrt_protocol(demand(), N_SERVERS, RHO))
    allocation = place_copies(counts, N_SERVERS, RHO, seed=5)
    assert np.array_equal(allocation.sum(axis=1), counts)
    assert digest(allocation) == PINNED_PLACEMENT, (
        f"place_copies placed SQRT's counts differently: {BUMP}"
    )
