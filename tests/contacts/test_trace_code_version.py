"""Pins what the scenario trace recipes realize to ``TRACE_CODE_VERSION``.

Sweeps over a scenario key each trial's trace in the run cache by its
recipe (generator parameters plus seed) together with
:data:`repro.contacts.TRACE_CODE_VERSION`, not by the realized contacts.
A change to a generator that moves a realized trace would otherwise
serve stale cached runs.  These tests take a sha256 of the realized
columns, node count and duration for every recipe and variant on a fixed
seed, and fail with the instruction to bump the version; record the new
digests here in the same change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.contacts.synthetic import ConferenceTraceConfig, VehicularTraceConfig
from repro.experiments import ConferenceTraces, PoissonTraces, VehicularTraces

SEED = 2026
CONFERENCE = ConferenceTraceConfig(n_nodes=12, n_days=1)
VEHICULAR = VehicularTraceConfig(
    n_nodes=12, duration_hours=4.0, sample_interval_s=60.0
)

#: name -> (recipe, digest)
PINNED = {
    "poisson": (
        PoissonTraces(12, 0.05, 300.0),
        "1ed4cda3bfa38e87e7bd5ecf4f7bc4f794ccb7266d813addb906e27bfeed2449",
    ),
    "conference-actual": (
        ConferenceTraces(CONFERENCE, "actual"),
        "13e0fb8c1c61c790c7749b00a1e6e9726ebd9bc66ce4e8ec3bb028ec4a244587",
    ),
    "conference-synthesized": (
        ConferenceTraces(CONFERENCE, "synthesized"),
        "4120ada62a4978749630c0b321054d80c62bce804216648eeedd3b3dd31edd6b",
    ),
    "conference-rate_matched": (
        ConferenceTraces(CONFERENCE, "rate_matched"),
        "07d3b945169b066e20fb8240587c2f7c9a862755c1a8a6ec2a2c611841234c40",
    ),
    "vehicular-actual": (
        VehicularTraces(VEHICULAR, "actual"),
        "9710aaf04c00b3ba656abab863f26e8ea18130bce35f2af57f92b2bce31b562b",
    ),
    "vehicular-synthesized": (
        VehicularTraces(VEHICULAR, "synthesized"),
        "527ef4a23dcb5afdbcf252aff4847936745d299dfb3137cc89c634f995e60d52",
    ),
    "vehicular-rate_matched": (
        VehicularTraces(VEHICULAR, "rate_matched"),
        "863690af8bc23fa0ca65bf4a9cfc3063e8ec067874becc83c4c878f30eeb98aa",
    ),
}


def trace_digest(trace):
    sha = hashlib.sha256()
    for column in (trace.times, trace.node_a, trace.node_b):
        sha.update(column.tobytes())
    sha.update(f"{trace.n_nodes}:{trace.duration!r}".encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_realized_trace_matches_pinned_digest(name):
    recipe, pinned = PINNED[name]
    trace = recipe(SEED)
    assert len(trace) > 0
    assert (trace.n_nodes, trace.duration) == (recipe.n_nodes, recipe.duration)
    assert trace_digest(trace) == pinned, (
        f"{recipe!r} realized a different trace for seed {SEED}: cached "
        "runs key a scenario's trace by its recipe, not its contacts, so "
        "bump `TRACE_CODE_VERSION` in repro/contacts/__init__.py and "
        "record the new digests here"
    )
