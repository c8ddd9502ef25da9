"""Pinned QCR trajectories.

The reference engine (``sim/_reference.py``) runs the very protocol
objects the engine runs, so reference equivalence cannot catch a change
to QCR's own hooks or to the cache mutations they call.  These digests
can: each covers ``float.hex`` of every delay, the final replica counts,
every mandate snapshot and the generator's state after the run, so a
hook that replicates, routes or draws differently moves its digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, RequestSchedule, generate_requests
from repro.experiments.scenarios import default_qcr_config
from repro.protocols import QCR, QCRConfig
from repro.sim import Simulation, SimulationConfig
from repro.utility import StepUtility, power_family

MU = 0.05


def _run(
    *,
    utility,
    qcr_config,
    n_nodes=24,
    n_items=40,
    rho=2,
    servers=None,
    clients=None,
    request_timeout=None,
):
    duration, seed = 1500.0, 11
    trace = homogeneous_poisson_trace(n_nodes, MU, duration, seed=seed)
    config = SimulationConfig(
        n_items=n_items,
        rho=rho,
        utility=utility,
        servers=servers,
        clients=clients,
        request_timeout=request_timeout,
        record_interval=100.0,
    )
    client_ids = config.client_ids(n_nodes)
    requests = generate_requests(
        DemandModel.pareto(n_items, omega=1.0, total_rate=2.0),
        len(client_ids),
        duration,
        seed=seed + 1,
    )
    if clients is not None:
        requests = RequestSchedule(
            times=requests.times,
            items=requests.items,
            nodes=client_ids[requests.nodes],
            duration=requests.duration,
        )
    protocol = QCR(utility, MU, qcr_config)
    sim = Simulation(trace, requests, config, protocol, seed=seed + 2)
    return sim, sim.run()


def _hex(values):
    return ",".join(float(v).hex() for v in np.asarray(values).ravel())


def trajectory_digest(sim, result):
    """sha256 over the delays, final counts, mandate snapshots and the
    post-run generator state."""
    digest = hashlib.sha256()
    for label, values in (
        ("delays", result.delays),
        ("final_counts", result.final_counts),
        ("snapshot_mandates", result.snapshot_mandates),
    ):
        digest.update(label.encode())
        digest.update(_hex(values).encode())
    digest.update(
        json.dumps(sim.rng.bit_generator.state, sort_keys=True).encode()
    )
    return digest.hexdigest()


def _alpha_minus_two():
    utility = power_family(-2.0)
    servers = tuple(range(20))
    return dict(
        utility=utility,
        qcr_config=default_qcr_config(utility, n_servers=len(servers), mu=MU),
        n_nodes=40,
        rho=3,
        servers=servers,
        clients=tuple(range(20, 40)),
    )


#: A tenfold reaction keeps mandates alive across contacts, so routing,
#: pulls, the sticky share and the replication budget all act.
BASE = QCRConfig(psi_scale=10.0)


def _step(**changes):
    return lambda: dict(
        utility=StepUtility(10.0), qcr_config=replace(BASE, **changes)
    )


CASES = {
    "default": _step(),
    "qcrwom": _step(mandate_routing=False),
    "pull_execution": _step(pull_execution=True),
    "one_replication_per_contact": _step(max_replications_per_contact=1),
    "no_cache_on_fulfill": _step(cache_on_fulfill=False),
    "sticky_share_one": _step(sticky_share=1.0),
    "timeout": lambda: dict(_step()(), request_timeout=60.0),
    "power_alpha_minus_two_dedicated": _alpha_minus_two,
}

#: Recorded before QCR's hooks and the engine's fulfilment moved onto
#: the flat state tables.
GOLDEN = {
    "default": (
        "d1182071d449b6ae2afcf04df94fef1f"
        "d82bc7a6af098c472169225ce8d85edf"
    ),
    "qcrwom": (
        "ed7e0df1d079e2e6115e1c6f08d67bfb"
        "46d10b67c8c35957c7923e13c22f9328"
    ),
    "pull_execution": (
        "7c3c3fdbc815b071c5b1b6089dfb4d8a"
        "499e1fb0406d2f872e2fb72756729af6"
    ),
    "one_replication_per_contact": (
        "25860c93feb62fd385b75a50f7f068e3"
        "680d71f496c4e48f60432f65911c047a"
    ),
    "no_cache_on_fulfill": (
        "54f806ba29a252b9006e0b47ef3f522d"
        "508166ca63a077d092cae7919f015281"
    ),
    "sticky_share_one": (
        "31d742b63b2d1854af1d6e5d8daf1002"
        "947d753b2cd22324a6bcb726da12dbcb"
    ),
    "timeout": (
        "32356698ba926d58fb410883db5ff9da"
        "8e877afef24eb134eb60258376d1cb7e"
    ),
    "power_alpha_minus_two_dedicated": (
        "8855ac3eaebd14d3f99845e9e22c271b"
        "791182a04b264e92f56c75174d7518b8"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_qcr_trajectory_is_pinned(case):
    sim, result = _run(**CASES[case]())
    # Every case must exercise mandates, or its digest pins little.
    assert result.snapshot_mandates.sum() > 0
    assert trajectory_digest(sim, result) == GOLDEN[case]
