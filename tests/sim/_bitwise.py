"""Comparing two simulations: results bit for bit, outstanding state in
order, and which path resolved a run."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sim import engine


def assert_bit_identical(a, b):
    """Every SimulationResult field equal bit for bit (manifest aside)."""
    for f in dataclasses.fields(a):
        if f.name == "manifest":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert x.tobytes() == y.tobytes(), f.name
        elif isinstance(x, float):
            assert x.hex() == y.hex(), f.name
        else:
            assert x == y, f.name


def outstanding_order(sim):
    """Per node, the ``(item, creation times)`` pairs in dict order."""
    return [
        [
            (item, [request.created_at for request in request_list])
            for item, request_list in node.outstanding.items()
        ]
        for node in sim.nodes
    ]


def spy_static_kernel(monkeypatch):
    """Record, per engine run, whether the static kernel resolved it
    (``True``) or declined, leaving the run to the plain loop."""
    verdicts = []
    kernel = engine.run_static

    def spy(sim, stream):
        verdicts.append(kernel(sim, stream))
        return verdicts[-1]

    monkeypatch.setattr(engine, "run_static", spy)
    return verdicts
