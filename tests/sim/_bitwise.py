"""Comparing two simulations: results bit for bit, outstanding state in order."""

from __future__ import annotations

import dataclasses

import numpy as np


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
