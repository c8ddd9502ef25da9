"""Bit-for-bit comparison of two simulation results."""

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
