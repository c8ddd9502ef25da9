"""A figure sweep must not load SciPy's integrators, their dependencies
or a process pool.

``scipy.integrate`` pulls in ``scipy.special``, ``scipy.optimize`` and
``scipy.sparse`` (about half a second and 40 MB per process), yet no figure
sweep calls an integrator.  The three functions that do --
``replica_dynamics`` (``solve_ivp``), ``DelayUtility._expected_gain_numeric``
and ``DifferentialMeasure._integrate_density`` (``quad``) -- import it where
they call it.  Top-level ``scipy`` stays allowed: the run manifest records
its version.  ``multiprocessing`` and ``concurrent.futures`` are imported
only when a sweep actually forks a pool, so a serial sweep does not pay
for them.  The speed harness's frozen reference engine and ``tracemalloc``
live with it under ``benchmarks/``, outside every figure's import path.

The checks run in one fresh interpreter, since the test session itself
has long since imported SciPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys

import numpy as np

FORBIDDEN = (
    "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse",
)


def loaded():
    return sorted(
        name for name in sys.modules
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )


out = {}
import repro, repro.cli, repro.experiments.figures
out["after_import"] = loaded()

from repro.experiments import EffortProfile, figure4, figure5

tiny = EffortProfile(
    label="tiny", n_trials=1, duration=300.0, power_alphas=(0.0,),
    step_taus=(10.0,), exp_nus=(0.1,),
)
figure4(tiny, executor="serial", run_cache=False)
figure5(tiny, executor="serial", run_cache=False)
out["after_figures"] = loaded()
out["pool_modules"] = sorted(
    name for name in ("multiprocessing", "concurrent.futures")
    if name in sys.modules
)
out["harness_modules"] = sorted(
    name for name in ("repro.sim._reference", "tracemalloc")
    if name in sys.modules
)

from repro.allocation import replica_dynamics
from repro.demand import DemandModel
from repro.utility import DelayUtility, PowerUtility, StepUtility

demand = DemandModel.pareto(3, omega=1.0, total_rate=1.0)
dynamics = replica_dynamics(
    np.array([4.0, 3.0, 2.0]), demand, StepUtility(5.0), 0.05, 6, 2,
    t_end=200.0, n_eval=3,
)
out["dynamics"] = [float(v).hex() for v in dynamics.final_counts]
out["expected_gain"] = PowerUtility(1.5)._expected_gain_numeric(0.25).hex()
out["phi"] = DelayUtility.phi(PowerUtility(0.5), 2.0, 0.05).hex()
out["integrate_loaded"] = "scipy.integrate" in sys.modules
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def probe():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_importing_the_package_loads_no_integrator(probe):
    assert probe["after_import"] == []


def test_figure_sweeps_load_no_integrator(probe):
    assert probe["after_figures"] == []


def test_serial_sweeps_load_no_pool(probe):
    assert probe["pool_modules"] == []


def test_figure_sweeps_load_no_speed_harness(probe):
    assert probe["harness_modules"] == []


def test_integrators_load_at_their_call_sites_with_unchanged_results(probe):
    # Digests recorded with module-level SciPy imports, before the imports
    # moved to the call sites (SciPy 1.17.1, NumPy 2.4.6).
    assert probe["dynamics"] == [
        "0x1.8000ef53490d8p+2",
        "0x1.c66f38af3e7f4p+1",
        "0x1.ef0c37cc65107p+0",
    ]
    assert probe["expected_gain"] == "0x1.c5bf891b4f07bp+0"
    assert probe["phi"] == "0x1.66b82d1432f6bp+0"
    assert probe["integrate_loaded"] is True
