"""The engine's event loops stay on RPA001's determinism surface.

``collect_surfaces`` looks engine methods up by name and silently skips
names the program lacks, so a renamed or added loop would drop out of
the determinism check unnoticed.  Pin the list to the engine itself.
"""

from repro.analysis.surfaces import _ENGINE_METHODS
from repro.sim.engine import Simulation


def _engine_loops():
    return {
        name
        for name in vars(Simulation)
        if name.startswith(("_run", "_iter"))
    }


def test_every_engine_loop_is_a_declared_surface():
    loops = _engine_loops()
    assert "_run_plain" in loops and "_run_with_faults" in loops
    assert sorted(loops - set(_ENGINE_METHODS)) == []


def test_every_declared_engine_surface_exists():
    missing = [
        name for name in _ENGINE_METHODS if name not in vars(Simulation)
    ]
    assert missing == []
