"""The surfaces looked up by name stay on RPA001's determinism surface.

``collect_surfaces`` looks engine methods and the other named surfaces
up by name and silently skips names the program lacks, so a renamed or
added function would drop out of the determinism check unnoticed.  Pin
the engine list to the engine itself, and every other name to the
collected surface of ``src/repro``.
"""

from pathlib import Path

from repro.analysis.callgraph import build_call_graph
from repro.analysis.program import Program
from repro.analysis.surfaces import (
    _ENGINE_METHODS,
    _NAMED_SURFACES,
    collect_surfaces,
)
from repro.sim.engine import Simulation

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _engine_loops():
    return {
        name
        for name in vars(Simulation)
        if name.startswith(("_run", "_iter"))
    }


def test_every_engine_loop_is_a_declared_surface():
    loops = _engine_loops()
    assert "_run_plain" in loops and "_run_traced" in loops
    assert sorted(loops - set(_ENGINE_METHODS)) == []


def test_every_declared_engine_surface_exists():
    missing = [
        name for name in _ENGINE_METHODS if name not in vars(Simulation)
    ]
    assert missing == []


def test_every_named_surface_is_collected():
    named = [
        f"repro.{prefix}{name}"
        for prefix, names, _ in _NAMED_SURFACES
        for name in names
    ]
    assert named == [
        "repro.simcache.fingerprint:run_key",
        "repro.sim.events:build_event_stream",
        "repro.sim.events:cut_chunks",
        "repro.sim.events:server_slot_payloads",
        "repro.sim.static:run_static",
        "repro.sim.static:pair_index",
        "repro.experiments.artifacts:TrialArtifacts.event_stream",
        "repro.experiments.artifacts:TrialArtifacts.trace_fingerprint",
        "repro.experiments.artifacts:TrialArtifacts.requests_fingerprint",
    ]
    graph = build_call_graph(Program.load(SRC))
    collected = {surface.qname for surface in collect_surfaces(graph)}
    assert [qname for qname in named if qname not in collected] == []
