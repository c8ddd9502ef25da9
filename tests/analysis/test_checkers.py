"""Seeded regression tests: inject a defect, expect exactly one finding.

Each test runs the whole-program analyzer over the *real* ``src/repro``
tree with one synthetic defect spliced in via ``source_overrides`` —
proof that each checker actually fires, with the full inter-procedural
propagation path, and that everything it reports at HEAD (nothing) is
because the tree is clean, not because the checker is blind.
"""

from pathlib import Path

from repro.analysis.runner import run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

#: A wall-clock leaf in one module...
_CLOCK_HELPER = '''\
import time


def stamp():
    return time.time()
'''

#: ...reached from a protocol hook (an RPA001 surface) in another.
_CLOCK_PROTOCOL = '''\
from ._fx_clock import stamp
from .base import ReplicationProtocol


class WallClockProtocol(ReplicationProtocol):
    name = "FXCLOCK"

    def initialize(self, sim):
        pass

    def on_fulfill(self, sim, t, requester, provider, item, counter):
        stamp()
'''

_RAW_SINK = '''\
import json


def dump_state(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)
'''

_BOGUS_EMIT = '''\
from ..obs.tracer import Tracer


def emit_bogus(tracer: Tracer, t: float) -> None:
    tracer.emit("totally_unknown_kind", t)
'''


def analyze(overrides, code):
    return run_analysis(
        str(SRC), select=[code], source_overrides=overrides
    )


def test_rpa001_clock_in_protocol_hook_crosses_modules():
    report = analyze(
        {
            "repro.protocols._fx_clock": _CLOCK_HELPER,
            "repro.protocols._fx_proto": _CLOCK_PROTOCOL,
        },
        "RPA001",
    )
    # The hook itself is flagged — and so is every engine surface the
    # protocol dispatches from (CHA: the engine calls
    # self.protocol.on_fulfill, so the injected override taints it).
    assert report.findings, "checker did not fire"
    assert all(f.code == "RPA001" for f in report.findings)
    hook = [
        f
        for f in report.findings
        if "WallClockProtocol.on_fulfill" in f.message
    ]
    assert len(hook) == 1, [f.render() for f in report.findings]
    finding = hook[0]
    # The propagation path is the deliverable: hook -> helper -> leaf,
    # spanning the module boundary between the two injected files.
    assert len(finding.trace) >= 2
    files = {step.path for step in finding.trace}
    assert len(files) >= 2
    assert "time.time" in finding.trace[-1].note
    # Every finding — including the tainted engine surfaces — traces
    # back to the one injected leaf.
    for f in report.findings:
        assert "_fx_clock" in f.trace[-1].path, f.render()


def test_rpa002_raw_write_in_dist():
    report = analyze({"repro.dist._fx_sink": _RAW_SINK}, "RPA002")
    assert len(report.findings) == 1, [
        f.render() for f in report.findings
    ]
    finding = report.findings[0]
    assert finding.code == "RPA002"
    assert "_fx_sink" in finding.path
    assert "raw filesystem write" in finding.message


def test_rpa002_raw_write_in_simcache_store():
    """The run cache is the one persistence path: its store is a root."""
    store_py = SRC / "simcache" / "store.py"
    spliced = store_py.read_text(encoding="utf-8") + "\n\n" + _RAW_SINK
    report = analyze({"repro.simcache.store": spliced}, "RPA002")
    assert len(report.findings) == 1, [
        f.render() for f in report.findings
    ]
    finding = report.findings[0]
    assert finding.code == "RPA002"
    assert finding.path.endswith("store.py")
    assert "raw filesystem write" in finding.message


def test_rpa003_unknown_event_kind():
    report = analyze({"repro.sim._fx_emit": _BOGUS_EMIT}, "RPA003")
    assert len(report.findings) == 1, [
        f.render() for f in report.findings
    ]
    finding = report.findings[0]
    assert finding.code == "RPA003"
    assert "totally_unknown_kind" in finding.message
    assert "_fx_emit" in finding.path


def test_injected_defects_do_not_leak_into_other_checks():
    # The three injections are defect-specific: each trips exactly its
    # own checker and nothing else.
    report = run_analysis(
        str(SRC),
        source_overrides={
            "repro.dist._fx_sink": _RAW_SINK,
            "repro.sim._fx_emit": _BOGUS_EMIT,
        },
    )
    codes = sorted(f.code for f in report.findings)
    assert codes == ["RPA002", "RPA003"], [
        f.render() for f in report.findings
    ]
