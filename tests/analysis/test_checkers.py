"""Seeded regression tests: inject a defect, expect exactly one finding.

Each test runs the analyzer over the *real* ``src/repro`` tree with one
synthetic defect spliced in via ``source_overrides`` — proof that each
checker actually fires, with the full inter-procedural propagation
path, and that everything it reports at HEAD (nothing) is because the
tree is clean, not because the checker is blind.  The overlap tests at
the end record why the per-file RPL001/RPL002/RPL011 rules are kept
next to the whole-program RPA001/RPA003 checks.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import effects
from repro.analysis.astutil import dotted_name
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


def analyze(overrides, *codes):
    return run_analysis(
        [str(SRC)], select=list(codes), source_overrides=overrides
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
    # The injections are defect-specific: each trips exactly its own
    # checks and nothing else.  The bogus emit passes its kind as a
    # string literal, which is also the per-file RPL011 finding.
    report = run_analysis(
        [str(SRC)],
        source_overrides={
            "repro.dist._fx_sink": _RAW_SINK,
            "repro.sim._fx_emit": _BOGUS_EMIT,
        },
    )
    codes = sorted(f.code for f in report.findings)
    assert codes == ["RPA002", "RPA003", "RPL011"], [
        f.render() for f in report.findings
    ]


# ----------------------------------------------------------------------
# overlap: what only the per-file rules catch
# ----------------------------------------------------------------------
#: An unseeded RNG and a clock read in a helper no deterministic
#: surface reaches: off-surface, so RPA001 is silent by design.
_OFF_SURFACE = """

def _fx_jitter():
    import time

    import numpy as np

    return np.random.default_rng().random() + time.time()
"""


@pytest.fixture(scope="module")
def overlap_report():
    artifacts = (SRC / "experiments" / "artifacts.py").read_text("utf-8")
    engine = (SRC / "sim" / "engine.py").read_text("utf-8")
    # A kind the registry knows, spelled as a literal at an emit site.
    literal = engine.replace("trace_events.RUN_START,", '"run_start",', 1)
    assert literal != engine
    return analyze(
        {
            "repro.experiments.artifacts": artifacts + _OFF_SURFACE,
            "repro.sim.engine": literal,
        },
        "RPL001",
        "RPL002",
        "RPL011",
        "RPA001",
        "RPA003",
    )


def located(report, code):
    return [(Path(f.path).name, f.code) for f in report.findings if f.code == code]


def test_unseeded_rng_off_surface_is_rpl001_only(overlap_report):
    assert located(overlap_report, "RPL001") == [("artifacts.py", "RPL001")]
    assert located(overlap_report, "RPA001") == []


def test_clock_read_off_surface_is_rpl002_only(overlap_report):
    assert located(overlap_report, "RPL002") == [("artifacts.py", "RPL002")]
    assert located(overlap_report, "RPA001") == []


def test_registered_kind_literal_is_rpl011_only(overlap_report):
    assert located(overlap_report, "RPL011") == [("engine.py", "RPL011")]
    assert located(overlap_report, "RPA003") == []


# ----------------------------------------------------------------------
# agreement: RPL001/RPL002 and RPA001 read one hazard table
# ----------------------------------------------------------------------
#: Every callee of the effect tables' unseeded-randomness set.
_UNSEEDED_CALLEES = (
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
    "random.normalvariate",
    "random.expovariate",
    "random.betavariate",
    "random.getrandbits",
    "random.SystemRandom",
    "numpy.random.seed",
    "numpy.random.get_state",
    "numpy.random.set_state",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.random_sample",
    "numpy.random.ranf",
    "numpy.random.sample",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.uniform",
    "numpy.random.normal",
    "numpy.random.standard_normal",
    "numpy.random.exponential",
    "numpy.random.poisson",
    "numpy.random.binomial",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbelow",
    "secrets.choice",
    "uuid.uuid1",
    "uuid.uuid4",
    "os.urandom",
)

_HAZARD_IMPORTS = """\
import os
import random
import secrets
import uuid

import numpy as np

"""


def test_every_unseeded_callee_is_one_rpl001_per_line(tmp_path):
    assert set(_UNSEEDED_CALLEES) == effects._UNSEEDED_CALLS
    calls = [
        name.replace("numpy.", "np.", 1) + "()" for name in _UNSEEDED_CALLEES
    ] + ["np.random.default_rng()", "random.Random()"]
    loose = tmp_path / "hazards.py"
    loose.write_text(_HAZARD_IMPORTS + "\n".join(calls) + "\n")
    first_call = _HAZARD_IMPORTS.count("\n") + 1
    import_random = 2
    report = run_analysis([str(loose)], select=["RPL001"])
    assert report.graph is None
    assert [f.line for f in report.findings] == [import_random] + list(
        range(first_call, first_call + len(calls))
    ), [f.render() for f in report.findings]


_SEEDED_FORMS = (
    "np.random.default_rng(0)",
    "random.Random(1)",
    "np.random.Generator(np.random.PCG64(2))",
)


def test_seeded_generators_are_no_hazard(tmp_path):
    loose = tmp_path / "seeded.py"
    loose.write_text(_HAZARD_IMPORTS + "\n".join(_SEEDED_FORMS) + "\n")
    report = run_analysis([str(loose)], select=["RPL001"])
    # Only the stdlib import itself is flagged.
    assert [f.line for f in report.findings] == [2]
    for form in _SEEDED_FORMS:
        for node in ast.walk(ast.parse(form)):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func).replace("np.", "numpy.")
                assert effects.classify_external_call(dotted, node) is None


def _splice_before_return(relpath, function, lines):
    """*relpath*'s source with *lines* inserted before *function*'s last
    statement, and the line number of the last inserted line."""
    source = (SRC / relpath).read_text("utf-8")
    func = next(
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    last = func.body[-1]
    rows = source.splitlines(keepends=True)
    at = last.lineno - 1
    rows[at:at] = [" " * last.col_offset + line + "\n" for line in lines]
    return "".join(rows), at + len(lines)


def test_hazard_on_a_surface_raises_rpa001_and_rpl001():
    exponent, rng_line = _splice_before_return(
        "allocation/closed_form.py",
        "power_allocation_exponent",
        ["import numpy as np", "np.random.standard_normal()"],
    )
    fingerprint, uuid_line = _splice_before_return(
        "simcache/fingerprint.py", "run_key", ["import uuid", "uuid.uuid4()"]
    )
    report = analyze(
        {
            "repro.allocation.closed_form": exponent,
            "repro.simcache.fingerprint": fingerprint,
        },
        "RPL001",
        "RPA001",
    )
    rendered = [f.render() for f in report.findings]
    spliced = {("closed_form.py", rng_line), ("fingerprint.py", uuid_line)}
    assert {
        (Path(f.path).name, f.line)
        for f in report.findings
        if f.code == "RPL001"
    } == spliced, rendered
    rpa = [f for f in report.findings if f.code == "RPA001"]
    # Every RPA001 finding traces back to one of the two spliced calls.
    assert {
        (Path(f.trace[-1].path).name, f.trace[-1].line) for f in rpa
    } == spliced, rendered
    surfaces = {
        f.message.split("deterministic surface ")[1].split(" ")[0]: f
        for f in rpa
    }
    rng = surfaces["repro.allocation.closed_form.power_allocation_exponent"]
    assert "numpy.random.standard_normal" in rng.trace[-1].note
    key = surfaces["repro.simcache.fingerprint.run_key"]
    assert "uuid.uuid4" in key.trace[-1].note
