"""Simulation processes and the CLI must not load the analyzer.

``repro.utility.measures`` imports the runtime-no-op markers from
``repro.analysis.annotations``, which executes ``repro/analysis/__init__``
in every simulation process.  Both must stay free of analyzer imports,
or every sweep worker pays for parsing machinery it never uses.  The
``repro`` CLI wires in ``repro analyze`` through ``repro.analysis.cli``,
which loads the analyzer only when that command runs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
import {modules}
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro.analysis"))))
"""


def analyzer_modules_loaded_by(modules):
    result = subprocess.run(
        [sys.executable, "-c", _PROBE.format(modules=modules)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.split()


def test_simulation_imports_load_only_the_annotations():
    loaded = analyzer_modules_loaded_by("repro.sim.engine, repro.experiments.figures")
    assert loaded == ["repro.analysis", "repro.analysis.annotations"]


def test_cli_import_loads_only_the_analyze_entry_point():
    assert analyzer_modules_loaded_by("repro.cli") == [
        "repro.analysis",
        "repro.analysis.annotations",
        "repro.analysis.cli",
    ]
