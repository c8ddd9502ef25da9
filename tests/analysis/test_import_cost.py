"""Simulation processes must not load the analyzer.

``repro.utility.measures`` imports the runtime-no-op markers from
``repro.analysis.annotations``, which executes ``repro/analysis/__init__``
in every simulation process.  Both must stay free of analyzer imports,
or every sweep worker pays for parsing machinery it never uses.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
import repro.sim.engine, repro.experiments.figures
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro.analysis"))))
"""


def test_simulation_imports_load_only_the_annotations():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["repro.analysis", "repro.analysis.annotations"]
