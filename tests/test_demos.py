"""Each demo runs to completion against the imported `qcorr` and prints
something.

The demos use the public API only; running them here keeps an API change
from breaking them silently. The demo's `PYTHONPATH` leads with the source
tree of the `qcorr` this test imported, so `PYTHONPATH=other/src pytest`
runs the demos against that tree too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcorr

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(qcorr.__file__).resolve().parent.parent
DEMOS = ["four_qubit_tour.py", "ghz_cut_invariance.py", "regions_and_purification.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
