"""Smoke test: the demos run to completion against this checkout, with
numpy's floating-point warnings as errors (the suite's own
``filterwarnings``) and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_exact_polynomial_algebra.py",
        "02_radius_sets.py",
        "03_classification.py",
        "04_tube_geometry.py",
        "05_lorentzian_section_table.py",
    ],
)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr.decode()) == (0, "")
