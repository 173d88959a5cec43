"""The demos run end to end and print their headline results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

HEADLINES = {
    "classify_small_graphs.py": "triangle -> Classification(verdict='avoidable'",
    "density_landscape.py": "n in (720, 5040]: min 0.41571 at n=1233",
    "optimizer_tour.py": "optimizer winner: nested-dip(L0=256,q=0.97,r=12.5)",
    "spanning_walkthrough.py": "covered targets 0..19: 20/20",
}


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[demo] in proc.stdout
