"""The benchmark's tracer (bench/tracing.py) wraps tourlab functions by
name, so a renamed or deleted function breaks its `install`.  It runs in
a subprocess, so this test process stays unpatched."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import contextlib
import io

import tracing

tracer = tracing.Tracer()
tracing.install(tracer)

import tourlab.cli as cli
import tourlab.density as density
from tourlab.core import SeededRandom

tracer.begin_op("probe")
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(["inversions", "--injection", "factorial", "--nmax", "20"])
K = SeededRandom(1)
assert density.dominance_check(K, density.rank_decompose(K, 30), 30)
tracer.end_op()
assert rc == 0 and "#RESULT rows=19," in out.getvalue(), out.getvalue()
names = {span[0] for span in tracer.spans}
want = {"cli", "density.inversion_density_profile", "density.density_profile",
        "density.rank_decompose", "density.dominance_check"}
assert want <= names, sorted(names)
print("traced", len(tracer.spans), "spans")
"""


def test_tracer_installs_and_traces_one_operation():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("traced ")
