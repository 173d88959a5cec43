"""The demos run end to end and print their headline results, and the
README's library tour gives the results its comments state."""

import ast
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


def test_readme_library_tour():
    # each expression statement of the tour ends in a comment holding the
    # repr of its value; every other statement just runs
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        assert comment.startswith("# "), ast.unparse(stmt)
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert repr(value) == comment[2:], ast.unparse(stmt)
        checked += 1
    assert checked == 6
