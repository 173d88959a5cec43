"""The benchmark's own tests: each check accepts the program's output at
tiny sizes and rejects a corrupted copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def cli(argv):
    from tourlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def replace_line(text, old_prefix, new_line):
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(old_prefix))
    lines[k] = new_line
    return "\n".join(lines) + "\n"


def test_fenwick_matches_quadratic_count():
    rng = random.Random(7)
    for n in (0, 1, 2, 17, 200):
        ranks = list(range(n))
        rng.shuffle(ranks)
        cum = checks.fenwick_prefix_inversions(ranks)
        for m in range(n + 1):
            assert cum[m] == sum(1 for j in range(m) for i in range(j) if ranks[i] > ranks[j])


def test_factorial_pairs_and_window_scan():
    brute = [0, 0]
    b = checks.factorial_bounds(200)
    for n in range(2, 200):
        brute.append(sum(1 for j in range(n) for i in range(j)
                         if checks.same_factorial_block(i, j)))
        assert checks.factorial_pairs(n) == brute[n]
    assert b[:6] == [0, 1, 2, 6, 24, 120]
    assert checks.factorial_window_min(10, 199) == checks.window_min(brute, 10, 199)


def test_csv_count_off_by_one_is_rejected():
    op = {"id": "inv", "cli": ["inversions", "--injection", "factorial",
                               "--nmax", "300", "--stride", "10"]}
    text = cli(op["cli"])
    checks.check_op(op, text, {})
    n, fwd, total, _ = text.splitlines()[5].split(",")
    bad = f"{n},{int(fwd) + 1},{total},{Fraction(int(fwd) + 1, int(total))}"
    with pytest.raises(CheckError, match="recount"):
        checks.check_op(op, replace_line(text, f"{n},", bad), {})


def test_file_and_random_rows_are_recounted(tmp_path):
    inputs = workloads.derive_inputs(3)
    files = workloads.write_inputs(str(tmp_path), inputs)
    op = {"id": "file", "cli": ["inversions", "--injection", files["injection"],
                                "--nmax", "400", "--stride", "50"]}
    text = cli(op["cli"])
    checks.check_op(op, text, inputs)
    with pytest.raises(CheckError):
        checks.check_op(op, text.replace("\n400,", "\n400,1", 1), inputs)
    op = {"id": "rnd", "cli": ["density", "--tournament", f"random:{inputs['density_seed']}",
                               "--nmax", "1200", "--stride", "100"]}
    text = cli(op["cli"])
    checks.check_op(op, text, inputs)
    row = text.splitlines()[3]  # n = 300
    n, fwd, total, _ = row.split(",")
    bad = f"{n},{int(fwd) - 1},{total},{Fraction(int(fwd) - 1, int(total))}"
    with pytest.raises(CheckError, match="recount"):
        checks.check_op(op, text.replace(row, bad), inputs)


def test_swapped_mapping_pair_is_rejected(tmp_path):
    files = workloads.write_inputs(str(tmp_path), workloads.derive_inputs(3))
    for graph, family in (("anti-path", "split-transitive"), ("anti-path", "random:5"),
                          ("interleaved-forest", f"injection:{files['factorial_tail']}")):
        op = {"id": "embed", "cli": ["embed", "--graph", graph, "--tournament", family,
                                     "--horizon", "20"]}
        text = cli(op["cli"])
        checks.check_op(op, text, {})
        lines = text.splitlines()
        phi = dict(line.split() for line in lines if not line.startswith(("covered", "#")))
        u = next(v for v in map(int, phi)
                 if any(str(w) in phi for w in checks.graph_out_neighbors(graph)(v)))
        w = next(w for w in checks.graph_out_neighbors(graph)(u) if str(w) in phi)
        phi[str(u)], phi[str(w)] = phi[str(w)], phi[str(u)]  # the edge u -> w reversed
        swapped = "".join(f"{g} {k}\n" for g, k in phi.items())
        swapped += "\n".join(line for line in lines if line.startswith(("covered", "#")))
        with pytest.raises(CheckError, match="maps against"):
            checks.check_op(op, swapped + "\n", {})


def test_kept_failure_needs_its_error_code():
    op = {"id": "k", "fails": "pool-too-small", "cli": []}
    checks.check_failure(op, 2, "", "#ERROR pool-too-small: chunk of 17\n")
    with pytest.raises(CheckError):
        checks.check_failure(op, 2, "", "#ERROR scheme: no component\n")
    with pytest.raises(CheckError):
        checks.check_failure(op, 0, "covered=10\n", "")


def test_wrong_verdict_is_rejected():
    from tourlab.analysis import classify_unavoidability
    from tourlab.core import PresentedGraph

    for spec in ({"paths": 6, "cycle": None}, {"paths": 6, "cycle": 2}, {"ray": True}):
        c = classify_unavoidability(PresentedGraph(workloads.graph_adjacency(spec)), budget=40)
        witness = [c.witness[0], list(c.witness[1])] if c.witness else None
        good = {"verdict": c.verdict, "witness": witness, "reason": c.reason}
        op = {"id": "c", "call": "classify", "graph": spec}
        checks.check_op(op, json.dumps(good), {})
        wrong = "unavoidable" if c.verdict != "unavoidable" else "inconclusive"
        with pytest.raises(CheckError):
            checks.check_op(op, json.dumps({**good, "verdict": wrong}), {})
    cycle_op = {"id": "c", "call": "classify", "graph": {"paths": 6, "cycle": 2}}
    not_a_cycle = {"verdict": "avoidable", "witness": ["cycle", [13, 14, 15]], "reason": None}
    with pytest.raises(CheckError, match="no edge"):
        checks.check_op(cycle_op, json.dumps(not_a_cycle), {})
    op = {"id": "a", "cli": ["analyze", "interleaved-forest", "--budget", "50"]}
    text = cli(op["cli"])
    checks.check_op(op, text, {})
    with pytest.raises(CheckError):
        checks.check_op(op, text.replace("unavoidable", "inconclusive"), {})


def test_wrong_window_minimum_is_rejected():
    for argv in (["optimize", "--patterns", "factorial", "--horizon", "3000",
                  "--window", "100:3000"],
                 ["optimize", "--horizon", "1500", "--window", "100:1500"]):
        op = {"id": "opt", "cli": argv}
        text = cli(argv)
        checks.check_op(op, text, {})
        at = checks._key_values(text)["attained_at"]
        wrong = text.replace(f"attained_at={at}", f"attained_at={int(at) + 1}")
        wrong = wrong.replace(f",at={at}", f",at={int(at) + 1}")
        with pytest.raises(CheckError, match="minimum"):
            checks.check_op(op, wrong, {})


def test_rank_levels_are_recomputed():
    from tourlab.core import SeededRandom
    from tourlab.density import dominance_check, rank_decompose

    K = SeededRandom(9)
    d = rank_decompose(K, 60)
    good = {"levels": d.levels, "alpha": d.alpha.tolist(),
            "dominance": dominance_check(K, d, 60)}
    op = {"id": "r", "call": "rank_decompose", "seed": 9, "n": 60}
    checks.check_op(op, json.dumps(good), {})
    alpha = list(good["alpha"])
    alpha[0] += 1
    with pytest.raises(CheckError, match="peeling"):
        checks.check_op(op, json.dumps({**good, "alpha": alpha}), {})


def test_benchmark_file_names_every_traced_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_self_time_excludes_children():
    import time

    tr = tracing.Tracer()
    inner = tr.span("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = tr.span("outer", body)
    tr.begin_op("x")
    outer()
    tr.end_op()
    (name_o, s_o, e_o, _, _, _, child_o), (name_i, s_i, e_i, parent, op, _, _) = tr.spans
    assert (name_o, name_i, parent, op) == ("outer", "inner", 0, "x")
    assert child_o == pytest.approx(e_i - s_i)
    assert 0.005 < (e_o - s_o) - child_o < 0.02
