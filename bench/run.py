"""The tourlab benchmark.

    python3 bench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]

Run from the root of a checkout.  Each pass of the workload runs in a
fresh process (bench/worker.py), one operation at a time: a closed loop
with a single caller.  Untraced, the run repeats passes until T seconds
are spent (and at least MIN_PASSES) and reports medians of the
end-to-end metrics.  Traced, it runs one untraced and one traced pass
and reports the per-layer metrics.  Every output is checked
(bench/checks.py) outside the timed region; a failed check, or a failed
operation other than the kept ones, ends the run with status 1 and no
result line.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 2
SETUP_LAUNCHES = 5  # set-up-only processes per run, besides one per pass
RUN_LIMIT_S = 150.0  # passes; the checks after them stay within 180 s


class RunError(Exception):
    """The run cannot produce a result."""


def machine_facts() -> str:
    import numpy

    numba = "present" if importlib.util.find_spec("numba") else "absent"
    return (f"machine: cores={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} numba={numba} "
            f"platform={platform.system()}-{platform.machine()}")


def launch(args: list[str], deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 1:
        raise RunError(f"out of time before a pass could start ({RUN_LIMIT_S:.0f} s limit)")
    cmd = [sys.executable, WORKER, repr(time.monotonic())] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left)
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_sample(deadline: float) -> float:
    return json.loads(launch(["--setup-only"], deadline))["setup_s"]


def run_pass(spec: str, workdir: str, deadline: float, spans: str = "") -> dict:
    out = os.path.join(workdir, "pass.json")
    launch([spec, out] + (["--spans", spans] if spans else []), deadline)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def tally(ops: list[dict], passes: list[dict], inputs: dict) -> tuple[int, int]:
    """Check the outputs; returns (attempted, failed) over all passes."""
    import checks

    first = passes[0]["ops"]
    for p in passes[1:]:
        for a, b in zip(first, p["ops"]):
            if (a["rc"], a["out"], a["err"]) != (b["rc"], b["out"], b["err"]):
                raise checks.CheckError(f"{a['id']}: output differs between passes")
    failed = 0
    for op, res in zip(ops, first):
        if res["rc"] == 0:
            checks.check_op(op, res["out"], inputs)
        elif "fails" in op:
            checks.check_failure(op, res["rc"], res["out"], res["err"])
            failed += 1
        else:
            raise checks.CheckError(
                f"{op['id']}: failed with status {res['rc']}: {res['err'].strip()[-500:]}")
    return len(ops) * len(passes), failed * len(passes)


def growth_exponent(ops: list[dict]) -> float:
    """log(t(h2) / t(h1)) / log(h2 / h1) of the split-transitive embeds."""
    lo, hi = workloads.SPAN_HORIZONS
    t = {o["id"]: o["seconds"] for o in ops}
    a, b = t.get(f"embed-anti-path-split-{lo}"), t.get(f"embed-anti-path-split-{hi}")
    if not a or not b:
        return 0.0
    return math.log(b / a) / math.log(hi / lo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tourlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tourlab", "__init__.py")):
        print("bench: run from a tourlab checkout: src/tourlab is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR)
    try:
        inputs = workloads.derive_inputs(args.seed)
        files = workloads.write_inputs(workdir, inputs)
        ops = workloads.operations(args.workload, inputs, files)
        spec = os.path.join(workdir, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)

        setups = [setup_sample(deadline) for _ in range(SETUP_LAUNCHES)]
        passes = []
        spans = ""
        if args.trace:
            passes.append(run_pass(spec, workdir, deadline))
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            passes.append(run_pass(spec, workdir, deadline, spans))
        else:
            start = last = time.monotonic()
            # whole passes until the seconds are spent, if another one fits
            while len(passes) < MIN_PASSES or (
                    last - start < args.seconds
                    and last + (last - start) / len(passes) < deadline):
                passes.append(run_pass(spec, workdir, deadline))
                last = time.monotonic()
        attempted, failed = tally(ops, passes, inputs)
    except Exception as e:  # any failure ends the run without a result
        print(f"bench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(machine_facts())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} inputs={json.dumps(inputs, sort_keys=True)}")
    for k, op in enumerate(ops):
        times = [p["ops"][k]["seconds"] for p in passes]
        status = "ok" if passes[0]["ops"][k]["rc"] == 0 else "FAILED (kept)"
        shown = (f"{times[0]:8.3f} s untraced {times[1]:8.3f} s traced" if args.trace
                 else f"{statistics.median(times):8.3f} s")
        print(f"  {op['id']:<36} {shown}  {status}")

    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    if args.trace:
        import tracing

        plain, traced = passes
        values = tracing.layer_totals(spans)
        values["embedding.growth_exp"] = growth_exponent(plain["ops"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = tracing.metric_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(f"  spans written to {os.path.relpath(spans, root)}")
    else:
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
