"""One pass of one workload, in a process of its own.

    python3 bench/worker.py LAUNCH SPEC OUT [--spans FILE]
    python3 bench/worker.py LAUNCH --setup-only

LAUNCH is the parent's `time.monotonic()` just before it started this
process; set-up time runs from there to the end of `import tourlab`,
which is the first thing this file does.  SPEC is the JSON list of
operations; OUT receives the timings and every operation's output.  With
--spans the pass runs traced and its spans are written to FILE.
"""

import os
import sys
import time

_LAUNCH = float(sys.argv[1])
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import tourlab  # noqa: E402  (set-up ends here)

SETUP_S = time.monotonic() - _LAUNCH

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402


def _call(op: dict) -> str:
    """Run a library operation through the module attribute a caller
    would use, so the traced run sees the call."""
    import tourlab.analysis as analysis
    import tourlab.density as density
    from tourlab.core import PresentedGraph, SeededRandom

    if op["call"] == "classify":
        G = PresentedGraph(workloads.graph_adjacency(op["graph"]), name=op["id"])
        c = analysis.classify_unavoidability(G, budget=workloads.CLASSIFY_BUDGET)
        witness = None
        if c.witness is not None:
            kind, payload = c.witness
            witness = [kind, list(payload) if kind == "cycle" else payload]
        return json.dumps({"verdict": c.verdict, "witness": witness, "reason": c.reason})
    if op["call"] == "rank_decompose":
        K = SeededRandom(op["seed"])
        d = density.rank_decompose(K, op["n"])
        ok = density.dominance_check(K, d, op["n"])
        return json.dumps({"levels": d.levels, "alpha": d.alpha.tolist(), "dominance": ok})
    raise ValueError(f"unknown call {op['call']!r}")


def run_op(op: dict) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one operation."""
    if "cli" in op:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tourlab.cli.main(op["cli"])
        return rc, out.getvalue(), err.getvalue()
    try:
        return 0, _call(op), ""
    except Exception:  # reported as a failed operation, never hidden
        return 1, "", traceback.format_exc()


def main() -> int:
    if sys.argv[2] == "--setup-only":
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    spec_path, out_path = sys.argv[2], sys.argv[3]
    spans_path = sys.argv[5] if len(sys.argv) > 5 and sys.argv[4] == "--spans" else None
    with open(spec_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import tourlab.cli  # noqa: F401  (bound before the timed region)

    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer:
            tracer.begin_op(op["id"])
        t0 = time.perf_counter()
        rc, out, err = run_op(op)
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        results.append({"id": op["id"], "rc": rc, "out": out, "err": err, "seconds": seconds})
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.write(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "setup_s": SETUP_S, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
            "numpy": numpy.__version__, "ops": results,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
