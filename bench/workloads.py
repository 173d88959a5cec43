"""The benchmark's workloads: their operations and the seeded inputs.

An operation is a JSON-able dict.  `cli` operations hold the argv of one
`tourlab` subcommand; `call` operations name a library call on an input
the benchmark builds itself (a presented graph, or a rank decomposition,
which has no subcommand).  `fails` names the `#ERROR` code of an
operation kept because it fails every time on a fault of the program.

This module imports no part of tourlab, so the worker can time its own
`import tourlab` before loading anything else.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("catalogue-search", "prefix-profiles", "spanning", "classify")
DEFAULT_SEED = 1

# sizes of the operations, named once so the README, the checks and the
# tests agree
OPTIMIZE_HORIZON = 100_000
FACTORIAL_HORIZON = 1_000_000
WINDOW_LO = 1000
INVERSIONS_NMAX = 500_000
DIP_NMAX = 100_000
FILE_LINES = 100_000
RANDOM_DENSITY_NMAX = 10_000
BLOCK_DENSITY_NMAX = 100_000
RANK_N = 5000
SPAN_HORIZONS = (1200, 3600)
CLASSIFY_BUDGET = 10_000
LONG_PATH = 1000
SHORT_PATH = 250


def derive_inputs(seed: int) -> dict:
    """Every seed-dependent input of every workload, from one seed."""
    rng = random.Random(seed)
    draw = lambda: rng.randrange(1, 1 << 31)  # noqa: E731
    return {
        "density_seed": draw(),
        "embed_seed": draw(),
        "rank_seed": draw(),
        "graph_seed": draw(),
        "file_seed": draw(),
        "cycle_component": rng.randrange(CLASSIFY_BUDGET // SHORT_PATH),
    }


def file_values(file_seed: int, lines: int = FILE_LINES) -> list[tuple[int, int]]:
    """The (major, minor) values of the injection FILE, index by index.

    A seeded permutation p of 0..lines-1 is spread over majors 1..7, so
    the values are distinct and sit above the identity tail (major 0).
    """
    perm = list(range(lines))
    random.Random(file_seed).shuffle(perm)
    return [(1 + p % 7, p // 7) for p in perm]


def write_inputs(workdir: str, inputs: dict) -> dict:
    """Write the input files; returns their paths."""
    inj = os.path.join(workdir, "injection.txt")
    with open(inj, "w", encoding="utf-8") as fh:
        for i, (major, minor) in enumerate(file_values(inputs["file_seed"]), 1):
            fh.write(f"{i} {major} {minor}\n")
    tail = os.path.join(workdir, "factorial-tail.txt")
    with open(tail, "w", encoding="utf-8") as fh:
        fh.write("tail factorial\n")
    return {"injection": inj, "factorial_tail": tail}


def operations(workload: str, inputs: dict, files: dict) -> list[dict]:
    """The operations of one pass of `workload`, in order."""
    if workload == "catalogue-search":
        return [
            {"id": "optimize-catalogue", "cli": [
                "optimize", "--horizon", str(OPTIMIZE_HORIZON),
                "--window", f"{WINDOW_LO}:{OPTIMIZE_HORIZON}"]},
            {"id": "optimize-factorial", "cli": [
                "optimize", "--patterns", "factorial",
                "--horizon", str(FACTORIAL_HORIZON),
                "--window", f"{WINDOW_LO}:{FACTORIAL_HORIZON}"]},
        ]
    if workload == "prefix-profiles":
        return [
            {"id": "inversions-factorial", "cli": [
                "inversions", "--injection", "factorial",
                "--nmax", str(INVERSIONS_NMAX), "--stride", "500"]},
            {"id": "inversions-nested-dip", "cli": [
                "inversions", "--injection", "nested-dip:r=2,q=0.9,L0=16",
                "--nmax", str(DIP_NMAX), "--stride", "100"]},
            {"id": "inversions-file", "cli": [
                "inversions", "--injection", files["injection"],
                "--nmax", str(FILE_LINES), "--stride", "100"]},
            {"id": "density-random", "cli": [
                "density", "--tournament", f"random:{inputs['density_seed']}",
                "--nmax", str(RANDOM_DENSITY_NMAX), "--stride", "100"]},
            {"id": "density-factorial-block", "cli": [
                "density", "--tournament", "factorial-block",
                "--nmax", str(BLOCK_DENSITY_NMAX)]},
            {"id": "rank-decompose", "call": "rank_decompose",
             "seed": inputs["rank_seed"], "n": RANK_N},
        ]
    if workload == "spanning":
        lo, hi = SPAN_HORIZONS
        return [
            {"id": "embed-anti-path-random", "cli": [
                "embed", "--graph", "anti-path",
                "--tournament", f"random:{inputs['embed_seed']}",
                "--horizon", str(hi)]},
            {"id": f"embed-anti-path-split-{lo}", "cli": [
                "embed", "--graph", "anti-path",
                "--tournament", "split-transitive", "--horizon", str(lo)]},
            {"id": f"embed-anti-path-split-{hi}", "cli": [
                "embed", "--graph", "anti-path",
                "--tournament", "split-transitive", "--horizon", str(hi)]},
            {"id": "embed-forest-factorial-injection", "cli": [
                "embed", "--graph", "interleaved-forest",
                "--tournament", f"injection:{files['factorial_tail']}",
                "--horizon", str(hi)]},
            # kept failures: fixed inputs, independent of the seed
            {"id": "embed-forest-factorial-block", "fails": "oracle-inconsistency",
             "cli": ["embed", "--graph", "interleaved-forest",
                     "--tournament", "factorial-block", "--horizon", "1000"]},
            {"id": "embed-random-graph-1", "fails": "pool-too-small",
             "cli": ["embed", "--graph", "random-graph:1",
                     "--tournament", "random:2", "--horizon", "10"]},
        ]
    if workload == "classify":
        b = str(CLASSIFY_BUDGET)
        return [
            {"id": "classify-long-paths", "call": "classify",
             "graph": {"paths": LONG_PATH, "cycle": None}},
            {"id": "classify-planted-cycle", "call": "classify",
             "graph": {"paths": SHORT_PATH, "cycle": inputs["cycle_component"]}},
            {"id": "classify-ray", "call": "classify", "graph": {"ray": True}},
            {"id": "analyze-interleaved-forest", "cli": [
                "analyze", "interleaved-forest", "--budget", b]},
            {"id": "analyze-random-graph", "cli": [
                "analyze", f"random-graph:{inputs['graph_seed']}", "--budget", b]},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def graph_adjacency(spec: dict):
    """Adjacency function v -> (ins, outs) of a benchmark-built graph.

    {"paths": L, "cycle": c}: disjoint directed paths of L vertices,
    component k on [kL, (k+1)L); component c, if given, is closed into a
    directed cycle by the edge (c+1)L-1 -> cL.  {"ray": True}: the
    directed ray 0 -> 1 -> 2 -> ... presented without a certificate.
    """
    if spec.get("ray"):
        return lambda v: (((v - 1,) if v > 0 else ()), (v + 1,))
    L, cyc = spec["paths"], spec["cycle"]

    def adj(v: int):
        k, p = divmod(v, L)
        ins = [v - 1] if p > 0 else []
        outs = [v + 1] if p < L - 1 else []
        if k == cyc:
            if p == 0:
                ins.append(v + L - 1)
            if p == L - 1:
                outs.append(v - L + 1)
        return tuple(ins), tuple(outs)

    return adj


def expected_verdict(spec: dict) -> str:
    """The verdict the construction implies: finite acyclic components
    are unavoidable, a directed cycle is avoidable, and a ray without a
    certificate cannot be settled by exploration."""
    if spec.get("ray"):
        return "inconclusive"
    return "unavoidable" if spec["cycle"] is None else "avoidable"
