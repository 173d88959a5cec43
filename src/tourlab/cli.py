"""Command-line front end: analyze, embed, density, inversions, optimize.

Identical invocations produce byte-identical output.  Every command ends
its report with one machine-readable line prefixed '#RESULT '; failures
print a single '#ERROR <code>: <message>' line to stderr and exit with
status 2.  Exit status 1 is reserved for verdict-level disagreement under
--expect.  A reader that closes stdout early ends the run silently: exit 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import DEFAULT_BUDGET, classify_unavoidability
from .core import (
    binomial2,
    presented_from_name,
    read_graph_file,
    read_injection_file,
    tournament_from_name,
)
from .density import (
    BLOCK_PATTERNS,
    density_profile,
    inversion_density_profile,
    make_block_scheme,
    optimize_scheme,
    _fmt_param,
)
from .embedding import spanning_embed
from .errors import (
    BudgetExhaustedError,
    CycleFoundError,
    GraphFormatError,
    MalformedInjectionError,
    OracleInconsistencyError,
    PinIncompatibilityError,
    PoolTooSmallError,
    SchemeError,
    TourlabError,
)

_CSV_CHUNK = 4096

_ERROR_CODES = [
    (GraphFormatError, "graph-format"),
    (BudgetExhaustedError, "budget-exhausted"),
    (CycleFoundError, "cycle-found"),
    (MalformedInjectionError, "malformed-injection"),
    (OracleInconsistencyError, "oracle-inconsistency"),
    (PinIncompatibilityError, "pin-incompatibility"),
    (PoolTooSmallError, "pool-too-small"),
    (SchemeError, "scheme"),
    (TourlabError, "library"),
    (ValueError, "invalid-argument"),
    (OSError, "io"),
]


def _default_budget() -> int:
    raw = os.environ.get("TOURLAB_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as e:
        raise ValueError(f"TOURLAB_BUDGET must be an integer, got {raw!r}") from e
    if value < 1:
        raise ValueError("TOURLAB_BUDGET must be positive")
    return value


def _load_graph(source: str):
    if os.path.exists(source):
        return read_graph_file(source)
    return presented_from_name(source)


def _parse_scheme_arg(text: str):
    """A scheme argument: 'factorial', or 'nested-dip:r=2,q=0.9,L0=64'."""
    name, _, rest = text.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise SchemeError(f"bad scheme parameter {item!r}; expected key=value")
            key = key.strip()
            if key in kwargs:
                raise SchemeError(f"scheme parameter {key!r} given twice")
            kwargs[key] = value
    return make_block_scheme(name, **kwargs)


def _resolve_injection(arg: str):
    # a catalogue scheme stays a scheme, so its counts come from its runs
    if os.path.exists(arg):
        return read_injection_file(arg)
    return _parse_scheme_arg(arg)


def _print_profile(profile) -> None:
    """The CSV rows of a density profile, then its #RESULT line.

    Each density is reduced with a gcd and the minimum is tracked by
    integer cross-multiplication, so only the minimum becomes a Fraction.
    Rows are written in chunks of _CSV_CHUNK lines, so the rendered text
    never holds the whole CSV.
    """
    lines = ["n,forward_pairs,total_pairs,density"]
    low_fwd, low_total = 1, 1  # no density exceeds 1
    for n, fwd in profile.counts:
        total = binomial2(n)
        g = math.gcd(fwd, total)
        dens = f"{fwd // g}" if g == total else f"{fwd // g}/{total // g}"
        lines.append(f"{n},{fwd},{total},{dens}")
        if fwd * low_total < low_fwd * total:
            low_fwd, low_total = fwd, total
        if len(lines) == _CSV_CHUNK:
            print("\n".join(lines))
            lines.clear()
    lines.append(f"#RESULT rows={len(profile)},min_density={Fraction(low_fwd, low_total)}")
    print("\n".join(lines))


def _render_witness(classification) -> str:
    w = classification.witness
    if w is None:
        return ""
    kind, payload = w
    if kind == "cycle":
        # rotate so the smallest label leads; the edge order is unchanged
        cyc = list(payload)
        k = cyc.index(min(cyc))
        cyc = cyc[k:] + cyc[:k]
        return "cycle:" + ",".join(str(v + 1) for v in cyc)
    return f"{kind}:{payload}"


def _run_analyze(args: argparse.Namespace) -> int:
    G = _load_graph(args.source)
    result = classify_unavoidability(G, budget=args.budget)
    witness = _render_witness(result)
    line = f"verdict={result.verdict}"
    if witness:
        line += f" witness={witness}"
    if result.reason:
        line += f" reason={result.reason}"
    print(f"graph={G.name}")
    print(line)
    print(f"#RESULT {result.verdict},{witness}")
    if args.expect is not None and result.verdict != args.expect:
        return 1
    return 0


def _run_embed(args: argparse.Namespace) -> int:
    G = _load_graph(args.graph)
    K = tournament_from_name(args.tournament)
    result = spanning_embed(G, K, horizon=args.horizon, budget=args.budget)
    offset = 1 if G.is_finite else 0  # finite graphs come from 1-based files
    lines = [f"{g + offset} {result.phi[g]}" for g in sorted(result.phi.mapping)]
    covered = sum(1 for k in range(args.horizon) if result.phi.has_target(k))
    valid = "true" if result.phi.is_valid(G) else "false"
    cells = ";".join(
        f"{m.id}:{m.frontier}{m.cells.cell_type(m.frontier)}" for m in result.machines
    )
    lines.append(f"covered={covered} valid={valid} cells={cells}")
    lines.append(f"#RESULT covered={covered},valid={valid},cells={cells}")
    # written only once rendered whole: an image too long to render as
    # digits fails before the first line, leaving stdout empty
    print("\n".join(lines))
    return 0


def _run_density(args: argparse.Namespace) -> int:
    K = tournament_from_name(args.tournament)
    _print_profile(density_profile(K, args.nmax, stride=args.stride))
    return 0


def _run_inversions(args: argparse.Namespace) -> int:
    f = _resolve_injection(args.injection)
    _print_profile(inversion_density_profile(f, args.nmax, stride=args.stride))
    return 0


def _run_optimize(args: argparse.Namespace) -> int:
    patterns = [p.strip() for p in (args.patterns or "").split(",") if p.strip()]
    scheme, report = optimize_scheme(
        patterns or BLOCK_PATTERNS, args.horizon, window=args.window
    )
    print(f"pattern={scheme.pattern}")
    for key, value in sorted(scheme.params.items()):
        print(f"{key}={_fmt_param(value)}")
    print(f"window={report.window[0]}:{report.window[1]}")
    print(f"attained_at={report.attained_at}")
    print(f"min_density={report.min_window_density}")
    print(
        f"#RESULT scheme={scheme.describe()},"
        f"min_density={report.min_window_density},at={report.attained_at}"
    )
    return 0


_RUNNERS = {
    "analyze": _run_analyze,
    "embed": _run_embed,
    "density": _run_density,
    "inversions": _run_inversions,
    "optimize": _run_optimize,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the exit status."""
    try:
        return _RUNNERS[args.subcommand](args)
    except BrokenPipeError:
        # what stdout still buffers goes nowhere, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except tuple(cls for cls, _ in _ERROR_CODES) as e:
        code = next(code for cls, code in _ERROR_CODES if isinstance(e, cls))
        print(f"#ERROR {code}: {e}", file=sys.stderr)
        return 2


def _window_pair(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("window must look like LO:HI")
    try:
        return (int(lo), int(hi))
    except ValueError as e:
        raise argparse.ArgumentTypeError("window bounds must be integers") from e


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourlab",
        description="Oriented-graph embeddings and tournament densities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="classify a graph as avoidable or not")
    p.add_argument("source", help="graph file or presented-family name")
    p.add_argument("--budget", type=_positive, default=None)
    p.add_argument("--expect", choices=["unavoidable", "avoidable", "inconclusive"])

    p = sub.add_parser("embed", help="span a tournament prefix with a graph")
    p.add_argument("--graph", required=True, help="graph file or family name")
    p.add_argument("--tournament", required=True, help="tournament family")
    p.add_argument("--horizon", type=_positive, required=True)
    p.add_argument("--budget", type=_positive, default=None)

    p = sub.add_parser("density", help="prefix density CSV for a tournament")
    p.add_argument("--tournament", required=True)
    p.add_argument("--nmax", type=_positive, required=True)
    p.add_argument("--stride", type=_positive, default=1)

    p = sub.add_parser("inversions", help="prefix inversion-density CSV")
    p.add_argument("--injection", required=True, help="scheme name[:params] or file path")
    p.add_argument("--nmax", type=_positive, required=True)
    p.add_argument("--stride", type=_positive, default=1)

    p = sub.add_parser("optimize", help="search block schemes for high density")
    p.add_argument("--horizon", type=_positive, required=True)
    p.add_argument("--window", type=_window_pair, default=None)
    p.add_argument(
        "--patterns",
        default=None,
        help="comma-separated catalogue subset (default: all patterns)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # also for subcommands without --budget, so a bad TOURLAB_BUDGET
        # fails every run that does not name a budget
        if getattr(args, "budget", None) is None:
            args.budget = _default_budget()
    except ValueError as e:
        print(f"#ERROR invalid-argument: {e}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
