"""Correctness checks of every operation's output, made apart from the
program.

Counts are recomputed from block arithmetic, from a Fenwick tree over
values the benchmark ranks itself, pair by pair through the scalar
`orient`, or by the benchmark's own peeling; graph verdicts follow from
how the benchmark built the graph.  Nothing is compared against a stored
copy of an earlier output.  Each check raises CheckError on the first
disagreement.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import workloads

CSV_HEADER = "n,forward_pairs,total_pairs,density"


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ------------------------------------------------------------ arithmetic


def factorial_bounds(limit: int) -> list[int]:
    """0, then k! for k >= 1, up to the first bound above limit: the
    blocks [0,1), [1,2), [2,6), [6,24), ..."""
    bounds = [0]
    k = 1
    while bounds[-1] <= limit:
        bounds.append(math.factorial(k))
        k += 1
    return bounds


def factorial_pairs(n: int) -> int:
    """Pairs i < j < n inside one factorial block: the forward pairs of
    factorial-block and the inversions of the factorial scheme, whose
    values descend inside a block and ascend across blocks."""
    bounds = factorial_bounds(n)
    total = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if lo >= n:
            break
        w = min(hi, n) - lo
        total += w * (w - 1) // 2
    return total


def same_factorial_block(i: int, j: int) -> bool:
    bounds = factorial_bounds(max(i, j))
    k = next(t for t in range(1, len(bounds)) if bounds[t] > i)
    return bounds[k - 1] <= j < bounds[k]


def factorial_window_min(n_lo: int, n_hi: int) -> tuple[Fraction, int]:
    """Exact minimum over n in [n_lo, n_hi] of factorial_pairs(n)/C(n,2),
    with the smallest n attaining it, by one incremental scan."""
    bounds = factorial_bounds(n_hi)
    blk = 0
    pairs = 0
    best_num, best_den, best_n = 1, 0, -1
    for m in range(1, n_hi):  # index m joins the prefix of length m
        while bounds[blk + 1] <= m:
            blk += 1
        pairs += m - bounds[blk]
        n = m + 1
        if n >= n_lo:
            den = n * (n - 1) // 2
            if best_n < 0 or pairs * best_den < best_num * den:
                best_num, best_den, best_n = pairs, den, n
    return Fraction(best_num, best_den), best_n


def ranks_of(keys: list) -> list[int]:
    """Dense ranks of distinct sortable keys."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(keys)
    for r, i in enumerate(order):
        ranks[i] = r
    return ranks


def fenwick_prefix_inversions(ranks: list[int]) -> list[int]:
    """cum[m] = #{i < j < m : ranks[i] > ranks[j]} for m = 0..n, counted
    with a Fenwick tree over the ranks."""
    n = len(ranks)
    tree = [0] * (n + 1)
    cum = [0] * (n + 1)
    total = 0
    for j, r in enumerate(ranks):
        i, below = r, 0
        while i > 0:  # earlier entries with a smaller rank
            below += tree[i]
            i &= i - 1
        total += j - below
        cum[j + 1] = total
        i = r + 1
        while i <= n:
            tree[i] += 1
            i += i & -i
    return cum


def window_min(cum: list[int], n_lo: int, n_hi: int) -> tuple[Fraction, int]:
    """Exact min over n in [n_lo, n_hi] of cum[n]/C(n,2) by integer
    cross-multiplication, with the smallest minimizing n."""
    best_num, best_den, best_n = 1, 0, -1
    for n in range(n_lo, n_hi + 1):
        num, den = cum[n], n * (n - 1) // 2
        if best_n < 0 or num * best_den < best_num * den:
            best_num, best_den, best_n = num, den, n
    return Fraction(best_num, best_den), best_n


def scheme_inversions(pattern: str, params: dict, n: int) -> list[int]:
    """Fenwick prefix inversions of a catalogue scheme's scalar values."""
    from tourlab.density import make_block_scheme

    f = make_block_scheme(pattern, **params).injection
    keys = []
    for i in range(n):
        v = f.eval(i)
        keys.append((v.major, v.minor))
    return fenwick_prefix_inversions(ranks_of(keys))


# ------------------------------------------------------------ parsing


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, eq, value = line.partition("=")
        if eq and not line.startswith("#"):
            out[key] = value
    return out


def _result_line(text: str) -> str:
    lines = text.splitlines()
    _require(bool(lines) and lines[-1].startswith("#RESULT "), "no closing #RESULT line")
    return lines[-1]


def parse_csv(text: str) -> list[tuple[int, int, int, str]]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == CSV_HEADER, "missing CSV header")
    rows = []
    for line in lines[1:-1]:
        n, fwd, total, dens = line.split(",")
        rows.append((int(n), int(fwd), int(total), dens))
    return rows


def sample_points(n_max: int, stride: int) -> list[int]:
    pts = [m for m in range(stride, n_max + 1, stride) if m >= 2]
    if not pts or pts[-1] != n_max:
        pts.append(n_max)
    return pts


def check_profile(text: str, n_max: int, stride: int, forward=None) -> list[tuple[int, int]]:
    """Rows at the documented sample points, each internally exact, and a
    #RESULT naming the row count and the minimum.  `forward`, when given,
    maps n to the expected forward-pair count.  Returns (n, forward)."""
    rows = parse_csv(text)
    pts = sample_points(n_max, stride)
    _require([r[0] for r in rows] == pts, "rows are not at the sample points")
    low = None
    for n, fwd, total, dens in rows:
        _require(total == n * (n - 1) // 2, f"row n={n}: total_pairs {total}")
        if forward is not None:
            want = forward(n)
            _require(fwd == want, f"row n={n}: forward_pairs {fwd}, recount {want}")
        d = Fraction(fwd, total)
        _require(dens == str(d), f"row n={n}: density {dens} is not {d}")
        low = d if low is None or d < low else low
    want = f"#RESULT rows={len(rows)},min_density={low}"
    _require(_result_line(text) == want, f"result line is not {want!r}")
    return [(n, fwd) for n, fwd, _, _ in rows]


# ------------------------------------------------------------ workloads


def check_optimize(op: dict, text: str) -> None:
    argv = op["cli"]
    horizon = int(_arg(argv, "--horizon"))
    lo, hi = (int(x) for x in _arg(argv, "--window").split(":"))
    kv = _key_values(text)
    _require(kv.get("window") == f"{lo}:{hi}", "window line")
    got = Fraction(kv["min_density"])
    at = int(kv["attained_at"])
    pattern = kv["pattern"]
    params = {k: (int(v) if k in ("L0", "W0") else float(v)) for k, v in kv.items()
              if k not in ("pattern", "window", "attained_at", "min_density")}
    result = _result_line(text)
    _require(result.endswith(f",min_density={got},at={at}"), "result line disagrees")
    if "--patterns" in argv:  # factorial only: block arithmetic
        _require(pattern == "factorial", f"pattern {pattern}")
        want = factorial_window_min(lo, hi)
        _require((got, at) == want, f"factorial minimum {got} at {at}, scan {want}")
        return
    cum = scheme_inversions(pattern, params, horizon)
    want = window_min(cum, lo, hi)
    _require((got, at) == want, f"winner minimum {got} at {at}, recount {want}")
    fact, _ = factorial_window_min(lo, hi)
    _require(got >= fact, f"winner {got} below factorial {fact}")
    dip, _ = window_min(scheme_inversions("nested-dip", {"r": 2.0, "q": 0.9, "L0": 64},
                                          horizon), lo, hi)
    _require(got >= dip, f"winner {got} below nested-dip(r=2,q=0.9,L0=64) {dip}")


def check_inversions(op: dict, text: str, inputs: dict) -> None:
    argv = op["cli"]
    n_max, stride = int(_arg(argv, "--nmax")), int(_arg(argv, "--stride"))
    source = _arg(argv, "--injection")
    if source == "factorial":
        check_profile(text, n_max, stride, factorial_pairs)
        return
    if source.startswith("nested-dip"):
        cum = scheme_inversions("nested-dip", {"r": 2.0, "q": 0.9, "L0": 16}, n_max)
    else:  # the seeded FILE, ranked from the values the benchmark wrote
        cum = fenwick_prefix_inversions(ranks_of(workloads.file_values(inputs["file_seed"])))
    check_profile(text, n_max, stride, cum.__getitem__)


def check_density(op: dict, text: str) -> None:
    from tourlab.core import Direction, SeededRandom

    argv = op["cli"]
    n_max = int(_arg(argv, "--nmax"))
    stride = int(argv[argv.index("--stride") + 1]) if "--stride" in argv else 1
    family = _arg(argv, "--tournament")
    if family == "factorial-block":
        check_profile(text, n_max, stride, factorial_pairs)
        return
    rows = check_profile(text, n_max, stride)
    K = SeededRandom(int(family.split(":", 1)[1]))
    upto = 1000
    prefix = [0] * (upto + 1)  # scalar orient, pair by pair
    for j in range(1, upto):
        row = sum(1 for i in range(j) if K.orient(i, j) is Direction.FORWARD)
        prefix[j + 1] = prefix[j] + row
    for n, fwd in rows:
        if n <= upto:
            _require(fwd == prefix[n], f"row n={n}: forward_pairs {fwd}, recount {prefix[n]}")
    n, fwd = rows[-1]
    _require(abs(Fraction(fwd, n * (n - 1) // 2) - Fraction(1, 2)) <= Fraction(1, 100),
             f"density at n={n} is not within 0.01 of 1/2")


def check_rank_decompose(op: dict, text: str) -> None:
    """Levels by peeling: a vertex joins the round after its last forward
    out-neighbor was peeled."""
    from tourlab.core import SeededRandom

    got = json.loads(text)
    n = op["n"]
    K = SeededRandom(op["seed"])
    cols = np.zeros((n, n), dtype=bool)  # cols[j, i]: the pair (i, j) is forward
    for j in range(1, n):
        cols[j, :j] = K.forward_row(j)
    waiting = cols.sum(axis=0).astype(np.int64)  # unpeeled forward out-neighbors
    level = np.full(n, -1, dtype=np.int64)
    rnd = 0
    ready = np.flatnonzero(waiting == 0)
    while ready.size:
        level[ready] = rnd
        waiting -= cols[ready].sum(axis=0)
        waiting[level >= 0] = -1
        ready = np.flatnonzero(waiting == 0)
        rnd += 1
    _require(bool((level >= 0).all()), "peeling left vertices unassigned")
    _require(got["alpha"] == level.tolist(), "levels differ from the peeling")
    _require(got["levels"] == rnd, f"{got['levels']} levels, peeling gives {rnd}")
    _require(got["dominance"] is True, "dominance_check returned False")


def tournament_edge(family: str):
    """a -> b present?  From the family's definition, or the scalar orient."""
    if family == "split-transitive":  # for a < b: forward exactly when a is even
        return lambda a, b: (a % 2 == 0) if a < b else (b % 2 == 1)
    if family == "factorial-block" or family.startswith("injection:"):
        # the injection file holds only 'tail factorial': forward inside a block
        return lambda a, b: same_factorial_block(a, b) == (a < b)
    if family.startswith("random:"):
        from tourlab.core import SeededRandom

        K = SeededRandom(int(family.split(":", 1)[1]))
        return K.has_edge
    raise CheckError(f"no reference orientation for {family!r}")


def graph_out_neighbors(name: str):
    if name == "anti-path":  # even vertices point at both odd neighbors
        return lambda v: [w for w in (v - 1, v + 1) if w >= 0] if v % 2 == 0 else []
    from tourlab.core import presented_from_name

    return presented_from_name(name).out_neighbors


def check_embed(op: dict, text: str) -> None:
    argv = op["cli"]
    h = int(_arg(argv, "--horizon"))
    lines = text.splitlines()
    phi: dict[int, int] = {}
    k = 0
    while k < len(lines) and not lines[k].startswith("covered="):
        g, t = lines[k].split()
        _require(int(g) not in phi, f"vertex {g} mapped twice")
        phi[int(g)] = int(t)
        k += 1
    image = set(phi.values())
    _require(len(image) == len(phi), "mapping is not injective")
    _require(all(t in image for t in range(h)), f"image misses a vertex below {h}")
    edge = tournament_edge(_arg(argv, "--tournament"))
    outs = graph_out_neighbors(_arg(argv, "--graph"))
    for g, a in phi.items():
        for w in outs(g):
            if w in phi:
                _require(edge(a, phi[w]), f"edge ({g},{w}) maps against the tournament")
    _require(_result_line(text).startswith(f"#RESULT covered={h},valid=true,"),
             "result line is not covered=h,valid=true")


def check_classify(op: dict, text: str) -> None:
    got = json.loads(text)
    spec = op["graph"]
    verdict = got["verdict"]
    if spec.get("ray"):
        _require(verdict != "unavoidable", "the ray was called unavoidable")
    else:
        want = workloads.expected_verdict(spec)
        _require(verdict == want, f"verdict {verdict}, construction implies {want}")
    if verdict == "avoidable":
        kind, cycle = got["witness"]
        _require(kind == "cycle", f"witness {kind}")
        adj = workloads.graph_adjacency(spec)
        _require(len(cycle) >= 2 and len(set(cycle)) == len(cycle), "witness is no cycle")
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            _require(v in adj(u)[1], f"witness step {u}->{v} is no edge")


def check_analyze(op: dict, text: str) -> None:
    # interleaved-forest and random-graph:S have finite acyclic closures
    lines = text.splitlines()
    _require(lines[1:] == ["verdict=unavoidable", "#RESULT unavoidable,"],
             f"verdict lines {lines[1:]}")


def check_op(op: dict, text: str, inputs: dict) -> None:
    """Check one successful operation; raises CheckError."""
    try:
        if "call" in op:
            if op["call"] == "classify":
                check_classify(op, text)
            else:
                check_rank_decompose(op, text)
            return
        sub = op["cli"][0]
        if sub == "optimize":
            check_optimize(op, text)
        elif sub == "inversions":
            check_inversions(op, text, inputs)
        elif sub == "density":
            check_density(op, text)
        elif sub == "embed":
            check_embed(op, text)
        else:
            check_analyze(op, text)
    except CheckError as e:
        raise CheckError(f"{op['id']}: {e}") from None
    except (ValueError, KeyError, IndexError) as e:  # unparseable output
        raise CheckError(f"{op['id']}: malformed output ({e!r})") from None


def check_failure(op: dict, rc: int, out: str, err: str) -> None:
    """A kept failing operation must end in its typed #ERROR line."""
    want = f"#ERROR {op['fails']}:"
    if rc != 2 or out or not err.startswith(want):
        raise CheckError(f"{op['id']}: expected {want} with status 2, got "
                         f"status {rc}: {err.strip()[:200]!r}")
