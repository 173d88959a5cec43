"""Forward-pair density profiles, rank decompositions, and block schemes.

A tournament induced by an ordinal injection has its forward pairs
exactly at the injection's inversions, so prefix densities of injection
tournaments reduce to inversion counting, routed by the counting module.
Every other prefix count is a family's closed form, or a sum of forward
rows taken in tiles of a fixed number of pairs.  Rank decomposition and
its dominance check walk the same tiles.
Rank decomposition runs the reduction the other way: it extracts an
injection from a finite prefix whose induced tournament dominates the
prefix pairwise.

Block schemes are parametric injections built from precommitted disjoint
value intervals, each laid out as a sequence of runs: stretches of
indices whose values form one arithmetic progression inside a single gap
of every earlier value.  Inside a run the inversion count is a quadratic
in the prefix length, so values, counts and exact window minima come
from the layout in closed form, and prefix ranks from one sort of its
values, with no counting kernel; a window up to 10^12 takes
milliseconds.  The layout and the identity and factorial run streams
live in core; this module adds the other catalogue patterns and the
optimizer, which searches the catalogue for a high minimum prefix
density over a window.

Densities are exact rationals and counts Python integers end to end.
Only window minima are ever reported; no limiting claim is attached to
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .core import (
    InjectionSpec,
    OrdinalInjectionTournament,
    TournamentOracle,
    exact_density,
    _factorial_runs,
    _identity_runs,
    _LayoutInjection,
    _Run,
    _stacked_runs,
    _with_overrides,
)
from .counting import _prefix_inversions, ranks_of_values
from .errors import SchemeError

__all__ = [
    "DensityProfile",
    "forward_pair_count",
    "density_profile",
    "inversion_density_profile",
    "RankDecomposition",
    "rank_decompose",
    "dominance_check",
    "BlockScheme",
    "BLOCK_PATTERNS",
    "make_block_scheme",
    "factorial_scheme",
    "window_min_density",
    "DensityBoundsReport",
    "optimize_scheme",
]


# ---------------------------------------------------------------------------
# density profiles


@dataclass(frozen=True)
class DensityProfile:
    """Exact forward-pair densities of one tournament at sampled prefixes.

    `counts` holds (n, forward_pairs) per sampled prefix, as integers;
    `samples` holds (n, density), the density the Fraction
    forward_pairs / C(n, 2), built when asked.
    """

    name: str
    counts: tuple[tuple[int, int], ...]

    @property
    def samples(self) -> list[tuple[int, Fraction]]:
        return [(n, exact_density(f, n)) for n, f in self.counts]

    def __len__(self) -> int:
        return len(self.counts)


# elements of one tile of forward rows: the row walks below hold O(tile)
# memory whatever the prefix, and a tile's uint64 work arrays stay in cache
TILE_ELEMENTS = 1 << 16


def _tiles(n: int) -> list[tuple[int, int]]:
    """Consecutive row ranges [j0, j1) covering 1 <= j < n, each tile of
    rows of width j1 - 1 within TILE_ELEMENTS (but at least one row)."""
    side = math.isqrt(TILE_ELEMENTS)
    out, j0 = [], 1
    while j0 < n:
        j1 = min(n, j0 + max(1, TILE_ELEMENTS // (j0 + side)))
        out.append((j0, j1))
        j0 = j1
    return out


def _sample_points(n_max: int, stride: int) -> list[int]:
    if n_max < 2:
        raise ValueError("a density needs at least two vertices")
    if stride < 1:
        raise ValueError("stride must be positive")
    pts = [m for m in range(stride, n_max + 1, stride) if m >= 2]
    if not pts or pts[-1] != n_max:
        pts.append(n_max)
    return pts


def _forward_counts(K: TournamentOracle, points: list[int]) -> list[int]:
    """Forward pairs of K inside each prefix in `points` (ascending, each
    at least 2).

    An injection tournament counts its injection's inversions, as the
    counting module routes them; otherwise the family's closed form, or
    forward rows summed tile by tile up to the last point.
    """
    if isinstance(K, OrdinalInjectionTournament):
        return _prefix_inversions(K.injection, points)
    if K.forward_pairs_upto(2) is not None:
        return [int(K.forward_pairs_upto(m)) for m in points]
    counts, total, k = [], 0, 0
    for j0, j1 in _tiles(points[-1]):
        # below_row[r]: forward pairs in the rows j0 .. j0 + r
        below_row = np.cumsum(np.count_nonzero(K.forward_tile(j0, j1), axis=1))
        while k < len(points) and points[k] <= j1:
            counts.append(total + int(below_row[points[k] - j0 - 1]))
            k += 1
        total += int(below_row[-1])
    return counts


def forward_pair_count(K: TournamentOracle, n: int) -> int:
    """Number of forward pairs (i, j), i < j < n, of K, counted as
    `_forward_counts` decides."""
    if n < 2:
        raise ValueError("a pair count needs at least two vertices")
    return _forward_counts(K, [n])[0]


def density_profile(K: TournamentOracle, n_max: int, stride: int = 1) -> DensityProfile:
    """Densities of K at every stride multiple in [2, n_max], plus n_max."""
    pts = _sample_points(n_max, stride)
    return DensityProfile(K.name, tuple(zip(pts, _forward_counts(K, pts))))


def inversion_density_profile(
    f: Union[InjectionSpec, BlockScheme], n_max: int, stride: int = 1
) -> DensityProfile:
    """Inversion densities of f at stride multiples up to n_max: the
    density profile of the tournament induced by f, entry by entry."""
    K = OrdinalInjectionTournament(f.injection if isinstance(f, BlockScheme) else f)
    return density_profile(K, n_max, stride)


# ---------------------------------------------------------------------------
# rank decomposition


@dataclass
class RankDecomposition:
    """Level structure of a finite tournament prefix.

    Levels peel from the bottom: level 0 holds the vertices with no
    forward out-neighbor inside the prefix, and level a+1 holds the
    vertices all of whose forward out-neighbors sit at levels <= a.
    `levels` is the number of distinct levels.  The induced injection
    sends i to the ordinal value (level(i), i), so every forward pair of
    the source prefix is an inversion of the injection.
    """

    n: int
    alpha: np.ndarray
    levels: int
    source: str
    induced_injection: InjectionSpec = field(repr=False)

    def level_sizes(self) -> list[int]:
        counts = np.bincount(self.alpha, minlength=self.levels)
        return [int(c) for c in counts]


def rank_decompose(K: TournamentOracle, n: int) -> RankDecomposition:
    """Decompose the prefix [n] of K into forward-out-neighbor levels.

    Forward out-neighbors of i are the j > i with the pair (i, j)
    oriented i -> j; edges pointing down the index order play no role, so
    the recursion is well founded on every tournament.  The decomposition
    of a prefix is a property of that prefix alone; it need not agree
    with the decomposition of any longer prefix.
    """
    if n < 1:
        raise ValueError("cannot decompose an empty prefix")
    alpha = np.zeros(n, dtype=np.int64)
    # downward sweep, one tile at a time: by the time row j is reached,
    # every larger index has raised its forward in-neighbours above
    # itself, so alpha[j] is final
    for j0, j1 in reversed(_tiles(n)):
        tile = K.forward_tile(j0, j1)
        for j in range(j1 - 1, j0 - 1, -1):
            below = alpha[:j]
            np.maximum(below, np.where(tile[j - j0, :j], alpha[j] + 1, 0), out=below)
    alpha.setflags(write=False)
    # the identity layout gives every index i the value (0, i), so only the
    # indices above level zero override it; beyond the prefix the map stays
    # at level zero, which keeps it total and injective without disturbing
    # pairs inside [n]
    lifted = np.flatnonzero(alpha)
    inj = _with_overrides(_identity_runs(), np.stack([lifted, alpha[lifted], lifted]),
                          f"rank-decomposition[{K.name}:{n}]")
    return RankDecomposition(
        n=n, alpha=alpha, levels=int(alpha.max()) + 1, source=K.name, induced_injection=inj
    )


def dominance_check(K: TournamentOracle, d: RankDecomposition, n: int) -> bool:
    """True when every forward pair of K inside [n] is also a forward pair
    of the tournament induced by d's injection.

    For i < j that induced tournament has i -> j exactly when
    level(i) > level(j), so the check reduces to a level comparison on
    each forward pair.
    """
    if d.n != n or d.alpha.shape[0] != n:
        raise ValueError(
            f"decomposition was computed for prefix {d.n}, not {n}"
        )
    alpha = d.alpha
    for j0, j1 in _tiles(n):
        # a forward pair (i, j) whose level does not drop from i to j
        flat = alpha[None, : j1 - 1] <= alpha[j0:j1, None]
        flat &= K.forward_tile(j0, j1)
        if flat.any():
            return False
    return True


# ---------------------------------------------------------------------------
# block schemes as run layouts

BLOCK_PATTERNS = (
    "identity",
    "factorial",
    "single-high",
    "paired-high-low",
    "nested-dip",
)

_MIN_RATIO = 1.1
_DEFAULT_W0 = 1 << 1500


@dataclass
class BlockScheme:
    """A parametric injection laid out as a sequence of runs.

    `injection` is the total injection read off the runs, which
    `injection.layout` holds, so `inversions_upto` counts its prefixes in
    closed form; `prefix_ranks(n)` ranks the first n values by one sort of
    their arrays.
    """

    pattern: str
    params: dict
    injection: _LayoutInjection

    def prefix_ranks(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        return ranks_of_values(self.injection.value_arrays(n))

    def describe(self) -> str:
        if not self.params:
            return self.pattern
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in sorted(self.params.items()))
        return f"{self.pattern}({inner})"

    def order_key(self) -> tuple:
        return (self.pattern, tuple(sorted(self.params.items())))


def _fmt_param(v) -> str:
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def _scheme(pattern: str, params: dict, description: str, runs: Iterator[_Run]) -> BlockScheme:
    return BlockScheme(pattern, params, _LayoutInjection(runs, description))


def _geometric_sizes(r: float, L0: int) -> Iterator[int]:
    """L0·r^k, k = 0, 1, ..., for r the exact value of its decimal text,
    rounded half to even in integers; r > 1 makes them non-decreasing."""
    a, b = Fraction(repr(r)).as_integer_ratio()
    num, den = L0, 1
    while True:
        size, twice_rem = divmod(2 * num + den, 2 * den)  # floor(num/den + 1/2)
        if twice_rem == 0 and size % 2:  # a tie: round to even
            size -= 1
        yield size
        num, den = num * a, den * b


def _paired_runs(sizes: Iterator[int]) -> Iterator[_Run]:
    """Per block the upper half descending, then the lower half descending:
    the low half lands under the half just placed but over every older
    block."""
    P = 0
    for w in sizes:
        u = (w + 1) // 2
        yield _Run(P, u, True, 0, P + w - 1, 1)
        if w > u:
            yield _Run(P + u, w - u, True, u, P + w - u - 1, 1)
        P += w


def _nested_step(step: int, length: int) -> int:
    """Step of the cycle that nests under a cycle with the given step."""
    return step // (length + 1)


def _nested_dip_runs(r: float, q: float, L0: int, W0: int) -> Iterator[_Run]:
    """Runs of the multi-phase interleaving scheme, one per cycle.

    Cycle c is a descending arithmetic progression of length L_c and step
    W_c.  Cycle c+1 nests into the gap under the dip position p_c of cycle
    c with a strictly smaller step, so its whole run stays inside that
    gap and has the sum of p_k over k <= c earlier entries above it.
    Steps shrink by a factor L+1 per cycle and therefore hit zero after
    finitely many cycles no matter how large W0 is; from that point every
    later cycle is placed as a plain block above all earlier values, which
    keeps the map total and keeps every down-set finite.
    """
    qn, qd = Fraction(repr(q)).as_integer_ratio()
    P = above = 0
    ceiling = None  # top of the plain blocks once the steps are exhausted
    for c, L in enumerate(_geometric_sizes(r, L0)):
        if c == 0:
            step, top = W0, L * W0
            roof = top + 1  # strictly above every nested value
        elif ceiling is None:
            new_step = _nested_step(step, L)
            if new_step == 0:
                ceiling = roof
            else:
                gap_hi = top - (dip - 1) * step
                gap_lo = gap_hi - step
                step, top = new_step, gap_lo + L * new_step
                if not (gap_lo < top - (L - 1) * step and top < gap_hi):
                    raise SchemeError(
                        f"cycle {c} does not fit its gap; the intervals would overlap"
                    )
        if ceiling is None:
            yield _Run(P, L, True, above, top, step)
            dip = min(-(-qn * L // qd), L - 1)  # ceil(q·L) >= 1 as q > 0
            above += dip
        else:
            ceiling += L
            yield _Run(P, L, True, 0, ceiling, 1)
        P += L


def factorial_scheme() -> BlockScheme:
    """The block scheme with factorial boundaries: block k covers the
    indices in [(k-1)!, k!), values descending inside the block and
    blocks stacked upward."""
    return _scheme("factorial", {}, "factorial-block reversal", _factorial_runs())


def make_block_scheme(pattern: str, **params) -> BlockScheme:
    """Build a catalogue scheme from the parameters its pattern takes.

    single-high and paired-high-low take r, the growth ratio of the
    committed interval widths (only ratios comfortably above 1 are
    accepted: blocks must outgrow their past), and L0, the first width;
    nested-dip takes these, q, which places the dip inside each cycle, and
    W0, the first step.  identity and factorial take none.  A value given
    as text takes the type of its default.  A parameter the pattern does
    not take, or text that does not convert, is a SchemeError.
    """
    if pattern not in BLOCK_PATTERNS:
        known = ", ".join(BLOCK_PATTERNS)
        raise SchemeError(f"unknown pattern {pattern!r}; catalogue: {known}")
    # the parameters the pattern takes, at their defaults
    takes = {} if pattern in ("identity", "factorial") else {"r": 2.0, "L0": 64}
    if pattern == "nested-dip":
        takes.update(q=0.9, W0=_DEFAULT_W0)
    for key, value in params.items():
        if key not in takes:
            raise SchemeError(f"pattern {pattern!r} takes no parameter {key!r}")
        kind = type(takes[key])
        try:
            takes[key] = kind(value) if isinstance(value, str) else value
        except ValueError:
            msg = f"pattern {pattern!r}: {key}={value!r} does not parse as {kind.__name__}"
            raise SchemeError(msg) from None
    if pattern == "identity":
        return _scheme("identity", {}, "identity", _identity_runs())
    if pattern == "factorial":
        return factorial_scheme()
    r, L0 = takes["r"], takes["L0"]
    if not (r > _MIN_RATIO):
        raise SchemeError(
            f"growth ratio r={r:g} is below the minimum block growth {_MIN_RATIO}"
        )
    if not math.isfinite(r):
        raise SchemeError(f"growth ratio r={r:g} is not finite")
    if not isinstance(L0, int) or L0 < 2:
        raise SchemeError("initial width L0 must be an integer of at least 2")
    if pattern != "nested-dip":
        lay = _stacked_runs if pattern == "single-high" else _paired_runs
        params = {"r": float(r), "L0": int(L0)}
        runs = lay(_geometric_sizes(params["r"], L0))
        return _scheme(pattern, params, f"{pattern}(r={r:g},L0={L0})", runs)
    q, W0 = takes["q"], takes["W0"]
    if not (0.0 < q < 1.0):
        raise SchemeError("dip position q must lie strictly between 0 and 1")
    if W0 < 1:
        raise SchemeError("initial step W0 must be positive")
    params = {"r": float(r), "q": float(q), "L0": int(L0)}
    if W0 != _DEFAULT_W0:
        params["W0"] = W0
    return _scheme("nested-dip", params, f"nested-dip(r={r:g},q={q:g},L0={L0})",
                   _nested_dip_runs(params["r"], params["q"], L0, W0))


# ---------------------------------------------------------------------------
# window minima and the scheme search


@dataclass(frozen=True)
class DensityBoundsReport:
    """Exact minimum prefix inversion density over one window.

    Reports observed window minima only; nothing here claims a limit.
    `attained_at` is the smallest prefix length realizing the minimum.
    """

    identifier: str
    min_window_density: Fraction
    window: tuple[int, int]
    attained_at: int


def window_min_density(
    scheme: BlockScheme, n_lo: int, n_hi: int
) -> tuple[Fraction, int]:
    """Exact min over n in [n_lo, n_hi] of the scheme's inversion density
    at prefix n, with the smallest minimizing n.

    Closed form over the scheme's runs: inside a run the count at prefix
    n is quadratic in n, so only the run ends that fall in the window and
    the integers next to the roots of the density's derivative are
    candidates.  They are compared by integer cross-multiplication, so
    the cost grows with the number of runs, not with n_hi, and nothing is
    rounded.
    """
    if not (2 <= n_lo < n_hi):
        raise ValueError("window must satisfy 2 <= n_lo < n_hi")
    return scheme.injection.layout.window_min(n_lo, n_hi)


_R_GRID = (1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
_Q_GRID = (0.5, 0.75, 0.9, 0.97)
_L0_GRID = (64, 256)


def _grid_params(pattern: str) -> list[dict]:
    if pattern in ("identity", "factorial"):
        return [{}]
    if pattern == "nested-dip":
        return [
            {"r": r, "q": q, "L0": l0}
            for r in _R_GRID
            for q in _Q_GRID
            for l0 in _L0_GRID
        ]
    return [{"r": r, "L0": l0} for r in _R_GRID for l0 in _L0_GRID]


def _neighbor_params(params: dict) -> list[dict]:
    out = []
    if "r" in params:
        for fac in (0.8, 1.25):
            r2 = round(params["r"] * fac, 6)
            if r2 > _MIN_RATIO:
                out.append({**params, "r": r2})
    if "q" in params:
        for dq in (-0.03, 0.03):
            q2 = round(params["q"] + dq, 6)
            if 0.02 <= q2 <= 0.98:
                out.append({**params, "q": q2})
    if "L0" in params:
        for l2 in (params["L0"] // 2, params["L0"] * 2):
            if 2 <= l2 <= 4096:
                out.append({**params, "L0": l2})
    return out


def optimize_scheme(
    pattern_space: Iterable[str],
    horizon: int,
    window: Optional[tuple[int, int]] = None,
) -> tuple[BlockScheme, DensityBoundsReport]:
    """Search the catalogue for the scheme maximizing the window minimum.

    A fixed parameter grid per pattern is scanned first, then coordinate
    refinement walks from the grid optimum.  Ties break to the
    lexicographically first (pattern, params) pair, so identical calls
    return identical schemes.
    """
    patterns = list(dict.fromkeys(pattern_space))
    if not patterns:
        raise SchemeError("pattern space is empty")
    for p in patterns:
        if p not in BLOCK_PATTERNS:
            known = ", ".join(BLOCK_PATTERNS)
            raise SchemeError(f"unknown pattern {p!r}; catalogue: {known}")
    if window is None:
        window = (1000, horizon)
    n_lo, n_hi = window
    if not (2 <= n_lo < n_hi <= horizon):
        raise ValueError("window must satisfy 2 <= n_lo < n_hi <= horizon")

    best: Optional[tuple[Fraction, tuple, BlockScheme, int]] = None

    def consider(pattern: str, params: dict) -> bool:
        nonlocal best
        scheme = make_block_scheme(pattern, **params)
        dens, at = window_min_density(scheme, n_lo, n_hi)
        key = scheme.order_key()
        if best is None or dens > best[0] or (dens == best[0] and key < best[1]):
            improved = best is not None and dens > best[0]
            best = (dens, key, scheme, at)
            return improved
        return False

    for pattern in sorted(patterns):
        for params in _grid_params(pattern):
            consider(pattern, params)

    assert best is not None
    for _ in range(2):
        improved = False
        for params in _neighbor_params(best[2].params):
            if consider(best[2].pattern, params):
                improved = True
        if not improved:
            break

    dens, _, scheme, at = best
    report = DensityBoundsReport(
        identifier=scheme.describe(),
        min_window_density=dens,
        window=(n_lo, n_hi),
        attained_at=at,
    )
    return scheme, report
