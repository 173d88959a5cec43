"""Core types: tournament oracles, ordinal values and injections, run
layouts, and oriented graphs.

Vertices are 0-based integers internally; command-line interfaces translate
to and from 1-based labels at the boundary.  A tournament on the naturals is
presented as a pure orientation oracle over vertex pairs, so uncountable
structures never need to be materialized.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    GraphFormatError,
    LoopQueryError,
    MalformedInjectionError,
    SchemeError,
)

VertexId = int

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MUR_A = 0xFF51AFD7ED558CCD
_MUR_B = 0xC4CEB9FE1A85EC53


class Direction(Enum):
    """Orientation of an index pair i < j: FORWARD means the edge i -> j."""

    FORWARD = "forward"
    BACKWARD = "backward"

    def reversed(self) -> "Direction":
        return Direction.BACKWARD if self is Direction.FORWARD else Direction.FORWARD


@dataclass(frozen=True, order=True)
class OrdinalValue:
    """A value below omega*omega, encoded as a (major, minor) pair.

    Comparison is lexicographic with the major component dominating:
    (1, 0) > (0, k) for every k.

    >>> OrdinalValue(0, 5) < OrdinalValue(1, 0)
    True
    >>> OrdinalValue(2, 3) > OrdinalValue(2, 1)
    True
    """

    major: int
    minor: int

    def __post_init__(self):
        if self.major < 0 or self.minor < 0:
            raise ValueError("ordinal components must be non-negative")


def _int64_array(values) -> np.ndarray:
    """`values` as an int64 array, or as objects when one exceeds int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def _value_order(values: np.ndarray) -> np.ndarray:
    """The columns of `values` (rows: majors, minors) in ascending value
    order, by one stable lexsort.  Equal neighbours there are a clash,
    named as a walk of `InjectionSpec.eval` from index 0 would name it."""
    order = np.lexsort(values[::-1])
    tie = (np.diff(values[:, order], axis=1) == 0).all(axis=0)
    if tie.any():
        j = int(order[1:][tie].min())
        p = int(np.flatnonzero((values == values[:, j : j + 1]).all(axis=0))[0])
        v = OrdinalValue(*values[:, j].tolist())
        raise MalformedInjectionError(f"indices {p} and {j} share the value {v}")
    return order


class InjectionSpec:
    """An injection from the naturals into ordinal values below omega*omega.

    `eval` must be a pure total function, so its values are not kept.
    Injectivity cannot be certified up front for a lazily given map, so it
    is checked on demand: `eval` records each value with the first index
    that gave it and raises MalformedInjectionError at a repeat.  A bulk
    read checks the prefix it fills: `value_arrays(n)` holds it as rows of
    majors and minors (int64 unless a component exceeds it), and the one
    sort that ranks them names a clash as `eval` would.
    """

    def __init__(self, eval_fn: Callable[[int], OrdinalValue], description: str = ""):
        self._eval_fn = eval_fn
        self.description = description
        self._seen: dict[OrdinalValue, int] = {}

    def eval(self, i: int) -> OrdinalValue:
        if i < 0:
            raise ValueError("indices are non-negative")
        v = self._eval_fn(i)
        prev = self._seen.setdefault(v, i)
        if prev != i:
            raise MalformedInjectionError(f"indices {prev} and {i} share the value {v}")
        return v

    def value_arrays(self, n: int) -> np.ndarray:
        """f(0), ..., f(n-1) as rows of majors and minors, unchecked."""
        vals = [self._eval_fn(i) for i in range(n)]
        return _int64_array([[v.major for v in vals], [v.minor for v in vals]])

    def values(self, n: int) -> list[OrdinalValue]:
        arrays = self.value_arrays(n)
        _value_order(arrays)
        return list(map(OrdinalValue, *arrays.tolist()))

    def __repr__(self):
        return f"InjectionSpec({self.description or 'anonymous'})"


# ---------------------------------------------------------------------------
# run layouts


@dataclass(frozen=True)
class _Run:
    """Consecutive indices whose values form one arithmetic progression
    lying inside a single gap of every earlier value.

    `above` (G) counts the earlier entries above every member, so the
    member at offset s has G + s earlier entries above it when the run
    descends and G when it ascends.  `length` is math.inf for an
    unbounded run.
    """

    start: int
    length: int | float
    descending: bool
    above: int
    first: int  # value of the member at offset 0
    step: int

    def value(self, s: int) -> int:
        return self.first - s * self.step if self.descending else self.first + s * self.step

    def gained(self, t: int) -> int:
        """Inversions that the first t members add to the prefix before them."""
        return self.above * t + (t * (t - 1) // 2 if self.descending else 0)

    def candidates(self, inv0: int, a: int, b: int) -> list[int]:
        """The prefix lengths in [a, b] where the run can put its minimum
        density: both ends and the integers next to each real root of the
        density's derivative.

        With t = n - start, 2A(n) = 2(inv0 + gained(t)) is a quadratic
        alpha*n^2 + beta*n + gamma, and the derivative of 2A / (n^2 - n)
        has the sign of D(n) = -(alpha + beta)*n^2 - 2*gamma*n + gamma, so
        the density is monotone between the roots of D.
        """
        P, G = self.start, self.above
        if self.descending:
            alpha, beta, gamma = 1, 2 * G - 2 * P - 1, 2 * inv0 - 2 * G * P + P * P + P
        else:
            alpha, beta, gamma = 0, 2 * G, 2 * inv0 - 2 * G * P
        c2, c1, c0 = -(alpha + beta), -2 * gamma, gamma
        floors = []
        if c2:
            disc = c1 * c1 - 4 * c2 * c0
            if disc >= 0:
                # isqrt is off by less than 1, so each root lies within 1/2
                # of its value with isqrt(disc) in place of sqrt(disc)
                s = math.isqrt(disc)
                floors = [(-c1 + d) // (2 * c2) for d in (-s, s)]
        elif c1:
            floors = [-c0 // c1]
        near = {m + k for m in floors for k in (-1, 0, 1, 2)}
        return sorted({a, b} | {m for m in near if a <= m <= b})


class _Layout:
    """Runs in index order, extended lazily, with the inversion count of
    the prefix that ends where each run starts."""

    def __init__(self, runs: Iterator[_Run]):
        self._source = runs
        self.runs: list[_Run] = []
        self.starts: list[int] = []
        self.inv: list[int] = []
        self._failure: Optional[SchemeError] = None  # ends the source for good

    def _extend(self) -> None:
        if self._failure is not None:
            raise self._failure
        try:
            run = next(self._source)
        except SchemeError as err:
            self._failure = err
            raise
        inv0 = 0
        if self.runs:
            last = self.runs[-1]
            inv0 = self.inv[-1] + last.gained(last.length)
        self.runs.append(run)
        self.starts.append(run.start)
        self.inv.append(inv0)

    def cover(self, n: int) -> int:
        """Extend until the runs hold the first n >= 1 indices; return the
        position of the run holding index n - 1."""
        while not self.runs or self.runs[-1].start + self.runs[-1].length < n:
            self._extend()
        return bisect.bisect_right(self.starts, n - 1) - 1

    def iter_runs(self, k: int = 0) -> Iterator[_Run]:
        while True:
            if k == len(self.runs):
                self._extend()
            yield self.runs[k]
            k += 1

    def indices_above(self, bound: int, start: int = 0) -> Iterator[int]:
        """The indices from `start` on whose value exceeds `bound`, in
        increasing order.  In each run they form one offset range: a prefix
        of a descending run, a suffix of an ascending one."""
        for run in self.iter_runs(self.cover(start + 1)):
            if run.descending:  # first - s*step > bound
                lo, hi = 0, -((bound - run.first) // run.step)
            else:  # first + s*step > bound
                lo, hi = (bound - run.first) // run.step + 1, run.length
            lo, hi = max(lo, start - run.start, 0), min(hi, run.length)
            if hi == math.inf:
                yield from itertools.count(run.start + lo)
            elif lo < hi:
                yield from range(run.start + lo, run.start + hi)

    def value(self, i: int) -> int:
        run = self.runs[self.cover(i + 1)]
        return run.value(i - run.start)

    def inversions(self, points: list[int]) -> list[int]:
        """Inversions of each prefix in `points` (ascending), in one walk."""
        self.cover(max(points[-1], 1))
        out, k = [], self.cover(max(points[0], 1))
        for m in points:
            while self.starts[k] + self.runs[k].length < m:
                k += 1
            out.append(self.inv[k] + self.runs[k].gained(m - self.starts[k]))
        return out

    def window_min(self, n_lo: int, n_hi: int) -> tuple[Fraction, int]:
        # run k holds the prefix lengths start+1 .. start+length
        first, last = self.cover(n_lo), self.cover(n_hi)
        best_num, best_den, best_n = 1, 0, -1
        for run, inv0 in zip(self.runs[first : last + 1], self.inv[first : last + 1]):
            a = max(n_lo, run.start + 1)
            b = min(n_hi, run.start + run.length)
            for n in run.candidates(inv0, a, b):
                num = inv0 + run.gained(n - run.start)
                den = n * (n - 1) // 2
                if best_n < 0 or num * best_den < best_num * den:
                    best_num, best_den, best_n = num, den, n
        return Fraction(best_num, best_den), best_n


def _stacked_runs(sizes: Iterator[int]) -> Iterator[_Run]:
    """One descending run per block, each block above every older one."""
    P = 0
    for L in sizes:
        yield _Run(P, L, True, 0, P + L - 1, 1)
        P += L


def _identity_runs() -> Iterator[_Run]:
    """f(i) = i: one unbounded ascending run."""
    return iter([_Run(0, math.inf, False, 0, 0, 1)])


def _factorial_runs() -> Iterator[_Run]:
    """Blocks [0,1), [1,2), [2,6), [6,24), ...: block k ends at k!, values
    descend inside a block and every block sits above the older ones."""
    sizes = (math.factorial(k) - math.factorial(k - 1) for k in itertools.count(2))
    return _stacked_runs(itertools.chain([1], sizes))


class _LayoutInjection(InjectionSpec):
    """The injection i -> (0, value) read off a run layout.  Prefix
    inversion counts come off the runs as well, so a tournament built on
    it counts in closed form, and the indices above any value come off
    them one range per run."""

    def __init__(self, runs: Iterator[_Run], description: str):
        layout = _Layout(runs)
        super().__init__(lambda i: OrdinalValue(0, layout.value(i)), description)
        self.layout = layout

    def value_arrays(self, n: int) -> np.ndarray:
        """(0, value(i)) for i < n, one progression per run."""
        minors = [np.zeros(0, dtype=np.int64)]
        for run in self.layout.runs[: self.layout.cover(n) + 1] if n else ():
            m = min(n, run.start + run.length) - run.start
            big = max(run.value(0), run.value(m - 1), run.step) >> 63
            minors.append(run.value(np.arange(m, dtype=object if big else np.int64)))
        return np.stack([np.zeros(n, dtype=np.int64), np.concatenate(minors)])


def identity_injection() -> InjectionSpec:
    """f(i) = (0, i); the induced tournament is a copy of the reverse chain."""
    return _LayoutInjection(_identity_runs(), "identity")


class _TableInjection(InjectionSpec):
    """A layout tail with the indices table[0] overridden by the values
    (table[1], table[2]); the columns are sorted by index, so a prefix is
    the tail's runs plus one slice of the table."""

    def __init__(self, tail: _LayoutInjection, table: np.ndarray):
        self.table = table[:, np.argsort(table[0], kind="stable")]
        self.tail, self._index, self._tail_value = tail, self.table[0], tail.layout.value
        super().__init__(self._lookup, tail.description)

    def _lookup(self, i: int) -> OrdinalValue:
        k = bisect.bisect_left(self._index, i)
        if k < len(self._index) and self._index[k] == i:
            return OrdinalValue(*self.table[1:, k].tolist())
        return OrdinalValue(0, self._tail_value(i))

    def value_arrays(self, n):
        head = _int64_array(self.table[:, : np.searchsorted(self.table[0], n)])
        out = self.tail.value_arrays(n).astype(head.dtype, copy=False)  # tails fit int64
        out[:, head[0].astype(np.intp)] = head[1:]
        return out


def _with_overrides(runs: Iterator[_Run], table: np.ndarray, description: str) -> InjectionSpec:
    """With an empty table, the layout's own injection, which keeps its
    closed-form counts and exact oracle."""
    tail = _LayoutInjection(runs, description)
    return _TableInjection(tail, table) if table.shape[1] else tail


# ---------------------------------------------------------------------------
# seeded pair mixing


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 33
    x = (x * _MUR_A) & _MASK64
    x ^= x >> 33
    x = (x * _MUR_B) & _MASK64
    x ^= x >> 33
    return x


def _keyed_round(h: int, k: int, mult: int) -> int:
    """One mixing round of h keyed by the index k."""
    return _mix64(h ^ (((k + 1) * mult) & _MASK64))


def pair_hash(seed: int, i: int, j: int) -> int:
    """Deterministic 64-bit hash of an unordered index pair under a seed."""
    h = _mix64((seed & _MASK64) ^ _PHI64)
    return _keyed_round(_keyed_round(h, i, _MIX_A), j, _MIX_B)


def _mix64_inplace(x: np.ndarray) -> None:
    """`_mix64` applied to every entry of a uint64 array, in place."""
    shifted = x >> np.uint64(33)
    x ^= shifted
    x *= np.uint64(_MUR_A)
    np.right_shift(x, np.uint64(33), out=shifted)
    x ^= shifted
    x *= np.uint64(_MUR_B)
    np.right_shift(x, np.uint64(33), out=shifted)
    x ^= shifted


# ---------------------------------------------------------------------------
# tournament oracles


def _pair_mask(j0: int, j1: int) -> np.ndarray:
    """The tile over the rows j0 <= j < j1, width j1 - 1: True where i < j."""
    return np.arange(max(j1 - 1, 0)) < np.arange(j0, j1)[:, None]


class TournamentOracle:
    """A tournament on the naturals, given by a pure orientation oracle.

    Subclasses implement `_forward(i, j)` for i < j only: True when the
    pair is FORWARD, the edge i -> j.  `has_edge` is the one scalar query:
    it normalizes argument order and rejects loops.
    """

    name = "tournament"

    def _forward(self, i: int, j: int) -> bool:
        raise NotImplementedError

    def has_edge(self, a: int, b: int) -> bool:
        """True when the edge a -> b is present."""
        if a == b:
            raise LoopQueryError(f"pair ({a}, {a}) has no orientation")
        if a < 0 or b < 0:
            raise ValueError("vertices are non-negative")
        return self._forward(a, b) if a < b else not self._forward(b, a)

    def orient(self, i: int, j: int) -> Direction:
        return Direction.FORWARD if self.has_edge(i, j) else Direction.BACKWARD

    def forward_row(self, j: int) -> np.ndarray:
        """Boolean array over i < j: True where (i, j) is FORWARD; row j of
        `forward_tile`.

        >>> FactorialBlock().forward_row(8).astype(int).tolist()
        [0, 0, 0, 0, 0, 0, 1, 1]
        """
        return self.forward_tile(j, j + 1)[0]

    def forward_tile(self, j0: int, j1: int) -> np.ndarray:
        """Boolean block over the rows j0 <= j < j1, width j1 - 1: entry
        (r, i) is True where i < j0 + r and (i, j0 + r) is FORWARD.

        The one bulk rule a host may state; this default loops `_forward`.
        """
        tile = np.zeros((j1 - j0, max(j1 - 1, 0)), dtype=bool)
        for r, j in enumerate(range(j0, j1)):
            tile[r, :j] = np.fromiter((self._forward(i, j) for i in range(j)), dtype=bool, count=j)
        return tile

    def forward_pairs_upto(self, n: int) -> Optional[int]:
        """Closed-form count of forward pairs inside the first n vertices.

        Returns None when no closed form is available; callers then count
        tile by tile.
        """
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class TransitiveOmega(TournamentOracle):
    """The transitive tournament on the naturals, edges pointing up."""

    name = "transitive-omega"

    def _forward(self, i, j):
        return True

    def forward_tile(self, j0, j1):
        return _pair_mask(j0, j1)

    def forward_pairs_upto(self, n):
        return n * (n - 1) // 2


class SplitTransitive(TournamentOracle):
    """Two interleaved transitive halves: even vertices ascend among
    themselves, odd vertices descend among themselves, and every even
    vertex beats every odd one.  So a pair i < j is forward exactly when
    i is even, whatever j is.

    Forward neighborhoods of even vertices and backward neighborhoods of
    odd vertices are infinite, so the two sign classes split the vertex
    set into two infinite parts.
    """

    name = "split-transitive"

    def _forward(self, i, j):
        return i % 2 == 0

    def forward_tile(self, j0, j1):
        return _pair_mask(j0, j1) & (np.arange(max(j1 - 1, 0)) % 2 == 0)

    def forward_pairs_upto(self, n):
        # the even index 2t is forward to the n - 1 - 2t indices above it;
        # over the e = (n+1)//2 evens these sum to e * (n - e)
        return ((n + 1) // 2) * (n // 2)


class ExponentialThreshold(TournamentOracle):
    """Forward pairs (i, j) with j + 1 <= 2**(i + 1); density tends to one
    while every vertex keeps a finite out-neighborhood."""

    name = "exp-threshold"

    def _forward(self, i, j):
        # j + 1 <= 2**(i + 1) without building 2**(i + 1)
        return j.bit_length() <= i + 1

    def forward_tile(self, j0, j1):
        # backward exactly for i with 2**(i+1) <= j: the bit_length(j) - 1 lowest
        k = np.array([j.bit_length() - 1 for j in range(j0, j1)], dtype=np.int64)
        return _pair_mask(j0, j1) & (np.arange(max(j1 - 1, 0)) >= k[:, None])

    def forward_pairs_upto(self, n):
        total = n * (n - 1) // 2
        backward = 0
        i = 0
        while True:
            t = 1 << (i + 1)
            if t >= n:
                break
            # pairs (i, j) with i < j < n and j + 1 > 2**(i+1), i.e. j >= t
            backward += n - max(t, i + 1)
            i += 1
        return total - backward


class SeededRandom(TournamentOracle):
    """A random-looking tournament: each pair is an independent fair coin
    keyed by (seed, min, max), so orientations are pure and replayable.

    Of the three mixing rounds of `pair_hash`, the first depends on the
    seed only: it is kept, so an orientation costs two.  The first two
    depend on the seed and the smaller index only: they are kept for every
    index below the widest tile asked for so far, in an array grown by
    doubling, so a tile costs one xor and one round per pair.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.name = f"random:{self.seed}"
        self._h0 = _mix64((self.seed & _MASK64) ^ _PHI64)
        self._by_smaller = np.zeros(0, dtype=np.uint64)

    def _forward(self, i, j):
        return bool(_keyed_round(_keyed_round(self._h0, i, _MIX_A), j, _MIX_B) & 1)

    def _smaller_rounds(self, n: int) -> np.ndarray:
        if self._by_smaller.shape[0] < n:
            m = max(n, 2 * self._by_smaller.shape[0])
            h = np.arange(1, m + 1, dtype=np.uint64)
            h *= np.uint64(_MIX_A)
            h ^= np.uint64(self._h0)
            _mix64_inplace(h)
            self._by_smaller = h
        return self._by_smaller[:n]

    def forward_tile(self, j0, j1):
        w = max(j1 - 1, 0)
        larger = np.arange(j0 + 1, j1 + 1, dtype=np.uint64)
        larger *= np.uint64(_MIX_B)
        h = np.bitwise_xor(self._smaller_rounds(w), larger[:, None])
        _mix64_inplace(h)
        h &= np.uint64(1)
        tile = h.astype(bool)
        if w > j0:  # only i < j is a pair; every column below j0 is one
            tile[:, j0:] &= np.tri(j1 - j0, w - j0, -1, dtype=bool)
        return tile


class OrdinalInjectionTournament(TournamentOracle):
    """Tournament induced by an ordinal injection: for i < j the pair is
    FORWARD exactly when f(i) > f(j), so forward pairs are the inversions."""

    def __init__(self, injection: InjectionSpec):
        self.injection = injection
        self.name = f"injection:{injection.description or 'anonymous'}"
        # a layout is injective by construction, so its integer values are
        # compared without building an ordinal or checking injectivity
        layout = isinstance(injection, _LayoutInjection)
        self._value = injection.layout.value if layout else injection.eval

    def _forward(self, i, j):
        return self._value(i) > self._value(j)

    def forward_tile(self, j0, j1):
        # ranks of f(0), ..., f(j1 - 1), by the sort that names a clash as eval would
        ranks = np.empty(j1, dtype=np.int64)
        ranks[_value_order(self.injection.value_arrays(j1))] = np.arange(j1)
        return _pair_mask(j0, j1) & (ranks[: j1 - 1] > ranks[j0:j1, None])


class FactorialBlock(OrdinalInjectionTournament):
    """Blocks of factorial width, [0,1), [1,2), [2,6), [6,24), ...; forward
    inside a block, backward across.  It is the tournament induced by the
    factorial run layout, whose values descend inside each block while the
    blocks stack upward."""

    def __init__(self):
        super().__init__(_LayoutInjection(_factorial_runs(), "factorial-block reversal"))
        self.name = "factorial-block"


class TransitiveOmegaStar(OrdinalInjectionTournament):
    """The transitive tournament on the naturals, edges pointing down: the
    tournament induced by the identity layout, which has no inversions."""

    def __init__(self):
        super().__init__(identity_injection())
        self.name = "transitive-omega-star"


class TabulatedTournament(TournamentOracle):
    """A finite tournament given explicitly; useful for exhaustive tests.

    `forward` holds the pairs (i, j) with i < j that are FORWARD.
    """

    def __init__(self, n: int, forward: Iterable[tuple[int, int]], name: str = ""):
        self.n = n
        self._pairs = frozenset(forward)
        for (i, j) in self._pairs:
            if not (0 <= i < j < n):
                raise ValueError(f"pair ({i}, {j}) out of range")
        self.name = name or f"tabulated-{n}"

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "TabulatedTournament":
        """Decode the C(n,2) pair orientations from an integer bitmask,
        pairs enumerated in lexicographic order."""
        fwd = []
        idx = 0
        for i in range(n):
            for j in range(i + 1, n):
                if (bits >> idx) & 1:
                    fwd.append((i, j))
                idx += 1
        return cls(n, fwd, name=f"tabulated-{n}-{bits:x}")

    def _forward(self, i, j):
        if j >= self.n:
            raise ValueError(f"vertex {j} outside tabulated range {self.n}")
        return (i, j) in self._pairs


# ---------------------------------------------------------------------------
# graphs

# closure expansions a budgeted exploration of a presented graph may spend
DEFAULT_BUDGET = 10_000


def _search(step, sources, budget: int, reached: set[int]) -> tuple[set[int], int, bool]:
    """Depth-first search from the sources along `step`, expanding at most
    `budget` vertices.  Returns `reached`, grown in place and never copied,
    the expansions spent, and whether the search finished."""
    frontier = list(sources)
    reached.update(frontier)
    spent = 0
    while frontier:
        if spent >= budget:
            return reached, spent, False
        spent += 1
        for w in step(frontier.pop()):
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached, spent, True


def _sign_step(G, sign: str) -> Callable[[int], Sequence[int]]:
    """The neighbors of a sign: '+' follows out-edges, '-' in-edges."""
    if sign not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    return G.out_neighbors if sign == "+" else G.in_neighbors


def _weak_roots(G, vertices: Iterable[int], budget: int) -> Iterator[int]:
    """The least vertex of each weak component of G, in increasing order.

    A root is yielded before its component is searched, along in- and
    out-edges; a component needing more than `budget` expansions ends the
    stream, since no later vertex is then known to lie outside it."""
    seen: set[int] = set()  # reached, and not yet passed by the walk
    weak = lambda x: itertools.chain(G.in_neighbors(x), G.out_neighbors(x))
    for v in vertices:
        if v in seen:
            seen.remove(v)  # the components left to search lie above v
            continue
        yield v
        if not _search(weak, (v,), budget, seen)[2]:
            return
        seen.remove(v)


class FiniteOrientedGraph:
    """A finite oriented graph: no loops, at most one edge per vertex pair."""

    is_finite = True

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], name: str = ""):
        self.n = n
        self.edges = frozenset((int(u), int(v)) for u, v in edges)
        self.name = name or f"graph-{n}"
        outs: list[list[int]] = [[] for _ in range(n)]
        ins: list[list[int]] = [[] for _ in range(n)]
        for (u, v) in self.edges:
            if u == v:
                raise GraphFormatError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range")
            if (v, u) in self.edges:
                raise GraphFormatError(f"both orientations of {{{u}, {v}}} present")
            outs[u].append(v)
            ins[v].append(u)
        self._out = [tuple(sorted(s)) for s in outs]
        self._in = [tuple(sorted(s)) for s in ins]

    @property
    def vertices(self) -> range:
        return range(self.n)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def component_roots(self, budget: int = DEFAULT_BUDGET) -> Iterator[int]:
        """The least vertex of each weak component, in increasing order;
        exact, since no component passes n vertices."""
        return _weak_roots(self, range(self.n), self.n)

    def __repr__(self):
        return f"<FiniteOrientedGraph {self.name}: n={self.n}, m={len(self.edges)}>"


class PresentedGraph:
    """A countably infinite oriented graph given by a neighbor generator.

    `adjacency(v)` returns the pair (in_neighbors, out_neighbors) as finite
    tuples and must be a pure total function; results are cached.  A
    generator that knows it contains an infinite directed path can certify
    that, making the avoidability of the graph decidable without
    exploration.  `component_roots(budget)` streams the least vertex of
    each weak component, found by searching the adjacency; a component
    that passes the budget ends the stream, so a weakly connected infinite
    graph hands out vertex 0 alone.
    """

    is_finite = False

    def __init__(
        self,
        adjacency: Callable[[int], tuple[Sequence[int], Sequence[int]]],
        name: str = "presented",
        certified_infinite_path: bool = False,
    ):
        self._adjacency = adjacency
        self.name = name
        self.certified_infinite_path = certified_infinite_path
        self._cache: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def _entry(self, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        e = self._cache.get(v)
        if e is None:
            ins, outs = self._adjacency(v)
            e = (tuple(ins), tuple(outs))
            self._cache[v] = e
        return e

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._entry(v)[0]

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._entry(v)[1]

    def component_roots(self, budget: int = DEFAULT_BUDGET) -> Iterator[int]:
        return _weak_roots(self, itertools.count(), budget)

    def __repr__(self):
        return f"<PresentedGraph {self.name}>"


def forward_path() -> PresentedGraph:
    """The infinite directed path 0 -> 1 -> 2 -> ...; avoidable, and the
    generator says so via an infinite-path certificate."""

    def adj(v: int):
        return ((v - 1,) if v > 0 else (), (v + 1,))

    return PresentedGraph(
        adj,
        name="forward-path",
        certified_infinite_path=True,
    )


def anti_path() -> PresentedGraph:
    """The infinite anti-directed path 0 -> 1 <- 2 -> 3 <- 4 ...; acyclic,
    locally finite, and free of infinite directed paths."""

    def adj(v: int):
        if v % 2 == 0:
            outs = (v + 1,) if v == 0 else (v - 1, v + 1)
            return ((), outs)
        return ((v - 1, v + 1), ())

    return PresentedGraph(adj, name="anti-path")


def out_stars() -> PresentedGraph:
    """Infinitely many disjoint out-stars: 3k -> 3k+1 and 3k -> 3k+2."""

    def adj(v: int):
        r = v % 3
        if r == 0:
            return ((), (v + 1, v + 2))
        return ((v - r,), ())

    return PresentedGraph(adj, name="out-stars")


class _DiagonalLayout:
    """Interleaved enumeration of component-local vertices.

    Component k has size 1 + (k % 4); ids are dealt along diagonals
    (k + t constant), so consecutive ids hop between components.
    """

    def __init__(self):
        self._id_of: dict[tuple[int, int], int] = {}
        self._pair_of: list[tuple[int, int]] = []
        self._next_diag = 0

    @staticmethod
    def size(k: int) -> int:
        return 1 + (k % 4)

    def _extend(self):
        d = self._next_diag
        # t = d - k < size(k) <= 4, so only the last four components qualify
        for k in range(max(0, d - 3), d + 1):
            t = d - k
            if t < self.size(k):
                self._id_of[(k, t)] = len(self._pair_of)
                self._pair_of.append((k, t))
        self._next_diag += 1

    def pair(self, v: int) -> tuple[int, int]:
        while v >= len(self._pair_of):
            self._extend()
        return self._pair_of[v]

    def ident(self, k: int, t: int) -> int:
        while (k, t) not in self._id_of:
            self._extend()
        return self._id_of[(k, t)]


def interleaved_forest() -> PresentedGraph:
    """An infinite forest of small components whose vertex ids interleave.

    Even components are short forward chains, odd components alternate
    orientation, so the forest mixes sources and sinks.
    """
    layout = _DiagonalLayout()

    def points_forward(k: int, t: int) -> bool:
        # edge between local t and t+1
        return (k % 2 == 0) or (t % 2 == 0)

    def adj(v: int):
        k, t = layout.pair(v)
        size = layout.size(k)
        ins, outs = [], []
        if t + 1 < size:
            w = layout.ident(k, t + 1)
            (outs if points_forward(k, t) else ins).append(w)
        if t > 0:
            w = layout.ident(k, t - 1)
            (ins if points_forward(k, t - 1) else outs).append(w)
        return (tuple(ins), tuple(outs))

    return PresentedGraph(adj, name="interleaved-forest")


# vertices in the largest block of a `random_presented` graph
_MAX_BLOCK = 6


class _RandomBlockChain:
    """Seeded acyclic presented graph: random DAG blocks of 1 to _MAX_BLOCK
    vertices joined by alternating connectors, so directed paths never
    cross two connectors.  Blocks are hashed _BATCH at a time, in arrays
    as SeededRandom tiles are; block g keeps its pair bits as one int, bit
    a*_MAX_BLOCK + b being pair_hash(seed, g, 1 + a*_MAX_BLOCK + b) & 1."""

    _BATCH = 32

    def __init__(self, seed: int):
        self._h0 = np.uint64(_mix64((seed & _MASK64) ^ _PHI64))
        self._starts = [0]  # block g occupies [starts[g], starts[g+1])
        self._pairs: list[int] = []

    def block_of(self, v: int) -> int:
        while self._starts[-1] <= v:  # hash the next _BATCH blocks
            g = len(self._pairs)
            h = np.arange(g + 1, g + self._BATCH + 1, dtype=np.uint64) * np.uint64(_MIX_A)
            h ^= self._h0
            _mix64_inplace(h)  # pair_hash's first two rounds, one per block
            k1 = np.arange(1, _MAX_BLOCK * (_MAX_BLOCK - 1) + 2, dtype=np.uint64)  # k + 1, key k
            h = h[:, None] ^ k1 * np.uint64(_MIX_B)
            _mix64_inplace(h)  # the last round, one per block and key
            sizes = h[:, 0] % np.uint64(_MAX_BLOCK) + np.uint64(1)
            self._starts += (np.cumsum(sizes) + np.uint64(self._starts[-1])).tolist()
            h[:, 1:] &= np.uint64(1)
            h[:, 1:] <<= k1[:-1] - np.uint64(1)  # key k to bit k - 1
            self._pairs += np.bitwise_or.reduce(h[:, 1:], axis=1).tolist()
        return bisect.bisect_right(self._starts, v) - 1

    def adjacency(self, v: int):
        g = self.block_of(v)
        lo, hi, bits = self._starts[g], self._starts[g + 1], self._pairs[g]
        off = v - lo  # offsets a < b of a block: edges point low -> high
        ins = [lo + a for a in range(off) if bits >> (a * _MAX_BLOCK + off) & 1]
        outs = [lo + b for b in range(off + 1, hi - lo) if bits >> (off * _MAX_BLOCK + b) & 1]
        # connector between g and g+1: even g points right, odd g points left
        if v == hi - 1:
            (outs if g % 2 == 0 else ins).append(hi)
        if v == lo and g > 0:
            (ins if g % 2 == 1 else outs).insert(0, lo - 1)
        return tuple(ins), tuple(outs)


def random_presented(seed: int) -> PresentedGraph:
    """A seeded acyclic presented graph with bounded degrees and no
    infinite directed path.

    It is not weakly connected in general: a block's random pairs can
    split it, and the connector edges then join only some of its parts
    (in random-graph:5, vertex 1 is isolated).  Its component roots are
    the ones every presented graph finds by weak search; the stream ends
    only at a component that passes the budget.
    """
    chain = _RandomBlockChain(seed)
    return PresentedGraph(chain.adjacency, name=f"random-graph:{seed}")


_HOST_FAMILIES = {
    "transitive-omega": TransitiveOmega,
    "transitive-omega-star": TransitiveOmegaStar,
    "factorial-block": FactorialBlock,
    "split-transitive": SplitTransitive,
    "exp-threshold": ExponentialThreshold,
}

_GRAPH_FAMILIES = {
    "forward-path": forward_path,
    "anti-path": anti_path,
    "out-stars": out_stars,
    "interleaved-forest": interleaved_forest,
}


def _seed(name: str) -> int:
    """The seed of a name 'family:seed'."""
    try:
        return int(name.split(":", 1)[1])
    except ValueError as e:
        raise GraphFormatError(f"bad seed in {name!r}") from e


def presented_from_name(name: str) -> PresentedGraph:
    """Resolve a presented-graph family name."""
    if name in _GRAPH_FAMILIES:
        return _GRAPH_FAMILIES[name]()
    if name.startswith("random-graph:"):
        return random_presented(_seed(name))
    raise GraphFormatError(f"unknown graph family {name!r}")


def read_graph_file(path: str) -> FiniteOrientedGraph:
    """Parse the edge-list format: a header 'n m', then m lines 'u v' with
    1-based vertex labels."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphFormatError(f"{path}: missing 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        if min(n, m) < 0:
            raise ValueError("negative count")
    except ValueError as e:
        raise GraphFormatError(f"{path}: bad header") from e
    body = tokens[2:]
    if len(body) != 2 * m:
        raise GraphFormatError(f"{path}: expected {2 * m} endpoints, got {len(body)}")
    edges = []
    for t in range(m):
        try:
            u, v = int(body[2 * t]), int(body[2 * t + 1])
        except ValueError as e:
            raise GraphFormatError(f"{path}: bad edge line {t + 1}") from e
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"{path}: edge ({u}, {v}) outside 1..{n}")
        edges.append((u - 1, v - 1))
    return FiniteOrientedGraph(n, edges, name=path)


_TAIL_RUNS = {"identity": _identity_runs, "factorial": _factorial_runs}


def read_injection_file(path: str) -> InjectionSpec:
    """Parse an injection file: lines 'i major minor' (1-based i) overriding
    a named tail scheme given by at most one line 'tail identity|factorial'.

    The tail is the run layout of that scheme, so a file without overrides
    counts its prefix inversions in closed form.  Overrides are read as
    plain integers into the table's arrays, with no OrdinalValue per line.
    An index given twice or a second tail line is a format error.
    """
    table: list[int] = []  # index, major, minor of each override in turn
    given: set[int] = set()
    tail_name, tail_line = "identity", None
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if not parts:
                continue
            if parts[0] == "tail":
                if len(parts) != 2:
                    raise GraphFormatError(f"{path}:{ln}: bad tail line")
                if tail_line is not None:
                    raise GraphFormatError(
                        f"{path}:{ln}: second tail line (the first is line {tail_line})"
                    )
                tail_name, tail_line = parts[1], ln
                continue
            if len(parts) != 3:
                raise GraphFormatError(f"{path}:{ln}: expected 'i major minor'")
            try:
                i, a, b = map(int, parts)
            except ValueError as e:
                raise GraphFormatError(f"{path}:{ln}: bad integers") from e
            if i < 1:
                raise GraphFormatError(f"{path}:{ln}: index must be >= 1")
            if i in given:
                raise GraphFormatError(f"{path}:{ln}: index {i} given twice")
            if a < 0 or b < 0:
                raise GraphFormatError(f"{path}:{ln}: ordinal components must be non-negative")
            given.add(i)
            table += (i - 1, a, b)
    if tail_name not in _TAIL_RUNS:
        raise GraphFormatError(f"{path}: unknown tail scheme {tail_name!r}")
    table = _int64_array(table).reshape(-1, 3).T
    return _with_overrides(_TAIL_RUNS[tail_name](), table, f"file:{path}")


def binomial2(n: int) -> int:
    """C(n, 2) as an exact integer."""
    return n * (n - 1) // 2


def exact_density(forward: int, n: int) -> Fraction:
    """forward / C(n, 2) as an exact fraction; requires n >= 2."""
    if n < 2:
        raise ValueError("density needs at least two vertices")
    return Fraction(forward, binomial2(n))
