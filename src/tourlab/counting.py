"""Inversion counting kernels.

Everything funnels into one primitive: given the ranks of a sequence in
its value order, count for each position how many earlier entries have a
strictly larger rank.  An injection's prefix is ranked by one lexsort of
its majors and minors (`InjectionSpec.value_arrays`), which also finds a
clash, and one vectorized numpy kernel counts in O(n log n) by walking the
rank bits from the most significant down; it needs no JIT.  A run
layout's injection needs neither: its counts come off its runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import InjectionSpec, _LayoutInjection, _value_order


def prior_greater_counts(ranks: Sequence[int]) -> np.ndarray:
    """out[j] = #{i < j : ranks[i] > ranks[j]} for a rank array (a
    permutation of 0..n-1, or any injective non-negative int64 sequence
    bounded by n).

    An earlier entry i outranks a later entry j exactly when, at the
    highest bit where their ranks differ, i has a 1 and j a 0.  So the
    entries are kept grouped by the rank bits above the current bit b, in
    index order inside each group.  At bit b every entry with a 0 there
    gains the number of earlier 1-entries of its group (one cumsum), and
    each group is then split stably into its 0-half and its 1-half.  After
    the last bit the entries stand in stable rank order.
    """
    arr = np.ascontiguousarray(ranks, dtype=np.int64)
    n = arr.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("ranks must lie in [0, n)")
    # below[v] = #{i : ranks[i] < v}: where the group of ranks >= v starts
    below = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(arr, minlength=n), out=below[1:])
    pos = np.arange(n, dtype=np.int64)
    r = arr.copy()  # ranks in the current arrangement
    acc = np.zeros(n, dtype=np.int64)  # counts in the current arrangement
    for b in reversed(range(int(n - 1).bit_length())):
        bit = (r >> b) & 1
        ones = np.cumsum(bit)
        ones -= bit
        ones -= ones[below[(r >> (b + 1)) << (b + 1)]]  # 1-entries before, in group
        zero = bit == 0
        acc += np.where(zero, ones, 0)
        new_pos = np.where(zero, pos - ones, below[(r >> b) << b] + ones)
        r[new_pos] = r.copy()
        acc[new_pos] = acc.copy()
    out = np.empty(n, dtype=np.int64)
    out[np.argsort(arr, kind="stable")] = acc
    return out


def ranks_of_values(values: np.ndarray) -> np.ndarray:
    """Dense ranks (0 = smallest) of a prefix's values, given as rows of
    majors and minors: one lexsort, which also raises
    MalformedInjectionError on a clash."""
    order = _value_order(values)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order), dtype=np.int64)
    return ranks


def inversion_prefix(f: InjectionSpec, n: int) -> np.ndarray:
    """Cumulative inversion counts of f: entry m-2 is the number of pairs
    i < j < m with f(i) > f(j), for m = 2..n.

    The counts are summed as int64.  A prefix of n holds at most
    C(n, 2) inversions, which stays below 2^63 for every n under about
    4.29 * 10^9, so the n values themselves exhaust memory long before a
    sum could overflow.  Catalogue schemes need no such bound: their
    counts come from run layouts as Python integers.
    """
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    return np.cumsum(prior_greater_counts(ranks_of_values(f.value_arrays(n)))[1:])


def _prefix_inversions(f: InjectionSpec, points: list[int]) -> list[int]:
    """Inversions of f inside each prefix in `points` (ascending, each at
    least 2): one walk over the runs when f is a run layout's injection,
    the kernel's cumulative counts otherwise."""
    if isinstance(f, _LayoutInjection):
        return f.layout.inversions(points)
    cum = inversion_prefix(f, points[-1])
    return [int(cum[m - 2]) for m in points]


def inversions_upto(f: InjectionSpec, n: int) -> int:
    """Number of pairs i < j < n with f(i) > f(j); a clash inside the
    prefix raises MalformedInjectionError."""
    return _prefix_inversions(f, [n])[0] if n >= 2 else 0


def inversions_brute(f: InjectionSpec, n: int) -> int:
    """Quadratic reference count, for cross-checking the kernel."""
    vals = f.values(n)
    return sum(
        1 for j in range(n) for i in range(j) if vals[i] > vals[j]
    )

