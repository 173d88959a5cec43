"""Inversion kernel tests: frozen counts, brute cross-checks, rank paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourlab.core import InjectionSpec, OrdinalValue
from tourlab.counting import (
    inversion_prefix,
    inversions_brute,
    inversions_upto,
    prior_greater_counts,
    ranks_of_values,
)


def list_injection(minors, majors=None):
    majors = majors or [0] * len(minors)
    vals = [OrdinalValue(m, x) for m, x in zip(majors, minors)]
    return InjectionSpec(lambda i: vals[i], description="listed")


def test_prior_greater_frozen():
    assert list(prior_greater_counts(np.array([0, 1, 2]))) == [0, 0, 0]
    assert list(prior_greater_counts(np.array([2, 1, 0]))) == [0, 1, 2]
    assert list(prior_greater_counts(np.array([1, 0, 2]))) == [0, 1, 0]


def test_prior_greater_range_check():
    with pytest.raises(ValueError):
        prior_greater_counts(np.array([0, 5]))
    with pytest.raises(ValueError):
        prior_greater_counts(np.array([-1, 0]))


def test_empty_and_singleton():
    assert prior_greater_counts(np.zeros(0, dtype=np.int64)).size == 0
    assert list(prior_greater_counts(np.array([0]))) == [0]
    assert inversions_upto(list_injection([3, 1]), 0) == 0
    assert inversions_upto(list_injection([3, 1]), 1) == 0


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(40))))
def test_kernel_matches_brute(perm):
    f = list_injection(perm)
    assert inversions_upto(f, len(perm)) == inversions_brute(f, len(perm))


def _prior_greater_quadratic(ranks):
    return [sum(1 for i in range(j) if ranks[i] > ranks[j]) for j in range(len(ranks))]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 300).flatmap(lambda n: st.permutations(list(range(n)))))
def test_prior_greater_matches_quadratic_per_position(perm):
    # sizes 0..300 cross several powers of two, so every bit level of the
    # kernel sees full and ragged rank groups
    got = prior_greater_counts(np.array(perm, dtype=np.int64))
    assert got.dtype == np.int64
    assert list(got) == _prior_greater_quadratic(perm)


def test_inversion_prefix_entries():
    # f = (3, 1, 4, 2): prefixes have 0, 1, 1, 3 inversions
    f = list_injection([3, 1, 4, 2])
    cum = inversion_prefix(f, 4)
    assert list(cum) == [1, 1, 3]
    assert inversion_prefix(f, 1).size == 0


def test_ranks_fast_path_matches_fallback():
    # int64 rows and the object rows kept for values beyond int64 rank
    # alike, and as a Python sort of the (major, minor) pairs does
    minors = [9, 2, 7, 0, 4]
    majors = [1, 0, 1, 2, 0]
    fast = ranks_of_values(np.array([majors, minors]))  # one lexsort
    objects = ranks_of_values(np.array([majors, minors], dtype=object))
    order = sorted(range(5), key=lambda i: (majors[i], minors[i]))
    assert list(fast) == list(objects) == [order.index(i) for i in range(5)]


def test_ranks_bigint_fallback():
    big = 1 << 200
    arrays = list_injection([big * 3, big, big * 2]).value_arrays(3)
    assert arrays.dtype == object
    assert list(ranks_of_values(arrays)) == [2, 0, 1]


def test_identity_and_reversal_counts():
    n = 500
    ident = list_injection(list(range(n)))
    rev = list_injection(list(range(n - 1, -1, -1)))
    assert inversions_upto(ident, n) == 0
    assert inversions_upto(rev, n) == n * (n - 1) // 2
