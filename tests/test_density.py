"""Density profiles, rank decompositions, and block-scheme search."""

import dataclasses
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourlab.core import (
    ExponentialThreshold,
    FactorialBlock,
    InjectionSpec,
    OrdinalInjectionTournament,
    OrdinalValue,
    SeededRandom,
    TabulatedTournament,
    TournamentOracle,
    TransitiveOmega,
    TransitiveOmegaStar,
    _LayoutInjection,
    read_injection_file,
)
import tourlab.counting as counting
import tourlab.density as density
from tourlab.counting import (
    inversion_prefix,
    inversions_brute,
    inversions_upto,
    prior_greater_counts,
    ranks_of_values,
)
from tourlab.density import (
    BLOCK_PATTERNS,
    DensityProfile,
    density_profile,
    dominance_check,
    factorial_scheme,
    forward_pair_count,
    inversion_density_profile,
    make_block_scheme,
    optimize_scheme,
    rank_decompose,
    window_min_density,
)
from tourlab.errors import MalformedInjectionError, SchemeError


def sorted_ranks(values):
    """Ranks of comparable values by a Python sort: the reference for the
    one lexsort that ranks value arrays."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    return ranks


def injection_from_minors(minors):
    vals = [OrdinalValue(0, m) for m in minors]
    return InjectionSpec(lambda i: vals[i], description="listed")


def random_injection(seed, n):
    rng = np.random.default_rng(seed)
    minors = rng.permutation(n)
    majors = rng.integers(0, 4, size=n)
    vals = [OrdinalValue(int(a), int(m)) for a, m in zip(majors, minors)]
    return InjectionSpec(lambda i: vals[i], description=f"random:{seed}")


def quad_inversions(ranks):
    # independent quadratic count, no shared kernel code
    r = np.asarray(ranks)
    return int(np.sum(np.triu(r[:, None] > r[None, :], k=1)))


class OpaqueInjectionTournament(TournamentOracle):
    """Same orientation rule as the injection tournament but without the
    type the fast path dispatches on, so profiles go the generic route."""

    def __init__(self, f):
        self._f = f
        self.name = "opaque"
        self._values = []  # f(0), f(1), ...; tiles evaluate each index once

    def _forward(self, i, j):
        return self._f.eval(i) > self._f.eval(j)

    def forward_tile(self, j0, j1):
        while len(self._values) < j1:
            self._values.append(self._f.eval(len(self._values)))
        tile = np.zeros((j1 - j0, max(j1 - 1, 0)), dtype=bool)
        for r, j in enumerate(range(j0, j1)):
            vj = self._values[j]
            tile[r, :j] = np.fromiter((v > vj for v in self._values[:j]), dtype=bool, count=j)
        return tile


# ---------------------------------------------------------------------------
# pair counts and profiles


def test_forward_pair_count_frozen():
    assert forward_pair_count(TransitiveOmega(), 5) == 10
    assert forward_pair_count(TransitiveOmegaStar(), 5) == 0
    # blocks [0,1), [1,2), [2,6) are complete at n=6: only the width-4
    # block contributes pairs
    assert forward_pair_count(FactorialBlock(), 6) == 6


def test_forward_pair_count_requires_two():
    with pytest.raises(ValueError):
        forward_pair_count(TransitiveOmega(), 1)


def test_exp_threshold_density_high():
    n = 4096
    d = Fraction(forward_pair_count(ExponentialThreshold(), n), n * (n - 1) // 2)
    assert d >= Fraction(97, 100)


def test_profile_sample_points():
    p = density_profile(SeededRandom(1), 300, stride=50)
    assert [n for n, _ in p.samples] == [50, 100, 150, 200, 250, 300]
    p = density_profile(SeededRandom(1), 10, stride=50)
    assert [n for n, _ in p.samples] == [10]
    p = density_profile(SeededRandom(1), 7, stride=3)
    assert [n for n, _ in p.samples] == [3, 6, 7]
    with pytest.raises(ValueError):
        density_profile(SeededRandom(1), 1)
    with pytest.raises(ValueError):
        density_profile(SeededRandom(1), 10, stride=0)


def test_profile_entries_exact():
    p = density_profile(SeededRandom(7), 120, stride=17)
    assert [n for n, _ in p.counts] == [n for n, _ in p.samples]
    for (n, fwd), (_, dens) in zip(p.counts, p.samples):
        assert dens == Fraction(fwd, n * (n - 1) // 2)
        assert 0 <= dens <= 1


def test_injection_and_closed_form_paths_agree():
    # the opaque copy accumulates rows pair by pair from the values
    via_rows = density_profile(OpaqueInjectionTournament(FactorialBlock().injection), 200)
    via_closed = density_profile(FactorialBlock(), 200)
    assert [d for _, d in via_rows.samples] == [d for _, d in via_closed.samples]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(10, 250))
def test_inversion_identity_shared_orientation(seed, n):
    # the tournament induced by f and the inversion profile of f give the
    # same exact rationals at every prefix, even when the tournament is
    # presented opaquely and profiled pair by pair
    f = random_injection(seed, n)
    a = density_profile(OpaqueInjectionTournament(f), n, stride=37)
    b = inversion_density_profile(f, n, stride=37)
    assert a.samples == b.samples


def test_inversion_identity_independent_quadratic():
    for seed in (3, 4, 5):
        f = random_injection(seed, 2000)
        ranks = sorted_ranks(f.values(2000))
        assert inversions_upto(f, 2000) == quad_inversions(ranks)


def test_inversion_count_rejects_collisions():
    vals = [OrdinalValue(0, 1), OrdinalValue(0, 2), OrdinalValue(0, 1)]
    f = InjectionSpec(lambda i: vals[i], description="collide")
    with pytest.raises(MalformedInjectionError):
        inversions_upto(f, 3)


def test_inversion_frozen_examples():
    n = 40
    assert inversions_upto(injection_from_minors(range(n)), n) == 0
    assert inversions_upto(injection_from_minors(range(n - 1, -1, -1)), n) == n * (n - 1) // 2
    assert inversions_upto(injection_from_minors([3, 1, 4, 2]), 4) == 3


# ---------------------------------------------------------------------------
# rank decomposition


def recompute_levels(K, n):
    # direct recursion straight off the level definition
    alpha = [0] * n
    for i in range(n - 1, -1, -1):
        outs = [alpha[j] for j in range(i + 1, n) if K.has_edge(i, j)]
        alpha[i] = 1 + max(outs) if outs else 0
    return alpha


def test_rank_decompose_reverse_chain():
    d = rank_decompose(TransitiveOmegaStar(), 40)
    assert d.levels == 1
    assert not d.alpha.any()
    assert dominance_check(TransitiveOmegaStar(), d, 40)


def test_rank_decompose_forward_chain():
    n = 50
    d = rank_decompose(TransitiveOmega(), n)
    assert d.levels == n
    assert list(d.alpha) == [n - 1 - i for i in range(n)]
    assert dominance_check(TransitiveOmega(), d, n)


def test_rank_decompose_empty_prefix():
    with pytest.raises(ValueError):
        rank_decompose(TransitiveOmega(), 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 120))
def test_rank_decompose_matches_direct_recursion(seed, n):
    K = SeededRandom(seed)
    d = rank_decompose(K, n)
    assert list(d.alpha) == recompute_levels(K, n)
    assert d.levels == max(recompute_levels(K, n)) + 1
    assert sum(d.level_sizes()) == n
    assert dominance_check(K, d, n)


@pytest.mark.parametrize(
    "walk",
    [
        lambda: rank_decompose(TransitiveOmega(), 10_000).levels == 10_000,
        lambda: dominance_check(
            SeededRandom(3), rank_decompose(SeededRandom(3), 10_000), 10_000
        ),
        lambda: len(density_profile(SeededRandom(3), 10_000, stride=100)) == 100,
    ],
    ids=["rank-transitive-omega", "rank-random", "profile-random"],
)
def test_rank_decompose_memory_is_linear(walk):
    # the n x n forward matrix alone would take about 95 MB here; the row
    # walks hold one tile at a time
    tracemalloc.start()
    try:
        ok = walk()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 10 * 2 ** 20


# per-row walks, one forward row per numpy call: the slow references
# for the tiled walks


def rank_levels_by_rows(K, n):
    alpha = np.zeros(n, dtype=np.int64)
    for j in range(n - 1, 0, -1):
        head = alpha[:j]
        np.maximum(head, np.where(K.forward_row(j), alpha[j] + 1, 0), out=head)
    return alpha


def dominance_by_rows(K, alpha, n):
    for j in range(1, n):
        row = K.forward_row(j)
        if row.any() and not bool(np.all(alpha[:j][row] > alpha[j])):
            return False
    return True


@pytest.fixture(params=["budget", "small-budget"])
def tile_budget(request, monkeypatch):
    # a budget of 64 elements cuts small tournaments into many tiles
    if request.param == "small-budget":
        monkeypatch.setattr(density, "TILE_ELEMENTS", 64)


@pytest.mark.parametrize(
    "K, n",
    [
        (SeededRandom(11), 1),
        (SeededRandom(11), 2),
        (SeededRandom(11), 3000),
        (TabulatedTournament.from_bits(40, 0x5DEECE66D ** 17), 40),
        (TabulatedTournament.from_bits(9, 0b101100111010011100101100111011), 9),
    ],
    ids=["random-1", "random-2", "random-3000", "tabulated-40", "tabulated-9"],
)
@pytest.mark.usefixtures("tile_budget")
def test_tiled_walks_match_row_walks(K, n):
    # a tabulated tournament takes the default tile, stacked from its rows
    d = rank_decompose(K, n)
    want = rank_levels_by_rows(K, n)
    assert d.alpha.tolist() == want.tolist()
    assert d.levels == int(want.max()) + 1
    assert dominance_by_rows(K, d.alpha, n)
    assert dominance_check(K, d, n)


def _plant_failure(K, d, j):
    """d with alpha[j] raised to the lowest level among j's forward
    in-neighbours: row j, and no other row, breaks dominance."""
    row = K.forward_row(j)
    assert row.any()
    alpha = d.alpha.copy()
    alpha[j] = alpha[:j][row].min()
    return dataclasses.replace(d, alpha=alpha)


@pytest.mark.parametrize("where", ["middle", "last"])
def test_dominance_finds_a_failure_anywhere_in_a_tile(where):
    K, n = SeededRandom(11), 3000
    d = rank_decompose(K, n)
    tiles = density._tiles(n)
    j0, j1 = tiles[len(tiles) // 2]
    assert j1 - j0 >= 3
    j = (j0 + j1) // 2 if where == "middle" else j1 - 1
    broken = _plant_failure(K, d, j)
    assert not dominance_by_rows(K, broken.alpha, n)
    assert not dominance_check(K, broken, n)


@pytest.mark.usefixtures("tile_budget")
def test_row_counts_match_row_sums_at_tile_edges():
    K, n = SeededRandom(4), 1500
    edges = [j0 for j0, _ in density._tiles(n)][1:]
    points = sorted({m for e in edges for m in (e - 1, e, e + 1) if 2 <= m <= n} | {n})
    by_rows = np.cumsum([0] + [int(K.forward_row(j).sum()) for j in range(1, n)])
    assert density._forward_counts(K, points) == [int(by_rows[m - 1]) for m in points]
    p = density_profile(K, n, stride=edges[0])
    assert p.counts == tuple((m, int(by_rows[m - 1])) for m, _ in p.counts)


def test_decomposition_levels_are_tight():
    # a vertex at level a > 0 must see a forward out-neighbor at a - 1,
    # otherwise its level would not be minimal
    K = SeededRandom(5)
    n = 200
    d = rank_decompose(K, n)
    for i in range(n):
        a = int(d.alpha[i])
        if a == 0:
            continue
        below = [int(d.alpha[j]) for j in range(i + 1, n) if K.has_edge(i, j)]
        assert max(below) == a - 1


def test_induced_injection_inverts_forward_pairs():
    K = SeededRandom(5)
    n = 200
    d = rank_decompose(K, n)
    vals = d.induced_injection.values(n)
    for j in range(1, n):
        for i in np.nonzero(K.forward_row(j))[0]:
            assert vals[int(i)] > vals[j]


def _factorial_value(i):
    """Tail value of i in the factorial layout by block arithmetic: the
    block [a, b) holding i, blocks ending at 1!, 2!, 3!, ..., takes the
    values a .. b - 1 in descending order."""
    a, b, k = 0, 1, 1
    while i >= b:
        a, b, k = b, b * (k + 1), k + 1
    return a + b - 1 - i


def _override_reference(tail, overrides):
    """Reference for an injection file: each index looked up in the
    overrides, then in the tail at level zero."""

    def f(i):
        got = overrides.get(i)
        return got if got is not None else OrdinalValue(0, tail(i))

    return InjectionSpec(f, description="reference")


def _rank_reference(alpha):
    """Reference for a rank decomposition's injection: (level, i) inside
    the prefix, (0, i) beyond it."""
    n = len(alpha)
    return InjectionSpec(
        lambda i: OrdinalValue(int(alpha[i]), i) if i < n else OrdinalValue(0, i),
        description="reference",
    )


@pytest.mark.parametrize(
    "tail_name, tail, overrides",
    [
        # level-zero values that land between tail values: a swap, and
        # values whose own tail index lies past the prefix
        ("identity", lambda i: i, {3: (0, 4), 4: (0, 3), 7: (0, 500), 11: (0, 90)}),
        ("factorial", _factorial_value, {2: (0, 2), 5: (0, 5), 9: (0, 60), 14: (0, 5000)}),
        # higher levels, and overrides past the prefix
        ("identity", lambda i: i, {0: (2, 0), 6: (1, 3), 45: (3, 3), 900: (1, 0)}),
        ("factorial", _factorial_value, {3: (1, 0), 1: (1, 7), 9: (2, 2), 60: (0, 2)}),
    ],
    ids=["identity-level-zero", "factorial-level-zero", "identity-levels",
         "factorial-levels"],
)
def test_injection_file_matches_override_reference(tmp_path, tail_name, tail, overrides):
    n = 40
    p = tmp_path / "over.inj"
    p.write_text(
        f"tail {tail_name}\n" + "".join(f"{i + 1} {a} {b}\n" for i, (a, b) in overrides.items())
    )
    f = read_injection_file(str(p))
    ref = _override_reference(tail, {i: OrdinalValue(*v) for i, v in overrides.items()})
    assert [f.eval(i) for i in range(n)] == [ref.eval(i) for i in range(n)]
    got = inversion_density_profile(f, n, stride=3)
    assert got.counts == inversion_density_profile(ref, n, stride=3).counts


_TAILS = {"identity": lambda i: i, "factorial": _factorial_value}


@st.composite
def override_files(draw):
    """A tail, a prefix length n and an override table: major-0 values
    swapped between indices, taken from another index's tail value, or
    drawn among and past the tail's values; higher majors; indices past
    the prefix; and components beyond int64."""
    tail = draw(st.sampled_from(sorted(_TAILS)))
    n = draw(st.integers(2, 40))
    table = {}
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, 2 * n))
        kind = draw(st.sampled_from(["swap", "hit-tail", "level-zero", "higher", "beyond"]))
        if kind in ("swap", "hit-tail"):  # a one-way swap clashes unless j is overridden
            j = draw(st.integers(0, 2 * n))
            table.setdefault(i, (0, _TAILS[tail](j)))
            if kind == "swap":
                table.setdefault(j, (0, _TAILS[tail](i)))
        elif kind == "level-zero":
            table.setdefault(i, (0, draw(st.integers(0, 20 * n))))
        elif kind == "higher":
            table.setdefault(i, (draw(st.integers(1, 3)), draw(st.integers(0, 50))))
        else:
            big = 2**63 + draw(st.integers(0, 2**70))
            table.setdefault(i, draw(st.sampled_from([(big, 0), (1, big)])))
    return tail, n, table


def _write_overrides(path, tail, table):
    lines = "".join(f"{i + 1} {a} {b}\n" for i, (a, b) in table.items())
    path.write_text(f"tail {tail}\n" + lines)
    return read_injection_file(str(path))


@settings(max_examples=150, deadline=None)
@given(override_files())
def test_override_arrays_match_reference(tmp_path_factory, case):
    tail, n, table = case
    f = _write_overrides(tmp_path_factory.mktemp("over") / "f.inj", tail, table)
    ref = _override_reference(_TAILS[tail], {i: OrdinalValue(*v) for i, v in table.items()})
    try:
        want = [ref.eval(i) for i in range(n)]  # a fresh spec's walk
    except MalformedInjectionError as walk:
        # the sort names the same clash, through every bulk read
        for bulk in (
            lambda: inversion_prefix(f, n),
            lambda: f.values(n),
            lambda: OrdinalInjectionTournament(f).forward_tile(0, n),
        ):
            with pytest.raises(MalformedInjectionError) as got:
                bulk()
            assert str(got.value) == str(walk)
        return
    tile = OrdinalInjectionTournament(f).forward_tile(0, n).tolist()
    assert tile == [[i < j and want[i] > want[j] for i in range(n - 1)] for j in range(n)]
    arrays = f.value_arrays(n)
    assert arrays.tolist() == [[v.major for v in want], [v.minor for v in want]]
    # objects only where a component in the prefix exceeds int64
    assert (arrays.dtype == object) == (max(max(v.major, v.minor) for v in want) >= 2**63)
    ranks = ranks_of_values(arrays)
    order = sorted(range(n), key=want.__getitem__)
    assert ranks.tolist() == [order.index(i) for i in range(n)]
    per = [sum(want[i] > want[j] for i in range(j)) for j in range(n)]
    assert inversion_prefix(f, n).tolist() == np.cumsum(per)[1:].tolist()
    assert inversions_brute(ref, n) == sum(per)


@pytest.mark.parametrize(
    "tail, table, n, clash",
    [
        # an override that hits a tail value
        ("identity", {0: (0, 5)}, 6, "indices 0 and 5"),
        ("factorial", {0: (0, 4)}, 4, "indices 0 and 3"),
        # three indices share one value: the first repeat is named
        ("identity", {0: (0, 7), 2: (0, 7)}, 8, "indices 0 and 2"),
        ("identity", {6: (1, 2), 3: (1, 2), 4: (1, 2)}, 7, "indices 3 and 4"),
        # the clash lies just past the prefix, so it is not reported
        ("identity", {0: (0, 5)}, 5, None),
        ("factorial", {9: (2, 2), 10: (2, 2)}, 10, None),
    ],
    ids=["hits-tail", "hits-factorial-tail", "three-way", "three-way-overrides",
         "past-prefix", "past-prefix-overrides"],
)
def test_override_clashes_match_the_walk(tmp_path, tail, table, n, clash):
    f = _write_overrides(tmp_path / "clash.inj", tail, table)
    ref = _override_reference(_TAILS[tail], {i: OrdinalValue(*v) for i, v in table.items()})
    if clash is None:
        want = [ref.eval(i) for i in range(n)]
        assert inversion_prefix(f, n).size == n - 1
        tile = OrdinalInjectionTournament(f).forward_tile(0, n).tolist()
        assert tile == [[i < j and want[i] > want[j] for i in range(n - 1)] for j in range(n)]
        return
    with pytest.raises(MalformedInjectionError) as walk:
        [ref.eval(i) for i in range(n)]
    for bulk in (
        lambda: inversion_prefix(f, n),
        lambda: OrdinalInjectionTournament(f).forward_tile(0, n),
    ):
        with pytest.raises(MalformedInjectionError) as got:
            bulk()
        assert str(got.value) == str(walk.value)
        assert str(got.value).startswith(clash + " share the value OrdinalValue(")


@pytest.mark.parametrize(
    "K, n",
    [(TransitiveOmegaStar(), 20), (SeededRandom(1), 30), (TransitiveOmega(), 15)],
    ids=["one-level", "random", "chain"],
)
def test_rank_injection_matches_reference(K, n):
    d = rank_decompose(K, n)
    ref = _rank_reference(d.alpha)
    m = n + 25  # past the prefix the map continues at level zero
    assert [d.induced_injection.eval(i) for i in range(m)] == [ref.eval(i) for i in range(m)]
    got = inversion_density_profile(d.induced_injection, m, stride=2)
    assert got.counts == inversion_density_profile(ref, m, stride=2).counts
    # an empty override table hands back the identity layout's injection
    assert isinstance(d.induced_injection, _LayoutInjection) == (d.levels == 1)
    K_d = OrdinalInjectionTournament(d.induced_injection)
    assert forward_pair_count(K_d, m) == got.counts[-1][1]


def test_injection_tiles_never_take_the_scalar_route(tmp_path, monkeypatch):
    # a pair at a time these runs took seconds each; tiles rank value
    # arrays, so neither the pair rule nor a checked eval is ever asked
    p = tmp_path / "over.inj"
    p.write_text("tail factorial\n1 1 0\n")
    n = 2000
    hosts = [
        OrdinalInjectionTournament(read_injection_file(str(p))),
        OrdinalInjectionTournament(make_block_scheme("nested-dip", r=12.5, q=0.97).injection),
        OrdinalInjectionTournament(rank_decompose(SeededRandom(3), n).induced_injection),
    ]
    levels = [rank_decompose(K, n).alpha.tolist() for K in hosts]

    def forbidden(*args):
        raise AssertionError("a tile asked for one pair or one value")

    monkeypatch.setattr(OrdinalInjectionTournament, "_forward", forbidden)
    monkeypatch.setattr(InjectionSpec, "eval", forbidden)
    for K, want in zip(hosts, levels):
        d = rank_decompose(K, n)
        assert d.alpha.tolist() == want, K.name
        assert dominance_check(K, d, n), K.name


def test_dominance_rejects_foreign_prefix():
    d = rank_decompose(SeededRandom(1), 30)
    with pytest.raises(ValueError):
        dominance_check(SeededRandom(1), d, 40)


def test_dominance_fails_for_flat_levels_on_chain():
    # the reverse chain decomposes to one level; that decomposition cannot
    # dominate the forward chain, whose every pair is forward
    d = rank_decompose(TransitiveOmegaStar(), 20)
    assert not dominance_check(TransitiveOmega(), d, 20)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_forward_walks_decrease_values(seed):
    # along any index-increasing forward walk of an injection tournament
    # the ordinal values strictly descend, so no walk can revisit a value
    f = random_injection(seed, 200)
    K = OrdinalInjectionTournament(f)
    n = 200
    vals = f.values(n)
    best_next = [None] * n
    length = [0] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if K.has_edge(i, j) and length[j] + 1 > length[i]:
                length[i], best_next[i] = length[j] + 1, j
    start = int(np.argmax(length))
    walk = [start]
    while best_next[walk[-1]] is not None:
        walk.append(best_next[walk[-1]])
    assert len(walk) == length[start] + 1 <= n
    for a, b in zip(walk, walk[1:]):
        assert vals[a] > vals[b]


def test_exp_threshold_out_neighbors_stabilize():
    K = ExponentialThreshold()
    for i in (0, 1, 2, 5, 9):
        cut = 1 << (i + 1)
        sets = []
        for n in (cut, cut + 1, cut + 40):
            sets.append({j for j in range(n) if j != i and K.has_edge(i, j)})
        assert sets[0] == sets[1] == sets[2]
    # far beyond the threshold no forward edge ever appears again
    assert K.has_edge(999, 10 ** 6)
    assert not K.has_edge(999, 1 << 1000)


# ---------------------------------------------------------------------------
# block schemes


def test_factorial_scheme_first_values():
    f = factorial_scheme().injection
    assert [v.minor for v in f.values(6)] == [0, 1, 5, 4, 3, 2]
    assert all(v.major == 0 for v in f.values(6))


def test_factorial_scheme_sizes():
    runs = factorial_scheme().injection.layout.iter_runs()
    assert [next(runs).length for _ in range(6)] == [1, 1, 4, 18, 96, 600]


def test_scheme_injective_to_1e5():
    s = make_block_scheme("single-high", r=2.0, L0=64)
    ranks = s.prefix_ranks(100_000)
    assert np.array_equal(np.sort(ranks), np.arange(100_000))


@pytest.mark.parametrize(
    "pattern,kw",
    [
        ("identity", {}),
        ("factorial", {}),
        ("single-high", dict(r=2.0, L0=8)),
        ("single-high", dict(r=1.5, L0=3)),
        ("paired-high-low", dict(r=2.0, L0=8)),
        ("paired-high-low", dict(r=3.0, L0=5)),
        ("nested-dip", dict(r=2.0, q=0.9, L0=8)),
        ("nested-dip", dict(r=1.5, q=0.5, L0=4)),
        ("nested-dip", dict(r=1.5, q=0.6, L0=4, W0=500)),
    ],
)
def test_prefix_ranks_match_value_sort(pattern, kw):
    s = make_block_scheme(pattern, **kw)
    n = 700
    assert np.array_equal(s.prefix_ranks(n), sorted_ranks(s.injection.values(n)))
    assert s.prefix_ranks(0).size == 0
    assert list(s.prefix_ranks(1)) == [0]


def test_nested_dip_cycles_sit_inside_their_gap():
    s = make_block_scheme("nested-dip", r=1.5, q=0.5, L0=4)
    runs = s.injection.layout.iter_runs()  # one run per nested cycle
    L0, L1 = next(runs).length, next(runs).length
    vals = [v.minor for v in s.injection.values(L0 + L1)]
    p0 = 2  # ceil(0.5 * 4)
    gap_lo, gap_hi = vals[p0], vals[p0 - 1]
    inner = vals[L0 : L0 + L1]
    assert all(gap_lo < v < gap_hi for v in inner)


def test_nested_dip_exhaustion_keeps_climbing():
    s = make_block_scheme("nested-dip", r=1.5, q=0.6, L0=4, W0=500)
    vals = [v.minor for v in s.injection.values(4000)]
    assert len(set(vals)) == 4000
    assert "W0" in s.params


def _refinable_params():
    """The nested-dip grid and every point two rounds of refinement reach."""
    seen, frontier = {}, density._grid_params("nested-dip")
    for _ in range(3):
        seen.update((tuple(sorted(p.items())), p) for p in frontier)
        frontier = [n for p in frontier for n in density._neighbor_params(p)]
    return list(seen.values())


def test_scheme_sizes_and_dips_are_exact():
    # block k has L0·r^k entries rounded half to even, and a nested cycle of
    # L entries dips at ceil(q·L), with r and q the values of their decimal
    # text, on every parameter point the optimizer can visit
    for p in _refinable_params():
        r, q = Fraction(repr(p["r"])), Fraction(repr(p["q"]))
        runs = make_block_scheme("nested-dip", **p).injection.layout.iter_runs()
        run, k = next(runs), 0
        while run.start < 10 ** 18:
            nxt = next(runs)
            assert run.length == round(p["L0"] * r ** k), (p, k)
            if nxt.above:  # still nesting
                dip = min(math.ceil(q * run.length), run.length - 1)
                assert nxt.above - run.above == dip, (p, k)
            run, k = nxt, k + 1
    # a float product gave this block's dip as 15695
    s = make_block_scheme("nested-dip", r=1.5, q=0.56, L0=64)
    block = list(itertools.islice(s.injection.layout.iter_runs(), 17))[15:]
    assert block[0].length == 28025 and block[1].above - block[0].above == 15694
    assert window_min_density(s, 1000, 10 ** 6)[1] == 766057


def test_scheme_parameter_validation():
    with pytest.raises(SchemeError):
        make_block_scheme("no-such-pattern")
    with pytest.raises(SchemeError):
        make_block_scheme("single-high", r=1.0)
    with pytest.raises(SchemeError):
        make_block_scheme("single-high", r=1.05)
    with pytest.raises(SchemeError):
        make_block_scheme("paired-high-low", L0=1)
    with pytest.raises(SchemeError):
        make_block_scheme("nested-dip", q=0.0)
    with pytest.raises(SchemeError):
        make_block_scheme("nested-dip", q=1.0)
    with pytest.raises(SchemeError):
        make_block_scheme("nested-dip", W0=0)
    with pytest.raises(SchemeError):
        make_block_scheme("nested-dip", W0=10**6 + 0.5)
    for ratio in (math.inf, math.nan):
        with pytest.raises(SchemeError):
            make_block_scheme("single-high", r=ratio)
    # text takes the type of the parameter's default, or is refused
    assert make_block_scheme("nested-dip", r="2", q="0.9", L0="64").describe() == (
        make_block_scheme("nested-dip", r=2.0, q=0.9, L0=64).describe())
    with pytest.raises(SchemeError, match=r"^pattern 'single-high': L0='2\.5' does not parse as int$"):
        make_block_scheme("single-high", L0="2.5")
    # a parameter the pattern does not take is refused, not ignored
    for pattern, key in (("single-high", "q"), ("identity", "q"), ("nested-dip", "zz")):
        with pytest.raises(SchemeError, match=f"^pattern {pattern!r} takes no parameter"):
            make_block_scheme(pattern, **{key: 1})


def test_describe_is_stable():
    s = make_block_scheme("nested-dip", r=2.0, q=0.9, L0=64)
    assert s.describe() == "nested-dip(L0=64,q=0.9,r=2)"
    assert make_block_scheme("identity").describe() == "identity"


# ---------------------------------------------------------------------------
# window minima and the optimizer


def test_window_min_factorial_frozen():
    dens, at = window_min_density(factorial_scheme(), 10 ** 3, 10 ** 6)
    assert dens == Fraction(35083, 84392)
    assert at == 1233


def test_window_min_identity_zero():
    dens, at = window_min_density(make_block_scheme("identity"), 100, 5000)
    assert dens == 0
    assert at == 100


def test_window_min_validation():
    with pytest.raises(ValueError):
        window_min_density(make_block_scheme("identity"), 50, 50)
    with pytest.raises(ValueError):
        window_min_density(make_block_scheme("identity"), 1, 50)


def test_optimizer_identity_only():
    scheme, report = optimize_scheme(["identity"], 5000, window=(100, 5000))
    assert scheme.pattern == "identity"
    assert report.min_window_density == 0
    assert report.window == (100, 5000)


def test_optimizer_factorial_only_frozen():
    scheme, report = optimize_scheme(["factorial"], 10 ** 6)
    assert report.min_window_density == Fraction(35083, 84392)
    assert report.identifier == "factorial"
    assert report.attained_at == 1233


def test_optimizer_validation():
    with pytest.raises(SchemeError):
        optimize_scheme([], 10 ** 4)
    with pytest.raises(SchemeError):
        optimize_scheme(["identity", "bogus"], 10 ** 4)
    with pytest.raises(ValueError):
        optimize_scheme(["identity"], 10 ** 4, window=(5000, 20_000))


def test_optimizer_beats_factorial_on_small_window():
    scheme, report = optimize_scheme(BLOCK_PATTERNS, 30_000, window=(1000, 30_000))
    assert scheme.pattern == "nested-dip"
    assert report.min_window_density > Fraction(1, 2)
    assert 1000 <= report.attained_at <= 30_000


def test_optimizer_deterministic():
    a = optimize_scheme(BLOCK_PATTERNS, 20_000, window=(1000, 20_000))
    b = optimize_scheme(BLOCK_PATTERNS, 20_000, window=(1000, 20_000))
    assert a[1] == b[1]
    assert a[0].describe() == b[0].describe()


# ---------------------------------------------------------------------------
# run layouts against the counting kernel


def _window_min_reference(scheme, n_lo, n_hi):
    # the kernel scan that window minima used before the run layouts: a
    # float pass finds the near-minimal band, exact integers settle it
    ranks = scheme.prefix_ranks(n_hi)
    inv = np.cumsum(prior_greater_counts(ranks))  # inv[m-1] = inversions among [m]
    ns = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    dens = inv[n_lo - 1 : n_hi].astype(np.float64) / (ns * (ns - 1) / 2.0)
    floor = float(dens.min())
    band = np.nonzero(dens <= floor * (1.0 + 1e-9) + 1e-15)[0]
    best_num = best_den = None
    best_n = -1
    for k in band:
        n = n_lo + int(k)
        num = int(inv[n - 1])
        den = n * (n - 1) // 2
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den, best_n = num, den, n
    return Fraction(best_num, best_den), best_n


@st.composite
def catalogue_schemes(draw):
    pattern = draw(st.sampled_from(BLOCK_PATTERNS))
    kw = {}
    if pattern in ("single-high", "paired-high-low", "nested-dip"):
        kw["r"] = draw(st.one_of(
            st.floats(1.1001, 1.2), st.floats(1.2, 16.0), st.sampled_from([1.5, 2.0, 12.5])
        ))
        kw["L0"] = draw(st.one_of(st.integers(2, 9), st.integers(10, 300)))
    if pattern == "nested-dip":
        kw["q"] = draw(st.floats(0.01, 0.99))
        if draw(st.booleans()):
            kw["W0"] = draw(st.one_of(st.integers(1, 60), st.integers(61, 10 ** 12)))
    return make_block_scheme(pattern, **kw)


@settings(max_examples=200, deadline=None)
@given(catalogue_schemes(), st.integers(3, 3000), st.data())
def test_window_min_matches_kernel_scan(scheme, n_hi, data):
    n_lo = data.draw(st.integers(2, n_hi - 1))
    assert window_min_density(scheme, n_lo, n_hi) == _window_min_reference(
        scheme, n_lo, n_hi
    )


@pytest.mark.parametrize(
    "pattern,kw",
    [
        ("identity", {}),
        ("factorial", {}),
        ("single-high", dict(r=1.15, L0=3)),
        ("paired-high-low", dict(r=2.0, L0=7)),
        ("paired-high-low", dict(r=1.12, L0=2)),
        ("nested-dip", dict(r=2.0, q=0.9, L0=16)),
        ("nested-dip", dict(r=1.5, q=0.6, L0=5, W0=40)),
        ("nested-dip", dict(r=1.11, q=0.3, L0=3, W0=2)),
    ],
)
def test_layout_counts_match_kernel(pattern, kw):
    s = make_block_scheme(pattern, **kw)
    n = 2000
    # ranks from the scalar values, not from the layout's rank order
    per = prior_greater_counts(sorted_ranks(s.injection.values(n)))
    cum = np.concatenate([[0], np.cumsum(per)])
    assert [inversions_upto(s.injection, m) for m in range(n + 1)] == [int(c) for c in cum]
    # the bulk fill against the layout's scalar values
    scalar = [s.injection.layout.value(i) for i in range(n)]
    arrays = s.injection.value_arrays(n)
    assert arrays.tolist() == [[0] * n, scalar]
    assert (arrays.dtype == object) == (max(scalar) >= 2**63)


def test_scheme_profile_matches_injection_profile():
    # the right-hand side sums forward rows of an opaque copy of the
    # injection, so it shares no code with the scheme's run layout
    s = make_block_scheme("paired-high-low", r=1.5, L0=5)
    via_layout = inversion_density_profile(s, 3000, stride=7)
    via_rows = density_profile(OpaqueInjectionTournament(s.injection), 3000, stride=7)
    assert via_layout.counts == via_rows.counts


def _factorial_pairs(n):
    """Pairs i < j < n inside one block, blocks ending at 1!, 2!, 3!, ..."""
    total, lo, k = 0, 0, 1
    while lo < n:
        w = min(math.factorial(k), n) - lo
        total += w * (w - 1) // 2
        lo, k = math.factorial(k), k + 1
    return total


def _forbid_value_counting(monkeypatch):
    def forbidden(*args):
        raise AssertionError("values were materialized or ranked and counted")

    monkeypatch.setattr(counting, "prior_greater_counts", forbidden)
    monkeypatch.setattr(density, "prior_greater_counts", forbidden, raising=False)
    monkeypatch.setattr(InjectionSpec, "values", forbidden)
    # bulk reads rank value arrays without building the list above
    monkeypatch.setattr(counting, "ranks_of_values", forbidden)
    monkeypatch.setattr(density, "ranks_of_values", forbidden)


def test_layout_profile_walk_matches_per_point_counts():
    # points on both sides of every factorial block edge up to 10!, and a
    # stride over a catalogue scheme's many short runs
    edges = [math.factorial(k) for k in range(1, 11)]
    points = sorted({m for e in edges for m in (e - 1, e, e + 1) if m >= 2})
    cases = [(FactorialBlock(), points),
             (OrdinalInjectionTournament(factorial_scheme().injection), points),
             (OrdinalInjectionTournament(
                 make_block_scheme("paired-high-low", r=1.3, L0=3).injection),
              list(range(2, 5000, 7)))]
    for K, pts in cases:
        assert density._forward_counts(K, pts) == [forward_pair_count(K, m) for m in pts]


def test_scheme_injection_tournament_counts_in_closed_form(monkeypatch):
    _forbid_value_counting(monkeypatch)
    s = make_block_scheme("nested-dip", r=2, q=0.9, L0=16)
    via_tournament = density_profile(
        OrdinalInjectionTournament(s.injection), 100_000, stride=100
    )
    via_scheme = inversion_density_profile(s, 100_000, stride=100)
    assert via_tournament.counts == via_scheme.counts
    # block arithmetic on factorial bounds is independent of the layout
    K = OrdinalInjectionTournament(factorial_scheme().injection)
    for n in (2, 7, 1000, 10 ** 6, 10 ** 12):
        assert forward_pair_count(K, n) == _factorial_pairs(n)
        assert forward_pair_count(FactorialBlock(), n) == _factorial_pairs(n)


def test_factorial_tail_file_counts_in_closed_form(monkeypatch, tmp_path):
    p = tmp_path / "tail.inj"
    p.write_text("tail factorial\n")
    f = read_injection_file(str(p))
    _forbid_value_counting(monkeypatch)
    via_file = inversion_density_profile(f, 10 ** 6, stride=1000)
    via_scheme = inversion_density_profile(factorial_scheme(), 10 ** 6, stride=1000)
    assert via_file.counts == via_scheme.counts


def test_cycles_that_do_not_fit_raise(monkeypatch):
    # the nesting rule always fits, so widen the step to break it
    monkeypatch.setattr(density, "_nested_step", lambda step, length: step)
    s = make_block_scheme("nested-dip", r=2.0, q=0.5, L0=4)
    with pytest.raises(SchemeError, match="does not fit"):
        window_min_density(s, 2, 100)
    with pytest.raises(SchemeError, match="does not fit"):
        s.injection.eval(50)


def test_optimizer_needs_no_counting_kernel(monkeypatch):
    _forbid_value_counting(monkeypatch)
    scheme, report = optimize_scheme(BLOCK_PATTERNS, 10 ** 6, window=(10 ** 3, 10 ** 6))
    assert report.identifier == "nested-dip(L0=256,q=0.97,r=12.5)"
    assert report.min_window_density == Fraction(243998423, 248015625)
    assert report.attained_at == 10 ** 6
    assert scheme.describe() == report.identifier


def test_window_min_factorial_to_1e12():
    t0 = time.perf_counter()
    dens, at = window_min_density(factorial_scheme(), 10 ** 3, 10 ** 12)
    assert time.perf_counter() - t0 < 1.0
    assert (dens, at) == (Fraction(35083, 84392), 1233)


def test_window_min_nested_dip_to_1e12_is_exact():
    s = make_block_scheme("nested-dip", r=2.0, q=0.9, L0=64)
    lo, hi = 10 ** 6, 10 ** 12
    dens, at = window_min_density(s, lo, hi)
    assert isinstance(dens, Fraction)
    assert dens.numerator > 2 ** 63  # beyond int64
    assert lo <= at <= hi
    assert dens == Fraction(inversions_upto(s.injection, at), at * (at - 1) // 2)
    for n in (lo, at - 1, at + 1, hi, 10 ** 9, 7 * 10 ** 11):
        assert Fraction(inversions_upto(s.injection, n), n * (n - 1) // 2) >= dens
