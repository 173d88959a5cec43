"""Core types, oracles, and file formats."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourlab.core import (
    DEFAULT_BUDGET,
    Direction,
    ExponentialThreshold,
    FactorialBlock,
    FiniteOrientedGraph,
    InjectionSpec,
    OrdinalInjectionTournament,
    OrdinalValue,
    SeededRandom,
    SplitTransitive,
    TabulatedTournament,
    TournamentOracle,
    TransitiveOmega,
    TransitiveOmegaStar,
    _DiagonalLayout,
    anti_path,
    binomial2,
    exact_density,
    forward_path,
    identity_injection,
    interleaved_forest,
    out_stars,
    pair_hash,
    presented_from_name,
    random_presented,
    read_graph_file,
    read_injection_file,
)
from tourlab.counting import inversions_upto
import tourlab.density as density
from tourlab.density import tournament_from_name
from tourlab.embedding import FiniteBelowOracle, infiniteness_oracle_for
from tourlab.errors import (
    GraphFormatError,
    LoopQueryError,
    MalformedInjectionError,
)


# ---------------------------------------------------------------- ordinals


@given(
    st.tuples(st.integers(0, 50), st.integers(0, 50)),
    st.tuples(st.integers(0, 50), st.integers(0, 50)),
)
def test_ordinal_order_matches_tuple_order(a, b):
    x, y = OrdinalValue(*a), OrdinalValue(*b)
    assert (x < y) == (a < b)
    assert (x == y) == (a == b)


def test_ordinal_rejects_negative():
    with pytest.raises(ValueError):
        OrdinalValue(-1, 0)


# -------------------------------------------------------------- injections


def _has_layout_oracle(f):
    """Whether the tournament induced by f gets the layout oracle, which
    needs the run layout behind f."""
    oracle = infiniteness_oracle_for(OrdinalInjectionTournament(f))
    return isinstance(oracle, FiniteBelowOracle)


def test_identity_injection_values():
    f = identity_injection()
    assert f.values(4) == [OrdinalValue(0, i) for i in range(4)]
    assert _has_layout_oracle(f)


def test_injection_collision_detected_lazily():
    f = InjectionSpec(lambda i: OrdinalValue(0, i // 2), description="bad")
    f.eval(0)
    with pytest.raises(MalformedInjectionError):
        f.eval(1)


# ----------------------------------------------------------------- orient


def test_transitive_families():
    assert TransitiveOmega().orient(2, 5) is Direction.FORWARD
    assert TransitiveOmegaStar().orient(2, 5) is Direction.BACKWARD
    # the downward chain is the identity layout's tournament: no inversions
    assert density.forward_pair_count(TransitiveOmegaStar(), 10**9) == 0
    # antisymmetric normalization
    assert TransitiveOmega().orient(5, 2) is Direction.BACKWARD


def test_loop_query_rejected():
    K = TransitiveOmega()
    for ask in (K.orient, K.has_edge):
        with pytest.raises(LoopQueryError):
            ask(3, 3)
        with pytest.raises(ValueError, match="vertices are non-negative"):
            ask(-1, 3)


def test_base_oracle_states_no_rule():
    # a host that states no `_forward` fails loudly, whichever way it is asked
    with pytest.raises(NotImplementedError):
        TournamentOracle().has_edge(0, 1)


@given(st.integers(0, 200), st.integers(0, 200))
def test_orient_pure_and_antisymmetric(i, j):
    for K in (FactorialBlock(), ExponentialThreshold(), SeededRandom(7)):
        if i == j:
            continue
        d = K.orient(i, j)
        assert K.orient(i, j) is d
        assert K.orient(j, i) is d.reversed()
        assert K.has_edge(i, j) != K.has_edge(j, i)
        for a, b in ((i, j), (j, i)):
            want = Direction.FORWARD if K.has_edge(a, b) else Direction.BACKWARD
            assert K.orient(a, b) is want


@pytest.mark.parametrize("K", [TransitiveOmegaStar(), FactorialBlock()], ids=lambda K: K.name)
def test_layout_orientation_keeps_no_values(K):
    # a layout host compares integer values, so its queries leave nothing
    # behind; 10^5 ordinal values kept per query would take about 25 MB
    import tracemalloc

    K.orient(0, 1)
    tracemalloc.start()
    try:
        for i in range(1, 10**5):
            K.orient(i, i + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bulk_orientations_match_scalar_orient_on_every_host(tmp_path):
    # forward_row, forward_tile and the pair count each restate a host's
    # orientation rule; all three are held to scalar orient.  The count
    # takes the layout walk, the kernel, a closed form or the tiles.  The
    # injection hosts tile from value arrays: int64, objects past int64
    # (nested-dip), a table over a layout, and a plain callable.
    p = tmp_path / "over.inj"
    p.write_text("tail factorial\n1 1 0\n3 2 5\n")
    n = 200
    coin = random.Random(5)
    dip = density.make_block_scheme("nested-dip", r=12.5, q=0.97).injection
    assert dip.value_arrays(n).dtype == object
    hosts = [
        TransitiveOmega(), TransitiveOmegaStar(), FactorialBlock(), SplitTransitive(),
        ExponentialThreshold(), SeededRandom(3),
        OrdinalInjectionTournament(read_injection_file(str(p))),
        TabulatedTournament(n, [(i, j) for j in range(n) for i in range(j) if coin.random() < 0.5]),
        OrdinalInjectionTournament(dip),
        OrdinalInjectionTournament(density.rank_decompose(SeededRandom(3), n).induced_injection),
        OrdinalInjectionTournament(
            InjectionSpec(lambda i: OrdinalValue(i % 3, i * 7919 % 1000), "callable")
        ),
    ]
    for K in hosts:
        want = np.zeros((n, n - 1), dtype=bool)  # want[j, i]: (i, j) is forward
        for j in range(1, n):
            want[j, :j] = [K.orient(i, j) is Direction.FORWARD for i in range(j)]
        for j in range(n):
            assert np.array_equal(K.forward_row(j), want[j, :j]), (K.name, j)
        for j0, j1 in [(0, n), (1, 2), (37, 120), (150, 151), (n - 1, n)]:
            assert np.array_equal(K.forward_tile(j0, j1), want[j0:j1, : j1 - 1]), K.name
        inside = np.concatenate([[0], np.cumsum(want.sum(axis=1))])  # pairs in [m]
        counts = [density.forward_pair_count(K, m) for m in range(2, n + 1)]
        assert counts == inside[2:].tolist(), K.name
    # forward pairs (2t, j) stack the even indices: 0 > 2 > ... > 10 > 11
    assert density.rank_decompose(SplitTransitive(), 12).levels == 7


# --------------------------------------------------------- factorial block


def _factorial_row(j):
    """Row j of factorial-block by block arithmetic: forward from the
    start of j's block, blocks ending at 1!, 2!, 3!, ..."""
    lo, k = 0, 1
    while math.factorial(k) <= j:
        lo = math.factorial(k)
        k += 1
    return np.arange(j) >= lo


def test_factorial_block_rows_match_block_arithmetic(monkeypatch):
    # the numpy row reads the run layout only, never a value
    def forbidden(self, i):
        raise AssertionError("a forward row evaluated the injection")

    monkeypatch.setattr(InjectionSpec, "eval", forbidden)
    K = FactorialBlock()
    for j in range(2000):
        assert np.array_equal(K.forward_row(j), _factorial_row(j)), j


def test_factorial_block_orientations():
    K = FactorialBlock()
    # same block: forward
    assert K.orient(2, 5) is Direction.FORWARD
    assert K.orient(3, 4) is Direction.FORWARD
    # different blocks: backward
    assert K.orient(0, 1) is Direction.BACKWARD
    assert K.orient(1, 3) is Direction.BACKWARD
    assert K.orient(5, 6) is Direction.BACKWARD


def test_factorial_block_counts_match_rows():
    K = FactorialBlock()
    assert density.forward_pair_count(K, 6) == 6  # C(4,2) inside {2..5}
    total = 0
    for j in range(1, 200):
        total += int(K.forward_row(j).sum())
        assert density.forward_pair_count(K, j + 1) == total


def test_factorial_reversal_injection_matches_family():
    K = FactorialBlock()
    f = K.injection
    assert _has_layout_oracle(f)
    assert [v.minor for v in f.values(6)] == [0, 1, 5, 4, 3, 2]
    # the plain injection tournament compares values pair by pair
    Kf = OrdinalInjectionTournament(f)
    n = 10_000
    # compare whole rows in chunks; identical oracles agree everywhere
    for j in range(1, n, 997):
        assert np.array_equal(K.forward_row(j), Kf.forward_row(j))
    for j in range(1, 300):
        assert np.array_equal(K.forward_row(j), Kf.forward_row(j))


# --------------------------------------------------- exponential threshold


def test_exp_threshold_against_definition():
    K = ExponentialThreshold()
    for j in range(1, 60):
        row = K.forward_row(j)
        for i in range(j):
            assert row[i] == ((j + 1) <= 2 ** (i + 1))
    assert K.forward_pairs_upto(40) == 642


def test_exp_threshold_orientation_compares_bit_lengths():
    # j + 1 <= 2**(i + 1) is j.bit_length() <= i + 1 for 0 <= i < j
    K = ExponentialThreshold()
    for i in range(80):
        for j in range(i + 1, 300):
            want = Direction.FORWARD if j + 1 <= 1 << (i + 1) else Direction.BACKWARD
            assert K.orient(i, j) is want, (i, j)


def test_exp_threshold_orientation_builds_no_power():
    # 2**(10**8 + 1) alone would take 12.5 MB
    import tracemalloc

    K = ExponentialThreshold()
    tracemalloc.start()
    try:
        assert K.orient(10**8, 10**8 + 1) is Direction.FORWARD
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exp_threshold_closed_count():
    K = ExponentialThreshold()
    total = 0
    for j in range(1, 400):
        total += int(K.forward_row(j).sum())
        assert K.forward_pairs_upto(j + 1) == total


# -------------------------------------------------------- seeded random


def test_seeded_random_determinism():
    a, b = SeededRandom(99), SeededRandom(99)
    for (i, j) in [(0, 1), (3, 17), (100, 4071), (2, 3)]:
        assert a.orient(i, j) is b.orient(i, j)
    assert SeededRandom(100).forward_row(4000).tolist() != a.forward_row(
        4000
    ).tolist()


def test_seeded_random_rows_match_scalar():
    K = SeededRandom(5)
    for j in (1, 2, 37, 512):
        row = K.forward_row(j)
        for i in range(j):
            assert row[i] == (K.orient(i, j) is Direction.FORWARD)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**70), 2**70), st.integers(0, 10**6), st.integers(1, 10**6))
def test_seeded_random_orientation_is_the_scalar_hash(seed, i, gap):
    # the orientation keeps the seed's round; pair_hash recomputes it
    K, j = SeededRandom(seed), i + gap
    want = Direction.FORWARD if pair_hash(seed, i, j) & 1 else Direction.BACKWARD
    assert K.orient(i, j) is want
    assert K.orient(j, i) is want.reversed()


def test_seeded_random_is_fair():
    # ~10^5 pairs; 4-sigma two-sided bound on the forward count
    n = 450
    total = binomial2(n)
    for seed in (0, 1, 2026):
        K = SeededRandom(seed)
        fwd = sum(int(K.forward_row(j).sum()) for j in range(1, n))
        z2 = (2 * fwd - total) ** 2 / total  # chi-square, 1 dof
        assert z2 < 16.0, (seed, fwd, total)


# first rows of the tiles the density walks take, and the doubling sizes of
# the first-round array: the places a tile is most likely to go wrong
_TILE_EDGES = sorted({j0 for j0, _ in density._tiles(4000)} | {2**k for k in range(13)})


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-(2**64), 2**64),
    st.sampled_from(_TILE_EDGES),
    st.integers(-4, 4),
    st.integers(0, 6),
    st.integers(0, 4000),
)
def test_seeded_random_tile_matches_scalar_hash(seed, edge, shift, rows, warm):
    K = SeededRandom(seed)
    K.forward_tile(warm, warm + 1)  # a first-round array grown beforehand
    j0 = max(0, edge + shift)
    j1 = j0 + rows
    tile = K.forward_tile(j0, j1)
    assert tile.dtype == bool and tile.shape == (rows, max(j1 - 1, 0))
    for r, j in enumerate(range(j0, j1)):
        want = [i < j and bool(pair_hash(seed, i, j) & 1) for i in range(j1 - 1)]
        assert tile[r].tolist() == want, (j0, j1, j)


# ------------------------------------------------- injection tournaments


def test_identity_injection_tournament_is_backward():
    K = OrdinalInjectionTournament(identity_injection())
    assert not K.forward_row(50).any()


def test_reversed_prefix_injection_all_forward():
    n = 12

    def f(i):
        return OrdinalValue(0, n - i) if i < n else OrdinalValue(1, i)

    K = OrdinalInjectionTournament(InjectionSpec(f))
    for j in range(1, n):
        assert K.forward_row(j).all()


@given(st.integers(0, 10_000), st.integers(2, 40))
@settings(max_examples=40)
def test_forward_walks_decrease_values(seed, n):
    # any forward edge i<j has f(i) > f(j), so forward paths with rising
    # indexes carry strictly falling values
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    f = InjectionSpec(
        lambda i: OrdinalValue(0, int(perm[i])) if i < n else OrdinalValue(1, i)
    )
    K = OrdinalInjectionTournament(f)
    for j in range(1, n):
        row = K.forward_row(j)
        for i in np.flatnonzero(row):
            assert f.eval(int(i)) > f.eval(j)


# -------------------------------------------------------- tabulated tests


def test_tabulated_from_bits_roundtrip():
    n = 4
    bits = 0b101101  # lex pair order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
    K = TabulatedTournament.from_bits(n, bits)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    got = [K.orient(i, j) is Direction.FORWARD for (i, j) in pairs]
    want = [bool((bits >> k) & 1) for k in range(len(pairs))]
    assert got == want
    with pytest.raises(ValueError):
        K.orient(0, 4)


def test_tabulated_from_bits_names_a_mask_past_the_digit_limit():
    # all 19,900 pair bits set: the mask's decimal form passes Python's
    # 4,300-digit limit on int-to-str conversion, its hex form has no limit
    n = 200
    bits = (1 << binomial2(n)) - 1
    K = TabulatedTournament.from_bits(n, bits)
    assert K.name == f"tabulated-{n}-{bits:x}"
    assert K.orient(0, n - 1) is Direction.FORWARD


# ------------------------------------------------------------ name lookup


def test_tournament_from_name():
    assert isinstance(tournament_from_name("transitive-omega"), TransitiveOmega)
    assert isinstance(
        tournament_from_name("transitive-omega-star"), TransitiveOmegaStar
    )
    assert isinstance(tournament_from_name("factorial-block"), FactorialBlock)
    assert isinstance(tournament_from_name("exp-threshold"), ExponentialThreshold)
    K = tournament_from_name("random:42")
    assert isinstance(K, SeededRandom) and K.seed == 42
    with pytest.raises(GraphFormatError):
        tournament_from_name("no-such-family")


# ------------------------------------------------------------ finite graphs


def test_finite_graph_validation():
    G = FiniteOrientedGraph(3, [(0, 1), (1, 2)])
    assert G.out_neighbors(0) == (1,)
    assert G.in_neighbors(2) == (1,)
    with pytest.raises(GraphFormatError):
        FiniteOrientedGraph(3, [(0, 0)])
    with pytest.raises(GraphFormatError):
        FiniteOrientedGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        FiniteOrientedGraph(3, [(0, 5)])


# -------------------------------------------------------- presented graphs


def _check_mutual_consistency(G, upto):
    for v in range(upto):
        for w in G.out_neighbors(v):
            assert v in G.in_neighbors(w), (G.name, v, w)
        for u in G.in_neighbors(v):
            assert v in G.out_neighbors(u), (G.name, u, v)


def test_presented_families_are_mutually_consistent():
    for G in (
        forward_path(),
        anti_path(),
        out_stars(),
        interleaved_forest(),
        random_presented(3),
        random_presented(77),
    ):
        _check_mutual_consistency(G, 300)


def _block_chain_reference(seed, n, max_block=6):
    """Adjacency of random-graph:seed on [0, n) straight off the scalar
    pair_hash definition: block g has 1 + pair_hash(seed, g, 0) % max_block
    vertices, offsets a < b of it form the edge a -> b when
    pair_hash(seed, g, 1 + a*max_block + b) is odd, and consecutive blocks
    are joined by one connector, pointing right after an even block."""
    starts = [0]
    while starts[-1] <= n:
        starts.append(starts[-1] + 1 + pair_hash(seed, len(starts) - 1, 0) % max_block)
    adj = {}
    for g, (lo, hi) in enumerate(zip(starts, starts[1:])):
        for v in range(lo, min(hi, n)):
            off = v - lo
            ins = [lo + a for a in range(off) if pair_hash(seed, g, 1 + a * max_block + off) & 1]
            outs = [lo + b for b in range(off + 1, hi - lo)
                    if pair_hash(seed, g, 1 + off * max_block + b) & 1]
            if v == hi - 1:
                (outs if g % 2 == 0 else ins).append(hi)
            if v == lo and g > 0:
                (ins if (g - 1) % 2 == 0 else outs).append(lo - 1)
            adj[v] = (tuple(sorted(ins)), tuple(sorted(outs)))
    return adj


@pytest.mark.parametrize("seed", [0, 1, 5, 77, 2**40 + 3])
def test_random_graph_matches_scalar_pair_hash(seed):
    n = 3000
    order = list(range(n))
    if seed % 2:  # out of order too, so blocks are read after later batches
        order = np.random.default_rng(seed).permutation(n).tolist()
    if seed == 0:  # a far vertex first: many batches hashed at once, then read
        order = [100_000] + order
    want = _block_chain_reference(seed, max(order) + 1)
    G = random_presented(seed)
    for v in order:
        assert (G.in_neighbors(v), G.out_neighbors(v)) == want[v], v


def test_interleaved_forest_ids_follow_the_diagonals():
    # brute force: deal (k, t) along diagonals d = k + t, k ascending,
    # keeping the pairs with t < size(k) = 1 + k % 4
    n, diag = 3000, 0
    pairs: list[tuple[int, int]] = []
    while len(pairs) < n + 50:
        pairs += [(k, diag - k) for k in range(diag + 1) if diag - k < 1 + k % 4]
        diag += 1
    ident = {kt: v for v, kt in enumerate(pairs)}

    layout = _DiagonalLayout()
    assert [layout.pair(v) for v in range(n)] == pairs[:n]
    G = interleaved_forest()
    for v in range(n):
        k, t = pairs[v]
        near = {ident[(k, s)] for s in (t - 1, t + 1) if 0 <= s < 1 + k % 4}
        assert set(G.in_neighbors(v) + G.out_neighbors(v)) == near, v

    # each component's local indices so far are 0, 1, ..., and complete
    # once the diagonal past its last vertex has been dealt
    local: dict[int, list[int]] = {}
    for k, t in pairs[:n]:
        local.setdefault(k, []).append(t)
    last_diag = pairs[n - 1][0] + pairs[n - 1][1]
    for k, ts in local.items():
        assert ts == list(range(len(ts)))
        if k + _DiagonalLayout.size(k) <= last_diag:
            assert len(ts) == _DiagonalLayout.size(k)


def test_forward_path_certificate():
    assert forward_path().certified_infinite_path
    assert not anti_path().certified_infinite_path


def test_presented_from_name():
    assert presented_from_name("anti-path").name == "anti-path"
    assert presented_from_name("random-graph:9").name.startswith("random-graph")
    with pytest.raises(GraphFormatError):
        presented_from_name("bogus")


def test_out_stars_component_roots():
    # each star's centre
    it = out_stars().component_roots()
    assert [next(it) for _ in range(200)] == [3 * k for k in range(200)]


def test_interleaved_forest_component_roots():
    # each component's local vertex 0, in component order
    it = interleaved_forest().component_roots()
    layout = _DiagonalLayout()
    assert [next(it) for _ in range(200)] == [layout.ident(k, 0) for k in range(200)]


def _weak_component(G, v):
    """v's weak component, by an unbudgeted search."""
    seen, stack = {v}, [v]
    while stack:
        x = stack.pop()
        for w in G.in_neighbors(x) + G.out_neighbors(x):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@pytest.mark.parametrize("seed", range(8))
def test_random_graph_roots_are_least_in_their_components(seed):
    G = random_presented(seed)
    roots = list(itertools.takewhile(lambda r: r < 500, G.component_roots()))
    assert roots == [v for v in range(500) if min(_weak_component(G, v)) == v]
    if seed == 5:
        assert roots[:2] == [0, 1]  # vertex 1 is isolated


def test_finite_component_roots():
    # components {0, 3}, {1} and {2, 4, 5}; neither 0 nor 2 is a source
    G = FiniteOrientedGraph(6, [(3, 0), (5, 2), (5, 4)])
    assert list(G.component_roots()) == [0, 1, 2]


def test_finite_component_roots_pass_the_budget():
    # a first component past the default budget still leaves the rest listed
    n = DEFAULT_BUDGET + 2
    G = FiniteOrientedGraph(n + 3, [(v, v + 1) for v in range(n - 1)])
    assert list(G.component_roots()) == [0, n, n + 1, n + 2]
    assert list(G.component_roots(budget=10)) == [0, n, n + 1, n + 2]


def test_presented_graph_without_roots_starts_at_zero():
    # one infinite component passes any budget, which ends the stream
    assert list(anti_path().component_roots()) == [0]
    assert list(forward_path().component_roots(budget=50)) == [0]


# ------------------------------------------------------------ file formats


def test_read_graph_file(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("3 2\n1 2\n2 3\n")
    G = read_graph_file(str(p))
    assert G.n == 3 and (0, 1) in G.edges and (1, 2) in G.edges

    bad = tmp_path / "bad.edges"
    bad.write_text("3 2\n1 2\n")
    with pytest.raises(GraphFormatError):
        read_graph_file(str(bad))

    bad2 = tmp_path / "bad2.edges"
    bad2.write_text("3\n1 2\n")
    with pytest.raises(GraphFormatError):
        read_graph_file(str(bad2))

    # a negative vertex or edge count is a bad header, not an empty graph
    for header in ("-1 0", "3 -1"):
        neg = tmp_path / "neg.edges"
        neg.write_text(header + "\n")
        with pytest.raises(GraphFormatError, match="bad header$"):
            read_graph_file(str(neg))


def test_read_injection_file(tmp_path):
    p = tmp_path / "f.inj"
    p.write_text("# comment\ntail identity\n1 0 10\n2 0 11\n")
    f = read_injection_file(str(p))
    assert f.eval(0) == OrdinalValue(0, 10)
    assert f.eval(1) == OrdinalValue(0, 11)
    assert f.eval(5) == OrdinalValue(0, 5)  # identity tail

    q = tmp_path / "g.inj"
    q.write_text("tail factorial\n")
    g = read_injection_file(str(q))
    assert g.eval(2) == OrdinalValue(0, 5)
    # a tail-only file is the tail's run layout, described by its path
    assert _has_layout_oracle(g) and g.description == f"file:{q}"
    assert density.forward_pair_count(OrdinalInjectionTournament(g), 6) == 6
    assert not _has_layout_oracle(f)
    # values 10, 11, 2, 3, 4, 5: each override is above the four tail values
    assert density.forward_pair_count(OrdinalInjectionTournament(f), 6) == 8


@pytest.mark.parametrize(
    "text, line",
    [
        ("5 1 1\n# again\n5 2 2\n", 3),
        ("tail identity\n1 1 0\ntail factorial\n", 3),
        ("tail factorial\ntail factorial\n", 2),
    ],
    ids=["index-twice", "tail-after-override", "tail-twice"],
)
def test_read_injection_file_rejects_contradictions(tmp_path, text, line):
    p = tmp_path / "twice.inj"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match=f"^{re.escape(str(p))}:{line}: "):
        read_injection_file(str(p))


@pytest.mark.parametrize(
    "text, error",
    [
        ("5 -1 1\n5 2 2\n", ":1: ordinal components must be non-negative"),
        ("5 1 1\n5 -2 2\n", ":2: index 5 given twice"),
        ("5 1 1\n5 2 2\n7 x y\n", ":2: index 5 given twice"),
        ("1 0 -3\n2 x y\n", ":1: ordinal components must be non-negative"),
        ("2 x y\n1 0 -3\n", ":1: bad integers"),
        ("1 2\n", ":1: expected 'i major minor'"),
        ("0 1 1\n", ":1: index must be >= 1"),
        ("tail bogus\n1 -1 1\n", ":2: ordinal components must be non-negative"),
    ],
    ids=["negative-first", "twice-first", "twice-before-bad", "negative-before-bad",
         "bad-before-negative", "two-fields", "index-zero", "negative-before-tail"],
)
def test_read_injection_file_reports_the_first_bad_line(tmp_path, text, error):
    # each line is checked in turn: the first fault in file order is raised
    p = tmp_path / "bad.inj"
    p.write_text(text)
    with pytest.raises(GraphFormatError) as got:
        read_injection_file(str(p))
    assert str(got.value).endswith(error)


def test_read_injection_file_beyond_int64(tmp_path):
    big = 99999999999999999999999
    p = tmp_path / "big.inj"
    p.write_text(f"1 {big} 0\n3 0 {2**63}\n{big} 0 0\n")
    f = read_injection_file(str(p))
    assert f.eval(0) == OrdinalValue(big, 0) and f.eval(2) == OrdinalValue(0, 2**63)
    # a prefix holding a component beyond int64 is read as objects
    assert f.value_arrays(1).dtype == object and f.value_arrays(1).tolist() == [[big], [0]]
    assert f.value_arrays(3).tolist() == [[big, 0, 0], [0, 1, 2**63]]
    assert f.values(4) == [OrdinalValue(big, 0), OrdinalValue(0, 1),
                           OrdinalValue(0, 2**63), OrdinalValue(0, 3)]
    assert inversions_upto(f, 4) == 4
    # the index beyond int64 never enters a prefix; the one beyond stays out
    q = tmp_path / "far.inj"
    q.write_text(f"{big} 0 0\n2 1 1\n")
    g = read_injection_file(str(q))
    assert g.value_arrays(3).dtype == np.int64
    assert g.value_arrays(3).tolist() == [[0, 1, 0], [0, 1, 2]]


# ------------------------------------------------------------ density util


def test_exact_density():
    from fractions import Fraction

    assert exact_density(3, 4) == Fraction(1, 2)
    with pytest.raises(ValueError):
        exact_density(0, 1)


# ---------------------------------------------------------- package exports


def test_package_exports_resolve_once():
    # a name deleted from its module must not linger in __all__
    import tourlab

    assert len(tourlab.__all__) == len(set(tourlab.__all__))
    missing = [name for name in tourlab.__all__ if not hasattr(tourlab, name)]
    assert missing == []
