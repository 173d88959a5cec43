"""Embedding layer: greedy placement, cell partitions, transitive
extraction, oracles, and the spanning engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourlab.core import (
    FactorialBlock,
    FiniteOrientedGraph,
    OrdinalInjectionTournament,
    PresentedGraph,
    SeededRandom,
    SplitTransitive,
    TransitiveOmega,
    TransitiveOmegaStar,
    _Layout,
    anti_path,
    identity_injection,
    interleaved_forest,
    out_stars,
    presented_from_name,
    random_presented,
    read_injection_file,
)
import tourlab.analysis as analysis
import tourlab.embedding as embedding
from tourlab.analysis import DEFAULT_BUDGET, classify_unavoidability, gamma
from tourlab.density import BLOCK_PATTERNS, make_block_scheme, tournament_from_name
from tourlab.embedding import (
    AlwaysInfiniteOracle,
    EmbeddingMap,
    FiniteBelowOracle,
    PMPartition,
    SplitTransitiveOracle,
    TransitiveUpOracle,
    check_pm_partition,
    embed_finite_acyclic,
    find_transitive_subtournament,
    greedy_embed_transitive,
    infiniteness_oracle_for,
    pm_partition,
    spanning_embed,
)
from tourlab.errors import (
    BudgetExhaustedError,
    CycleFoundError,
    OracleInconsistencyError,
    PinIncompatibilityError,
    PoolTooSmallError,
    SchemeError,
    TourlabError,
)

from test_analysis import _closure, _reverse


# tournaments induced by catalogue schemes at their default parameters
SCHEME_HOSTS = [
    OrdinalInjectionTournament(make_block_scheme(p).injection)
    for p in ("nested-dip", "paired-high-low")
]


def path3():
    return FiniteOrientedGraph(3, [(0, 1), (1, 2)], name="p3")


def diamond():
    return FiniteOrientedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="diamond")


def random_dag(seed: int, n: int = 30, p: float = 0.2) -> FiniteOrientedGraph:
    import random

    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((perm[a], perm[b]))
    return FiniteOrientedGraph(n, edges, name=f"dag-{seed}")


# ------------------------------------------------------------ EmbeddingMap


def test_embedding_map_injective():
    m = EmbeddingMap(TransitiveOmega())
    m.assign(0, 5)
    with pytest.raises(ValueError):
        m.assign(0, 6)
    with pytest.raises(ValueError):
        m.assign(1, 5)
    assert m[0] == 5 and 0 in m and m.has_target(5)


def test_embedding_map_violations():
    m = EmbeddingMap(TransitiveOmega())
    m.assign(0, 3)
    m.assign(1, 1)
    assert m.violations(path3()) == [(0, 1)]
    assert not m.is_valid(path3())


# ----------------------------------------------------------------- greedy


def test_greedy_diamond_up():
    phi = greedy_embed_transitive(diamond(), TransitiveOmega())
    assert phi.is_valid(diamond())
    assert sorted(phi.mapping.values()) == [0, 1, 2, 3]
    assert phi[0] == 0 and phi[3] == 3


def test_greedy_diamond_down():
    phi = greedy_embed_transitive(diamond(), TransitiveOmegaStar())
    assert phi.is_valid(diamond())
    # the sink goes first into the downward order
    assert phi[3] == 0 and phi[0] == 3


def test_greedy_rejects_cycle():
    G = FiniteOrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleFoundError):
        greedy_embed_transitive(G, TransitiveOmega())


def test_greedy_rejects_non_transitive_target():
    with pytest.raises(ValueError):
        greedy_embed_transitive(path3(), SeededRandom(1))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_greedy_random_dags_valid(seed):
    G = random_dag(seed)
    for target in (TransitiveOmega(), TransitiveOmegaStar()):
        phi = greedy_embed_transitive(G, target)
        assert len(phi) == G.n
        assert phi.is_valid(G)
        assert sorted(phi.mapping.values()) == list(range(G.n))


def test_greedy_presented_prefix():
    G = random_presented(11)
    phi = greedy_embed_transitive(G, TransitiveOmega(), horizon=400)
    assert phi.is_valid(G)
    # positions come out gapless even though some explored vertices wait
    # on neighbors beyond the horizon
    h = len(phi)
    assert 0 < h <= 400
    assert sorted(phi.mapping.values()) == list(range(h))


def test_greedy_anti_path_prefix():
    phi = greedy_embed_transitive(anti_path(), TransitiveOmega(), horizon=100)
    assert phi.is_valid(anti_path())
    # vertex 99 is a sink gated by vertex 100, just past the horizon;
    # everything else gets placed
    assert len(phi) == 99
    assert 99 not in phi


# -------------------------------------------------------------- partitions


def test_cells_of_path():
    G = path3()
    p = pm_partition(G, 0, "pm")
    assert p.cells == [frozenset({0}), frozenset({1, 2})]
    assert p.cell_type(1) == "+" and p.cell_type(2) == "-"
    assert check_pm_partition(G, p) == []


def test_cells_of_in_star():
    # two leaves pointing at a center; starting from one leaf the center
    # forms the second cell and the other leaf comes back in the third
    G = FiniteOrientedGraph(3, [(0, 2), (1, 2)])
    p = pm_partition(G, 0, "pm")
    assert p.cells == [frozenset({0}), frozenset({2}), frozenset({1})]
    assert check_pm_partition(G, p) == []


def test_cells_mirror_flavor():
    G = FiniteOrientedGraph(3, [(2, 0), (2, 1)])  # out-star from 2
    p = pm_partition(G, 0, "mp")
    assert p.cells == [frozenset({0}), frozenset({2}), frozenset({1})]
    assert p.cell_type(1) == "-" and p.cell_type(2) == "+"
    assert check_pm_partition(G, p) == []


def test_cells_reject_bad_start():
    with pytest.raises(ValueError):
        pm_partition(path3(), 1, "pm")  # vertex 1 has an in-neighbor
    with pytest.raises(ValueError):
        pm_partition(path3(), 0, "mp")  # vertex 0 has an out-neighbor


def test_partition_axioms_on_presented_families():
    cases = [
        (anti_path(), 0),
        (out_stars(), 0),
        (interleaved_forest(), 0),
        (random_presented(5), None),
        (random_presented(23), None),
    ]
    for G, start in cases:
        if start is None:
            start = next(v for v in range(50) if not G.in_neighbors(v))
        p = pm_partition(G, start, "pm", max_cells=10)
        assert check_pm_partition(G, p) == [], G.name


def _cell_reference(G, prev, before, sign, limit):
    """The union of the per-member closures of prev, less prev and the
    cell before it; None when that union passes `limit` vertices."""
    union: set[int] = set()
    for w in prev:
        try:
            union |= gamma(G, w, sign, budget=limit).members
        except BudgetExhaustedError:
            return None
        if len(union) > limit:
            return None
    return union - prev - before


CELL_GRAPHS = ["anti-path", "out-stars", "interleaved-forest",
               *(f"random-graph:{seed}" for seed in range(8))]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CELL_GRAPHS), st.sampled_from(["pm", "mp"]), st.integers(0, 20),
       st.one_of(st.integers(1, 16), st.integers(1, DEFAULT_BUDGET)), st.integers(2, 10))
def test_cells_are_unions_of_per_member_closures(name, flavor, k, budget, n_cells):
    # each cell is one search from the whole cell before it, within budget
    # expansions per member of that cell; it must equal the union of the
    # members' own closures, and fail exactly when that union passes the
    # cell's budget
    G = presented_from_name(name)
    blocked = G.in_neighbors if flavor == "pm" else G.out_neighbors
    start = [v for v in range(1000) if not blocked(v)][k]  # the k-th extremal vertex
    p = PMPartition([frozenset({start})], flavor, G, budget)
    for i in range(2, n_cells + 1):
        prev = p.cells[-1]
        before = p.cells[-2] if len(p.cells) >= 2 else frozenset()
        sign = "-" if p.cell_type(i) == "+" else "+"
        want = _cell_reference(G, prev, before, sign, budget * len(prev))
        try:
            got = p.cell(i)
        except BudgetExhaustedError:
            assert want is None, (name, i)
            return
        assert got == want, (name, i)
        if not got:
            return


def test_cell_budget_counts_every_member_of_the_cell():
    # Γ-(1) = {0, 1, 3, 4} passes a budget of 3, but the one search from
    # C_2 = {1, 2} reaches 5 <= 3 * 2 vertices, so C_3 grows
    G = FiniteOrientedGraph(5, [(0, 1), (0, 2), (3, 1), (4, 1)])
    with pytest.raises(BudgetExhaustedError):
        gamma(G, 1, "-", budget=3)
    p = pm_partition(G, 0, "pm", budget=3)
    assert p.cells == [frozenset({0}), frozenset({1, 2}), frozenset({3, 4})]
    assert check_pm_partition(G, p) == []
    # two more in-neighbors of 1 take the search from C_2 to 7 > 6 vertices;
    # the failure names the cell it grew from
    G = FiniteOrientedGraph(7, [(0, 1), (0, 2), (3, 1), (4, 1), (5, 1), (6, 1)])
    with pytest.raises(BudgetExhaustedError, match=r"^gamma-\(C_2\) exceeded budget 6$"):
        pm_partition(G, 0, "pm", budget=3)


def test_spanning_cells_make_no_gamma_calls(monkeypatch):
    # gamma serves only each machine's extremal-vertex pick; every cell
    # grows by one search from the whole cell before it
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return gamma(*args, **kwargs)

    monkeypatch.setattr(analysis, "gamma", counted)
    monkeypatch.setattr(embedding, "gamma", counted)
    res = spanning_embed(anti_path(), SplitTransitive(), horizon=3600)
    assert all(res.phi.has_target(k) for k in range(3600))
    assert len(calls) <= len(res.machines)


def test_checker_catches_swapped_cells():
    G = path3()
    p = pm_partition(G, 0, "pm")
    from tourlab.embedding import PMPartition

    bad = PMPartition(list(reversed(p.cells)), "pm")
    assert check_pm_partition(G, bad) != []


def test_checker_catches_wrong_flavor():
    G = path3()
    p = pm_partition(G, 0, "pm")
    from tourlab.embedding import PMPartition

    bad = PMPartition(p.cells, "mp")
    problems = check_pm_partition(G, bad)
    assert any(x.startswith("A3") or x.startswith("A4") for x in problems)


def test_checker_catches_distant_edge():
    # 0 -> 3 jumps from cell 1 to cell 4 if cells are forced by hand
    G = FiniteOrientedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    from tourlab.embedding import PMPartition

    bad = PMPartition(
        [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})], "pm"
    )
    assert any(x.startswith("A2") for x in check_pm_partition(G, bad))


# ----------------------------------------------------- transitive extraction


def test_transitive_extraction_bound_message():
    with pytest.raises(PoolTooSmallError) as e:
        find_transitive_subtournament(SeededRandom(0), list(range(7)), 4)
    assert "2^(n-1)" in str(e.value) and "8" in str(e.value)


def test_transitive_extraction_empty():
    assert find_transitive_subtournament(SeededRandom(0), [], 0) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_transitive_extraction_dominating(seed):
    K = SeededRandom(seed)
    pool = list(range(16))  # exactly 2^(5-1)
    chain = find_transitive_subtournament(K, pool, 5)
    assert len(chain) == 5 and len(set(chain)) == 5
    assert all(v in pool for v in chain)
    for a in range(5):
        for b in range(a + 1, 5):
            assert K.has_edge(chain[a], chain[b])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 6))
def test_transitive_extraction_asks_one_query_per_candidate(seed, size):
    class Counted(SeededRandom):
        def has_edge(self, a, b):
            asked.append(frozenset((a, b)))
            return super().has_edge(a, b)

    asked = []
    pool = list(range(1 << size))
    find_transitive_subtournament(Counted(seed), pool, size)
    # replay the recursion on an uncounted copy: each level asks about
    # every candidate but its pivot, once
    K = SeededRandom(seed)
    cands, expected = pool, 0
    for _ in range(size - 1):
        pivot, rest = cands[0], cands[1:]
        expected += len(rest)
        losers = [w for w in rest if K.has_edge(pivot, w)]
        winners = [w for w in rest if K.has_edge(w, pivot)]
        cands = losers if len(losers) >= len(winners) else winners
    assert len(asked) == expected
    assert len(set(asked)) == expected  # no pair is asked twice


# --------------------------------------------------------- finite embedding


def test_embed_finite_acyclic_plain():
    G = diamond()
    K = SeededRandom(2)
    phi = EmbeddingMap(K)
    chain = find_transitive_subtournament(K, list(range(8)), 4)
    embed_finite_acyclic(G, G.vertices, K, chain, phi)
    assert len(phi) == 4 and phi.is_valid(G)
    assert all(k < 8 for k in phi.mapping.values())


def test_embed_finite_acyclic_with_pin():
    G = path3()
    K = TransitiveOmega()
    phi = EmbeddingMap(K)
    phi.assign(0, 3)
    embed_finite_acyclic(G, G.vertices, K, [10, 11], phi)
    assert phi.mapping == {0: 3, 1: 10, 2: 11} and phi.is_valid(G)


def test_embed_finite_acyclic_needs_a_chain_member_per_unpinned_vertex():
    G = path3()
    K = TransitiveOmega()
    phi = EmbeddingMap(K)
    phi.assign(0, 3)
    with pytest.raises(PoolTooSmallError) as e:
        embed_finite_acyclic(G, G.vertices, K, [10], phi)
    assert str(e.value) == "chain of 1 for 2 vertices"
    assert phi.mapping == {0: 3}


def test_embed_finite_acyclic_pin_conflict():
    # pinning the path's head above its tail cannot work in the upward order
    G = path3()
    K = TransitiveOmega()
    phi = EmbeddingMap(K)
    phi.assign(0, 50)
    with pytest.raises(PinIncompatibilityError) as e:
        embed_finite_acyclic(G, G.vertices, K, [1, 2], phi)
    assert e.value.edge == (0, 1)


def test_embed_finite_acyclic_rejects_cycle():
    # the cycle avoids vertex 0, so it is named by the graph's own vertices
    G = FiniteOrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    K = TransitiveOmega()
    phi = EmbeddingMap(K)
    with pytest.raises(CycleFoundError) as e:
        embed_finite_acyclic(G, G.vertices, K, list(range(4)), phi)
    assert sorted(e.value.cycle) == [1, 2, 3]
    assert len(phi) == 0


def test_embed_finite_acyclic_extends_over_a_subset():
    # vertices 1..3 of the anti-path, pinned at 2, into a map that already
    # holds vertex 0: its image stays, and its edge 0 -> 1, which maps
    # against K, is not judged
    G = anti_path()
    K = TransitiveOmega()
    phi = EmbeddingMap(K)
    phi.assign(0, 100)
    phi.assign(2, 5)
    embed_finite_acyclic(G, [1, 2, 3], K, [6, 7], phi)
    assert phi.mapping == {0: 100, 2: 5, 1: 6, 3: 7}
    assert phi.violations(G) == [(0, 1)]


# ----------------------------------------------------------------- oracles


def test_up_oracle():
    o = TransitiveUpOracle()
    assert o.decide([(0, "+"), (5, "+")])
    assert not o.decide([(0, "+"), (5, "-")])
    assert o.enumerate_in_class([(3, "+")], {4, 6}, 3) == [5, 7, 8]


def test_down_oracle():
    # the downward transitive tournament is the identity layout's, and its
    # layout oracle hands out the upward tail past the highest anchor
    o = infiniteness_oracle_for(TransitiveOmegaStar())
    assert o.decide([(2, "-")])
    assert not o.decide([(2, "+")])
    assert o.enumerate_in_class([(2, "-")], (), 2) == [3, 4]
    excl = {5, 7, 8}
    for anchors in ([], [2], [9, 4], [0, 30]):
        cons = [(v, "-") for v in anchors]
        for start in (0, 3, 12, 40):
            lo = max([v + 1 for v in anchors] + [start])
            tail = [w for w in range(lo, lo + 10) if w not in excl][:4]
            assert o.enumerate_in_class(cons, excl, 4, start=start) == tail


def test_split_oracle():
    o = SplitTransitiveOracle()
    assert o.decide([(0, "+"), (1, "-"), (2, "+")])
    assert not o.decide([(0, "-")])
    assert not o.decide([(1, "+")])
    # the pool is the even vertices above the even anchors
    assert o.enumerate_in_class([(0, "+"), (1, "-")], set(), 3) == [2, 4, 6]
    assert o.enumerate_in_class([(4, "+"), (9, "-")], {8}, 2, start=5) == [6, 10]


def test_always_infinite_oracle_enumerates_by_scanning():
    K = SeededRandom(9)
    o = AlwaysInfiniteOracle(K)
    got = o.enumerate_in_class([(0, "+"), (1, "-")], {2}, 5)
    assert len(got) == 5 and 2 not in got
    for w in got:
        assert K.has_edge(0, w) and K.has_edge(w, 1)


def test_always_infinite_oracle_scan_cap(monkeypatch):
    # in the upward transitive tournament nothing is simultaneously above
    # 900 and below 5, so a capped scan must fail loudly, after testing
    # exactly SCAN_LIMIT candidates from wherever it starts
    monkeypatch.setattr(AlwaysInfiniteOracle, "SCAN_LIMIT", 500)
    o = AlwaysInfiniteOracle(TransitiveOmega())
    scanned = []

    class Seen:
        def __contains__(self, w):
            scanned.append(w)
            return False

    for start in (0, 700):
        scanned.clear()
        with pytest.raises(OracleInconsistencyError, match="scanned 500 vertices"):
            o.enumerate_in_class([(900, "+"), (5, "-")], Seen(), 5, start=start)
        assert scanned == list(range(start, start + 500))


def test_always_infinite_oracle_scans_past_the_limit():
    # a scan that starts beyond SCAN_LIMIT still gets SCAN_LIMIT candidates
    K = SeededRandom(1)
    start = AlwaysInfiniteOracle.SCAN_LIMIT + 10
    anchor = start - 5
    got = AlwaysInfiniteOracle(K).enumerate_in_class([(anchor, "+")], (), 3, start=start)
    assert len(got) == 3 and got == sorted(got) and got[0] >= start
    assert all(K.has_edge(anchor, w) for w in got)


def test_finite_below_oracle():
    K = FactorialBlock()
    o = FiniteBelowOracle(K)
    assert o.decide([(0, "-"), (7, "-")])
    assert not o.decide([(0, "+")])
    got = o.enumerate_in_class([(0, "-"), (7, "-")], (), 4)
    f = K.injection
    bound = max(f.eval(0), f.eval(7))
    assert len(got) == 4
    for w in got:
        assert f.eval(w) > bound


def test_oracle_dispatch(tmp_path):
    assert isinstance(infiniteness_oracle_for(TransitiveOmega()), TransitiveUpOracle)
    assert isinstance(
        infiniteness_oracle_for(SplitTransitive()), SplitTransitiveOracle
    )
    # every injection with a run layout gets the layout oracle: the
    # identity and factorial layouts, tail-only files and catalogue schemes
    tail = tmp_path / "tail.inj"
    tail.write_text("tail factorial\n")
    for K in [
        TransitiveOmegaStar(),
        OrdinalInjectionTournament(identity_injection()),
        FactorialBlock(),
        tournament_from_name(f"injection:{tail}"),
        *SCHEME_HOSTS,
    ]:
        assert isinstance(infiniteness_oracle_for(K), FiniteBelowOracle), K.name
    # an override leaves no layout, so such a file keeps the scan
    over = tmp_path / "over.inj"
    over.write_text("tail factorial\n1 1 0\n")
    K = tournament_from_name(f"injection:{over}")
    assert isinstance(infiniteness_oracle_for(K), AlwaysInfiniteOracle)
    with pytest.raises(ValueError):
        FiniteBelowOracle(K)
    assert isinstance(infiniteness_oracle_for(SeededRandom(0)), AlwaysInfiniteOracle)


def _value_order_scan(injection, constraints, exclusions, count, start):
    """Slow reference for the layout oracle's pools: test indices from
    `start` upward, one value at a time, and keep those neither excluded
    nor anchors whose value exceeds every anchor's."""
    anchors = {v for (v, _) in constraints}
    bound = max((injection.eval(v) for v in anchors), default=None)
    out: list[int] = []
    w = start
    while len(out) < count:
        assert w < 20_000, "the hosts below hold every pool within reach"
        if w not in exclusions and w not in anchors:
            if bound is None or injection.eval(w) > bound:
                out.append(w)
        w += 1
    return out


# one host per layout shape; the small W0 ends nested-dip's nested phase
# after four cycles (60 indices), so its plain blocks follow within reach
LAYOUT_HOSTS = [
    TransitiveOmegaStar(),
    FactorialBlock(),
    *(
        OrdinalInjectionTournament(make_block_scheme(p, L0=4).injection)
        for p in ("single-high", "paired-high-low")
    ),
    OrdinalInjectionTournament(
        make_block_scheme("nested-dip", r=2, q=0.5, L0=4, W0=10**4).injection
    ),
]


@settings(max_examples=400, deadline=None)
@given(
    K=st.sampled_from(LAYOUT_HOSTS),
    # late anchors put the highest one in a late run, with `start` below it
    anchors=st.lists(
        st.one_of(st.integers(0, 80), st.integers(200, 700)), max_size=5, unique=True
    ),
    exclusions=st.sets(st.integers(0, 300), max_size=40),
    start=st.integers(0, 150),
    count=st.integers(1, 8),
)
def test_layout_oracle_matches_value_order_scan(K, anchors, exclusions, start, count):
    constraints = [(v, "-") for v in anchors]
    want = _value_order_scan(K.injection, constraints, exclusions, count, start)
    got = infiniteness_oracle_for(K).enumerate_in_class(
        constraints, exclusions, count, start=start
    )
    assert got == want, K.name


def test_anti_path_into_factorial_walks_few_runs(monkeypatch):
    # each pool walk starts at the run of the highest-valued anchor, which
    # lies above every earlier index, so it reads a few runs rather than
    # every run from the vertex being covered on
    walked = 0
    iter_runs = _Layout.iter_runs

    def counting(self, k=0):
        nonlocal walked
        for run in iter_runs(self, k):
            walked += 1
            yield run

    monkeypatch.setattr(_Layout, "iter_runs", counting)
    horizon = 400
    res = spanning_embed(anti_path(), FactorialBlock(), horizon=horizon)
    assert all(res.phi.has_target(k) for k in range(horizon))
    assert walked <= 3 * horizon


def test_classify_signs():
    cases = [
        (TransitiveOmega(), "+" * 10),
        (TransitiveOmegaStar(), "-" * 10),
        (SplitTransitive(), "+-+-+-+-+-"),
        (SeededRandom(4), "+" * 10),
    ]
    for K, expect in cases:
        oracle = infiniteness_oracle_for(K)
        assert "".join(oracle.sign_class(v) for v in range(10)) == expect, K.name


def _host_signs(K, n, window):
    """The sign recursion read off the host's edges alone: vertex u gets
    '+' when some window vertex lies in u's out-neighborhood and in every
    earlier signed neighborhood.  Far above every vertex asked about, the
    window stands in for the infinite tail of each intersection."""
    window = list(window)
    survivors = set(window)
    signs = []
    for u in range(n):
        out = {w for w in window if K.has_edge(u, w)}
        s = "+" if survivors & out else "-"
        survivors &= out if s == "+" else set(window) - out
        assert survivors, (K.name, u)
        signs.append(s)
    return "".join(signs)


def test_sign_recursion_matches_reference(tmp_path):
    # every host with an exact oracle; the layout hosts use the small-W0
    # nested-dip, since the default one nests values below early vertices
    # past the window.  SeededRandom is left out: its window halves at
    # every vertex.
    tail = tmp_path / "factorial-tail.txt"
    tail.write_text("tail factorial\n")
    hosts = [
        TransitiveOmega(),
        SplitTransitive(),
        tournament_from_name(f"injection:{tail}"),
        *LAYOUT_HOSTS,
    ]
    for K in hosts:
        oracle = infiniteness_oracle_for(K)
        want = _host_signs(K, 300, range(4000, 4400))
        assert "".join(oracle.sign_class(v) for v in range(300)) == want, K.name


CURSOR_HOSTS = [
    TransitiveOmega(),
    TransitiveOmegaStar(),
    SplitTransitive(),
    FactorialBlock(),
    OrdinalInjectionTournament(identity_injection()),
    *SCHEME_HOSTS,
    SeededRandom(9),
]
CURSOR_ORACLES = [(K, infiniteness_oracle_for(K)) for K in CURSOR_HOSTS]

_ANCHORS = st.lists(
    st.tuples(st.integers(0, 60), st.booleans()), max_size=5, unique_by=lambda a: a[0]
)


@settings(max_examples=300, deadline=None)
@given(
    host=st.sampled_from(CURSOR_ORACLES),
    anchors=_ANCHORS,
    exclusions=st.sets(st.integers(0, 200), max_size=30),
    start=st.integers(0, 150),
    count=st.integers(1, 6),
)
def test_scan_cursor_equals_excluding_the_prefix(
    host, anchors, exclusions, start, count
):
    # a constraint follows its anchor's sign class unless the draw flips it
    _, oracle = host
    flip = {"+": "-", "-": "+"}
    constraints = [
        (v, oracle.sign_class(v) if keep else flip[oracle.sign_class(v)])
        for v, keep in anchors
    ]
    got = oracle.enumerate_in_class(constraints, exclusions, count, start=start)
    want = oracle.enumerate_in_class(
        constraints, exclusions | set(range(start)), count
    )
    assert got == want


@settings(max_examples=300, deadline=None)
@given(
    host=st.sampled_from(CURSOR_ORACLES),
    anchors=_ANCHORS,
    exclusions=st.sets(st.integers(0, 200), max_size=30),
    start=st.integers(0, 150),
    count=st.integers(1, 6),
)
def test_pool_members_satisfy_every_decided_constraint(
    host, anchors, exclusions, start, count
):
    # the host's own edges are the reference: every member of a pool or a
    # chain lies in the signed neighborhood of each anchor, and a chain is
    # dominating: every earlier member beats every later one
    K, oracle = host
    constraints = [(v, oracle.sign_class(v)) for v, _ in anchors]
    assert oracle.decide(constraints)
    pool = oracle.enumerate_in_class(constraints, exclusions, count, start=start)
    assert len(pool) == count and pool == sorted(set(pool))
    chain = oracle.chain(constraints, exclusions, count, start=start)
    assert len(chain) == count == len(set(chain))
    for w in pool + chain:
        assert w >= start and w not in exclusions
        assert oracle.sign_class(w) == oracle.pool_class
        for v, s in constraints:
            assert K.has_edge(v, w) if s == "+" else K.has_edge(w, v), (K.name, v, s, w)
    for i, w in enumerate(chain):
        assert all(K.has_edge(w, x) for x in chain[i + 1:]), (K.name, chain)


def _counting(oracle_cls):
    """oracle_cls with a count of sign lookups (one per constraint
    decided) and of the candidates its scans look at (each is tested once
    against the exclusions)."""

    class Counting(oracle_cls):
        work = 0

        def sign_class(self, v):
            self.work += 1
            return super().sign_class(v)

        def enumerate_in_class(self, constraints, exclusions, count, start=0):
            oracle = self

            class Seen:
                def __contains__(self, w):
                    oracle.work += 1
                    return w in exclusions

            return super().enumerate_in_class(
                constraints, Seen(), count, start=start
            )

    return Counting


def _factorial_tail(tmp_path):
    p = tmp_path / "factorial-tail.inj"
    p.write_text("tail factorial\n")
    return OrdinalInjectionTournament(read_injection_file(str(p)))


@pytest.mark.parametrize(
    "G_factory, host, make_oracle, per_vertex",
    [
        (anti_path, lambda tmp: SplitTransitive(),
         lambda K: _counting(SplitTransitiveOracle)(), 40),
        (anti_path, lambda tmp: SeededRandom(5),
         _counting(AlwaysInfiniteOracle), 40),
        (interleaved_forest, _factorial_tail, _counting(FiniteBelowOracle), 150),
    ],
    ids=["split", "random", "factorial-tail"],
)
def test_spanning_oracle_work_is_linear_in_the_horizon(
    tmp_path, G_factory, host, make_oracle, per_vertex
):
    # 11 (split), 17 (random) and 84 (factorial tail) checks per vertex
    # here; re-deciding the signed prefix, rescanning from vertex 0 on
    # every step or scanning the value order index by index makes many
    # more at this horizon
    horizon = 3600
    K = host(tmp_path)
    oracle = make_oracle(K)
    res = spanning_embed(G_factory(), K, oracle=oracle, horizon=horizon)
    assert all(res.phi.has_target(k) for k in range(horizon))
    assert oracle.work <= per_vertex * horizon


# ---------------------------------------------------------------- spanning


SPAN_TARGETS = [
    TransitiveOmega(),
    TransitiveOmegaStar(),
    SplitTransitive(),
    SeededRandom(7),
]


@pytest.mark.parametrize("G_factory", [anti_path, out_stars, interleaved_forest])
def test_spanning_covers_and_validates(G_factory):
    for K in SPAN_TARGETS:
        G = G_factory()
        res = spanning_embed(G, K, horizon=25)
        for k in range(25):
            assert res.phi.has_target(k), (G.name, K.name, k)
        assert res.phi.is_valid(G), (G.name, K.name)


def test_spanning_frontier_conformity():
    # after every step the just-completed frontier cell sits inside the
    # sign class matching its type
    for K in SPAN_TARGETS:
        G = anti_path()
        res = spanning_embed(G, K, horizon=25)
        oracle = infiniteness_oracle_for(K)
        for step in res.steps:
            m = res.machines[step.machine]
            cell = m.cells.cell(step.frontier_after)
            t = m.cells.cell_type(step.frontier_after)
            for v in cell:
                if v in res.phi:
                    assert oracle.sign_class(res.phi[v]) == t


def test_spanning_frontier_jumps():
    res = spanning_embed(anti_path(), TransitiveOmega(), horizon=25)
    for step in res.steps:
        if step.frontier_before >= 1:
            assert step.frontier_after >= step.frontier_before + 5


def test_spanning_mixed_sign_target_uses_far_pin():
    # against the split family the covering vertex's sign disagrees with
    # the frontier type on odd vertices, pushing the pin to distance 3
    res = spanning_embed(anti_path(), SplitTransitive(), horizon=25)
    far = 0
    for step in res.steps:
        if step.frontier_before >= 1:
            m = res.machines[step.machine]
            if step.pin_vertex in m.cells.cell(step.frontier_before + 3):
                far += 1
    assert far > 0


def test_spanning_components_do_not_mix():
    res = spanning_embed(out_stars(), TransitiveOmega(), horizon=20)
    # vertices 3k, 3k+1, 3k+2 form one star; every machine stays within one
    for m in res.machines:
        stars = {v // 3 for c in m.cells.cells for v in c}
        assert len(stars) == 1


def test_spanning_reports_chunk_cycle_in_graph_numbering():
    # the anti-path with a directed triangle far out in the numbering, hung
    # from vertex 4: the step whose chunk takes the triangle names it by
    # the graph's own vertices
    T = 10**6
    ins = {T: (4, T + 2), T + 1: (T,), T + 2: (T + 1,)}
    base = anti_path()

    def adj(v):
        if v in ins:
            return (ins[v], (T + (v - T + 1) % 3,))
        outs = base.out_neighbors(v)
        return (base.in_neighbors(v), outs + (T,) if v == 4 else outs)

    G = PresentedGraph(adj, name="anti-path-with-triangle")
    with pytest.raises(CycleFoundError) as e:
        spanning_embed(G, TransitiveOmega(), horizon=50)
    assert sorted(e.value.cycle) == [T, T + 1, T + 2]


def _anti_paths(k, L):
    """k disjoint finite anti-paths of L vertices each."""
    edges = [
        (c * L + v, c * L + w)
        for c in range(k)
        for v in range(0, L, 2)
        for w in (v - 1, v + 1)
        if 0 <= w < L
    ]
    return FiniteOrientedGraph(k * L, edges)


def test_spanning_machine_rotation():
    # four long components keep four machines running at once, so the
    # rotation alone decides which one covers each vertex
    G = _anti_paths(4, 60)
    res = spanning_embed(G, TransitiveOmega(), horizon=150)
    assert all(res.phi.has_target(k) for k in range(150))
    assert res.phi.is_valid(G)
    assert [s.machine for s in res.steps] == (
        [0, 0, 1, 1, 0, 2, 0, 1, 3, 1, 2, 3] + [0, 1, 2, 3] * 4 + [0]
    )


def test_spanning_finite_capacity():
    free = FiniteOrientedGraph(4, [], name="isolated")
    res = spanning_embed(free, SeededRandom(1), horizon=4)
    assert all(res.phi.has_target(k) for k in range(4))
    with pytest.raises(SchemeError):
        spanning_embed(free, SeededRandom(1), horizon=5)


def test_spanning_shallow_component_errors():
    # a single short path cannot keep covering: its cells run out
    with pytest.raises(SchemeError):
        spanning_embed(path3(), TransitiveOmega(), horizon=3)


def test_spanning_into_value_order_tournament():
    K = OrdinalInjectionTournament(FactorialBlock().injection)
    res = spanning_embed(anti_path(), K, horizon=12)
    assert all(res.phi.has_target(k) for k in range(12))
    assert res.phi.is_valid(anti_path())


@pytest.mark.parametrize(
    "K", [FactorialBlock(), *SCHEME_HOSTS], ids=lambda K: K.name
)
def test_anti_path_covers_value_order_hosts(K):
    # one component: each step's pool lies above the values of the step
    # before, so the anchors climb one block per step
    horizon = 200
    res = spanning_embed(anti_path(), K, horizon=horizon)
    assert all(res.phi.has_target(k) for k in range(horizon))
    assert res.phi.is_valid(anti_path())


# the five hosts of the dichotomy matrix: three layout hosts, the split
# host and a random one
DICHOTOMY_HOSTS = [
    "transitive-omega",
    "transitive-omega-star",
    "split-transitive",
    "factorial-block",
    "random:2",
]


@pytest.mark.parametrize("seed", range(8))
def test_unavoidable_random_graphs_never_run_out_of_components(seed):
    # every random graph is unavoidable, so the engine never runs out of
    # components; the four exact hosts hand out a chain for any chunk, so
    # only the random host, whose chain needs a 2^(n-1) pool, may stop at
    # its chunk size limit
    G = random_presented(seed)
    assert classify_unavoidability(G).verdict == "unavoidable"
    for name in DICHOTOMY_HOSTS:
        exact = name != "random:2"
        for horizon in (10, 300, 1000) if exact else (10,):
            G = random_presented(seed)
            try:
                res = spanning_embed(G, tournament_from_name(name), horizon=horizon)
            except PoolTooSmallError:
                if exact:
                    raise
                continue
            assert all(res.phi.has_target(k) for k in range(horizon)), (name, horizon)
            assert res.phi.is_valid(G), (name, horizon)


def _span_error(G, K, horizon):
    """None when the run covers 0..horizon-1 validly, else its error type."""
    try:
        res = spanning_embed(G, K, horizon=horizon)
    except TourlabError as e:
        return type(e)
    assert all(res.phi.has_target(k) for k in range(horizon)), (G.name, K.name)
    assert res.phi.is_valid(G), (G.name, K.name)
    return None


@pytest.mark.parametrize("G_factory", [anti_path, out_stars, interleaved_forest])
def test_reversed_and_closed_graphs_span_like_the_graph(G_factory):
    # reversal and the closure edges keep a graph unavoidable, so their runs
    # into each shipped host (the four deterministic dichotomy hosts and a
    # random one) cover validly, or end in the error G's run does
    horizon = 300
    for name in [*DICHOTOMY_HOSTS[:4], "random:7"]:
        K = tournament_from_name(name)
        own = _span_error(G_factory(), K, horizon)
        for H in (_reverse(G_factory()), _closure(G_factory(), DEFAULT_BUDGET)):
            assert _span_error(H, K, horizon) in (None, own), (H.name, name)


@pytest.mark.parametrize("host", [*BLOCK_PATTERNS, "nested-dip:r=12.5,q=0.97"])
def test_catalogue_schemes_are_embedding_hosts(host):
    # the host grammar names every catalogue scheme, and each scheme's
    # tournament is an injection tournament on the naturals, so every
    # unavoidable family spans a prefix of it
    K = tournament_from_name(host)
    assert isinstance(K, OrdinalInjectionTournament)
    assert isinstance(infiniteness_oracle_for(K), FiniteBelowOracle)
    for G_factory in (anti_path, out_stars, interleaved_forest):
        res = spanning_embed(G_factory(), K, horizon=300)
        assert all(res.phi.has_target(k) for k in range(300)), (host, G_factory.__name__)
        assert res.phi.is_valid(G_factory()), (host, G_factory.__name__)
