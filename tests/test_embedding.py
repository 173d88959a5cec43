"""Embedding layer: greedy placement, cell partitions, transitive
extraction, oracles, and the spanning engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourlab.core import (
    FactorialBlock,
    FiniteOrientedGraph,
    SeededRandom,
    SplitTransitive,
    TransitiveOmega,
    TransitiveOmegaStar,
    anti_path,
    identity_injection,
    interleaved_forest,
    make_ordinal_injection_tournament,
    out_stars,
    random_presented,
    tournament_from_name,
)
from tourlab.embedding import (
    AlwaysInfiniteOracle,
    EmbeddingMap,
    FiniteBelowOracle,
    InfinitenessOracle,
    SplitTransitiveOracle,
    TransitiveDownOracle,
    TransitiveUpOracle,
    check_pm_partition,
    classify_vertices,
    embed_finite_acyclic,
    find_transitive_subtournament,
    greedy_embed_transitive,
    infiniteness_oracle_for,
    pm_partition,
    spanning_embed,
    tournament_to_coloring,
    _sign_stream,
)
from tourlab.errors import (
    CycleFoundError,
    OracleInconsistencyError,
    PinIncompatibilityError,
    PoolTooSmallError,
    SchemeError,
)


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


# ---------------------------------------------------------------- coloring


def test_coloring_on_upward_order():
    colors = tournament_to_coloring(TransitiveOmega(), [2, 0, 1])
    assert colors == {(2, 0): "blue", (2, 1): "blue", (0, 1): "red"}


def test_coloring_rejects_repeats():
    with pytest.raises(ValueError):
        tournament_to_coloring(TransitiveOmega(), [1, 1])


def test_coloring_counts():
    K = SeededRandom(3)
    order = list(range(10))
    colors = tournament_to_coloring(K, order)
    assert len(colors) == 45
    red = sum(1 for c in colors.values() if c == "red")
    fwd = sum(1 for i in range(10) for j in range(i + 1, 10) if K.has_edge(i, j))
    assert red == fwd


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


# --------------------------------------------------------- finite embedding


def test_embed_finite_acyclic_plain():
    G = diamond()
    phi = embed_finite_acyclic(G, SeededRandom(2), pool=list(range(8)))
    assert len(phi) == 4 and phi.is_valid(G)
    assert all(k < 8 for k in phi.mapping.values())


def test_embed_finite_acyclic_with_pin():
    G = path3()
    K = TransitiveOmega()
    phi = embed_finite_acyclic(G, K, pool=[10, 11], pins={0: 3})
    assert phi[0] == 3 and phi.is_valid(G)


def test_embed_finite_acyclic_pin_conflict():
    # pinning the path's head above its tail cannot work in the upward order
    G = path3()
    K = TransitiveOmega()
    with pytest.raises(PinIncompatibilityError) as e:
        embed_finite_acyclic(G, K, pool=[1, 2], pins={0: 50})
    assert e.value.edge is not None


def test_embed_finite_acyclic_rejects_cycle():
    G = FiniteOrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleFoundError):
        embed_finite_acyclic(G, TransitiveOmega(), pool=list(range(4)))


def test_embed_finite_acyclic_bad_pin_vertex():
    with pytest.raises(ValueError):
        embed_finite_acyclic(path3(), TransitiveOmega(), pool=[0, 1], pins={9: 0})


# ----------------------------------------------------------------- oracles


def test_up_oracle():
    o = TransitiveUpOracle()
    assert o.decide([(0, "+"), (5, "+")])
    assert not o.decide([(0, "+"), (5, "-")])
    assert o.enumerate([(3, "+")], exclusions={4, 6}, count=3) == [5, 7, 8]


def test_down_oracle():
    o = TransitiveDownOracle()
    assert o.decide([(2, "-")])
    assert not o.decide([(2, "+")])
    assert o.enumerate([(2, "-")], count=2) == [3, 4]


def test_split_oracle():
    o = SplitTransitiveOracle()
    assert o.decide([(0, "+"), (1, "-"), (2, "+")])
    assert not o.decide([(0, "-")])
    assert not o.decide([(1, "+")])
    evens = o.enumerate_in_class([(0, "+"), (1, "-")], set(), 3, "+")
    odds = o.enumerate_in_class([(0, "+"), (1, "-")], set(), 3, "-")
    assert evens == [2, 4, 6]
    assert odds == [3, 5, 7]
    # the unrestricted stream interleaves both classes in vertex order
    assert o.enumerate([(0, "+"), (1, "-")], count=4) == [2, 3, 4, 5]


def test_always_infinite_oracle_enumerates_by_scanning():
    K = SeededRandom(9)
    o = AlwaysInfiniteOracle(K)
    got = o.enumerate([(0, "+"), (1, "-")], exclusions={2}, count=5)
    assert len(got) == 5 and 2 not in got
    for w in got:
        assert K.has_edge(0, w) and K.has_edge(w, 1)


def test_always_infinite_oracle_scan_cap():
    # in the upward transitive tournament nothing is simultaneously above
    # 900 and below 5, so a capped scan must fail loudly
    o = AlwaysInfiniteOracle(TransitiveOmega(), scan_limit=500)
    with pytest.raises(OracleInconsistencyError):
        o.enumerate([(900, "+"), (5, "-")], count=5)


def test_finite_below_oracle():
    K = make_ordinal_injection_tournament(FactorialBlock().equivalent_injection())
    o = FiniteBelowOracle(K)
    assert o.decide([(0, "-"), (7, "-")])
    assert not o.decide([(0, "+")])
    got = o.enumerate([(0, "-"), (7, "-")], count=4)
    f = K.injection
    bound = max(f.eval(0), f.eval(7))
    assert len(got) == 4
    for w in got:
        assert f.eval(w) > bound


def test_oracle_dispatch():
    assert isinstance(infiniteness_oracle_for(TransitiveOmega()), TransitiveUpOracle)
    assert isinstance(
        infiniteness_oracle_for(TransitiveOmegaStar()), TransitiveDownOracle
    )
    assert isinstance(
        infiniteness_oracle_for(SplitTransitive()), SplitTransitiveOracle
    )
    K = make_ordinal_injection_tournament(FactorialBlock().equivalent_injection())
    assert isinstance(infiniteness_oracle_for(K), FiniteBelowOracle)
    # the block tournament is read as its value order, not scanned pair by pair
    assert isinstance(infiniteness_oracle_for(FactorialBlock()), FiniteBelowOracle)
    assert isinstance(infiniteness_oracle_for(SeededRandom(0)), AlwaysInfiniteOracle)


def test_classify_signs():
    cases = [
        (TransitiveOmega(), "+" * 10),
        (TransitiveOmegaStar(), "-" * 10),
        (SplitTransitive(), "+-+-+-+-+-"),
        (SeededRandom(4), "+" * 10),
    ]
    for K, expect in cases:
        signs = classify_vertices(K, infiniteness_oracle_for(K), 10)
        assert "".join(signs.signs) == expect, K.name


def _signs_reference(oracle, n):
    """The from-scratch sign recursion: every vertex decides the whole
    signed prefix again."""
    constraints = []
    for u in range(n):
        s = "+" if oracle.decide(constraints + [(u, "+")]) else "-"
        constraints.append((u, s))
    return "".join(s for _, s in constraints)


def _shipped_tournaments(tmp_path):
    tail = tmp_path / "factorial-tail.txt"
    tail.write_text("tail factorial\n")
    return [
        TransitiveOmega(),
        TransitiveOmegaStar(),
        SplitTransitive(),
        FactorialBlock(),
        tournament_from_name(f"injection:{tail}"),
        make_ordinal_injection_tournament(identity_injection()),
        SeededRandom(4),
    ]


def test_sign_recursion_matches_reference(tmp_path):
    for K in _shipped_tournaments(tmp_path):
        oracle = infiniteness_oracle_for(K)
        want = _signs_reference(oracle, 300)
        got = "".join(s for _, s in zip(range(300), _sign_stream(oracle)))
        assert got == want, K.name
        assert "".join(classify_vertices(K, oracle, 300).signs) == want, K.name


class _TableOracle(InfinitenessOracle):
    """A conjunctive oracle read from a table of (admits '-', admits '+')
    per vertex, cycled; its signs may switch class midway."""

    classes = ("+", "-")

    def __init__(self, table):
        self.table = table

    def admits(self, v, s):
        return self.table[v % len(self.table)][s == "+"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
def test_sign_recursion_matches_reference_on_any_conjunction(table):
    oracle = _TableOracle(table)
    got = "".join(s for _, s in zip(range(120), _sign_stream(oracle)))
    assert got == _signs_reference(oracle, 120)


CURSOR_ORACLES = [
    infiniteness_oracle_for(TransitiveOmega()),
    infiniteness_oracle_for(TransitiveOmegaStar()),
    infiniteness_oracle_for(SplitTransitive()),
    infiniteness_oracle_for(FactorialBlock()),
    infiniteness_oracle_for(make_ordinal_injection_tournament(identity_injection())),
    infiniteness_oracle_for(SeededRandom(9)),
]


@settings(max_examples=300, deadline=None)
@given(
    oracle=st.sampled_from(CURSOR_ORACLES),
    anchors=st.lists(
        st.tuples(st.integers(0, 60), st.booleans()),
        max_size=5,
        unique_by=lambda a: a[0],
    ),
    exclusions=st.sets(st.integers(0, 200), max_size=30),
    start=st.integers(0, 150),
    count=st.integers(1, 6),
    klass=st.sampled_from("+-"),
)
def test_scan_cursor_equals_excluding_the_prefix(
    oracle, anchors, exclusions, start, count, klass
):
    # a constraint follows its anchor's sign class unless the draw flips it
    flip = {"+": "-", "-": "+"}
    constraints = [
        (v, oracle.sign_class(v) if keep else flip[oracle.sign_class(v)])
        for v, keep in anchors
    ]
    got = oracle.enumerate_in_class(constraints, exclusions, count, klass, start=start)
    want = oracle.enumerate_in_class(
        constraints, exclusions | set(range(start)), count, klass
    )
    assert got == want


def _counting(oracle_cls):
    """oracle_cls with a count of per-constraint checks and of the
    candidates its scans look at (each is tested once against the
    exclusions)."""

    class Counting(oracle_cls):
        work = 0

        def admits(self, v, s):
            self.work += 1
            return super().admits(v, s)

        def enumerate_in_class(self, constraints, exclusions, count, klass, start=0):
            oracle = self

            class Seen:
                def __contains__(self, w):
                    oracle.work += 1
                    return w in exclusions

            return super().enumerate_in_class(
                constraints, Seen(), count, klass, start=start
            )

    return Counting


@pytest.mark.parametrize(
    "K, oracle",
    [
        (SplitTransitive(), _counting(SplitTransitiveOracle)()),
        (SeededRandom(5), _counting(AlwaysInfiniteOracle)(SeededRandom(5))),
    ],
    ids=["split", "random"],
)
def test_spanning_oracle_work_is_linear_in_the_horizon(K, oracle):
    # 12 (split) and 18 (random) checks per vertex here; re-deciding the
    # signed prefix or rescanning from vertex 0 on every step makes
    # millions at this horizon
    horizon = 3600
    res = spanning_embed(anti_path(), K, oracle=oracle, horizon=horizon)
    assert all(res.phi.has_target(k) for k in range(horizon))
    assert oracle.work <= 40 * horizon


def test_classify_detects_lying_oracle():
    class Liar(TransitiveUpOracle):
        def sign_class(self, v):
            return "-"

    with pytest.raises(OracleInconsistencyError):
        classify_vertices(TransitiveOmega(), Liar(), 3)


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
    K = make_ordinal_injection_tournament(FactorialBlock().equivalent_injection())
    res = spanning_embed(anti_path(), K, horizon=12)
    assert all(res.phi.has_target(k) for k in range(12))
    assert res.phi.is_valid(anti_path())
