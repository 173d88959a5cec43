"""Acyclicity, closures, and the unavoidability classifier."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourlab import analysis
from tourlab.analysis import (
    DEFAULT_BUDGET,
    Classification,
    _least_first_peel,
    classify_unavoidability,
    gamma,
    is_acyclic,
)
from tourlab.core import (
    FiniteOrientedGraph,
    PresentedGraph,
    anti_path,
    forward_path,
    interleaved_forest,
    out_stars,
    random_presented,
)
from tourlab.errors import BudgetExhaustedError


def triangle():
    return FiniteOrientedGraph(3, [(0, 1), (1, 2), (2, 0)])


def random_dag(seed, n=50, p=0.15):
    # shuffle a topological order, then orient every chosen pair along it
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    pos = np.empty(n, int)
    pos[order] = np.arange(n)
    edges = [
        (i, j) if pos[i] < pos[j] else (j, i)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return FiniteOrientedGraph(n, edges)


def _assert_cycle_valid(G, cycle):
    assert len(cycle) >= 2
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (a, b) in G.edges


# ------------------------------------------------------------- is_acyclic


def test_single_edge_acyclic():
    ok, w = is_acyclic(FiniteOrientedGraph(2, [(0, 1)]))
    assert ok and w is None


def test_triangle_cycle_witness():
    ok, cycle = is_acyclic(triangle())
    assert not ok
    _assert_cycle_valid(triangle(), cycle)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_random_dag_is_acyclic(seed):
    ok, _ = is_acyclic(random_dag(seed))
    assert ok


def test_embedded_long_cycle_found():
    n = 30
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n - 1, 5), (3, 17)]
    # (3,17) duplicates nothing; (n-1,5) adds a chord
    G = FiniteOrientedGraph(n, set(edges))
    ok, cycle = is_acyclic(G)
    assert not ok
    _assert_cycle_valid(G, cycle)


# ------------------------------------------------------------ the peel


@st.composite
def peel_inputs(draw, acyclic):
    # a digraph on 0..n-1 and a member set; the peel sees every edge but
    # waits only on predecessors inside the set
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.sets(pair.filter(lambda e: e[0] != e[1]), max_size=3 * n))
    if acyclic:  # orient every edge along a drawn order
        rank = draw(st.permutations(range(n)))
        edges = {(u, w) if rank[u] < rank[w] else (w, u) for u, w in edges}
    members = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return n, edges, members


def _peel(n, edges, members):
    succ = {v: sorted(w for u, w in edges if u == v) for v in range(n)}
    waiting = {v: sum(1 for u, w in edges if w == v and u in members) for v in members}
    return _least_first_peel(waiting, succ.__getitem__)


def _reference_order(edges, members):
    # repeatedly place the least member whose predecessors in the set are
    # all placed, until no member qualifies
    order, placed = [], set()
    while True:
        ready = [
            v for v in sorted(members - placed)
            if all(u in placed for u, w in edges if w == v and u in members)
        ]
        if not ready:
            return order
        order.append(ready[0])
        placed.add(ready[0])


def _blocked_by_cycles(edges, members):
    # members on a directed cycle inside the set, and all they reach there
    def reach(v):
        seen, todo = set(), [v]
        while todo:
            x = todo.pop()
            for u, w in edges:
                if u == x and w in members and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    reached = {v: reach(v) for v in members}
    on_cycle = {v for v in members if v in reached[v]}
    return on_cycle.union(*(reached[v] for v in on_cycle))


@given(peel_inputs(acyclic=True))
@settings(max_examples=200, deadline=None)
def test_peel_is_least_first_on_dags(inputs):
    n, edges, members = inputs
    order = _peel(n, edges, members)
    assert order == _reference_order(edges, members)
    assert sorted(order) == sorted(members)


@given(peel_inputs(acyclic=False))
@settings(max_examples=200, deadline=None)
def test_peel_stops_short_on_the_vertices_cycles_block(inputs):
    n, edges, members = inputs
    order = _peel(n, edges, members)
    assert order == _reference_order(edges, members)
    assert members - set(order) == _blocked_by_cycles(edges, members)


# ------------------------------------------------------------------ gamma


def test_gamma_path():
    G = FiniteOrientedGraph(3, [(0, 1), (1, 2)])
    res = gamma(G, 0, "+", budget=10)
    assert res.members == {0, 1, 2}
    assert gamma(G, 0, "-", budget=10).members == {0}


def test_gamma_isolated_vertex():
    G = FiniteOrientedGraph(1, [])
    assert gamma(G, 0, "+", budget=1).members == {0}


def test_gamma_budget_exhaustion_on_forward_path():
    with pytest.raises(BudgetExhaustedError) as e:
        gamma(forward_path(), 0, "+", budget=100)
    assert e.value.budget == 100
    assert len(e.value.partial) >= 100


def test_gamma_alternation_covers_weakly_connected_graph():
    # growing +/- sweeps from one vertex exhaust a weakly connected graph
    G = random_dag(4, n=40, p=0.2)
    # restrict to the weakly connected component of 0
    comp = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in G.out_neighbors(v) + G.in_neighbors(v):
            if w not in comp:
                comp.add(w)
                frontier.append(w)
    reach = {0}
    for _ in range(2 * len(comp)):
        grown = set(reach)
        for v in list(reach):
            grown |= gamma(G, v, "+", budget=10_000).members
            grown |= gamma(G, v, "-", budget=10_000).members
        if grown == reach:
            break
        reach = grown
    assert reach == comp


# -------------------------------------------------------------- classifier


def test_classify_finite():
    c = classify_unavoidability(triangle(), budget=10)
    assert c.verdict == "avoidable"
    kind, cycle = c.witness
    assert kind == "cycle"
    _assert_cycle_valid(triangle(), cycle)

    anti6 = FiniteOrientedGraph(6, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)])
    assert classify_unavoidability(anti6, budget=10).verdict == "unavoidable"


def test_classify_certified_forward_path():
    c = classify_unavoidability(forward_path(), budget=100)
    assert c.verdict == "avoidable"
    assert c.witness[0] == "infinite-path-certificate"


def test_classify_uncertified_forward_path_is_inconclusive():
    def adj(v):
        return ((v - 1,) if v > 0 else (), (v + 1,))

    G = PresentedGraph(adj, name="raw-forward-path")
    c = classify_unavoidability(G, budget=100)
    assert c.verdict == "inconclusive"
    assert c.reason


def test_classify_presented_good_families():
    for G in (anti_path(), out_stars(), interleaved_forest()):
        assert classify_unavoidability(G, budget=300).verdict == "unavoidable"


def test_classify_presented_cycle_found():
    def adj(v):
        # a 3-cycle on {0,1,2} floating in an infinite edgeless sea
        if v in (0, 1, 2):
            return ((v - 1) % 3,), ((v + 1) % 3,)
        return (), ()

    G = PresentedGraph(lambda v: ((((v - 1) % 3,), ((v + 1) % 3,)) if v < 3 else ((), ())))
    c = classify_unavoidability(G, budget=50)
    assert c.verdict == "avoidable"
    assert c.witness[0] == "cycle"


@given(st.integers(0, 10_000))
@settings(max_examples=15)
def test_finite_acyclic_always_unavoidable(seed):
    G = random_dag(seed, n=20)
    assert classify_unavoidability(G, budget=10).verdict == "unavoidable"


# ------------------------------------------ classifier against a slow reference


def _reference_cycle(adj):
    """Cycle witness by the classifier's rule, found without Kahn peeling:
    drop vertices with no in-neighbor left until none can go, then walk
    from the least survivor to its least surviving in-neighbor."""
    alive = set(adj)
    while True:
        fed = {w for v in alive for w in adj[v] if w in alive}
        if fed == alive:
            break
        alive = fed
    if not alive:
        return None
    v, trail = min(alive), []
    while v not in trail:
        trail.append(v)
        v = min(u for u in alive if v in adj[u])
    cycle = trail[trail.index(v) :]
    cycle.reverse()
    return cycle


def _classify_reference(G, budget):
    """The classifier as one gamma call per vertex and direction."""
    explored, failure = set(), None
    for v in range(budget):
        for direction in ("+", "-"):
            try:
                explored |= gamma(G, v, direction, budget=budget).members
            except BudgetExhaustedError as e:
                explored |= e.partial
                failure = (
                    f"gamma{direction}({v}) still open after {budget} expansions; "
                    "possible infinite directed path"
                )
                break
        if failure is not None:
            break
    cycle = _reference_cycle({v: G.out_neighbors(v) for v in explored})
    if cycle is not None:
        return Classification("avoidable", witness=("cycle", cycle))
    if failure is not None:
        return Classification("inconclusive", reason=failure)
    return Classification("unavoidable")


def _presented(n, edges, ray=None):
    """Graph on the naturals: an oriented edge set on 0..n-1 and, from
    vertex `ray`, an uncertified directed ray ray -> n -> n + 1 -> ...;
    every other vertex is isolated."""
    arcs = set()
    for u, w in edges:
        if u != w and (w, u) not in arcs:
            arcs.add((u, w))
    if ray is not None:
        arcs.add((ray, n))
    outs, ins = {}, {}
    for u, w in arcs:
        outs.setdefault(u, []).append(w)
        ins.setdefault(w, []).append(u)

    def adj(v):
        o, i = outs.get(v, []), ins.get(v, [])
        if ray is not None and v >= n:
            o = o + [v + 1]
            i = i + ([v - 1] if v > n else [])
        return tuple(sorted(i)), tuple(sorted(o))

    return PresentedGraph(adj, name="test-graph")


@st.composite
def presented_graphs(draw):
    n = draw(st.integers(1, 30))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    if draw(st.booleans()):  # orient every edge upward: acyclic, with shared closures
        edges = [(min(e), max(e)) for e in edges]
    ray = draw(st.none() | st.integers(0, n - 1))
    return n, edges, ray


@given(presented_graphs(), st.integers(1, 25))
@example((4, [(0, 1), (1, 2), (2, 3), (3, 1)], 0), 5)  # a cycle the failing gamma misses
@example((8, [(5, 0), (5, 6), (6, 7), (7, 5)], None), 5)  # reached only against the edges
@example((8, [(0, 1), (5, 6), (6, 7), (7, 5), (6, 1)], None), 3)  # reached from a later root
@settings(max_examples=400, deadline=None)
def test_classifier_matches_per_vertex_reference(graph, budget):
    got = classify_unavoidability(_presented(*graph), budget=budget)
    assert got == _classify_reference(_presented(*graph), budget)


def _two_paths(L):
    """0 -> path A, 1 -> path B and 2 -> both heads, so |Γ+(2)| = 2L + 1
    is reached through paths that the roots 0 and 1 finished."""
    A, B = range(3, 3 + L), range(3 + L, 3 + 2 * L)
    edges = [(0, A[0]), (1, B[0]), (2, A[0]), (2, B[0])]
    return 3 + 2 * L, edges + list(zip(A, A[1:])) + list(zip(B, B[1:]))


@pytest.mark.parametrize(
    "graph, members",
    [((12, [(v, v + 1) for v in range(11)]), 12), (_two_paths(6), 13)],
)
@pytest.mark.parametrize("slack", [0, -1])
def test_classifier_budget_boundary(graph, members, slack):
    # the largest closure has `members` members: it fits a budget of
    # exactly that size and fails one below it
    budget = members + slack
    got = classify_unavoidability(_presented(*graph), budget=budget)
    assert got == _classify_reference(_presented(*graph), budget)
    assert got.verdict == ("unavoidable" if slack == 0 else "inconclusive")


def _disjoint_triangles(v):
    base, r = v - v % 3, v % 3
    return (base + (r - 1) % 3,), (base + (r + 1) % 3,)


@pytest.mark.parametrize("budget", [0, -1])
def test_classifier_refuses_a_budget_below_one(budget):
    # a budget of no vertex would check nothing and certify a graph made
    # of directed triangles, which a budget of two finds avoidable
    G = PresentedGraph(_disjoint_triangles, name="disjoint-triangles")
    assert classify_unavoidability(G, budget=2) == Classification(
        "avoidable", witness=("cycle", [1, 2, 0]))
    with pytest.raises(ValueError, match="budget must be positive"):
        classify_unavoidability(G, budget=budget)


class _CountingGraph(PresentedGraph):
    """Counts in_neighbors and out_neighbors calls."""

    def __init__(self, adjacency):
        super().__init__(adjacency, name="counting")
        self.calls = 0

    def in_neighbors(self, v):
        self.calls += 1
        return super().in_neighbors(v)

    def out_neighbors(self, v):
        self.calls += 1
        return super().out_neighbors(v)


def test_classifier_work_is_linear_on_long_paths():
    # disjoint directed paths of 1000 vertices: one gamma call per vertex
    # would make about budget * 1000 neighbor queries
    L = 1000

    def adj(v):
        return ((v - 1,) if v % L else ()), ((v + 1,) if (v + 1) % L else ())

    G = _CountingGraph(adj)
    assert classify_unavoidability(G, budget=DEFAULT_BUDGET).verdict == "unavoidable"
    # one neighbor query per vertex and direction: no second pass
    assert G.calls <= 2 * DEFAULT_BUDGET


@pytest.mark.parametrize(
    "G", [anti_path(), interleaved_forest(), random_presented(3)], ids=lambda G: G.name
)
def test_classifier_certifies_acyclic_graphs_without_a_cycle_search(G, monkeypatch):
    # the walks saw no cycle and every closure fit, so the explored region
    # is not read again
    def no_second_pass(adj):
        raise AssertionError("explored region read twice")

    monkeypatch.setattr(analysis, "_find_cycle", no_second_pass)
    assert classify_unavoidability(G, budget=DEFAULT_BUDGET).verdict == "unavoidable"


def test_classifier_work_is_linear_into_a_cycle():
    # a directed cycle on 0..L-1 that every later vertex points into: the
    # cycle's bound is shared instead of recounted from each later vertex
    L = 1000

    def adj(v):
        if v < L:
            ins = ((v - 1) % L,) + tuple(range(L + v, DEFAULT_BUDGET, L))
            return ins, ((v + 1) % L,)
        return (), (v % L,)

    G = _CountingGraph(adj)
    c = classify_unavoidability(G, budget=DEFAULT_BUDGET)
    assert c == Classification("avoidable", witness=("cycle", [*range(1, L), 0]))
    assert G.calls <= 5 * DEFAULT_BUDGET


# ------------------------------------------------ the paper's graph symmetries
#
# Reversing every edge maps tournaments to tournaments, so G is unavoidable
# exactly when its reverse is; adding the edges of the transitive closure
# keeps every closure and every cycle.  The classifier's criterion (finite
# closures both ways, no cycle) is invariant under both.


def _reverse(G):
    if G.is_finite:
        return FiniteOrientedGraph(G.n, [(w, u) for u, w in G.edges])
    return PresentedGraph(
        lambda v: (G.out_neighbors(v), G.in_neighbors(v)), name=f"reverse-{G.name}"
    )


def _closure(G, budget):
    """G plus every edge u -> w of its transitive closure for which both
    Γ+(u) and Γ-(w) fit the budget.  The in- and out-lists then agree, and
    adding any set of closure edges keeps every closure and every cycle."""

    @functools.lru_cache(maxsize=None)
    def fitting(v, direction):
        """Γ(v) without v, or None when it passes the budget."""
        try:
            return gamma(G, v, direction, budget=budget).members - {v}
        except BudgetExhaustedError:
            return None

    def adj(v):
        if G.is_finite and v >= G.n:
            return (), ()
        lists = []
        for direction, other, own in (("-", "+", G.in_neighbors), ("+", "-", G.out_neighbors)):
            added = [w for w in fitting(v, direction) or () if fitting(w, other) is not None]
            lists.append(tuple(sorted({*own(v), *added})))
        return tuple(lists)

    return PresentedGraph(adj, name=f"closure-{G.name}")


def _ray(start, step):
    """An uncertified ray from `start`, pointing up (step 1) or down
    toward `start` (step -1); the vertices below `start` are isolated."""

    def adj(v):
        if v < start:
            return (), ()
        below = (v - 1,) if v > start else ()
        return (below, (v + 1,)) if step == 1 else ((v + 1,), below)

    return PresentedGraph(adj, name=f"ray{step:+d}@{start}")


@st.composite
def finite_graphs(draw, cyclic):
    """A random DAG, or one with a directed cycle laid over it."""
    n = draw(st.integers(3, 15))
    G = random_dag(draw(st.integers(0, 2**32 - 1)), n=n, p=0.3)
    if not cyclic:
        return G
    cycle = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=n, unique=True))
    arcs = set(zip(cycle, cycle[1:] + cycle[:1]))
    return FiniteOrientedGraph(n, arcs | {(u, w) for u, w in G.edges if (w, u) not in arcs})


SYMMETRY_GRAPHS = st.one_of(
    st.integers(0, 10**6).map(random_presented),
    finite_graphs(cyclic=False),
    finite_graphs(cyclic=True),
    st.builds(_ray, st.integers(0, 20), st.sampled_from([1, -1])),
)


@given(SYMMETRY_GRAPHS)
@example(_ray(0, -1))  # only the '-' closures are infinite
@example(_ray(3, 1))
@settings(max_examples=60, deadline=None)
def test_verdict_is_kept_by_reversal_and_closure(G):
    budget = 200
    verdict = classify_unavoidability(G, budget=budget).verdict
    assert classify_unavoidability(_reverse(G), budget=budget).verdict == verdict
    assert classify_unavoidability(_closure(G, budget), budget=budget).verdict == verdict


@given(finite_graphs(cyclic=True))
@settings(max_examples=40, deadline=None)
def test_reversed_cycle_witness_is_a_cycle_of_the_reverse(G):
    kind, cycle = classify_unavoidability(G).witness
    assert kind == "cycle"
    R = _reverse(G)
    _assert_cycle_valid(R, cycle[::-1])
    kind, own = classify_unavoidability(R).witness
    assert kind == "cycle"
    _assert_cycle_valid(R, own)
