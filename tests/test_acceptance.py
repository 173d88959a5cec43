"""Acceptance runs: one test per shipped criterion, stated bounds enforced.

Each test prints one summary line; the -v test report gives the
pass/fail line per criterion.  Reference quantities are recomputed here
from scratch wherever the criterion calls for an independent check.
"""

import bisect
import math
import time
from fractions import Fraction

import numpy as np

from tourlab.analysis import classify_unavoidability
from tourlab.core import (
    FactorialBlock,
    FiniteOrientedGraph,
    InjectionSpec,
    OrdinalInjectionTournament,
    OrdinalValue,
    PresentedGraph,
    SeededRandom,
    TabulatedTournament,
    TransitiveOmega,
    TransitiveOmegaStar,
)
from tourlab.counting import inversions_brute, inversions_upto
from tourlab.density import (
    BLOCK_PATTERNS,
    density_profile,
    dominance_check,
    factorial_scheme,
    forward_pair_count,
    inversion_density_profile,
    optimize_scheme,
    rank_decompose,
    window_min_density,
)
from tourlab.embedding import (
    check_pm_partition,
    find_transitive_subtournament,
    greedy_embed_transitive,
    infiniteness_oracle_for,
    pm_partition,
    spanning_embed,
)
from tourlab.core import anti_path, interleaved_forest, out_stars, random_presented


def report(k, detail):
    print(f"CRITERION {k}: PASS ({detail})")


def test_criterion_1_transitive_subtournaments():
    t0 = time.perf_counter()
    for bits in range(64):
        K = TabulatedTournament.from_bits(4, bits)
        chain = find_transitive_subtournament(K, list(range(4)), 3)
        assert len(chain) == 3 and len(set(chain)) == 3
        for a in range(3):
            for b in range(a + 1, 3):
                assert K.has_edge(chain[a], chain[b])
    for seed in range(1000):
        K = SeededRandom(seed)
        chain = find_transitive_subtournament(K, list(range(8)), 4)
        assert len(chain) == 4 and len(set(chain)) == 4
        for a in range(4):
            for b in range(a + 1, 4):
                assert K.has_edge(chain[a], chain[b])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"64 exhaustive + 1000 seeded extractions in {elapsed:.2f}s")


def _factorial_bounds(limit):
    bounds = [0, 1]
    while bounds[-1] <= limit:
        bounds.append(math.factorial(len(bounds)))
    return bounds


def _scan_window_min(lo, hi):
    """Exact minimum of block-count density over n in (lo, hi], written
    directly from the block arithmetic: a vertex adds one pair per earlier
    vertex in its own block."""
    bounds = _factorial_bounds(hi)
    fwd = 0
    for k in range(1, len(bounds)):
        a, b = bounds[k - 1], bounds[k]
        if a >= lo:
            break
        w = min(b, lo) - a
        fwd += w * (w - 1) // 2
    best_num = best_den = best_n = None
    for n in range(lo + 1, hi + 1):
        v = n - 1  # the vertex just appended
        blk = bisect.bisect_right(bounds, v) - 1
        fwd += v - bounds[blk]
        den = n * (n - 1) // 2
        if best_num is None or fwd * best_den < best_num * den:
            best_num, best_den, best_n = fwd, den, n
    return Fraction(best_num, best_den), best_n, best_num


def test_criterion_2_factorial_block_minima():
    t0 = time.perf_counter()
    lo, hi = math.factorial(8), math.factorial(9)
    ref_min, ref_n, ref_count = _scan_window_min(lo, hi)
    got_min, got_n = window_min_density(factorial_scheme(), lo + 1, hi)
    assert got_min == ref_min
    assert got_n == ref_n
    assert forward_pair_count(FactorialBlock(), ref_n) == ref_count
    minima = []
    for k in range(5, 10):
        a, b = math.factorial(k - 1), math.factorial(k)
        mk, nk, ck = _scan_window_min(a, b)
        lk, _ = window_min_density(factorial_scheme(), a + 1, b)
        assert lk == mk
        assert forward_pair_count(FactorialBlock(), nk) == ck
        minima.append(mk)
    for x, y in zip(minima, minima[1:]):
        assert x < y
    assert all(m < Fraction(1, 2) for m in minima)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"window min {got_min} at n={got_n}; k=5..9 minima rise "
              f"{float(minima[0]):.4f}->{float(minima[-1]):.4f} in {elapsed:.1f}s")


def _random_injection(seed, n):
    rng = np.random.default_rng(seed)
    minors = rng.permutation(n)
    majors = rng.integers(0, 3, size=n)
    vals = [OrdinalValue(int(a), int(m)) for a, m in zip(majors, minors)]
    return InjectionSpec(lambda i: vals[i], description=f"acc:{seed}")


def test_criterion_3_finite_identity():
    checked = 0
    for seed in range(50):
        f = _random_injection(seed, 10_000)
        a = density_profile(OrdinalInjectionTournament(f), 10_000, stride=997)
        b = inversion_density_profile(f, 10_000, stride=997)
        assert a.samples == b.samples
        # independent quadratic recount at one sampled prefix
        vals = f.values(2000)
        order = sorted(range(2000), key=lambda i: vals[i])
        ranks = np.empty(2000, dtype=np.int64)
        ranks[order] = np.arange(2000)
        quad = int(np.sum(np.triu(ranks[:, None] > ranks[None, :], k=1)))
        assert quad == inversions_upto(f, 2000)
        checked += len(a.samples)
    report(3, f"50 injections, {checked} sampled prefixes, exact equality")


def test_criterion_4_fast_counter_equivalence_and_speed():
    rng = np.random.default_rng(12345)
    for trial in range(100):
        n = int(rng.integers(2, 501))
        f = _random_injection(10_000 + trial, n)
        assert inversions_upto(f, n) == inversions_brute(f, n)
    big = _random_injection(777, 1_000_000)
    t0 = time.perf_counter()
    count = inversions_upto(big, 1_000_000)
    elapsed = time.perf_counter() - t0
    assert count > 0
    assert elapsed < 5.0
    report(4, f"100 brute matches; n=1e6 counted in {elapsed:.2f}s")


def _peel_levels(K, n):
    """Independent level iteration: repeatedly absorb the vertices whose
    forward out-neighbors have all been absorbed already."""
    F = np.zeros((n, n), dtype=bool)
    for j in range(1, n):
        F[:j, j] = K.forward_row(j)
    alpha = np.full(n, -1, dtype=np.int64)
    remaining = F.sum(axis=1).astype(np.int64)
    level = 0
    while (alpha < 0).any():
        ready = (alpha < 0) & (remaining == 0)
        assert ready.any(), "peeling stalled"
        alpha[ready] = level
        remaining -= F[:, ready].sum(axis=1)
        level += 1
    return alpha


def test_criterion_5_rank_decomposition_sweep():
    rng = np.random.default_rng(54321)
    for trial in range(500):
        seed = int(rng.integers(0, 10 ** 9))
        n = int(rng.integers(1, 501))
        K = SeededRandom(seed)
        d = rank_decompose(K, n)
        assert d.levels == int(d.alpha.max()) + 1
        assert np.array_equal(d.alpha, _peel_levels(K, n))
        assert dominance_check(K, d, n)
    n = 400
    d = rank_decompose(TransitiveOmega(), n)
    assert list(d.alpha) == [n - 1 - i for i in range(n)]
    assert dominance_check(TransitiveOmega(), d, n)
    d = rank_decompose(TransitiveOmegaStar(), n)
    assert d.levels == 1
    assert dominance_check(TransitiveOmegaStar(), d, n)
    report(5, "500 seeded prefixes + both transitive chains, all invariants")


def test_criterion_6_spanning_embeddings():
    t0 = time.perf_counter()
    graphs = [anti_path(), out_stars(), interleaved_forest()]
    tournaments = [TransitiveOmega(), TransitiveOmegaStar()] + [
        SeededRandom(s) for s in range(20)
    ]
    horizon = 30
    runs = 0
    for G in graphs:
        for K in tournaments:
            result = spanning_embed(G, K, horizon=horizon)
            # coverage: every tournament vertex below the horizon is hit
            for k in range(horizon):
                assert result.phi.has_target(k), (G.name, K.name, k)
            # full validity of all embedded edges
            assert result.phi.is_valid(G), (G.name, K.name)
            # conformity: images inside each step's frontier cell carry
            # the frontier's sign
            oracle = infiniteness_oracle_for(K)
            for step in result.steps:
                m = result.machines[step.machine]
                want = m.cells.cell_type(step.frontier_after)
                for v in m.cells.cell(step.frontier_after):
                    if v in result.phi:
                        assert oracle.sign_class(result.phi[v]) == want
            runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, f"{runs} graph/tournament runs at horizon {horizon} in {elapsed:.1f}s")


def test_criterion_7_greedy_and_partitions():
    K = TransitiveOmega()
    for seed in range(100):
        G = random_presented(seed)
        phi = greedy_embed_transitive(G, K, horizon=10_000)
        assert phi.is_valid(G)
        positions = sorted(phi.mapping.values())
        assert positions == list(range(len(positions)))
        start = next(v for v in range(2000) if not G.in_neighbors(v))
        p = pm_partition(G, start, flavor="pm")
        assert check_pm_partition(G, p) == []
    report(7, "100 presented graphs: gapless valid greedy maps, A1-A4 clean")


def test_criterion_8_density_optimizer():
    t0 = time.perf_counter()
    scheme, rep = optimize_scheme(BLOCK_PATTERNS, 10 ** 6, window=(10 ** 3, 10 ** 6))
    assert rep.min_window_density >= Fraction(70, 100)
    fact_min, _ = window_min_density(factorial_scheme(), 10 ** 3, 10 ** 6)
    assert fact_min < Fraction(50, 100)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(8, f"catalogue min {float(rep.min_window_density):.4f} via "
              f"{rep.identifier}; factorial {float(fact_min):.4f}; {elapsed:.1f}s")


def test_criterion_9_classifier():
    triangle = FiniteOrientedGraph(3, [(0, 1), (1, 2), (2, 0)], name="c3")
    got = classify_unavoidability(triangle)
    assert got.verdict == "avoidable" and got.witness[0] == "cycle"

    acyclic = [
        FiniteOrientedGraph(1, [], name="point"),
        FiniteOrientedGraph(3, [(0, 1), (1, 2)], name="chain"),
        FiniteOrientedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="diamond"),
    ]
    rng = np.random.default_rng(99)
    for t in range(20):
        n = int(rng.integers(2, 12))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        acyclic.append(FiniteOrientedGraph(n, edges, name=f"dag{t}"))
    for G in acyclic:
        assert classify_unavoidability(G).verdict == "unavoidable", G.name

    from tourlab.core import forward_path

    got = classify_unavoidability(forward_path(), budget=100)
    assert got.verdict in ("avoidable", "inconclusive")
    assert got.verdict != "unavoidable"

    def ray(v):
        ins = (v - 1,) if v > 0 else ()
        return (ins, (v + 1,))

    silent_ray = PresentedGraph(ray, name="silent-ray")
    got = classify_unavoidability(silent_ray, budget=100)
    assert got.verdict == "inconclusive"
    report(9, "triangle avoidable, 23 DAGs unavoidable, rays never unavoidable")
