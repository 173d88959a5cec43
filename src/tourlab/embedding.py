"""Embedding machinery: greedy transitive embeddings, alternating-cell
partitions, transitive-subtournament extraction, and the
spanning-embedding engine driven by an infiniteness oracle.

Signs are the characters '+' and '-': a '+'-neighbor of v is an
out-neighbor (v -> w), a '-'-neighbor an in-neighbor (w -> v).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Container, Iterator, Optional, Sequence, Union

from .analysis import DEFAULT_BUDGET, _closure, _find_cycle, _least_first_peel, gamma, is_acyclic
from .core import (
    FiniteOrientedGraph,
    OrdinalInjectionTournament,
    PresentedGraph,
    SplitTransitive,
    TournamentOracle,
    TransitiveOmega,
    TransitiveOmegaStar,
    _LayoutInjection,
    _sign_step,
)
from .errors import (
    CycleFoundError,
    OracleInconsistencyError,
    PinIncompatibilityError,
    PoolTooSmallError,
    SchemeError,
)

Graph = Union[FiniteOrientedGraph, PresentedGraph]


class EmbeddingMap:
    """Partial injective map from G-vertices to K-vertices."""

    def __init__(self, K: TournamentOracle):
        self.K = K
        self.mapping: dict[int, int] = {}
        self._image: set[int] = set()

    def assign(self, g: int, k: int) -> None:
        if g in self.mapping:
            raise ValueError(f"vertex {g} already embedded")
        if k in self._image:
            raise ValueError(f"target {k} already used")
        self.mapping[g] = k
        self._image.add(k)

    def __contains__(self, g: int) -> bool:
        return g in self.mapping

    def __getitem__(self, g: int) -> int:
        return self.mapping[g]

    def __len__(self) -> int:
        return len(self.mapping)

    def has_target(self, k: int) -> bool:
        return k in self._image

    def violations(self, G: Graph) -> list[tuple[int, int]]:
        """G-edges with both endpoints mapped whose images disagree with K."""
        bad = []
        for g, k in self.mapping.items():
            for w in G.out_neighbors(g):
                if w in self.mapping and not self.K.has_edge(k, self.mapping[w]):
                    bad.append((g, w))
        return bad

    def is_valid(self, G: Graph) -> bool:
        return not self.violations(G)


# ------------------------------------------------------------------ greedy


def greedy_embed_transitive(
    G: Graph, target: TournamentOracle, horizon: int = 10_000
) -> EmbeddingMap:
    """Assign positions 0, 1, 2, ... by repeatedly taking the minimal-index
    vertex whose constraints are all settled.

    Into the upward transitive tournament a vertex is placed once all of
    its in-neighbors are placed, so every edge maps index-increasing; into
    the downward one the out-neighbors gate placement.  For a presented
    graph only vertices below `horizon` are considered; a vertex gated by
    anything outside that prefix stays unassigned.
    """
    if isinstance(target, TransitiveOmega):
        gates, unlocks = G.in_neighbors, G.out_neighbors
    elif isinstance(target, TransitiveOmegaStar):
        gates, unlocks = G.out_neighbors, G.in_neighbors
    else:
        raise ValueError("target must be one of the two transitive tournaments")

    span = range(G.n) if G.is_finite else range(horizon)
    # every gate counts, so a vertex gated from beyond the span stays out
    order = _least_first_peel({v: len(gates(v)) for v in span}, unlocks)
    if G.is_finite and len(order) < G.n:
        _, cycle = is_acyclic(G)
        raise CycleFoundError("greedy embedding needs an acyclic graph", cycle)

    phi = EmbeddingMap(target)
    for pos, v in enumerate(order):
        phi.assign(v, pos)
    return phi


# --------------------------------------------------------------- partitions


@dataclass
class PMPartition:
    """Alternating-cell partition, grown cell by cell.

    C_1 = {v}.  With flavor 'pm', even cells collect the forward closures
    of the previous cell and odd cells (from C_3 on) the backward closures,
    each time removing the two preceding cells; 'mp' swaps the directions.
    So with flavor 'pm' odd cells have type '+' (their vertices take no
    edges in from the two adjacent cells, and some member has in-degree 0
    in all of G) and even cells are the '-' dual.  Cells are 1-indexed:
    cells[k] is C_{k+1}.

    `cell(i)` grows the cells out to C_i, each by one closure search in G
    from the whole cell before it, within `budget` expansions per member of
    that cell.  Once a cell comes out empty the component is exhausted: G
    is dropped and every later cell is empty.  A partition given without G
    keeps the cells it was given.
    """

    cells: list[frozenset[int]]
    flavor: str
    G: Optional[Graph] = field(default=None, repr=False, compare=False)
    budget: int = DEFAULT_BUDGET

    def cell_type(self, i: int) -> str:
        return "+" if (i % 2 == 1) == (self.flavor == "pm") else "-"

    def cell(self, i: int) -> frozenset[int]:
        """C_i, growing the cells as needed; empty once exhausted."""
        while len(self.cells) < i and self.G is not None:
            # a cell collects the closures against its own type
            sign = "-" if self.cell_type(len(self.cells) + 1) == "+" else "+"
            last = self.cells[-1]
            name = next(iter(last)) if len(last) == 1 else f"C_{len(self.cells)}"
            members = _closure(self.G, last, sign, self.budget * len(last), name)[0]
            for c in self.cells[-2:]:
                members -= c
            if members:
                self.cells.append(frozenset(members))
            else:
                self.G = None
        return self.cells[i - 1] if i <= len(self.cells) else frozenset()

    def cell_of(self) -> dict[int, int]:
        where = {}
        for i, c in enumerate(self.cells, start=1):
            for v in c:
                where[v] = i
        return where


def pm_partition(
    G: Graph, v: int, flavor: str = "pm", budget: int = DEFAULT_BUDGET,
    max_cells: int = 64,
) -> PMPartition:
    """Alternating-cell partition grown from C_1 = {v}.

    For a finite graph the sequence stops at the first empty cell and
    partitions v's weak component; for a presented graph it is computed
    out to `max_cells`, and `cell(i)` grows it further.  The start vertex
    must be extremal for the flavor.
    """
    if flavor not in ("pm", "mp"):
        raise ValueError("flavor must be 'pm' or 'mp'")
    bad = G.in_neighbors(v) if flavor == "pm" else G.out_neighbors(v)
    if bad:
        side = "in" if flavor == "pm" else "out"
        raise ValueError(f"start vertex {v} must have {side}-degree 0")
    p = PMPartition([frozenset({v})], flavor, G, budget)
    i = 1
    while i <= max_cells and p.cell(i):
        i += 1
    return p


def check_pm_partition(G: Graph, p: PMPartition) -> list[str]:
    """Violations of the four cell axioms among partitioned vertices.

    Returns an empty list when all checks pass.  Edges with an endpoint
    outside the partition are not judged (a truncated partition of a
    presented graph cannot see them).  Within-cell edges are legal; the
    degree axioms only constrain edges to the two adjacent cells.
    """
    problems = []
    where = p.cell_of()
    for i, cell in enumerate(p.cells, start=1):
        if not cell:
            problems.append(f"A1: cell {i} empty")
            continue
        t = p.cell_type(i)
        for v in cell:
            for u in G.in_neighbors(v):
                j = where.get(u)
                if j is None:
                    continue
                if abs(j - i) > 1:
                    problems.append(f"A2: edge ({u},{v}) spans cells {j},{i}")
                elif t == "+" and j != i:
                    problems.append(
                        f"A3: {v} in '+'-cell {i} takes an edge in from cell {j}"
                    )
            if t == "-":
                for w in G.out_neighbors(v):
                    j = where.get(w)
                    if j is not None and j != i and abs(j - i) <= 1:
                        problems.append(
                            f"A3: {v} in '-'-cell {i} sends an edge to cell {j}"
                        )
        against = _sign_step(G, "-" if t == "+" else "+")
        if all(against(v) for v in cell):
            side = "in" if t == "+" else "out"
            problems.append(f"A4: no vertex of cell {i} has {side}-degree 0")
    return problems


# --------------------------------------------------- transitive extraction


def find_transitive_subtournament(
    K: TournamentOracle, pool: Sequence[int], target_size: int
) -> list[int]:
    """target_size pool vertices in dominating order (every earlier one
    beats every later one), found by splitting on the first vertex and
    recursing into the larger side.

    Requires |pool| >= 2^(target_size - 1).
    """
    if target_size < 0:
        raise ValueError("target_size must be non-negative")
    if target_size == 0:
        return []
    need = 1 << (target_size - 1)
    if len(pool) < need:
        raise PoolTooSmallError(
            f"pool of {len(pool)} cannot guarantee a transitive set of "
            f"{target_size}; need 2^(n-1) = {need}"
        )

    def solve(cands: list[int], t: int) -> list[int]:
        if t == 1:
            return [cands[0]]
        pivot = cands[0]
        losers: list[int] = []
        winners: list[int] = []
        for w in cands[1:]:  # a tournament orients each pair one way only
            (losers if K.has_edge(pivot, w) else winners).append(w)
        if len(losers) >= len(winners):
            return [pivot] + solve(losers, t - 1)
        return solve(winners, t - 1) + [pivot]

    return solve(list(pool), target_size)


def embed_finite_acyclic(
    G: Graph,
    vertices: Sequence[int],
    K: TournamentOracle,
    chain: Sequence[int],
    phi: EmbeddingMap,
) -> None:
    """Extend phi over a finite acyclic vertex set of any graph G.

    The vertices phi already maps are the pins; the others land on the
    dominating `chain` in least-first topological order, which settles
    all edges among them; a chain too short raises PoolTooSmallError.
    Only edges among `vertices` are judged: one that ends up mapping
    against K (necessarily involving a pin or the chain's relation to it)
    raises with that edge attached.
    """
    outs = {v: G.out_neighbors(v) for v in vertices}
    cycle = _find_cycle(outs)
    if cycle is not None:
        raise CycleFoundError("finite embedding needs an acyclic graph", cycle)

    waiting = {v: 0 for v in outs if v not in phi}
    if len(chain) < len(waiting):
        raise PoolTooSmallError(f"chain of {len(chain)} for {len(waiting)} vertices")
    for v in waiting:
        for w in outs[v]:
            if w in waiting:
                waiting[w] += 1
    for v, k in zip(_least_first_peel(waiting, outs.__getitem__), chain):
        phi.assign(v, k)

    for u, ws in outs.items():
        for w in ws:
            if w in outs and not K.has_edge(phi[u], phi[w]):
                raise PinIncompatibilityError(
                    f"edge ({u},{w}) maps against the target tournament", edge=(u, w)
                )


# ----------------------------------------------------- infiniteness oracles


Constraint = tuple[int, str]


class InfinitenessOracle:
    """Decides infiniteness of finite intersections of signed neighborhoods
    in a companion tournament and enumerates members of such intersections.

    `sign_class(v)` is the sign the left-to-right sign recursion gives
    vertex v: '+' when v's out-neighborhood meets the intersection of the
    earlier signed neighborhoods infinitely, '-' otherwise.  It defaults to
    `pool_class`, the one class the spanning engine pools from; an oracle
    whose signs vary overrides it.  `decide` says whether an intersection
    is infinite, which for the shipped oracles is exactly when every
    constraint carries its anchor's sign: the conformity the spanning
    engine asserts each step.  `enumerate_in_class` returns the first
    `count` members of `pool_class` in the intersection that the oracle's
    `_members` stream yields from vertex `start` on, skipping `exclusions`,
    which it only tests for membership (a caller may pass a live set).
    Enumeration is only meaningful for intersections decided infinite;
    otherwise it may return fewer members than asked, including none.
    `chain` hands out such members in dominating order, every earlier one
    beating every later one: by default the stream's own order.
    """

    pool_class: str

    def sign_class(self, v: int) -> str:
        return self.pool_class

    def decide(self, constraints: Sequence[Constraint]) -> bool:
        return all(s == self.sign_class(v) for (v, s) in constraints)

    def enumerate_in_class(
        self, constraints: Sequence[Constraint], exclusions: Container[int],
        count: int, start: int = 0,
    ) -> list[int]:
        if not self.decide(constraints):
            return []
        free = (w for w in self._members(constraints, start) if w not in exclusions)
        return list(itertools.islice(free, count))

    def chain(
        self, constraints: Sequence[Constraint], exclusions: Container[int],
        count: int, start: int = 0,
    ) -> list[int]:
        return self.enumerate_in_class(constraints, exclusions, count, start)

    def _members(self, constraints: Sequence[Constraint], start: int) -> Iterator[int]:
        """The intersection's pool-class members from `start` on, ascending."""
        raise NotImplementedError


class TransitiveUpOracle(InfinitenessOracle):
    """Upward transitive tournament: forward neighborhoods are upward
    tails (infinite), backward ones finite, so every sign is '+'."""

    pool_class = "+"

    def _members(self, constraints, start):
        return itertools.count(max([start] + [v + 1 for (v, _) in constraints]))


class AlwaysInfiniteOracle(InfinitenessOracle):
    """Gives every vertex the sign '+' and enumerates by scanning the
    companion tournament's edges directly.

    Almost surely correct for the seeded random family, where every finite
    sign pattern recurs forever; the scan cap of SCAN_LIMIT candidates
    from `start` converts a companion that fails to deliver into an
    explicit inconsistency error instead of a hang.  A chain is the Ramsey
    step: 2^(count-1) pool members hold one of `count` <= MAX_CHUNK.
    """

    pool_class = "+"
    SCAN_LIMIT = 2_000_000
    MAX_CHUNK = 16

    def __init__(self, K: TournamentOracle):
        self.K = K

    def _satisfies(self, w, constraints):
        for (v, s) in constraints:
            if w == v:
                return False
            if s == "+":
                if not self.K.has_edge(v, w):
                    return False
            elif not self.K.has_edge(w, v):
                return False
        return True

    def enumerate_in_class(self, constraints, exclusions, count, start=0):
        scan = range(start, start + self.SCAN_LIMIT)
        found = (w for w in scan if w not in exclusions and self._satisfies(w, constraints))
        out = list(itertools.islice(found, count))
        if len(out) < count:
            raise OracleInconsistencyError(
                f"scanned {self.SCAN_LIMIT} vertices but found only "
                f"{len(out)} of {count} members; the companion "
                "tournament does not deliver the promised infinitude"
            )
        return out

    def chain(self, constraints, exclusions, count, start=0):
        if count > self.MAX_CHUNK:
            raise PoolTooSmallError(
                f"chunk of {count} free vertices exceeds the supported "
                f"size {self.MAX_CHUNK}"
            )
        pool = self.enumerate_in_class(constraints, exclusions, (1 << count) // 2, start)
        return find_transitive_subtournament(self.K, pool, count)


class FiniteBelowOracle(InfinitenessOracle):
    """Oracle for a tournament induced by a run layout's injection.  Every
    down-set of the value order is finite, so forward neighborhoods
    (toward smaller values) are finite, backward ones cofinite, and every
    sign is '-'.  The members of an intersection are the indices whose
    value exceeds every anchor's, which the layout walks one range per
    run; a chain sorts them by value, largest first: larger beats smaller."""

    pool_class = "-"

    def __init__(self, K: OrdinalInjectionTournament):
        if not isinstance(K.injection, _LayoutInjection):
            raise ValueError("companion injection has no run layout")
        self.layout = K.injection.layout

    def _members(self, constraints, start):
        bound = -1  # layout values are non-negative, so -1 bounds nothing
        if constraints:
            bound, top = max((self.layout.value(v), v) for (v, _) in constraints)
            run = self.layout.runs[self.layout.cover(top + 1)]
            if run.above == 0:  # every earlier index lies below the whole run
                start = max(start, run.start)
        return self.layout.indices_above(bound, start)

    def chain(self, constraints, exclusions, count, start=0):
        members = super().chain(constraints, exclusions, count, start)
        return sorted(members, key=self.layout.value, reverse=True)


class SplitTransitiveOracle(InfinitenessOracle):
    """Exact oracle for the split family (even vertices ascend, odd ones
    descend, evens beat odds).  Even vertices have sign '+', odd ones '-';
    an intersection is infinite exactly when every constraint matches its
    anchor's sign, and then it holds every even vertex above the even
    anchors, which is the pool."""

    pool_class = "+"

    def sign_class(self, v):
        return "+" if v % 2 == 0 else "-"

    def _members(self, constraints, start):
        lo = max([start] + [v + 1 for (v, _) in constraints if v % 2 == 0])
        return itertools.count(lo + lo % 2, 2)


def infiniteness_oracle_for(K: TournamentOracle) -> InfinitenessOracle:
    """The shipped oracle matching a tournament family."""
    if isinstance(K, TransitiveOmega):
        return TransitiveUpOracle()
    if isinstance(K, SplitTransitive):
        return SplitTransitiveOracle()
    if isinstance(K, OrdinalInjectionTournament) and isinstance(
        K.injection, _LayoutInjection
    ):
        return FiniteBelowOracle(K)
    return AlwaysInfiniteOracle(K)


# ------------------------------------------------------------ spanning embed


@dataclass
class SpanStep:
    """One engine step: the K-vertex covered, the machine that covered it,
    its frontier before and after, the pinned G-vertex, and the G-vertices
    embedded in the step."""

    k_vertex: int
    machine: int
    frontier_before: int
    frontier_after: int
    pin_vertex: int
    chunk: tuple[int, ...]


class _Machine:
    """Per-component embedding state: its partition, grown as the steps
    reach further cells, plus frontier index."""

    def __init__(self, mid: int, G: Graph, start: int, flavor: str, budget: int):
        self.id = mid
        self.cells = pm_partition(G, start, flavor, budget=budget, max_cells=1)
        self.frontier = 1
        self.retired = False


@dataclass
class SpanningResult:
    """Outcome of a spanning run: the partial embedding, the step log, and
    the per-component machines (exposing their partitions and frontiers)."""

    phi: EmbeddingMap
    steps: list[SpanStep]
    machines: list[_Machine]

    def frontier_cells(self) -> list[tuple[int, str, frozenset[int]]]:
        return [
            (m.frontier, m.cells.cell_type(m.frontier), m.cells.cell(m.frontier))
            for m in self.machines
        ]


def _extremal_in_component(G: Graph, root: int, side: str, budget: int) -> int:
    """Minimal-index vertex without `side`-neighbors, found inside the
    `side`-closure of root.

    That closure always holds one when closures are finite and the graph
    is acyclic: walk the closure against the edges until stuck.
    """
    members = gamma(G, root, side, budget=budget).members
    degree = _sign_step(G, side)
    picks = [v for v in members if not degree(v)]
    if not picks:
        raise SchemeError(
            f"no extremal vertex reachable from {root}; the graph breaks "
            "the finite-closure/acyclicity contract"
        )
    return min(picks)


def spanning_embed(
    G: Graph,
    K: TournamentOracle,
    oracle: Optional[InfinitenessOracle] = None,
    horizon: int = 10,
    budget: int = DEFAULT_BUDGET,
) -> SpanningResult:
    """Embed G into K so that K-vertices 0..horizon-1 all get covered.

    The engine keeps two invariants: after handling vertex j, vertices
    0..j of K are in the image (coverage), and each machine's frontier
    cell maps entirely into the sign class matching the cell's type
    (conformity).  Components run as separate machines in a deterministic
    rotation, with fresh components drawn from the graph's root stream;
    vertices of different components never constrain each other.
    """
    if oracle is None:
        oracle = infiniteness_oracle_for(K)

    phi = EmbeddingMap(K)
    steps: list[SpanStep] = []
    machines: list[_Machine] = []

    root_stream = G.component_roots(budget)

    def start_machine(k_vertex: int) -> bool:
        r = next(root_stream, None)
        if r is None:
            return False
        star = oracle.sign_class(k_vertex)
        flavor = "pm" if star == "+" else "mp"
        v1 = _extremal_in_component(G, r, "-" if star == "+" else "+", budget)
        m = _Machine(len(machines), G, v1, flavor, budget)
        machines.append(m)
        active.append(m)
        phi.assign(v1, k_vertex)
        steps.append(SpanStep(k_vertex, m.id, 0, 1, v1, (v1,)))
        return True

    def advance(m: _Machine, k_vertex: int) -> bool:
        """One covering step of machine m; False if its component has no
        pin cell left (the machine then retires)."""
        star = oracle.sign_class(k_vertex)
        f = m.frontier
        diamond_f = m.cells.cell_type(f)
        constraints: list[Constraint] = [(k_vertex, star)]
        constraints += [(phi[v], diamond_f) for v in m.cells.cell(f) if v in phi]

        pin_cell_index = f + (2 if star == diamond_f else 3)
        pin_cell = m.cells.cell(pin_cell_index)
        if not pin_cell:
            return False
        against = _sign_step(G, "-" if star == "+" else "+")
        pins = [v for v in pin_cell if not against(v)]
        if not pins:
            raise SchemeError(
                f"cell {pin_cell_index} has no vertex with only "
                f"{star}-neighbors; the cell axioms are violated"
            )
        v_j = min(pins)

        if not oracle.decide(constraints):
            raise OracleInconsistencyError(
                "an intersection the conformity invariant guarantees "
                "infinite was decided finite"
            )

        i_j = f + 5
        while m.cells.cell_type(i_j) != oracle.pool_class:
            i_j += 1

        chunk = sorted(set().union(*map(m.cells.cell, range(f + 1, i_j + 1))))

        # every vertex below k_vertex is covered and k_vertex is the pin
        chain = oracle.chain(constraints, phi._image, len(chunk) - 1, start=k_vertex + 1)
        phi.assign(v_j, k_vertex)
        embed_finite_acyclic(G, chunk, K, chain, phi)
        steps.append(SpanStep(k_vertex, m.id, f, i_j, v_j, tuple(chunk)))
        m.frontier = i_j
        return True

    active: list[_Machine] = []  # machines not retired, in creation order
    rotation = 0
    for k_vertex in range(horizon):
        if phi.has_target(k_vertex):
            continue
        # every third uncovered vertex offers the fresh-component slot first;
        # otherwise rotate through the running machines and fall back to it
        order = _rotated(active, rotation)
        if rotation % 3 == 2:
            slots = itertools.chain([None], order)
        else:
            slots = itertools.chain(order, [None])
        rotation += 1
        covered = retired = False
        for m in slots:
            if m is None:
                if start_machine(k_vertex):
                    covered = True
                    break
                continue
            if advance(m, k_vertex):
                covered = True
                break
            m.retired = retired = True
        if not covered:
            raise SchemeError(
                f"no component can cover tournament vertex {k_vertex}; "
                "the graph ran out of room"
            )
        if retired:
            active = [m for m in active if not m.retired]
    return SpanningResult(phi, steps, machines)


def _rotated(active: list[_Machine], shift: int) -> Iterator[_Machine]:
    """The machines from position shift (mod their number) on, wrapping
    round; lazy, since the first one usually covers the vertex."""
    n = len(active)
    for i in range(n):
        yield active[(shift + i) % n]
