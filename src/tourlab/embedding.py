"""Embedding machinery: greedy transitive embeddings, alternating-cell
partitions, the pair-coloring reduction, transitive-subtournament
extraction, and the spanning-embedding engine driven by an infiniteness
oracle.

Signs are the characters '+' and '-': a '+'-neighbor of v is an
out-neighbor (v -> w), a '-'-neighbor an in-neighbor (w -> v).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Container, Iterator, Optional, Sequence, Union

from .analysis import gamma, is_acyclic
from .core import (
    FactorialBlock,
    FiniteOrientedGraph,
    OrdinalInjectionTournament,
    PresentedGraph,
    SplitTransitive,
    TournamentOracle,
    TransitiveOmega,
    TransitiveOmegaStar,
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

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self._image)

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

    if G.is_finite:
        ok, cycle = is_acyclic(G)
        if not ok:
            raise CycleFoundError("greedy embedding needs an acyclic graph", cycle)
        span = range(G.n)
    else:
        span = range(horizon)

    waiting: dict[int, int] = {}
    ready: list[int] = []
    for v in span:
        d = len(gates(v))
        waiting[v] = d
        if d == 0:
            heapq.heappush(ready, v)

    phi = EmbeddingMap(target)
    pos = 0
    while ready:
        v = heapq.heappop(ready)
        phi.assign(v, pos)
        pos += 1
        for w in unlocks(v):
            if w in waiting and w not in phi:
                waiting[w] -= 1
                if waiting[w] == 0:
                    heapq.heappush(ready, w)
    return phi


# --------------------------------------------------------------- partitions


def _cell_type(i: int, flavor: str) -> str:
    if flavor == "pm":
        return "+" if i % 2 == 1 else "-"
    return "-" if i % 2 == 1 else "+"


@dataclass
class PMPartition:
    """Alternating-cell partition.

    Flavor 'pm': odd cells have type '+' (their vertices take no edges in
    from the two adjacent cells, and some member has in-degree 0 in all of
    G); even cells are the '-' dual.  Flavor 'mp' swaps the roles.  Cells
    are 1-indexed: cells[k] is C_{k+1}.
    """

    cells: list[frozenset[int]]
    flavor: str

    def cell_type(self, i: int) -> str:
        return _cell_type(i, self.flavor)

    def cell(self, i: int) -> frozenset[int]:
        return self.cells[i - 1] if i <= len(self.cells) else frozenset()

    @property
    def count(self) -> int:
        return len(self.cells)

    def cell_of(self) -> dict[int, int]:
        where = {}
        for i, c in enumerate(self.cells, start=1):
            for v in c:
                where[v] = i
        return where


class CellBuilder:
    """Incrementally grown alternating closure cells.

    C_1 = {v}.  With flavor 'pm', even cells collect the forward closures
    of the previous cell and odd cells (from C_3 on) the backward closures,
    each time removing the two preceding cells; 'mp' swaps the directions.
    Once a cell comes out empty the component is exhausted and every later
    cell is empty too.
    """

    def __init__(self, G: Graph, v: int, flavor: str, budget: int = 10_000):
        if flavor not in ("pm", "mp"):
            raise ValueError("flavor must be 'pm' or 'mp'")
        bad = G.in_neighbors(v) if flavor == "pm" else G.out_neighbors(v)
        if bad:
            side = "in" if flavor == "pm" else "out"
            raise ValueError(f"start vertex {v} must have {side}-degree 0")
        self.G = G
        self.flavor = flavor
        self.budget = budget
        self.cells: list[frozenset[int]] = [frozenset({v})]
        self.exhausted = False

    def cell_type(self, i: int) -> str:
        return _cell_type(i, self.flavor)

    def cell(self, i: int) -> frozenset[int]:
        """C_i, growing the sequence as needed; empty once exhausted."""
        while len(self.cells) < i and not self.exhausted:
            nxt = len(self.cells) + 1
            forward = (nxt % 2 == 0) == (self.flavor == "pm")
            direction = "+" if forward else "-"
            members: set[int] = set()
            for w in self.cells[-1]:
                members |= gamma(self.G, w, direction, budget=self.budget).members
            members -= self.cells[-1]
            if len(self.cells) >= 2:
                members -= self.cells[-2]
            if members:
                self.cells.append(frozenset(members))
            else:
                self.exhausted = True
        return self.cells[i - 1] if i <= len(self.cells) else frozenset()

    def partition(self) -> PMPartition:
        return PMPartition(list(self.cells), self.flavor)


def pm_partition(
    G: Graph, v: int, flavor: str = "pm", budget: int = 10_000, max_cells: int = 64
) -> PMPartition:
    """Alternating-cell partition grown from C_1 = {v}.

    For a finite graph the sequence stops at the first empty cell and
    partitions v's weak component; for a presented graph it is computed
    out to `max_cells`.  The start vertex must be extremal for the flavor.
    """
    b = CellBuilder(G, v, flavor, budget=budget)
    i = 1
    while i <= max_cells and b.cell(i):
        i += 1
    return b.partition()


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
        if t == "+":
            if not any(len(G.in_neighbors(v)) == 0 for v in cell):
                problems.append(f"A4: no vertex of cell {i} has in-degree 0")
        else:
            if not any(len(G.out_neighbors(v)) == 0 for v in cell):
                problems.append(f"A4: no vertex of cell {i} has out-degree 0")
    return problems


# ---------------------------------------------------------------- coloring


def tournament_to_coloring(
    K: TournamentOracle, order: Sequence[int]
) -> dict[tuple[int, int], str]:
    """Two-color the pairs of the listed vertices: 'red' when the K-edge
    agrees with the listed order, 'blue' when it opposes it."""
    if len(set(order)) != len(order):
        raise ValueError("vertex list must not repeat")
    colors = {}
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            u, v = order[a], order[b]
            colors[(u, v)] = "red" if K.has_edge(u, v) else "blue"
    return colors


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
        losers = [w for w in cands[1:] if K.has_edge(pivot, w)]
        winners = [w for w in cands[1:] if K.has_edge(w, pivot)]
        if len(losers) >= len(winners):
            return [pivot] + solve(losers, t - 1)
        return solve(winners, t - 1) + [pivot]

    return solve(list(pool), target_size)


def embed_finite_acyclic(
    G: FiniteOrientedGraph,
    K: TournamentOracle,
    pool: Sequence[int],
    pins: Optional[dict[int, int]] = None,
) -> EmbeddingMap:
    """Total valid embedding of a finite acyclic G into K, extending pins,
    with every unpinned vertex landing inside the pool.

    Unpinned vertices are laid out along a transitive chain found in the
    pool, in topological order, which settles all edges among them; an
    edge that ends up mapping against K (necessarily involving a pin or
    the pool's relation to it) raises with that edge attached.
    """
    pins = dict(pins or {})
    ok, cycle = is_acyclic(G)
    if not ok:
        raise CycleFoundError("finite embedding needs an acyclic graph", cycle)
    for g in pins:
        if not (0 <= g < G.n):
            raise ValueError(f"pinned vertex {g} not in the graph")

    freeset = {v for v in G.vertices if v not in pins}
    chain = find_transitive_subtournament(K, pool, len(freeset))

    indeg = {v: sum(1 for u in G.in_neighbors(v) if u in freeset) for v in freeset}
    ready = sorted(v for v in freeset if indeg[v] == 0)
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        topo.append(v)
        for w in G.out_neighbors(v):
            if w in freeset:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)

    phi = EmbeddingMap(K)
    for g, k in pins.items():
        phi.assign(g, k)
    for v, k in zip(topo, chain):
        phi.assign(v, k)

    bad = phi.violations(G)
    if bad:
        u, v = bad[0]
        raise PinIncompatibilityError(
            f"edge ({u},{v}) maps against the target tournament", edge=(u, v)
        )
    return phi


# ----------------------------------------------------- infiniteness oracles


@dataclass(frozen=True)
class StarSigns:
    """Signs of an initial segment of K-vertices: '+' when the running
    intersection of earlier signed neighborhoods meets the vertex's forward
    neighborhood in an infinite set, '-' otherwise."""

    signs: tuple[str, ...]

    def sign(self, v: int) -> str:
        return self.signs[v]

    def __len__(self) -> int:
        return len(self.signs)


Constraint = tuple[int, str]


class InfinitenessOracle:
    """Decides infiniteness of finite intersections of signed neighborhoods
    in a companion tournament and enumerates members of such intersections.

    An oracle decides one constraint at a time: `admits(v, s)` says whether
    the constraint (v, s) keeps an intersection infinite, and `decide` is
    the conjunction of `admits` over the constraints, so the left-to-right
    sign recursion costs O(1) per vertex.  `classes` lists the sign classes
    that meet every intersection decided infinite; `decide_in_class`
    restricts attention to candidates of one class, which the spanning
    engine needs for its parity choice.  `enumerate_in_class` streams
    members of that class in increasing vertex order from vertex `start`
    on, skipping `exclusions`; these are only tested for membership, so a
    caller may pass a live set without copying it.  `sign_class(v)` gives
    the vertex's class and must agree with the sign recursion.  Enumeration
    is only meaningful for intersections decided infinite; otherwise it may
    return fewer members than asked, including none.
    """

    classes: tuple[str, ...]

    def admits(self, v: int, s: str) -> bool:
        raise NotImplementedError

    def decide(self, constraints: Sequence[Constraint]) -> bool:
        return all(self.admits(v, s) for (v, s) in constraints)

    def decide_in_class(self, constraints: Sequence[Constraint], klass: str) -> bool:
        return klass in self.classes and self.decide(constraints)

    def sign_class(self, v: int) -> str:
        """The one infinite class; oracles with two override this."""
        return self.classes[0]

    def enumerate(
        self,
        constraints: Sequence[Constraint],
        exclusions: Container[int] = (),
        count: int = 1,
    ) -> list[int]:
        streams = [
            self.enumerate_in_class(constraints, exclusions, count, k)
            for k in ("+", "-")
            if self.decide_in_class(constraints, k)
        ]
        merged: list[int] = sorted(set().union(*streams)) if streams else []
        return merged[:count]

    def enumerate_in_class(
        self,
        constraints: Sequence[Constraint],
        exclusions: Container[int],
        count: int,
        klass: str,
        start: int = 0,
    ) -> list[int]:
        raise NotImplementedError


def _free_run(w: int, step: int, exclusions: Container[int], count: int) -> list[int]:
    """The first `count` of w, w + step, w + 2*step, ... not excluded."""
    out: list[int] = []
    while len(out) < count:
        if w not in exclusions:
            out.append(w)
        w += step
    return out


class _TransitiveOracle(InfinitenessOracle):
    """Signed neighborhoods in a transitive tournament: those of the one
    sign in `classes` are upward tails (infinite), the others finite."""

    def admits(self, v, s):
        return s == self.classes[0]

    def enumerate_in_class(self, constraints, exclusions, count, klass, start=0):
        if not self.decide_in_class(constraints, klass):
            return []
        lo = max((v + 1 for (v, _) in constraints), default=0)
        return _free_run(max(lo, start), 1, exclusions, count)


class TransitiveUpOracle(_TransitiveOracle):
    """Upward transitive tournament: forward neighborhoods are the tails."""

    classes = ("+",)


class TransitiveDownOracle(_TransitiveOracle):
    """Downward transitive tournament: backward neighborhoods are the tails."""

    classes = ("-",)


class AlwaysInfiniteOracle(InfinitenessOracle):
    """Treats every signed intersection as infinite and enumerates by
    scanning the companion tournament's edges directly.

    Almost surely correct for the seeded random family, where every finite
    sign pattern recurs forever; the scan cap converts a companion that
    fails to deliver into an explicit inconsistency error instead of a
    hang.
    """

    classes = ("+",)

    def __init__(self, K: TournamentOracle, scan_limit: int = 2_000_000):
        self.K = K
        self.scan_limit = scan_limit

    def admits(self, v, s):
        return True

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

    def enumerate_in_class(self, constraints, exclusions, count, klass, start=0):
        if klass != "+":
            return []
        out: list[int] = []
        w = start
        while len(out) < count:
            if w > self.scan_limit:
                raise OracleInconsistencyError(
                    f"scanned {self.scan_limit} vertices but found only "
                    f"{len(out)} of {count} members; the companion "
                    "tournament does not deliver the promised infinitude"
                )
            if w not in exclusions and self._satisfies(w, constraints):
                out.append(w)
            w += 1
        return out


class FiniteBelowOracle(InfinitenessOracle):
    """Oracle for injection-backed tournaments whose value order has finite
    down-sets: forward neighborhoods (toward smaller values) are finite,
    backward ones cofinite, so every sign is '-'."""

    classes = ("-",)

    def __init__(self, K: OrdinalInjectionTournament, scan_limit: int = 2_000_000):
        if not K.injection.finite_below:
            raise ValueError("companion injection lacks the finite-below property")
        self.K = K
        self.scan_limit = scan_limit

    def admits(self, v, s):
        return s == "-"

    def enumerate_in_class(self, constraints, exclusions, count, klass, start=0):
        if not self.decide_in_class(constraints, klass):
            return []
        f = self.K.injection
        anchors = {v for (v, _) in constraints}
        bound = max((f.eval(v) for v in anchors), default=None)
        out: list[int] = []
        w = start
        while len(out) < count:
            if w > self.scan_limit:
                raise OracleInconsistencyError(
                    "value-order scan exhausted; the finite-below property "
                    "of the companion injection looks violated"
                )
            if w not in exclusions and w not in anchors:
                if bound is None or f.eval(w) > bound:
                    out.append(w)
            w += 1
        return out


class SplitTransitiveOracle(InfinitenessOracle):
    """Exact oracle for the split family (even vertices ascend, odd ones
    descend, evens beat odds).  Even vertices have sign '+', odd ones '-',
    so both classes are infinite; an intersection is infinite exactly when
    every constraint matches its anchor's class, and then both classes
    meet it infinitely."""

    classes = ("+", "-")

    def sign_class(self, v):
        return "+" if v % 2 == 0 else "-"

    def admits(self, v, s):
        return (s == "+") == (v % 2 == 0)

    def enumerate_in_class(self, constraints, exclusions, count, klass, start=0):
        if not self.decide_in_class(constraints, klass):
            return []
        parity = 0 if klass == "+" else 1
        lo = start
        for (v, _) in constraints:
            if v % 2 == parity:
                lo = max(lo, v + 1)
        return _free_run(lo if lo % 2 == parity else lo + 1, 2, exclusions, count)


def infiniteness_oracle_for(K: TournamentOracle) -> InfinitenessOracle:
    """The shipped oracle matching a tournament family."""
    if isinstance(K, TransitiveOmega):
        return TransitiveUpOracle()
    if isinstance(K, TransitiveOmegaStar):
        return TransitiveDownOracle()
    if isinstance(K, SplitTransitive):
        return SplitTransitiveOracle()
    if isinstance(K, FactorialBlock):  # the same tournament, as a value order
        K = OrdinalInjectionTournament(K.equivalent_injection())
    if isinstance(K, OrdinalInjectionTournament) and K.injection.finite_below:
        return FiniteBelowOracle(K)
    return AlwaysInfiniteOracle(K)


def _sign_stream(oracle: InfinitenessOracle) -> Iterator[str]:
    """Left-to-right signs of K-vertices 0, 1, 2, ...

    Vertex u gets '+' exactly when the earlier signed constraints plus
    (u, '+') are decided infinite.  Since `decide` is a conjunction of
    `admits`, one running flag for the earlier constraints replaces
    deciding the whole prefix again.
    """
    ok = True
    for u in itertools.count():
        if ok and oracle.admits(u, "+"):
            yield "+"
        else:
            ok = ok and oracle.admits(u, "-")
            yield "-"


def classify_vertices(
    K: TournamentOracle, oracle: InfinitenessOracle, n: int
) -> StarSigns:
    """Left-to-right signs of K-vertices 0..n-1.

    Each vertex gets '+' exactly when the intersection of all earlier
    signed neighborhoods with its own forward neighborhood is infinite.
    The result is cross-checked against the oracle's class map; a mismatch
    means the oracle misdescribes its companion.
    """
    signs: list[str] = []
    for v, s in zip(range(n), _sign_stream(oracle)):
        if oracle.sign_class(v) != s:
            raise OracleInconsistencyError(
                f"sign recursion gives {s!r} at vertex {v} but the oracle's "
                f"class map says {oracle.sign_class(v)!r}"
            )
        signs.append(s)
    return StarSigns(tuple(signs))


# ------------------------------------------------------------ spanning embed


MAX_CHUNK = 16


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
    """Per-component embedding state: cell builder plus frontier index."""

    def __init__(self, mid: int, G: Graph, start: int, flavor: str, budget: int):
        self.id = mid
        self.cells = CellBuilder(G, start, flavor, budget=budget)
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
    degree = G.in_neighbors if side == "-" else G.out_neighbors
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
    budget: int = 10_000,
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

    if G.is_finite:
        root_stream = iter(_finite_component_roots(G))
    elif G.component_roots is not None:
        root_stream = G.component_roots()
    else:
        root_stream = iter((0,))
    roots_done = False

    def next_root() -> Optional[int]:
        nonlocal roots_done
        if roots_done:
            return None
        try:
            return next(root_stream)
        except StopIteration:
            roots_done = True
            return None

    sign_stream = _sign_stream(oracle)
    signs: list[str] = []

    def sign_of(v: int) -> str:
        while len(signs) <= v:
            signs.append(next(sign_stream))
        return signs[v]

    def start_machine(k_vertex: int) -> bool:
        r = next_root()
        if r is None:
            return False
        star = sign_of(k_vertex)
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
        star = sign_of(k_vertex)
        f = m.frontier
        diamond_f = m.cells.cell_type(f)
        constraints: list[Constraint] = [(k_vertex, star)]
        constraints += [(phi[v], diamond_f) for v in m.cells.cell(f) if v in phi]

        pin_cell_index = f + (2 if star == diamond_f else 3)
        pin_cell = m.cells.cell(pin_cell_index)
        if not pin_cell:
            return False
        want_in_zero = star == "+"
        pins = [
            v
            for v in pin_cell
            if not (G.in_neighbors(v) if want_in_zero else G.out_neighbors(v))
        ]
        if not pins:
            raise SchemeError(
                f"cell {pin_cell_index} has no vertex with only "
                f"{star}-neighbors; the cell axioms are violated"
            )
        v_j = min(pins)

        if oracle.decide_in_class(constraints, "+"):
            new_diamond = "+"
        elif oracle.decide_in_class(constraints, "-"):
            new_diamond = "-"
        else:
            raise OracleInconsistencyError(
                "an intersection the conformity invariant guarantees "
                "infinite was decided finite in both sign classes"
            )

        i_j = f + 5
        while m.cells.cell_type(i_j) != new_diamond:
            i_j += 1

        chunk: list[int] = []
        for c in range(f + 1, i_j + 1):
            chunk.extend(m.cells.cell(c))
        chunk = sorted(set(chunk))
        free = len(chunk) - 1
        if free > MAX_CHUNK:
            raise PoolTooSmallError(
                f"chunk of {free} free vertices exceeds the supported "
                f"size {MAX_CHUNK}"
            )

        # every vertex below k_vertex is covered and k_vertex is the pin
        need = 1 << (free - 1) if free >= 1 else 0
        pool = oracle.enumerate_in_class(
            constraints, phi._image, need, new_diamond, start=k_vertex + 1
        )
        sub = _induced_subgraph(G, chunk)
        emb = embed_finite_acyclic(
            sub.graph, K, pool, pins={sub.index[v_j]: k_vertex}
        )
        for local, k in emb.mapping.items():
            phi.assign(sub.back[local], k)
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


@dataclass
class _Sub:
    graph: FiniteOrientedGraph
    index: dict[int, int]
    back: dict[int, int]


def _induced_subgraph(G: Graph, vertices: list[int]) -> _Sub:
    index = {v: i for i, v in enumerate(vertices)}
    vset = set(vertices)
    edges = [
        (index[v], index[w])
        for v in vertices
        for w in G.out_neighbors(v)
        if w in vset
    ]
    return _Sub(
        FiniteOrientedGraph(len(vertices), edges),
        index,
        {i: v for v, i in index.items()},
    )


def _finite_component_roots(G: FiniteOrientedGraph) -> list[int]:
    seen: set[int] = set()
    roots = []
    for v in G.vertices:
        if v in seen:
            continue
        roots.append(v)
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for w in G.out_neighbors(x) + G.in_neighbors(x):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return roots
