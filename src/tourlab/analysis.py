"""Structural analysis: acyclicity, reachability closures, and the
unavoidability classifier.

Everything here works on either a FiniteOrientedGraph or a PresentedGraph;
for presented graphs every scan is budgeted, and verdicts that exploration
cannot settle come back as 'inconclusive' rather than a guess.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from .core import DEFAULT_BUDGET, FiniteOrientedGraph, PresentedGraph, _search, _sign_step
from .errors import BudgetExhaustedError

Graph = Union[FiniteOrientedGraph, PresentedGraph]


@dataclass(frozen=True)
class ClosureResult:
    """Reflexive reachability closure of one vertex in one direction."""

    vertex: int
    direction: str  # '+' follows out-edges, '-' follows in-edges
    members: frozenset[int]
    budget_spent: int


@dataclass(frozen=True)
class Classification:
    """Verdict of the unavoidability classifier.

    verdict is 'unavoidable', 'avoidable', or 'inconclusive'.  Avoidable
    verdicts carry a witness: ('cycle', vertices) for a directed cycle, or
    ('infinite-path-certificate', name) when the generator certifies an
    infinite directed path.  Inconclusive verdicts carry a reason string.
    """

    verdict: str
    witness: Optional[tuple[str, object]] = None
    reason: Optional[str] = None


def is_acyclic(G: FiniteOrientedGraph) -> tuple[bool, Optional[list[int]]]:
    """Kahn peeling; on failure returns a directed cycle as a vertex list."""
    cycle = _find_cycle({v: G.out_neighbors(v) for v in G.vertices})
    return cycle is None, cycle


def _least_first_peel(
    waiting: dict[int, int], successors: Callable[[int], Sequence[int]]
) -> list[int]:
    """Least-first Kahn peel of waiting's key set, in placement order.

    waiting[v] is the number of placements v waits for; it is counted down
    in place as v's predecessors are placed.  The least ready vertex is
    placed next, and placing v counts down each of successors(v) inside
    the set; successors outside it are ignored.  A vertex whose count
    never reaches zero, on a cycle or gated from outside the set, is left
    out of the order.
    """
    ready = [v for v, d in waiting.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in successors(v):
            if w in waiting:
                waiting[w] -= 1
                if waiting[w] == 0:
                    heapq.heappush(ready, w)
    return order


def _find_cycle(adj: Mapping[int, Sequence[int]]) -> Optional[list[int]]:
    """Directed cycle in the finite graph induced on adj's key set, or None.

    adj maps each vertex to its out-neighbors; edges leaving the key set
    are ignored.  Kahn peeling removes every vertex that no cycle reaches.
    The walk then starts at the least remaining vertex and steps to its
    least remaining in-neighbor until a vertex repeats, so the witness
    depends on the induced graph alone, not on the order of adj.
    """
    indeg = dict.fromkeys(adj, 0)
    for outs in adj.values():
        for w in outs:
            if w in indeg:
                indeg[w] += 1
    if len(_least_first_peel(indeg, adj.__getitem__)) == len(indeg):
        return None
    remaining = {v for v, d in indeg.items() if d > 0}
    rev: dict[int, list[int]] = {u: [] for u in remaining}
    for u in remaining:
        for w in adj[u]:
            if w in remaining:
                rev[w].append(u)
    v = min(remaining)
    trail, pos = [], {}
    while v not in pos:
        pos[v] = len(trail)
        trail.append(v)
        v = min(rev[v])
    cycle = trail[pos[v] :]
    cycle.reverse()  # trail followed in-edges, so reverse to edge order
    return cycle


def gamma(
    G: Graph, v: int, direction: str, budget: int = DEFAULT_BUDGET
) -> ClosureResult:
    """Reflexive transitive neighborhood of v: members reachable from v
    along out-edges ('+') or in-edges ('-').

    The budget counts vertex expansions; exceeding it raises
    BudgetExhaustedError carrying the partial member set, which is the
    standard evidence of a possibly infinite directed path through v.
    """
    members, spent = _closure(G, (v,), direction, budget, v)
    return ClosureResult(v, direction, frozenset(members), spent)


def _closure(G: Graph, sources, sign: str, budget: int, name) -> tuple[set[int], int]:
    """The members reachable from the sources along `sign` edges, and the
    expansions spent; past the budget, BudgetExhaustedError names
    gamma<sign>(<name>) and carries the partial member set."""
    members, spent, done = _search(_sign_step(G, sign), sources, budget, set())
    if not done:
        raise BudgetExhaustedError(f"gamma{sign}({name}) exceeded budget {budget}",
                                   partial=frozenset(members), budget=budget)
    return members, spent


class _ClosureWalk:
    """Closures in one direction, explored once and shared by all roots.

    Roots are visited in order, and the caller stops at the first root
    whose closure exceeds the budget, so every finished vertex lies in a
    closure that fit the budget.  Each visit runs Tarjan's DFS over the
    vertices no earlier visit reached.  A finished strongly connected
    component C gets the bound |C| + the sum of the bounds at the far ends
    of the edges leaving C, saturated at budget + 1.  It bounds |Γ(x)| from
    above for every x in C, and is exact when the components reached from
    C form a tree, as in forests and paths.  `cyclic` turns True at an edge
    into a vertex on the stack, which closes a cycle; every cycle through a
    finished vertex holds such an edge.
    """

    def __init__(self, step: Callable[[int], Sequence[int]], budget: int):
        self.step = step
        self.budget = budget
        self.bound: dict[int, int] = {}  # finished vertices
        self.fresh: dict[int, int] = {}  # DFS index of the last root's new vertices
        self.cyclic = False

    def fits(self, v: int) -> bool:
        """True when |Γ(v)| <= budget is certain; False when |Γ(v)| may
        exceed the budget, which only an exact count settles."""
        if v in self.bound:
            return True  # Γ(v) lies inside an earlier root's closure
        step, bound, cap = self.step, self.bound, self.budget + 1
        index = self.fresh = {v: 0}
        low, ext = [0], [0]  # by DFS index; ext: bounds beyond the component
        stack = [v]
        work = [(v, 0, iter(step(v)))]
        while work:
            x, i, it = work[-1]
            for w in it:
                if w in bound:
                    ext[i] += bound[w]
                elif w in index:  # w is on the stack, so x -> w closes a cycle
                    self.cyclic = True
                    if index[w] < low[i]:
                        low[i] = index[w]
                elif len(low) == self.budget:
                    return False  # more than budget vertices reached from v
                else:
                    j = index[w] = len(low)
                    low.append(j)
                    ext.append(0)
                    stack.append(w)
                    work.append((w, j, iter(step(w))))
                    break
            else:
                work.pop()
                if low[i] == i:  # x closes its component
                    if stack[-1] == x:
                        stack.pop()
                        b = bound[x] = min(cap, 1 + ext[i])
                    else:
                        comp = [stack.pop()]
                        while comp[-1] != x:
                            comp.append(stack.pop())
                        b = min(cap, len(comp) + sum(ext[index[y]] for y in comp))
                        for y in comp:
                            bound[y] = b
                    if work:
                        ext[work[-1][1]] += b
                else:  # x's component is still open, so x has a parent
                    p = work[-1][1]
                    if low[i] < low[p]:
                        low[p] = low[i]
        return bound[v] <= self.budget

    def forget_last(self) -> None:
        """Drop the vertices that the last root reached first."""
        for x in self.fresh:
            self.bound.pop(x, None)


def classify_unavoidability(
    G: Graph, budget: int = DEFAULT_BUDGET
) -> Classification:
    """Decide whether G embeds in every tournament on the naturals.

    Finite graphs are settled exactly: unavoidable iff acyclic.  For a
    presented graph the verdict 'unavoidable' certifies, within the budget,
    that every vertex of index < budget has finite closures in both
    directions and that the explored region is acyclic.  A concrete
    avoidability witness is either a directed cycle found during
    exploration or a generator-carried infinite-path certificate; budget
    exhaustion alone yields 'inconclusive', never 'avoidable'.

    The closures are explored once per direction and shared across
    vertices, so the time is linear in the explored vertices and edges;
    an exact `gamma` count runs only for a vertex whose closure bound
    exceeds the budget.  `budget` still caps each closure's expansions,
    and the verdict, witness and reason are those of one `gamma` call per
    vertex and direction.  When every closure fits and neither walk saw a
    cycle, the explored region is not read a second time.
    """
    if G.is_finite:
        ok, cycle = is_acyclic(G)
        if ok:
            return Classification("unavoidable")
        return Classification("avoidable", witness=("cycle", cycle))

    if G.certified_infinite_path:
        return Classification(
            "avoidable", witness=("infinite-path-certificate", G.name)
        )

    walks = {sign: _ClosureWalk(_sign_step(G, sign), budget) for sign in "+-"}
    partial: frozenset[int] = frozenset()
    failure: Optional[str] = None
    for v in range(budget):
        for direction, walk in walks.items():
            if walk.fits(v):
                continue
            try:
                gamma(G, v, direction, budget=budget)
            except BudgetExhaustedError as e:
                partial = e.partial
                walk.forget_last()
                failure = (
                    f"gamma{direction}({v}) still open after {budget} expansions; "
                    "possible infinite directed path"
                )
                break
        if failure is not None:
            # certification already failed; remaining work could only
            # find a cycle, and the explored region is checked below
            break

    if failure is None and not any(walk.cyclic for walk in walks.values()):
        return Classification("unavoidable")
    explored = set(partial).union(*(walk.bound for walk in walks.values()))
    adj = {v: G.out_neighbors(v) for v in explored}
    cycle = _find_cycle(adj)
    if cycle is not None:
        return Classification("avoidable", witness=("cycle", cycle))
    if failure is not None:
        return Classification("inconclusive", reason=failure)
    return Classification("unavoidable")
