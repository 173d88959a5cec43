"""Span recording for the traced run, from outside the program.

`install` replaces each public function of the traced layers with a
wrapper that records a span (name, start, end, parent span, operation
id, count) around the call.  Each name is replaced everywhere its
callers look it up: a module that did `from .density import
optimize_scheme` keeps its own reference, so that reference is patched
too.  Nothing inside `src/` changes.

Two layers are called millions of times per operation, so they are
aggregated per operation instead of kept call by call: the adjacency
queries of presented graphs (time and calls) and `TournamentOracle.orient`
(calls only).  Their time still counts as child time of the enclosing
span, so self times stay exact.

Spans are kept in memory and written out, one JSON object a line, when
the traced pass ends.
"""

from __future__ import annotations

import json
from time import perf_counter

# (span name, metric suffix, unit) of every per-layer metric derived from
# spans, in report order; the metric is named "<span name>.<suffix>"
LAYER_METRICS = (
    ("counting.prior_greater_counts", "self_s", "s"),
    ("counting.prior_greater_counts", "n", "entries"),
    ("counting.ranks_of_values", "self_s", "s"),
    ("density.prefix_ranks", "self_s", "s"),
    ("density.window_min_density", "self_s", "s"),
    ("density.window_min_density", "calls", "windows"),
    ("density.optimize_scheme", "self_s", "s"),
    ("density.density_profile", "self_s", "s"),
    ("density.inversion_density_profile", "self_s", "s"),
    ("density.rank_decompose", "self_s", "s"),
    ("density.dominance_check", "self_s", "s"),
    ("core.InjectionSpec.values", "self_s", "s"),
    ("core.InjectionSpec.values", "n", "values"),
    ("core.forward_row", "self_s", "s"),
    ("core.forward_row", "pairs", "pairs"),
    ("core.orient", "calls", "queries"),
    ("core.neighbors", "self_s", "s"),
    ("core.neighbors", "calls", "calls"),
    ("analysis.gamma", "self_s", "s"),
    ("analysis.gamma", "calls", "calls"),
    ("analysis.gamma", "expansions", "expansions"),
    ("analysis.classify_unavoidability", "self_s", "s"),
    ("embedding.spanning_embed", "self_s", "s"),
    ("embedding.oracle.decide", "self_s", "s"),
    ("embedding.oracle.decide", "calls", "calls"),
    ("embedding.oracle.enumerate", "self_s", "s"),
    ("embedding.oracle.enumerate", "calls", "calls"),
    ("embedding.oracle.enumerate", "members", "members"),
    ("embedding.embed_finite_acyclic", "self_s", "s"),
    ("embedding.embed_finite_acyclic", "calls", "calls"),
    ("cli", "self_s", "s"),
)
# metrics the run computes from untraced timings, not from spans
EXTRA_METRICS = (("embedding.growth_exp", "exponent"), ("trace.overhead_s", "s"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{name}.{suffix}": unit for name, suffix, unit in LAYER_METRICS}
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Spans of one traced pass.

    A span record is [name, start, end, parent, op, count, child_time];
    `parent` is the index of the enclosing span or -1.  A call into a
    layer already open directly above (decide_in_class calling decide)
    joins that span instead of opening a nested one.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str = ""
        self.aggregates: list[dict] = []
        self._leaves: dict[str, list] = {}

    def begin_op(self, op_id: str) -> None:
        self.op = op_id

    def end_op(self) -> None:
        for name, agg in self._leaves.items():
            if agg[1]:
                self.aggregates.append(
                    {"name": name, "op": self.op, "total": agg[0], "calls": agg[1]}
                )
            agg[0], agg[1] = 0.0, 0

    def span(self, name, fn, count=None):
        """Wrap fn so that each call records one span; count(args, result,
        error) gives the span's count."""
        spans, stack = self.spans, self.stack
        tracer = self

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            result = error = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                end = perf_counter()
                rec[2] = end
                stack.pop()
                if stack:
                    spans[stack[-1]][6] += end - rec[1]
                if count is not None:
                    rec[5] = count(args, result, error)

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name, fn, timed=True):
        """Wrap a hot leaf call: per-operation totals instead of spans."""
        agg = self._leaves.setdefault(name, [0.0, 0])
        spans, stack = self.spans, self.stack

        if not timed:
            def counted(*args):
                agg[1] += 1
                return fn(*args)

            counted.__wrapped__ = fn
            return counted

        def timed_leaf(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            agg[0] += dt
            agg[1] += 1
            if stack:
                spans[stack[-1]][6] += dt
            return result

        timed_leaf.__wrapped__ = fn
        return timed_leaf

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, count, child in self.spans:
                fh.write(json.dumps({
                    "name": name, "op": op, "start": start, "end": end,
                    "parent": parent, "count": count,
                    "self": end - start - child,
                }) + "\n")
            for agg in self.aggregates:
                fh.write(json.dumps(agg) + "\n")


def _subclasses(cls):
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install(tracer: Tracer) -> None:
    """Patch every traced name of tourlab where its callers look it up."""
    import tourlab.analysis as analysis
    import tourlab.cli as cli
    import tourlab.core as core
    import tourlab.counting as counting
    import tourlab.density as density
    import tourlab.embedding as embedding
    from tourlab.errors import BudgetExhaustedError

    def n_of_first(args, result, error):
        return len(args[0])

    def expansions(args, result, error):
        if result is not None:
            return result.budget_spent
        if isinstance(error, BudgetExhaustedError):
            return error.budget
        return 0

    def patch(sites, attr, name, count=None):
        fn = getattr(sites[0], attr)
        wrapped = tracer.span(name, fn, count)
        for site in sites:
            setattr(site, attr, wrapped)

    patch([counting, density], "prior_greater_counts",
          "counting.prior_greater_counts", n_of_first)
    patch([counting], "ranks_of_values", "counting.ranks_of_values")
    patch([density.BlockScheme], "prefix_ranks", "density.prefix_ranks")
    patch([density], "window_min_density", "density.window_min_density")
    patch([density, cli], "optimize_scheme", "density.optimize_scheme")
    patch([density, cli], "density_profile", "density.density_profile")
    patch([density, cli], "inversion_density_profile",
          "density.inversion_density_profile")
    patch([density], "rank_decompose", "density.rank_decompose")
    patch([density], "dominance_check", "density.dominance_check")
    patch([core.InjectionSpec], "values", "core.InjectionSpec.values",
          lambda args, result, error: args[1])
    for cls in _subclasses(core.TournamentOracle):
        if "forward_row" in vars(cls):
            patch([cls], "forward_row", "core.forward_row",
                  lambda args, result, error: args[1])
    core.TournamentOracle.orient = tracer.leaf(
        "core.orient", core.TournamentOracle.orient, timed=False)
    for attr in ("in_neighbors", "out_neighbors"):
        setattr(core.PresentedGraph, attr,
                tracer.leaf("core.neighbors", getattr(core.PresentedGraph, attr)))
    patch([analysis, embedding], "gamma", "analysis.gamma", expansions)
    patch([analysis, cli], "classify_unavoidability",
          "analysis.classify_unavoidability")
    patch([embedding, cli], "spanning_embed", "embedding.spanning_embed")
    for cls in _subclasses(embedding.InfinitenessOracle):
        for attr in ("decide", "decide_in_class"):
            if attr in vars(cls):
                patch([cls], attr, "embedding.oracle.decide")
        if "enumerate_in_class" in vars(cls):
            patch([cls], "enumerate_in_class", "embedding.oracle.enumerate",
                  lambda args, result, error: len(result) if result else 0)
    patch([embedding], "embed_finite_acyclic", "embedding.embed_finite_acyclic")
    patch([cli], "main", "cli")


def layer_totals(span_path: str) -> dict[str, float]:
    """Sum a span file into the per-layer metrics derived from spans."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    with open(span_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            name = rec["name"]
            if "total" in rec:  # aggregated leaf
                self_s[name] = self_s.get(name, 0.0) + rec["total"]
                calls[name] = calls.get(name, 0) + rec["calls"]
                continue
            self_s[name] = self_s.get(name, 0.0) + rec["self"]
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + rec["count"]
    out = {}
    for name, suffix, _ in LAYER_METRICS:
        key = f"{name}.{suffix}"
        if suffix == "self_s":
            out[key] = self_s.get(name, 0.0)
        elif suffix == "calls":
            out[key] = calls.get(name, 0)
        else:
            out[key] = counts.get(name, 0)
    return out
