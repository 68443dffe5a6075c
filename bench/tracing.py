"""In-memory spans and counters around calls into the diotuples modules.

The package is measured from outside.  `instrument` replaces public functions
in the module namespaces where the package's own code looks them up, so a call
from one module into another passes through a wrapper, and restores them on
exit.  Coarse calls get one span each (id, name, start, end, parent id).  Hot
leaf calls (square roots, exact divisions, element enumeration) only add to
per-name call counts, result counts and seconds, which keeps the wrapper cost
small next to the work it measures.  A name the package no longer defines is
skipped, and its metrics read 0.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from diotuples import bounds, search, tuples

SPAN_FIELDS = ("id", "name", "start", "end", "parent")


class Tracer:
    """Spans and counters of one pass, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, fn, name: str, hook=None):
        """Wrap fn so each call records a span; hook(tracer, args, result) adds counts."""

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent))
                self.counts[name + ".calls"] += 1
                self.seconds[name] += end - start
            if hook is not None:
                hook(self, args, out)
            return out

        return wrapper

    def leaf(self, fn, names: tuple[str, ...]):
        """Wrap a hot function: calls, seconds and non-None results per name, no spans."""
        counts, seconds = self.counts, self.seconds

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            for n in names:
                counts[n + ".calls"] += 1
                seconds[n] += dt
                if out is not None:
                    counts[n + ".hits"] += 1
            return out

        return wrapper

    def yields(self, fn, names: tuple[str, ...]):
        """Wrap a generator function, counting the items it yields per name."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                for n in names:
                    counts[n] += 1
                yield item

        return wrapper

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, and self seconds (total minus child spans)."""
        child_time: defaultdict = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, start, end, _ in self.spans:
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[sid]
        return out


# Hooks read counts off results, after the span has closed.


def _on_enum(tr: Tracer, args, out) -> None:
    v = len(out)
    tr.counts["search.vertices"] += v
    tr.counts["search.pairs"] += v * (v - 1) // 2


def _on_graph(tr: Tracer, args, out) -> None:
    tr.counts["search.edges"] += out.edge_count


def _on_cliques(tr: Tracer, args, out) -> None:
    tr.counts["search.cliques"] += len(out)


def _on_campaign(tr: Tracer, args, out) -> None:
    tr.seconds["search.campaign_overhead"] += out.wall_time - sum(r.wall_time for r in out.results)
    path = args[0].checkpoint_path
    if path and os.path.exists(path):
        tr.counts["search.checkpoint_bytes"] += os.path.getsize(path)


def _on_extend(tr: Tracer, args, out) -> None:
    tr.counts["tuples.extend.accepted"] += len(out)


def _on_gap(tr: Tracer, args, out) -> None:
    if any(bits > bounds.DEFAULT_PRECISION_BITS for _, _, bits in out.values()):
        tr.counts["bounds.escalated"] += 1


@contextmanager
def instrument(tr: Tracer):
    """Patch the package's module namespaces with tr's wrappers for the duration."""
    # Order matters: search.verify_tuple wraps the already wrapped tuples.verify_tuple,
    # so a re-verification span holds its verify_tuple span as a child.
    plan = [
        (tuples, "sqrt_exact", lambda f: tr.leaf(f, ("quad_ring.sqrt_exact",))),
        (tuples, "exact_div", lambda f: tr.leaf(f, ("quad_ring.exact_div",))),
        (tuples, "iter_elements",
         lambda f: tr.yields(f, ("quad_ring.iter_elements.n", "tuples.extend.z_scanned"))),
        (tuples, "verify_tuple", lambda f: tr.span(f, "tuples.verify_tuple")),
        (tuples, "extend_triple", lambda f: tr.span(f, "tuples.extend_triple", _on_extend)),
        (tuples, "c_plus_minus", lambda f: tr.span(f, "tuples.c_plus_minus")),
        (search, "sqrt_exact", lambda f: tr.leaf(f, ("quad_ring.sqrt_exact", "search.sqrt"))),
        (search, "iter_elements", lambda f: tr.yields(f, ("quad_ring.iter_elements.n",))),
        (search, "enum_elements", lambda f: tr.span(f, "search.enum_elements", _on_enum)),
        (search, "build_graph", lambda f: tr.span(f, "search.build_graph", _on_graph)),
        (search, "find_cliques", lambda f: tr.span(f, "search.find_cliques", _on_cliques)),
        (search, "verify_tuple", lambda f: tr.span(tuples.verify_tuple, "search.reverify")),
        (search, "run_campaign", lambda f: tr.span(f, "search.run_campaign", _on_campaign)),
        (search, "write_report", lambda f: tr.span(f, "search.write_report")),
        (bounds, "jz_constants", lambda f: tr.span(f, "bounds.jz_constants")),
        (bounds, "gap_lemma_checks", lambda f: tr.span(f, "bounds.gap_lemma_checks", _on_gap)),
        (bounds, "theta_defect", lambda f: tr.span(f, "bounds.theta_defect")),
        (bounds, "chain_verify", lambda f: tr.span(f, "bounds.chain_verify")),
        (bounds, "threshold_a22", lambda f: tr.span(f, "bounds.threshold_a22")),
    ]
    saved = []
    try:
        for module, attr, make in plan:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, make(fn))
        yield tr
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by the names BENCHMARK.json declares."""
    c, s = tr.counts, tr.seconds
    names = {sid: name for sid, name, _, _, _ in tr.spans}
    jz_in_gap = sum(
        1
        for _, name, _, _, parent in tr.spans
        if name == "bounds.jz_constants" and names.get(parent) == "bounds.gap_lemma_checks"
    )
    return {
        "search.enum_s": s["search.enum_elements"],
        "search.graph_s": s["search.build_graph"],
        "search.cliques_s": s["search.find_cliques"],
        "search.reverify_s": s["search.reverify"],
        "search.report_s": s["search.write_report"],
        "search.campaign_overhead_s": s["search.campaign_overhead"],
        "search.vertices": c["search.vertices"],
        "search.pairs": c["search.pairs"],
        "search.edges": c["search.edges"],
        "search.edge_ratio": _ratio(c["search.edges"], c["search.pairs"]),
        "search.cliques": c["search.cliques"],
        "search.pairs_per_s": _ratio(c["search.pairs"], s["search.build_graph"]),
        "search.checkpoint_bytes": c["search.checkpoint_bytes"],
        "search.sqrt_calls": c["search.sqrt.calls"],
        "search.sqrt_ratio": _ratio(c["search.sqrt.calls"], c["search.pairs"]),
        "quad_ring.sqrt_exact.calls": c["quad_ring.sqrt_exact.calls"],
        "quad_ring.sqrt_exact.s": s["quad_ring.sqrt_exact"],
        "quad_ring.sqrt_exact.roots": c["quad_ring.sqrt_exact.hits"],
        "quad_ring.exact_div.calls": c["quad_ring.exact_div.calls"],
        "quad_ring.exact_div.s": s["quad_ring.exact_div"],
        "quad_ring.exact_div.hits": c["quad_ring.exact_div.hits"],
        "quad_ring.iter_elements.n": c["quad_ring.iter_elements.n"],
        "tuples.verify_tuple.calls": c["tuples.verify_tuple.calls"],
        "tuples.verify_tuple.s": s["tuples.verify_tuple"],
        "tuples.extend_triple.s": s["tuples.extend_triple"],
        "tuples.extend.z_scanned": c["tuples.extend.z_scanned"],
        # exact_div is called only by the extend scan, once per z
        "tuples.extend.divisible": c["quad_ring.exact_div.hits"],
        "tuples.extend.accepted": c["tuples.extend.accepted"],
        "tuples.extend.z_per_s": _ratio(c["tuples.extend.z_scanned"], s["tuples.extend_triple"]),
        "tuples.c_plus_minus.s": s["tuples.c_plus_minus"],
        "bounds.gap_lemma_checks.calls": c["bounds.gap_lemma_checks.calls"],
        "bounds.gap_lemma_checks.s": s["bounds.gap_lemma_checks"],
        "bounds.jz_constants.calls": jz_in_gap,
        "bounds.escalated": c["bounds.escalated"],
        "bounds.theta_defect.s": s["bounds.theta_defect"],
        "bounds.chain_verify.s": s["bounds.chain_verify"],
        "bounds.threshold_a22.s": s["bounds.threshold_a22"],
    }
