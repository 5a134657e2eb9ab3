"""Span tracing for the benchmark's traced runs.

Tracer.install() rebinds the names one fjcert module takes from another, so
that every call across a module boundary records a span: name, parent span,
start, end, and the work counts of that call.  It is meant for a child
process that runs one traced sequence and then exits; nothing is restored.
Spans stay in memory and are folded into per-layer metrics at the end.

Self time is a span's duration minus the time its child spans cover.  The
work counts are taken after a span ends and before its parent resumes, and
that interval is charged to no span's self time.
"""

from __future__ import annotations

import bisect
import builtins
import functools
import os
from collections import Counter
from time import perf_counter


class Span:
    __slots__ = ("name", "tag", "parent", "start", "end", "post", "failed", "counts")

    def __init__(self, name, tag, parent):
        self.name, self.tag, self.parent = name, tag, parent
        self.start = perf_counter()
        self.end = self.post = self.start
        self.failed = False
        self.counts = None


# work counts per boundary: f(tracer, args, result) -> {quantity: number}


def _dict_mul_pairs(tracer, args, result):
    a, b, emax = args
    ebs = sorted(b)
    return {"term_pairs": sum(bisect.bisect_left(ebs, emax - e) for e in a)}


def _jacobi_mul_pairs(tracer, args, result):
    a, b = args
    prec = min(a.prec, b.prec)
    rows_a, rows_b = Counter(n for n, _ in a.coeffs if n < prec), Counter(n for n, _ in b.coeffs if n < prec)
    return {"term_pairs": sum(ca * cb for na, ca in rows_a.items() for nb, cb in rows_b.items() if na + nb < prec)}


def _evaluate_terms(tracer, args, result):
    phi, tau1, z = args
    tracer.points.add((tracer.tag, id(phi), tau1, z))
    return {"terms": len(phi.coeffs)}


# (module, attribute, span name, work counter): the names each module imports
# from another, plus d_eps, which partial_sum_bound_check looks up in its own
# module.  Spans that BENCHMARK.json reports no metric for still keep their
# time out of the self time of the cli command that calls them.
BOUNDARIES = [
    ("cli", "jacobi_space", "jacobi.jacobi_space", None),
    ("cli", "specialize_torsion", "jacobi.specialize_torsion", None),
    ("cli", "check_symmetry", "fjseries.check_symmetry",
     lambda t, a, r: {"checked": r.checked, "skipped": r.skipped}),
    ("cli", "gritsenko_lift", "fjseries.gritsenko_lift",
     lambda t, a, r: {"coeffs_out": sum(len(phi.coeffs) for phi in r.phis)}),
    ("cli", "growth_fit", "convergence.growth_fit", None),
    ("cli", "pointwise_convergence_check", "convergence.pointwise_convergence_check", None),
    ("cli", "partial_sum_bound_check", "convergence.partial_sum_bound_check", None),
    ("cli", "write_csv", "convergence.write_csv", None),
    ("cli", "enumerate_S", "reduction.enumerate_S", None),
    ("cli", "is_positive_definite", "reduction.is_positive_definite", None),
    ("cli", "minkowski_reduce", "reduction.minkowski_reduce", None),
    ("cli", "hermite_check", "reduction.hermite_check", None),
    ("convergence", "poly_eval", "fjseries.poly_eval", None),
    ("convergence", "evaluate_partial", "fjseries.evaluate_partial", None),
    ("convergence", "evaluate", "jacobi.evaluate", _evaluate_terms),
    ("convergence", "fe_norm", "jacobi.fe_norm", None),
    ("convergence", "d_eps", "convergence.d_eps", lambda t, a, r: {"grid_points": len(a[2])}),
    ("fjseries", "multiply", "jacobi.multiply", _jacobi_mul_pairs),
    ("fjseries", "evaluate", "jacobi.evaluate", _evaluate_terms),
    ("jacobi", "_dict_mul", "core.dict_mul", _dict_mul_pairs),
    ("jacobi", "_dict_div", "core.dict_div", lambda t, a, r: {"out_terms": len(r)}),
]

# methods of the series classes, which cli and the relation step call
METHODS = [
    ("FormalFJ", "from_record", "fjseries.from_record"),
    ("FormalFJ", "to_record", "fjseries.to_record"),
    ("FormalFJ", "multiply", "fjseries.FormalFJ.multiply"),
    ("PolynomialOverM", "from_record", "fjseries.PolynomialOverM.from_record"),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.tag = ""  # the benchmark operation now running
        self.points: set = set()  # distinct (operation, slice, tau1, z) seen by evaluate
        self.files: list[tuple[bool, str]] = []  # (opened for writing, path) by cli and convergence

    def open(self, name: str) -> Span:
        span = Span(name, self.tag, self.stack[-1] if self.stack else -1)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span, count=None, args=(), result=None, failed=False):
        span.end = perf_counter()
        span.failed = failed
        if count is not None:
            span.counts = count(self, args, result)
        span.post = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, failed=True)
                raise
            self.close(span, count, args, result)
            return result

        return traced

    def install(self, fjcert):
        """Rebind the module boundaries of the imported fjcert package."""
        for module, attr, name, count in BOUNDARIES:
            mod = getattr(fjcert, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), count))
        for cls_name, attr, name in METHODS:
            cls = getattr(fjcert.fjseries, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

        def counting_open(file, mode="r", *args, **kwargs):
            self.files.append(("w" in mode or "a" in mode, os.fspath(file)))
            return builtins.open(file, mode, *args, **kwargs)

        fjcert.cli.open = counting_open
        fjcert.convergence.open = counting_open

    def layers(self) -> dict:
        """Per span name: calls, failed, self_s, total_s and summed work counts."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.post - span.start
        stats: dict = {}
        for i, span in enumerate(self.spans):
            st = stats.setdefault(span.name, Counter())
            st["calls"] += 1
            st["failed"] += span.failed
            st["total_s"] += span.end - span.start
            st["self_s"] += span.end - span.start - covered[i]
            st.update(span.counts or {})
            if span.name == "jacobi.multiply" and span.parent >= 0 and self.spans[span.parent].name == "fjseries.FormalFJ.multiply":
                stats.setdefault("fjseries.FormalFJ.multiply", Counter())["slice_products"] += 1
        ev = stats.get("jacobi.evaluate")
        if ev:
            ev["distinct_ratio"] = len(self.points) / ev["calls"]
        read = sum(os.path.getsize(p) for w, p in self.files if not w and os.path.exists(p))
        written = sum(os.path.getsize(p) for w, p in self.files if w and os.path.exists(p))
        stats["cli"] = Counter(bytes_read=read, bytes_written=written)
        return {name: dict(st) for name, st in stats.items()}

    def total(self, tag: str, name: str) -> float:
        """Inclusive seconds of the spans `name` under operation `tag`."""
        return sum(s.end - s.start for s in self.spans if s.tag == tag and s.name == name)

    def dump(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write("%s\t%s\t%d\t%.9f\t%.9f\t%s\n" % (s.name, s.tag, s.parent, s.start, s.end, int(s.failed)))
