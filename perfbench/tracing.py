"""In-process tracing of the innerqft layers.

A Tracer wraps the public functions the benchmark names, in every module
that binds them: `suites`, `fock`, `smatrix`, `gravlimit` and `grammar`
import `vev`, `make_monomial`, `delta_resolve` and `reduce_to_normal_form`
by name, so patching `opalg.<name>` alone would miss their calls. Wrapped
functions record spans (name, start, end, parent span, invocation id) in
memory. The hot leaves `make_monomial` and `OperatorExpr.from_monomials`
only count, because a span per call would cost more than the call.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

from innerqft import cli, fock, gravlimit, grammar, kinematics, opalg, smatrix, suites

SPANNED = ("opalg.reduce_to_normal_form", "opalg.vev", "opalg.delta_resolve",
           "gravlimit.grav_limit_expr", "smatrix.lsz_reduce",
           "smatrix.elastic_overlap", "smatrix.toy_unitarity_check",
           "smatrix.wick_two_point", "fock.inner_product", "fock.apply",
           "grammar.parse_expression", "grammar.print_expression", "cli.main")
SUITE_NAMES = tuple(f"suites.suite_{name}" for name in sorted(suites.SUITES))

# per-layer metrics, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("opalg.reduce_to_normal_form.self_s", "s"),
    ("opalg.reduce_to_normal_form.calls", "count"),
    ("opalg.reduce_to_normal_form.terms_out", "count"),
    ("opalg.vev.self_s", "s"),
    ("opalg.vev.calls", "count"),
    ("opalg.vev.terms_out", "count"),
    ("opalg.vev.kept_ratio", "ratio"),
    ("opalg.make_monomial.calls", "count"),
    ("opalg.make_monomial.zero_ratio", "ratio"),
    ("opalg.OperatorExpr.from_monomials.calls", "count"),
    ("opalg.OperatorExpr.from_monomials.merge_ratio", "ratio"),
    ("opalg.delta_resolve.self_s", "s"),
    ("gravlimit.grav_limit_expr.self_s", "s"),
    ("gravlimit.grav_limit_expr.terms_in", "count"),
    ("gravlimit.grav_limit_expr.terms_out", "count"),
    ("smatrix.lsz_reduce.self_s", "s"),
    ("smatrix.elastic_overlap.self_s", "s"),
    ("smatrix.toy_unitarity_check.self_s", "s"),
    ("smatrix.toy_unitarity_check.calls", "count"),
    ("smatrix.wick_two_point.self_s", "s"),
    ("fock.inner_product.self_s", "s"),
    ("fock.apply.self_s", "s"),
    ("fock.FockState.ket.self_s", "s"),
    ("kinematics.self_s", "s"),
    *((f"{name}.self_s", "s") for name in SUITE_NAMES),
    ("grammar.parse_expression.self_s", "s"),
    ("grammar.print_expression.self_s", "s"),
    ("grammar.print_expression.chars", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
)

# counts that must repeat exactly between two traced passes of one seed
EXACT = ("opalg.make_monomial.calls", "opalg.make_monomial.zeros",
         "opalg.OperatorExpr.from_monomials.calls",
         "opalg.OperatorExpr.from_monomials.monomials_in",
         "opalg.OperatorExpr.from_monomials.terms_out",
         "opalg.reduce_to_normal_form.calls", "opalg.reduce_to_normal_form.terms_out",
         "opalg.vev.calls", "opalg.vev.terms_out", "opalg.vev.full_terms",
         "gravlimit.grav_limit_expr.terms_in", "gravlimit.grav_limit_expr.terms_out",
         "smatrix.toy_unitarity_check.calls", "grammar.print_expression.chars")

_MODULES = {"opalg": opalg, "gravlimit": gravlimit, "smatrix": smatrix,
            "fock": fock, "grammar": grammar, "cli": cli, "suites": suites}


class Tracer:
    """Spans and counters of one traced pass; install() patches, remove() undoes."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, invocation)
        self.counts: dict = defaultdict(int)
        self.invocation = None
        self._stack: list = []         # (span index, name) of open spans
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, post=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.invocation)
            counts[name + ".calls"] += 1
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def _post_reduce(self, args, result):
        n = len(result.terms)
        self.counts["opalg.reduce_to_normal_form.terms_out"] += n
        if self._stack and self._stack[-1][1] == "opalg.vev":
            self.counts["opalg.vev.full_terms"] += n

    def _post_vev(self, args, result):
        self.counts["opalg.vev.terms_out"] += len(result.terms)

    def _post_grav(self, args, result):
        self.counts["gravlimit.grav_limit_expr.terms_in"] += len(args[0].terms)
        self.counts["gravlimit.grav_limit_expr.terms_out"] += len(result.terms)

    def _post_print(self, args, result):
        self.counts["grammar.print_expression.chars"] += len(result)

    def _counted_make_monomial(self, fn):
        counts = self.counts

        def make_monomial(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["opalg.make_monomial.calls"] += 1
            if result is None:
                counts["opalg.make_monomial.zeros"] += 1
            return result
        return make_monomial

    def _counted_from_monomials(self, fn):
        counts = self.counts

        def from_monomials(cls, monos):
            monos = list(monos)
            result = fn(cls, monos)
            counts["opalg.OperatorExpr.from_monomials.calls"] += 1
            counts["opalg.OperatorExpr.from_monomials.monomials_in"] += sum(
                m is not None for m in monos)
            counts["opalg.OperatorExpr.from_monomials.terms_out"] += len(result.terms)
            return result
        return from_monomials

    # -- patching ---------------------------------------------------------

    def _rebind(self, orig, new):
        """Replace every binding of `orig` in the innerqft modules."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("innerqft"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((setattr, mod, attr, orig))
                    setattr(mod, attr, new)
                elif isinstance(val, dict):
                    for key, v in list(val.items()):
                        if v is orig:
                            self._undo.append((dict.__setitem__, val, key, orig))
                            val[key] = new

    def _set_class_attr(self, cls, attr, new):
        self._undo.append((setattr, cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self) -> "Tracer":
        posts = {"opalg.reduce_to_normal_form": self._post_reduce,
                 "opalg.vev": self._post_vev,
                 "gravlimit.grav_limit_expr": self._post_grav,
                 "grammar.print_expression": self._post_print}
        for name in SPANNED + SUITE_NAMES:
            mod, attr = name.split(".")
            orig = getattr(_MODULES[mod], attr)
            self._rebind(orig, self._spanned(name, orig, posts.get(name)))
        for attr, fn in list(vars(kinematics).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == kinematics.__name__):
                self._rebind(fn, self._spanned(f"kinematics.{attr}", fn))
        ket = fock.FockState.__dict__["ket"].__func__
        self._set_class_attr(fock.FockState, "ket", classmethod(
            self._spanned("fock.FockState.ket", ket)))
        orig_mm = opalg.make_monomial
        self._rebind(orig_mm, self._counted_make_monomial(orig_mm))
        from_m = opalg.OperatorExpr.__dict__["from_monomials"].__func__
        self._set_class_attr(opalg.OperatorExpr, "from_monomials", classmethod(
            self._counted_from_monomials(from_m)))
        return self

    def remove(self) -> None:
        while self._undo:
            setter, obj, key, orig = self._undo.pop()
            setter(obj, key, orig)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer: span duration minus that of its child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            layer = "kinematics" if name.startswith("kinematics.") else name
            out[layer + ".self_s"] += (t1 - t0) - child[i]
        return out

    def exact_counts(self) -> dict:
        return {name: self.counts.get(name, 0) for name in EXACT}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(self_times: dict, counts: dict) -> dict:
    """The per-layer metrics of LAYER_METRICS that spans and counts give."""
    c = counts
    values = {name: self_times.get(name, 0.0)
              for name, unit in LAYER_METRICS if name.endswith(".self_s")}
    values.update({name: c.get(name, 0) for name, unit in LAYER_METRICS
                   if unit == "count"})
    values["opalg.vev.kept_ratio"] = _ratio(c.get("opalg.vev.terms_out", 0),
                                            c.get("opalg.vev.full_terms", 0))
    values["opalg.make_monomial.zero_ratio"] = _ratio(
        c.get("opalg.make_monomial.zeros", 0), c.get("opalg.make_monomial.calls", 0))
    values["opalg.OperatorExpr.from_monomials.merge_ratio"] = _ratio(
        c.get("opalg.OperatorExpr.from_monomials.monomials_in", 0),
        c.get("opalg.OperatorExpr.from_monomials.terms_out", 0))
    return values
