"""Outside-in span recorder for the siegelops layers.

Nothing under ``src/`` knows about tracing.  ``install`` replaces the public
functions and the arithmetic methods of each layer with wrappers that record
a span (name, start, end, parent, job id) per call, and optionally a work
count computed from the call's arguments and result.  A name imported with
``from .poly import ...`` is bound early in the importing module, so every
module that holds the same function object gets the wrapper.

Per-element helpers (variable constructors such as ``poly.r_var`` and the
coefficient text codecs of ``scalars``) are left unwrapped: they run once per
term inside other layers' loops, and a span around each call would measure
the recorder rather than the layer.

Spans stay in memory and are written out when the pass ends.  A layer's
self time is its spans' durations minus the time their direct child spans
cover; the time the recorder spends computing work counts is recorded as
``trace.count`` child spans so it is excluded from every layer's self time.
"""

from __future__ import annotations

import functools
import inspect
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter

from siegelops import brackets, cli, jets, opgen, poly, qexp, scalars, slopes, theta
import siegelops

LAYER_MODULES = (scalars, poly, jets, opgen, qexp, theta, brackets, slopes)
# every module that may hold an early-bound copy of a layer function
BINDING_MODULES = LAYER_MODULES + (cli, siegelops)

PER_ELEMENT_HELPERS = {
    "poly": {"t_var", "r_var", "x_var", "frac_text"},
    "jets": {"jet_var"},
    "scalars": {"frac_to_text", "frac_from_text", "scalar_to_text",
                "scalar_from_text", "ratfunc_to_text", "ratfunc_from_text"},
}

RING = ("__add__", "__neg__", "__sub__", "__mul__", "__pow__")

METHODS = {
    scalars.RatFunc: RING + ("__radd__", "__rsub__", "__rmul__", "__truediv__",
                             "__rtruediv__", "eval_at"),
    poly.MultiPoly: RING + ("scale", "promote", "diff_sym", "diff_plain",
                            "mul_var", "substitute", "t_coefficient"),
    jets.JetPoly: RING + ("scale", "promote"),
    qexp.QExp2: RING + ("scale_coeff", "truncate", "q_diff", "to_text"),
    qexp.QExp1: RING + ("scale_coeff", "q_diff", "to_text"),
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def public_functions(module):
    """(name, function) for the public functions a layer module defines."""
    skip = PER_ELEMENT_HELPERS.get(_short(module), set())
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or name in skip or inspect.isclass(obj):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            out.append((name, obj))
    return out


# -- work counts: computed from arguments and results, outside the span ------


def _pair_ops(x, y) -> int:
    """#{(a, b) : w_a + w_b <= trunc} for the truncated genus-2 convolution."""
    trunc = min(x.trunc, y.trunc)
    wb = sorted(k[0] + k[2] for k in y.terms)
    return sum(bisect_right(wb, trunc - (k[0] + k[2])) for k in x.terms)


def _count_qexp2_mul(rec, args, out):
    rec.add("qexp.mul.terms_out", len(out.terms))
    rec.add("qexp.mul.pair_ops", _pair_ops(args[0], args[1]))


def _count_t_coefficient(rec, args, out):
    rec.add("poly.t_coefficient.terms_scanned", len(args[0].terms))
    rec.add("poly.t_coefficient.terms_returned", len(out.terms))


def _count_det_expand(rec, args, out):
    rec.distinct("poly.det_expand.terms", args, len(out.terms))


def _count_add(rec, args, out):
    rec.add("poly.multipoly_add.terms_copied", len(args[0].terms))


def _count_build_Q(rec, args, out):
    rec.add("opgen.build_Q.q_terms", len(out.Q.terms))


def _count_jet_apply(rec, args, out):
    rec.add("jets.jet_apply.terms_out", len(out.terms))


def _count_opspec_out(rec, args, out):
    rec.add("opgen.opspec_io.bytes", len(out))


def _count_opspec_in(rec, args, out):
    rec.add("opgen.opspec_io.bytes", len(args[0]))


def _count_smf1_out(rec, args, out):
    rec.add("qexp.smf1.bytes", len(out))


def _count_smf1_in(rec, args, out):
    rec.add("qexp.smf1.bytes", len(args[0]))


COUNTERS = {
    "qexp.QExp2.__mul__": _count_qexp2_mul,
    "poly.MultiPoly.t_coefficient": _count_t_coefficient,
    "poly.det_expand": _count_det_expand,
    "poly.MultiPoly.__add__": _count_add,
    "opgen.build_Q": _count_build_Q,
    "jets.jet_apply": _count_jet_apply,
    "opgen.opspec_to_text": _count_opspec_out,
    "opgen.opspec_from_text": _count_opspec_in,
    "qexp.QExp2.to_text": _count_smf1_out,
    "qexp.QExp1.to_text": _count_smf1_out,
    "qexp.qexp2_from_text": _count_smf1_in,
    "qexp.qexp1_from_text": _count_smf1_in,
}


class Recorder:
    """In-memory spans of one pass.

    ``spans[i]`` is ``(name, start, end, parent index or -1, job id)``.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict = defaultdict(int)
        self._distinct: dict = {}

    def add(self, key: str, n: int):
        self.counts[key] += n

    def distinct(self, key: str, args, n: int):
        """Count n once per distinct argument tuple (for cached functions)."""
        if (key, args) not in self._distinct:
            self._distinct[key, args] = n
            self.counts[key] += n

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
            if counter is not None:
                cidx = len(spans)
                spans.append(None)
                counter(self, args, out)
                spans[cidx] = ("trace.count", t1, perf_counter(), parent, self.job)
            return out

        if hasattr(fn, "cache_clear"):  # keep the lru_cache handles reachable
            traced.cache_clear, traced.cache_info = fn.cache_clear, fn.cache_info
        return traced


def install(rec: Recorder):
    """Wrap every layer entry point, in place, for the rest of the process."""
    for module in LAYER_MODULES:
        short = _short(module)
        for name, fn in public_functions(module):
            wrapper = rec.wrap(f"{short}.{name}", fn)
            for holder in BINDING_MODULES:
                for attr, value in list(vars(holder).items()):
                    if value is fn:  # also catches aliases such as cli.class_slope
                        setattr(holder, attr, wrapper)
    for cls, names in METHODS.items():
        short = _short(inspect.getmodule(cls))
        for name in names:
            fn = cls.__dict__[name]
            setattr(cls, name, rec.wrap(f"{short}.{cls.__name__}.{name}", fn))


def self_times(spans) -> dict:
    """Per span name: (calls, total self seconds)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict = defaultdict(int)
    selfs: dict = defaultdict(float)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        calls[name] += 1
        selfs[name] += (t1 - t0) - child[i]
    return {name: (calls[name], selfs[name]) for name in calls}


def pow_mul_calls(spans) -> int:
    """Multiplications made directly by expansion powers."""
    pows = {i for i, s in enumerate(spans) if s[0] in POW_SPANS}
    return sum(1 for s in spans if s[0] in MUL_SPANS and s[3] in pows)


RATFUNC_SPANS = {f"scalars.RatFunc.{m}" for m in METHODS[scalars.RatFunc]}
POW_SPANS = {"qexp.QExp2.__pow__", "qexp.QExp1.__pow__"}
MUL_SPANS = {"qexp.QExp2.__mul__", "qexp.QExp1.__mul__"}

# self-time metrics: metric name -> the span names whose self time it sums
SELF_GROUPS = {
    "poly.det_expand.self_s": {"poly.det_expand"},
    "poly.t_coefficient.self_s": {"poly.MultiPoly.t_coefficient"},
    "poly.diff_sym.self_s": {"poly.MultiPoly.diff_sym"},
    "opgen.build_Q.self_s": {"opgen.build_Q"},
    "opgen.apply_D11.self_s": {"opgen.apply_D11"},
    "opgen.verify_harmonic_condition.self_s": {"opgen.verify_harmonic_condition"},
    "opgen.xspace_oracle.self_s": {"opgen.xspace_oracle"},
    "opgen.opspec_io.self_s": {"opgen.opspec_to_text", "opgen.opspec_from_text",
                               "poly.poly_to_text", "poly.poly_from_text"},
    "scalars.ratfunc.self_s": RATFUNC_SPANS,
    "jets.jet_apply.self_s": {"jets.jet_apply"},
    "jets.diffresult_expand.self_s": {"jets.diffresult_expand"},
    "jets.jetpoly_mul.self_s": {"jets.JetPoly.__mul__"},
    "qexp.mul.self_s": {"qexp.QExp2.__mul__"},
    "qexp.q_diff.self_s": {"qexp.QExp2.q_diff", "qexp.QExp1.q_diff"},
    "qexp.eval_jetpoly.self_s": {"qexp.eval_jetpoly"},
    "qexp.smf1.self_s": {"qexp.QExp2.to_text", "qexp.QExp1.to_text",
                         "qexp.qexp_from_text", "qexp.qexp2_from_text",
                         "qexp.qexp1_from_text"},
    "qexp.qexp1_mul.self_s": {"qexp.QExp1.__mul__"},
    "theta.theta_qexp.self_s": {"theta.theta_qexp"},
    "theta.tnull_qexp.self_s": {"theta.tnull_qexp"},
    "theta.schottky_qexp.self_s": {"theta.schottky_qexp"},
    "theta.theta_numeric.self_s": {"theta.theta_numeric"},
    "theta.check_modularity.self_s": {"theta.check_modularity"},
    "theta.check_heat.self_s": {"theta.check_heat"},
    "brackets.scalar_bracket_q.self_s": {"brackets.scalar_bracket_q"},
    "brackets.delta1_qexp.self_s": {"brackets.delta1_qexp"},
    "trace.count.self_s": {"trace.count"},
}

CALL_GROUPS = {
    "poly.t_coefficient.calls": {"poly.MultiPoly.t_coefficient"},
    "scalars.ratfunc.calls": RATFUNC_SPANS,
    "qexp.mul.calls": {"qexp.QExp2.__mul__"},
    "qexp.pow.calls": POW_SPANS,
    "theta.theta_numeric.calls": {"theta.theta_numeric"},
}

COUNT_KEYS = ("poly.det_expand.terms", "poly.t_coefficient.terms_scanned",
              "poly.multipoly_add.terms_copied", "opgen.build_Q.q_terms",
              "opgen.opspec_io.bytes", "jets.jet_apply.terms_out",
              "qexp.mul.terms_out", "qexp.mul.pair_ops", "qexp.smf1.bytes")


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer metrics of one traced pass (zero where a layer is idle)."""
    st = self_times(rec.spans)
    out = {}
    for metric, names in SELF_GROUPS.items():
        out[metric] = sum(st[n][1] for n in names if n in st)
    for metric, names in CALL_GROUPS.items():
        out[metric] = sum(st[n][0] for n in names if n in st)
    for key in COUNT_KEYS:
        out[key] = rec.counts.get(key, 0)
    scanned = rec.counts.get("poly.t_coefficient.terms_scanned", 0)
    returned = rec.counts.get("poly.t_coefficient.terms_returned", 0)
    out["poly.t_coefficient.hit_ratio"] = returned / scanned if scanned else 0.0
    out["qexp.pow.mul_calls"] = pow_mul_calls(rec.spans)
    out["trace.spans"] = len(rec.spans)
    return out
