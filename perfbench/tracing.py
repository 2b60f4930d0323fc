"""Span tracer and per-layer counters, attached to infconv from outside.

``instrument()`` replaces public functions and methods of the infconv
modules with wrappers that record a span (name, start, end, parent span id,
request id) or bump a counter.  Nothing under ``src/`` changes: every module
attribute that holds one of the wrapped functions is rebound, which also
catches names that one module imported from another.  Spans stay in memory
and are written out once, at the end of a pass.

A layer's self time is the time inside its spans minus the time inside
their child spans, so nested calls of one layer are not counted twice and a
layer is not charged for the layers it calls.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from infconv import cumulants, laws
from infconv.dual import DualScalar
from infconv.series import DualSeries

# (defining module, attribute) -> span name
FUNCTION_SPANS = {
    ("partitions", "enumerate_nc"): "partitions.enumerate",
    ("partitions", "enumerate_ncl"): "partitions.enumerate",
    ("cumulants", "t_coeffs_from_moments"): "cumulants.linked_sum",
    ("cumulants", "moments_from_t"): "cumulants.linked_sum",
    ("cumulants", "cumulants_from_moments"): "cumulants.interval",
    ("cumulants", "moments_from_cumulants"): "cumulants.interval",
    ("cumulants", "inf_cumulants_direct"): "cumulants.nc_direct",
    ("cumulants", "mixed_vanishing_check"): "cumulants.mixed_t",
    ("convolve", "oracle_free_product"): "convolve.oracle.free",
    ("convolve", "oracle_boolean_product"): "convolve.oracle.boolean",
    ("convolve", "oracle_monotone_product"): "convolve.oracle.monotone",
    ("convolve", "convolve_by_transform"): "convolve.transform_route",
    ("laws", "transform"): "laws.transform",
    ("laws", "psi"): "laws.transform",
    ("laws", "eta_tilde"): "laws.transform",
    ("laws", "eta_plain"): "laws.transform",
    ("laws", "kappa_transform"): "laws.transform",
    ("laws", "rho_transform"): "laws.transform",
    ("laws", "s_transform"): "laws.transform",
    ("laws", "t_transform"): "laws.transform",
    ("laws", "d_transform"): "laws.transform",
    ("laws", "law_from_transform"): "laws.law_from_transform",
    ("triangular", "block_transform"): "triangular.block",
    ("triangular", "block_transform_formula"): "triangular.formula",
    ("wishart", "estimate_moments"): "wishart.run",
    ("wishart", "product_experiment"): "wishart.run",
    ("wishart", "sample_wishart"): "wishart.sample",
    ("wishart", "trace_powers"): "wishart.trace",
    ("wishart", "_product_trace_powers"): "wishart.trace",
}

SERIES_SPANS = {
    "__mul__": "series.mul",
    "__rmul__": "series.mul",
    "inv": "series.inv",
    "compose": "series.compose",
    "reversion": "series.reversion",
}

# DualScalar entry points counted as dual.ops; __rsub__, __truediv__ and
# __pow__ reach these through the operators, so they are not wrapped.
DUAL_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "inv")


def wishart_flop(cfg, product: bool) -> int:
    """Nominal GEMM flops of one Monte Carlo run, from its matrix sizes.

    A complex multiply-add is 8 real flops.  Per trial and size N with
    M = cfg.M(N): each sample forms G*G (8 M N^2); the trace kernel for
    k_max <= 4 forms X^2 for a single matrix, and X1 X2 and (X1 X2)^2 for a
    product (8 N^3 each).  Elementwise trace products are not counted.
    """
    k = cfg.k_max
    if product:
        samples, gemms = 2, (k >= 2) + (k >= 3) + (k >= 5)
    else:
        samples, gemms = 1, (k >= 3) + (k >= 5)
    per_trial = sum(samples * 8 * cfg.M(n) * n * n + gemms * 8 * n ** 3
                    for n in cfg.N_list)
    return cfg.trials * per_trial


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.stack: list[list] = []   # open spans: [id, child ns]
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.total_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = -1
        self._next_id = 0

    def wrap(self, fn, name):
        """Span wrapper; `name` is a string or a function of the call args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [sid, 0]
            tracer.stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer.stack.pop()
                dur = t1 - t0
                tracer.self_ns[span_name] += dur - frame[1]
                tracer.total_ns[span_name] += dur
                tracer.calls[span_name] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                tracer.spans.append((sid, parent, tracer.request, span_name, t0, t1))

        return traced

    def count(self, fn, key: str, amount=None):
        """Counter wrapper; adds 1, or amount(args, result), per call."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += 1 if amount is None else amount(args, out)
            return out

        return counted

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for sid, parent, req, name, t0, t1 in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{req}\t"
                         f"{name}\t{t0}\t{t1}\n")


def _kappa_span(tvec, route="linked"):
    return "cumulants.linked_sum" if route == "linked" else "cumulants.interval"


def _rebind(replacements: dict) -> None:
    """Point every infconv module attribute holding an original at its wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "infconv" or mod_name.startswith("infconv.")):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in replacements:
                setattr(mod, attr, replacements[id(val)])
    for kind, fn in list(laws._FORWARD.items()):
        if id(fn) in replacements:
            laws._FORWARD[kind] = replacements[id(fn)]


def instrument(tracer: Tracer):
    """Wrap the library in place; returns the unwrapped NC/NCL caches."""
    replacements = {}
    for (mod_name, attr), span in FUNCTION_SPANS.items():
        fn = getattr(sys.modules[f"infconv.{mod_name}"], attr)
        wrapped = tracer.wrap(fn, span)
        if span == "partitions.enumerate":
            wrapped = tracer.count(wrapped, "partitions.enumerate.yielded",
                                   lambda a, out: len(out))
        elif span == "wishart.run":
            product = attr == "product_experiment"
            wrapped = tracer.count(wrapped, "wishart.flop_computed",
                                   lambda a, out, p=product: wishart_flop(a[0], p))
            wrapped = tracer.count(wrapped, "wishart.trials",
                                   lambda a, out: a[0].trials * len(a[0].N_list))
        replacements[id(fn)] = wrapped
    replacements[id(cumulants.kappa_from_t)] = tracer.wrap(cumulants.kappa_from_t,
                                                           _kappa_span)
    _rebind(replacements)

    ncl, nc = cumulants._ncl, cumulants._nc
    cumulants._ncl = tracer.count(ncl, "cumulants.ncl_visited",
                                  lambda a, out: len(out))

    for attr, span in SERIES_SPANS.items():
        setattr(DualSeries, attr, tracer.wrap(getattr(DualSeries, attr), span))
    for attr in DUAL_OPS:
        setattr(DualScalar, attr, tracer.count(getattr(DualScalar, attr), "dual.ops"))
    return ncl, nc


def layer_metrics(tracer: Tracer, caches) -> dict:
    """Per-layer figures of one pass; counts are exact, times in seconds."""
    s = defaultdict(float, {k: v / 1e9 for k, v in tracer.self_ns.items()})
    calls, counts = tracer.calls, tracer.counts
    hits = lookups = 0
    for cache in caches:
        info = cache.cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    run_s = tracer.total_ns["wishart.run"] / 1e9
    flop = counts["wishart.flop_computed"]
    return {
        "partitions.enumerate.calls": calls["partitions.enumerate"],
        "partitions.enumerate.self_s": s["partitions.enumerate"],
        "partitions.enumerate.yielded": counts["partitions.enumerate.yielded"],
        "cumulants.linked_sum.self_s": s["cumulants.linked_sum"],
        "cumulants.ncl_visited": counts["cumulants.ncl_visited"],
        "dual.ops": counts["dual.ops"],
        "cumulants.ncl_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "cumulants.ncl_cache_lookups": lookups,
        "cumulants.interval.self_s": s["cumulants.interval"],
        "cumulants.mixed_t.self_s": s["cumulants.mixed_t"],
        "cumulants.nc_direct.self_s": s["cumulants.nc_direct"],
        "convolve.oracle.free.self_s": s["convolve.oracle.free"],
        "convolve.oracle.boolean.self_s": s["convolve.oracle.boolean"],
        "convolve.oracle.monotone.self_s": s["convolve.oracle.monotone"],
        "convolve.transform_route.self_s": s["convolve.transform_route"],
        "series.mul.calls": calls["series.mul"],
        "series.inv.calls": calls["series.inv"],
        "series.compose.calls": calls["series.compose"],
        "series.reversion.calls": calls["series.reversion"],
        "series.self_s": sum((v for k, v in s.items() if k.startswith("series.")), 0.0),
        "laws.transform.self_s": s["laws.transform"],
        "laws.law_from_transform.self_s": s["laws.law_from_transform"],
        "triangular.block.self_s": s["triangular.block"],
        "triangular.formula.self_s": s["triangular.formula"],
        "wishart.sample.self_s": s["wishart.sample"],
        "wishart.trace.self_s": s["wishart.trace"],
        "wishart.trials": counts["wishart.trials"],
        "wishart.flop_computed": flop,
        "wishart.gflop_per_s_computed": flop / run_s / 1e9 if run_s else 0.0,
        "request.self_s": s["request"],
    }
