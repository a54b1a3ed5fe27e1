"""Per-layer spans recorded from outside the program.

`install` wraps every public function of the qfbounds modules (and
`PipelineReport.json_str`) and rebinds the wrapper in every qfbounds
namespace that holds the original, because `pipeline` and `cli` import
names directly.  Generator functions are left alone: a span around one
would close before any work is done.

A span is (name, start, end, parent span, workload call id), kept in
memory and written out by `dump`.  `layer_metrics` turns them into the
per-layer table: calls, self time (span time minus the time of its child
spans) and the few counters the probes below collect at the boundary.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("exact", "forms", "complement", "isometry", "arithmetic", "geometry", "pipeline", "cli")


def _bits(x) -> int:
    """Bit length of an int or of the larger side of a Fraction."""
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = -1
        self.seen = set()
        self.repeats = 0
        self.max_bits = defaultdict(int)
        self.terms = 0
        self.dks = set()
        self.rss_growth_kb = 0

    def wrap(self, name, fn, probe=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(span)
            state = probe[0](self, args) if probe else None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe:
                probe[1](self, args, out, state)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# probes: (before(tracer, args) -> state, after(tracer, args, out, state))


def _none(tr, args):
    return None


def _after_factorize(tr, args, out, state):
    if args in tr.seen:
        tr.repeats += 1
    tr.seen.add(args)
    tr.max_bits["exact.factorize"] = max(tr.max_bits["exact.factorize"], _bits(args[0]))


def _after_reduce_once(tr, args, out, state):
    bits = max(_bits(c) for c in args[0].coeffs + out[1].coeffs)
    tr.max_bits["isometry.reduce_once"] = max(tr.max_bits["isometry.reduce_once"], bits)


def _before_zeta(tr, args):
    K = args[0]
    tol = args[1] if len(args) > 1 else 1e-12
    tr.terms += math.isqrt(int(K.d_k / tol)) + 1
    tr.dks.add(K.d_k)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _after_zeta(tr, args, out, state):
    tr.rss_growth_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - state


PROBES = {
    "exact.factorize": (_none, _after_factorize),
    "isometry.reduce_once": (_none, _after_reduce_once),
    "arithmetic.zeta_k_2": (_before_zeta, _after_zeta),
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of MODULES and PipelineReport.json_str."""
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module("qfbounds." + short)
        for attr, obj in vars(mod).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            name = "%s.%s" % (short, attr)
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, PROBES.get(name)))
    namespaces = [m for n, m in list(sys.modules.items()) if n == "qfbounds" or n.startswith("qfbounds.")]
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    report_cls = importlib.import_module("qfbounds.pipeline").PipelineReport
    report_cls.json_str = tracer.wrap("pipeline.json_str", report_cls.json_str)


def span_cost(samples: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""
    tr = Tracer()
    noop = lambda: None  # noqa: E731
    traced = tr.wrap("noop", noop)
    best = []
    for fn in (noop, traced, noop, traced):
        t = time.perf_counter()
        for _ in range(samples):
            fn()
        best.append(time.perf_counter() - t)
    return max(0.0, min(best[1], best[3]) - min(best[0], best[2])) / samples


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, wall_s: float, per_span_s: float) -> dict:
    """The per-layer table of one traced pass, keyed by metric name."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    module_self = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
        module_self[span[0].split(".", 1)[0]] += own
    out = {}
    for layer in sorted(calls):
        out[layer + ".calls"] = calls[layer]
        out[layer + ".self_s"] = self_s[layer]
    for short in MODULES:
        out[short + ".self_s"] = module_self[short]
    fz = calls["exact.factorize"]
    out["exact.factorize.repeat_frac"] = tracer.repeats / fz if fz else 0.0
    for layer, bits in tracer.max_bits.items():
        out[layer + ".max_bits"] = bits
    out["arithmetic.zeta_k_2.terms"] = tracer.terms
    out["arithmetic.zeta_k_2.distinct_dk"] = len(tracer.dks)
    out["arithmetic.zeta_k_2.rss_growth_mb"] = tracer.rss_growth_kb / 1024.0
    out["trace.spans"] = len(tracer.spans)
    out["trace.traced_s"] = sum(module_self.values())
    out["trace.overhead_frac"] = len(tracer.spans) * per_span_s / wall_s if wall_s > 0 else 0.0
    return out


def median_table(tables) -> dict:
    """Metric-wise median over the tables of several passes (0 where absent).

    Counts take the lower median, so that they stay whole numbers.
    """
    out = {}
    for name in sorted(set().union(*tables)):
        vals = [t.get(name, 0) for t in tables]
        exact = all(isinstance(v, int) for v in vals)
        out[name] = statistics.median_low(vals) if exact else statistics.median(vals)
    return out
