"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|trace --started T

Imports qfbounds and builds the inputs; the time from --started (the
caller's time.time() when it started this interpreter) to then is the
set-up time.  Except in setup mode it then makes every call of the
workload back to back in the seeded order and checks each output.  It
prints one JSON line with the set-up time, the times of a fixed
reference loop (after set-up in setup mode, every Speedometer.PERIOD_S
during a pass) and, for a pass, the per-call latencies and spans, the
pass wall time, ru_maxrss, the output digest and the check results.  In
trace mode the public functions are wrapped first, the reference loop
is not run, and the line also holds the per-layer table.  qfbounds comes
from the PYTHONPATH the caller sets.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import sys
import time
from fractions import Fraction

import workloads

import qfbounds
from qfbounds import cli, pipeline
from qfbounds.forms import DiagForm

SETUP_REF_RUNS = 5


def _call(spec, q):
    """Make one workload call; returns (exit code, output text).

    Functions are looked up on their module at call time, so that trace
    wrappers installed after set-up are the ones called.
    """
    kind = spec["kind"]
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(spec["argv"]))
        return code, buf.getvalue()
    if kind == "pipeline":
        report = pipeline.run_pipeline(q, spec["eps"], spec["V"])
    elif kind == "preset":
        report = pipeline.run_preset(spec["preset"])
    else:
        preset = pipeline.PRESETS[spec["preset"]]
        report = pipeline.run_pipeline(preset.q, spec["eps"], spec["V"], preset.config)
    return 0, report.json_str()


def _expected_form(spec):
    if spec["kind"] == "pipeline":
        return spec["form"]
    if spec["kind"] in ("preset", "preset_form"):
        return ",".join(pipeline.PRESETS[spec["preset"]].q.to_json_list())
    return None


def reference_s() -> float:
    """Time of one run of a fixed loop of Fraction, int and dict work.

    The loop shares no code with qfbounds, so its time moves only with
    the speed the machine gives this process; run.py scales the call
    times by it.  Every object it makes stays below the small-object
    allocator's 512-byte limit: run inside a call, it must not take
    memory from the heap where the program's large lists grow, or it
    changes their peak RSS.
    """
    t = time.perf_counter()
    for _ in range(60):
        acc = Fraction(0)
        for i in range(1, 11):
            acc += Fraction(i * 7919 % 1000003, i * i + 1)
    table = {}
    for i in range(15000):
        table[i % 7] = (table.get(i % 7, 0) + (i << 40) // 7) & 0xFFFFFFFFFFFF
    return time.perf_counter() - t


class Speedometer:
    """Runs reference_s every PERIOD_S seconds from a SIGALRM handler.

    A shared host changes the speed it gives a process within seconds, so
    the loop is timed evenly in time, inside long calls as well.  Each
    sample is (start, duration) on the perf_counter clock, so the loop's
    own time can be taken out of the call it interrupted.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, reference_s()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time_in(self, start: float, end: float) -> float:
        return math.fsum(d for t, d in self.samples if start <= t < end)


def run_pass(workload, seed, specs, forms, tracer=None):
    """Make every call once in the seeded order.

    Returns the outputs, the latency and (start, end) of each call with
    the reference loop's time taken out, the errors, the reference
    samples as (time, duration) and ru_maxrss.  The reference loop is not
    run in a traced pass, where it would count as span time.
    """
    perm = workloads.order(workload, seed, len(specs))
    outputs = [None] * len(specs)
    latency = [0.0] * len(specs)
    spans = [None] * len(specs)
    errors = {}
    meter = Speedometer()
    with meter if tracer is None else contextlib.nullcontext():
        t0 = time.perf_counter()
        for i in perm:
            if tracer is not None:
                tracer.call_id = i
            t = time.perf_counter()
            try:
                outputs[i] = _call(specs[i], forms[i])
            except Exception as exc:  # a failed call is counted, the pass goes on
                errors[i] = "%s: %s" % (type(exc).__name__, exc)
            end = time.perf_counter()
            spans[i] = (t - t0, end - t0)
            latency[i] = end - t - meter.time_in(t, end)
    ref = [(t - t0, d) for t, d in meter.samples]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outputs, latency, spans, errors, ref, rss_mb


def check_pass(specs, outputs, errors):
    """Problems per call index, log10 S and log10 K of every report, self-test misses."""
    import checks  # only now: jsonschema is no part of set-up

    problems, log10_S, log10_K, missed = {}, [], [], None
    for spec, out in zip(specs, outputs):
        i = spec["index"]
        if i in errors:
            problems[i] = [errors[i]]
            continue
        code, text = out
        form = _expected_form(spec)
        if spec["kind"] == "cli":
            found = checks.cli_problems(spec["argv"], code, text)
        else:
            found = checks.report_problems(text, pipeline.REPORT_SCHEMA, form)
            if not found:
                report = json.loads(text)
                log10_S.append(math.log10(report["isometry"]["S"]))
                if report["K"] is not None:
                    log10_K.append(report["K"]["log10_K"])
                if missed is None:
                    missed = checks.self_test(text, pipeline.REPORT_SCHEMA, form)
        if found:
            problems[i] = found
    if missed is None:
        missed = ["no report passed, so the checks were not self-tested"]
    return problems, log10_S, log10_K, missed


def output_digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(b"\0" if out is None else out[1].encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), default="pass")
    ap.add_argument("--started", type=float, required=True, help="time.time() at interpreter start")
    ap.add_argument("--spans", default=None, help="trace mode: file to write the spans to")
    args = ap.parse_args(argv)

    specs = workloads.build(args.workload)
    forms = [DiagForm.parse(s["form"]) if s["kind"] == "pipeline" else None for s in specs]
    result = {"qfbounds": os.path.dirname(qfbounds.__file__), "ready_s": time.time() - args.started}
    if args.mode == "setup":
        result["ref_s"] = [reference_s() for _ in range(SETUP_REF_RUNS)]
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    outputs, latency, spans, errors, ref, rss_mb = run_pass(args.workload, args.seed, specs, forms, tracer)
    wall = math.fsum(latency)
    result.update(
        wall_s=wall,
        latency_s=latency,
        call_spans=spans,
        ref_s=[d for t, d in ref],
        ref_t=[t for t, d in ref],
        rss_mb=rss_mb,
        output_digest=output_digest(outputs),
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, wall, tracing.span_cost())
        if args.spans:
            tracer.dump(args.spans)
    problems, log10_S, log10_K, missed = check_pass(specs, outputs, errors)
    result.update(
        problems={str(i): p for i, p in problems.items()},
        log10_S=log10_S,
        log10_K=log10_K,
        self_test_missed=missed,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
