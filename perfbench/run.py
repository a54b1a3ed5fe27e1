"""Benchmark of qfbounds: seeded workloads through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qfbounds is imported from its
`src/`.  Passes run back to back for S seconds, each in a fresh
interpreter so that every pass starts with empty caches, and at least
MIN_PASSES of them.  Set-up (a fresh interpreter that imports qfbounds and
builds the inputs) is timed in SETUP_PER_PASS interpreters started before
each pass, so that its samples spread over the whole run; one unmeasured
start before them writes the bytecode cache.  Every output is checked
(see checks.py).

The speed a shared host gives a process changes by up to 1.7x within
seconds, so the worker times a fixed reference loop four times a second, and every time
is reported scaled to the speed at which that loop takes REF_NOMINAL_S
(see SENSITIVITY); the times as measured are printed beside them
(`as_measured`).

With --trace 0 the passes are untraced and the end-to-end metrics are
printed; with --trace 1 the public functions are wrapped (see tracer.py)
and the per-layer metrics are printed.  The metric names, units and
directions come from BENCHMARK.json.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the full
results, with the seed and the input and output digests, go to
perfbench/out/.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PER_PASS = 3
MIN_PASSES = 2
DEADLINE_S = 170.0  # the whole run, set-up included
TAIL_BEYOND = 10  # calls a tail percentile must have above it
# Times are reported at the speed at which worker.reference_s takes
# REF_NOMINAL_S, about its median on a 2-vCPU x86-64 host at 2.1 GHz.
# A time t measured while the loop took r is reported as
# t * (REF_NOMINAL_S / r) ** SENSITIVITY: the workloads slow down less
# than the loop when the host does (a pass's time moved as the 0.78th
# power of the loop's on corpus_eps and the 0.55th on presets_sweep).
# A call's r is the median of the samples taken from WINDOW_S before it
# to WINDOW_S after it, one sampling period of worker.Speedometer.
REF_NOMINAL_S = 0.008
SENSITIVITY = 0.7
WINDOW_S = 0.25


class BenchError(Exception):
    pass


class Runner:
    """Starts worker interpreters and enforces the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t0 = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t0)

    def launch(self, mode: str, spans: Path | None = None) -> dict:
        """Run one worker to its end and return its result line."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload]
        cmd += ["--seed", str(self.seed), "--mode", mode, "--started", repr(time.time())]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            out, err = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("%s %s run passed the %.0f s deadline" % (self.workload, mode, DEADLINE_S))
        if proc.returncode != 0:
            raise BenchError("worker failed (exit %d): %s" % (proc.returncode, err.strip()[-2000:]))
        result = json.loads(out.strip().splitlines()[-1])
        if Path(result["qfbounds"]).resolve() != (SRC / "qfbounds").resolve():
            raise BenchError("qfbounds was imported from %s, not from %s" % (result["qfbounds"], SRC))
        return result


def tail(values, per_pass):
    """(value, percentile) of the tail latency.

    The percentile is the highest one with TAIL_BEYOND calls beyond it in
    MIN_PASSES passes, so it is the same in every run whatever its number
    of passes; it is read from all calls, interpolating between ranks.
    """
    n_min = MIN_PASSES * per_pass
    if n_min <= TAIL_BEYOND + 1:
        raise BenchError("%d calls are too few for a tail percentile" % n_min)
    q = (n_min - 1 - TAIL_BEYOND) / (n_min - 1)
    xs = sorted(values)
    h = q * (len(xs) - 1)
    i = min(int(h), len(xs) - 2)
    return xs[i] + (h - i) * (xs[i + 1] - xs[i]), 100.0 * q


def at_nominal_speed(seconds: float, reference_s: float) -> float:
    return seconds * (REF_NOMINAL_S / reference_s) ** SENSITIVITY


def pass_latencies(p) -> list:
    """A pass's call latencies at the nominal speed, each by the reference samples near it."""
    if not p["ref_s"]:
        raise BenchError("a pass took no reference samples")
    out = []
    for latency, (start, end) in zip(p["latency_s"], p["call_spans"]):
        near = [d for t, d in zip(p["ref_t"], p["ref_s"]) if start - WINDOW_S <= t <= end + WINDOW_S]
        out.append(at_nominal_speed(latency, statistics.median(near or p["ref_s"])))
    return out


def end_to_end(setups, passes):
    scaled = [pass_latencies(p) for p in passes]
    latency = [s for pass_latency in scaled for s in pass_latency]
    t_value, t_pct = tail(latency, len(passes[0]["latency_s"]))
    log10_S = passes[0]["log10_S"]
    setup = [at_nominal_speed(r["ready_s"], statistics.median(r["ref_s"])) for r in setups]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(math.fsum(pass_latency) for pass_latency in scaled),
        "call_p50_s": statistics.median(latency),
        "call_tail_s": t_value,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "log10_S_median": statistics.median(log10_S or [0.0]),
        "log10_S_max": max(log10_S, default=0.0),
    }
    as_measured = {
        "setup_s": statistics.median(r["ready_s"] for r in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "call_p50_s": statistics.median(s for p in passes for s in p["latency_s"]),
        "reference_s": statistics.median(t for p in passes for t in p["ref_s"]),
    }
    notes = {"call_tail_s": "p%.1f of %d calls" % (t_pct, len(latency))}
    return metrics, notes, as_measured


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "qfbounds" / "__init__.py").is_file() or not spec_file.is_file():
        print("error: run from a qfbounds checkout (no src/qfbounds or BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args.workload, args.seed)
    mode = "trace" if args.trace else "pass"
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = OUT / ("spans-%s.jsonl" % stem) if args.trace else None

    runner.launch("setup")
    setups, passes, costs = [], [], []
    while True:
        t = time.perf_counter()
        if not args.trace:
            setups += [runner.launch("setup") for _ in range(SETUP_PER_PASS)]
        passes.append(runner.launch(mode, spans))
        costs.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - runner.t0
        if len(passes) >= MIN_PASSES and elapsed + max(costs) > args.seconds:
            break
        if runner.left() < 2 * max(costs):
            if len(passes) < MIN_PASSES:
                msg = "%d pass took %.0f s, too slow for %d passes"
                raise BenchError(msg % (len(passes), elapsed, MIN_PASSES))
            break

    attempted = sum(len(p["latency_s"]) for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    missed = sorted({m for p in passes for m in p["self_test_missed"]})
    digests = sorted({p["output_digest"] for p in passes})
    correct = failed == 0 and not missed and len(digests) == 1

    if args.trace:
        import tracer

        table = tracer.median_table([p["layers"] for p in passes])
        values, notes, as_measured = {m["name"]: table.get(m["name"], 0) for m in wanted}, {}, None
    else:
        values, notes, as_measured = end_to_end(setups, passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    specs = workloads.build(args.workload)
    run_order = workloads.order(args.workload, args.seed, len(specs))
    log10_K = passes[0]["log10_K"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": workloads.CORPUS_SEED,
        "passes": len(passes),
        "input_digest": workloads.digest([specs[i] for i in run_order]),
        "output_digests": digests,
        "log10_K_median": statistics.median(log10_K) if log10_K else None,
        "failed_frac": failed / attempted,
        "as_measured": as_measured,
        "self_test_missed": missed,
        "problems": [p["problems"] for p in passes if p["problems"]],
    }
    if args.trace:
        layers = passes[0]["layers"]
        traced = layers["trace.traced_s"]
        info["traced_share"] = {
            "arithmetic.zeta_k_2": layers.get("arithmetic.zeta_k_2.self_s", 0.0) / traced,
            "exact+isometry": (layers["exact.self_s"] + layers["isometry.self_s"]) / traced,
        }
        info["spans_file"] = str(spans.relative_to(ROOT))

    for key, val in info.items():
        if key != "problems":
            print("%-16s %s" % (key, val))
    for problem in info["problems"]:
        print("problem          %s" % json.dumps(problem))
    print("%-40s %16s  %-6s %s" % ("metric", "value", "unit", "better"))
    for m in wanted:
        print(
            "%-40s %16.6g  %-6s %-6s %s"
            % (m["name"], values[m["name"]], m["unit"], m["better"], notes.get(m["name"], ""))
        )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / (stem + ".json")).write_text(
        json.dumps({"result": result, "info": info, "passes": passes, "setups": setups}, indent=1)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(3)
