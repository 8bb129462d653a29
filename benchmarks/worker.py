"""Workload process of the benchmark: set up, run the ops, check them.

run.py starts this script once per run, in a fresh process, with
PYTHONPATH pointing at the checkout's src/.  It prints one JSON object
as its last line of stdout.

    python3 benchmarks/worker.py --workload pure_kme --seed 1 --seconds 15 \\
        --trace 0 --t0 <time.monotonic() at spawn> --workdir DIR [--setup-only]

Set-up is everything before the first timed op: importing qent,
generating the first pass of inputs and one untimed warm-up op.  A pass
is one full list of the workload's ops on fresh inputs; passes repeat
until the timed phase has lasted --seconds and at least MIN_PASSES
passes ran.  Each pass is checked right after it, outside the timed
phase.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MIN_PASSES = 4
# op_tail_ms reports the highest of these percentiles that has at least
# ten samples above it in MIN_PASSES passes, the fewest a run makes; the
# percentile therefore depends on the workload only, not on how many
# passes a run fits in
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10


class Ledger:
    """Attempted ops and failed ops by kind."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()

    def settle(self, ops, outs, errors, check) -> None:
        """Count each op; record a failure for an exception or a failed check."""
        for i, (op, out, error) in enumerate(zip(ops, outs, errors)):
            self.attempted += 1
            kind = error
            if kind is None:
                try:
                    kind = check(i, op, out)
                except Exception as exc:  # a malformed output must not end the run
                    kind = f"check_error:{type(exc).__name__}"
            if kind:
                self.failures[kind] += 1


def run_ops(wl, ops, tracer=None):
    """Run each op once; returns outputs (None on exception), exception
    kinds, per-op latencies in seconds and the wall time of the pass."""
    outs, errors, latencies = [], [], []
    clock = time.perf_counter
    started = clock()
    for op in ops:
        t = clock()
        try:
            if tracer is None:
                out = wl.run(op)
            else:
                with tracer.span(f"op.{wl.label(op)}"):
                    out = wl.run(op)
            error = None
        except Exception as exc:  # QentError, numpy errors: a failed op
            out, error = None, f"exception:{type(exc).__name__}"
        latencies.append(clock() - t)
        outs.append(out)
        errors.append(error)
    return outs, errors, latencies, clock() - started


def tail_percentile(ops_per_pass: int) -> float:
    pooled = MIN_PASSES * ops_per_pass
    return max(q for q in TAIL_LADDER if pooled * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND)


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def numpy_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def cli_case(wl, seed, ops, outs, latencies, workdir) -> dict:
    case = wl.cli_case(seed, ops, workdir)
    picked = case.pop("picked")
    case["inproc_s"] = sum(latencies[i] for i in picked)
    if all(outs[i] is not None for i in picked):
        case.update(wl.cli_expect(ops, outs, picked, workdir))
    return case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # -- set-up -----------------------------------------------------------------
    import qent
    import workloads

    if not os.path.abspath(qent.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: qent imported from {qent.__file__}, not from src/", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    seed = args.seed
    ops = wl.inputs(seed, 0)
    warm = wl.warmup(seed)
    outs, errors, _, _ = run_ops(wl, [warm])
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def check(i, op, out):
        return wl.check(op, out)

    ledger = Ledger()
    ledger.settle([warm], outs, errors, check)

    # -- timed phase ------------------------------------------------------------
    result: dict = {"setup_s": setup_s, "ops_per_pass": wl.ops_per_pass}
    outs, errors, latencies, wall = run_ops(wl, ops)
    ledger.settle(ops, outs, errors, check)
    result["cli"] = cli_case(wl, seed, ops, outs, latencies, args.workdir)
    if args.trace:
        import spans

        ops = wl.inputs(seed, 1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            outs, errors, _, traced_wall = run_ops(wl, ops, tracer)
        finally:
            tracer.uninstall()
        ledger.settle(ops, outs, errors, check)
        # the untraced comparison pass runs after the first pass, as the
        # traced one does, so neither pays the first pass's warm-up
        ops = wl.inputs(seed, 2)
        outs, errors, _, untraced_wall = run_ops(wl, ops)
        ledger.settle(ops, outs, errors, check)
        per_layer = tracer.per_layer()
        per_layer["trace.overhead_ratio"] = traced_wall / untraced_wall
        result["per_layer"] = per_layer
        result["spans"] = tracer.span_table()
        result["passes"] = 3
    else:
        labels = [wl.label(op) for op in ops]
        passes = [(latencies, wall, errors.count(None))]
        while len(passes) < MIN_PASSES or sum(p[1] for p in passes) < args.seconds:
            ops = wl.inputs(seed, len(passes))
            outs, errors, latencies, wall = run_ops(wl, ops)
            ledger.settle(ops, outs, errors, check)
            passes.append((latencies, wall, errors.count(None)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed = [seconds for lat, _, _ in passes for seconds in lat]
        pct = tail_percentile(wl.ops_per_pass)
        result["ops_per_s"] = sum(done for _, _, done in passes) / sum(w for _, w, _ in passes)
        result["op_p50_ms"] = statistics.median(timed) * 1e3
        result["op_tail"] = {"percentile": pct, "samples": len(timed),
                             "ms": nearest_rank(timed, pct) * 1e3}
        result["pass_walls_s"] = [wall for _, wall, _ in passes]
        result["passes"] = len(passes)
        result["op_ms_by_label"] = {
            label: statistics.median(lat[i] for lat, _, _ in passes
                                     for i in range(len(labels)) if labels[i] == label) * 1e3
            for label in dict.fromkeys(labels)
        }
    del ops, outs

    # -- committed reference at the default seed --------------------------------
    ref_ops = wl.reference_ops()
    ref_outs, ref_errors, _, _ = run_ops(wl, ref_ops)
    ledger.settle(ref_ops, ref_outs, ref_errors, wl.check_reference)
    if hasattr(wl, "reference_info") and all(e is None for e in ref_errors):
        result["reference"] = wl.reference_info(ref_outs)

    result["attempted"] = ledger.attempted
    result["failures"] = dict(ledger.failures)
    result["machine"] = numpy_info()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
