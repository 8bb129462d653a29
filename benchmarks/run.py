#!/usr/bin/env python3
"""Benchmark of qent: run one workload, check every output, print metrics.

    python3 benchmarks/run.py --workload verify_suite --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the program is imported from the
checkout's src/.  Workloads, metrics and bounds are declared in
BENCHMARK.json and explained in benchmarks/README.md.

One run starts, one after another, never two at once: set-up probes
(--trace 0 only), one worker process that sets up, runs the timed ops
and checks them (worker.py), then the workload's cold CLI command a
few times, and with --trace 1 a few cold `import qent` probes.  The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details
(machine, sample counts, failures by kind).  The exit code is 0 when
every check passed, 1 when an op or a check failed, and 2 when the
benchmark could not run.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify_suite", "pure_kme", "density_neg")

SETUP_SAMPLES = 5   # four set-up probes plus the worker's own set-up
CLI_SAMPLES = 7
IMPORT_SAMPLES = 3
RUN_BUDGET_S = 170.0
CLI_TOL = 1e-12

# read and reported, never changed; ENTANGLE_THREADS is removed from the
# children's environment so the suite runs serially
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES", "ENTANGLE_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "fail_ratio": "ratio", "cli_s": "s",
}

IMPORT_PROBE = "import time; t = time.perf_counter(); import qent; print(time.perf_counter() - t)"


class BenchError(Exception):
    """The benchmark itself could not run (exit 2, no result)."""


def layer_unit(name: str) -> str:
    for suffixes, unit in ((("_ms", ".ms"), "ms"), (("_bytes",), "bytes"), (("_ratio",), "ratio")):
        if name.endswith(suffixes):
            return unit
    return "count"


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENTANGLE_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts child processes one at a time within the run's time budget."""

    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def python(self, argv: list[str]):
        """Run `python argv` from the checkout root; returns (process, wall seconds)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("run budget exhausted")
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=remaining,
        )
        return proc, time.monotonic() - started

    def worker(self, args, workdir: str, setup_only: bool = False) -> dict:
        argv = [
            os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", workdir,
            "--t0", repr(time.monotonic()),
        ]
        if setup_only:
            argv.append("--setup-only")
        proc, _ = self.python(argv)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_failure(case: dict, proc) -> str | None:
    """Why one cold CLI run does not reproduce the in-process outputs, or None."""
    if proc.returncode != 0:
        return "cli_exit"
    if not os.path.isfile(case["output"]):
        return "cli_no_output"
    if "expect_csv" in case:
        with open(case["output"], encoding="utf-8") as got, \
                open(case["expect_csv"], encoding="utf-8") as want:
            return None if got.read() == want.read() else "cli_output"
    if "expect_values" not in case:
        return "cli_unchecked"  # the in-process ops it mirrors failed
    with open(case["output"], encoding="utf-8") as fh:
        values = {row[0]: float(row[2]) for row in list(csv.reader(fh))[1:]}
    for name, want in case["expect_values"].items():
        if name not in values or not abs(values[name] - want) <= CLI_TOL:
            return "cli_output"
    return None


def run_cli(runner: Runner, case: dict, failures: dict) -> list[float]:
    walls = []
    for _ in range(CLI_SAMPLES):
        if os.path.exists(case["output"]):
            os.remove(case["output"])
        proc, wall = runner.python(case["argv"])
        walls.append(wall)
        kind = cli_failure(case, proc)
        if kind:
            failures[kind] = failures.get(kind, 0) + 1
    return walls


def declared_metrics() -> dict[str, list[tuple[str, str]]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")}


def run(args) -> tuple[dict, dict]:
    runner = Runner()
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": machine_info()}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        setups = []
        if not args.trace:
            setups = [runner.worker(args, workdir, setup_only=True)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        res = runner.worker(args, workdir)
        setups.append(res["setup_s"])
        failures = dict(res["failures"])
        case = res["cli"]
        cli_walls = run_cli(runner, case, failures)
        imports = []
        if args.trace:
            for _ in range(IMPORT_SAMPLES):
                proc, _ = runner.python(["-c", IMPORT_PROBE])
                if proc.returncode != 0:
                    raise BenchError(f"import qent failed: {proc.stderr.strip()[-2000:]}")
                imports.append(float(proc.stdout.strip()))
    attempted = res["attempted"] + len(cli_walls)
    failed = sum(failures.values())
    cli_s = statistics.median(cli_walls)
    detail.update(
        machine_numpy=res["machine"], passes=res["passes"], ops_per_pass=res["ops_per_pass"],
        failures=failures, failed_over_attempted=failed / attempted,
        cli_argv=case["argv"], cli_samples_s=cli_walls, cli_inproc_s=case["inproc_s"],
        reference=res.get("reference"),
    )
    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["cli.import_ms"] = statistics.median(imports) * 1e3
        metrics["cli.process_ms"] = (cli_s - case["inproc_s"]) * 1e3
        detail.update(import_samples_s=imports, spans=res["spans"])
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail"]["ms"],
            "peak_rss_mb": res["peak_rss_mb"],
            # failed/attempted plus one op in a pass, so the value is never 0:
            # one failure in every pass doubles it
            "fail_ratio": failed / attempted + 1.0 / res["ops_per_pass"],
            "cli_s": cli_s,
        }
        detail.update(setup_samples_s=setups, op_tail=res["op_tail"],
                      pass_walls_s=res["pass_walls_s"], op_ms_by_label=res["op_ms_by_label"])
        units = END_TO_END_UNITS
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return detail, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qent", "__init__.py")):
        print(f"error: no qent sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    try:
        declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
        detail, summary = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    printed = [(name, m["unit"]) for name, m in summary["metrics"].items()]
    if sorted(printed) != sorted(declared):
        print(f"error: metrics {sorted(printed)} differ from BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
