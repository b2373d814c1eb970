"""Benchmark entry point.

    python3 bench/run.py --workload h5_flags --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Runs one closed-loop client in this process against the library in
``src/`` of the checkout that holds this file.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  ``--workload all`` runs every workload in
its own process and prints every metric by name and unit.
"""

from __future__ import annotations

import os

# One BLAS thread: one client per process, whose BLAS workers would
# otherwise compete with it for the CPUs.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("h5_flags", "h5_search", "wide_flags", "reports")

#: Fresh interpreters started per run to time set-up, one before each
#: seventh of the timed loop; the median is reported.
SETUP_PROBES = 7

#: A traced run alternates untraced and traced phases this many times each,
#: giving them 80% of --seconds; the rest covers warm-up and call counting.
TRACE_ROUNDS = 4
TRACE_SHARE = 0.8


def _load_library():
    if not (SRC / "randersflag" / "__init__.py").is_file():
        sys.exit(f"bench: no library sources at {SRC / 'randersflag'}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def make_workload(name: str, seed: int, workdir: str):
    import workloads

    return workloads.WORKLOADS[name](seed, workdir)


def probe_setup(name: str, seed: int) -> None:
    """Child side of a set-up probe: import, build the models, report ready."""
    _load_library()
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        make_workload(name, seed, workdir)  # imports randersflag
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its models being built."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    line = child.stdout.readline()
    elapsed = time.perf_counter() - t0
    child.stdout.close()
    if child.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed")
    return elapsed


def metadata() -> dict:
    from importlib import metadata as packages

    import numpy

    try:
        scipy = packages.version("scipy")
    except packages.PackageNotFoundError:
        scipy = None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics.

    The set-up probes are spread over the timed loop, so that set-up is
    timed across the run rather than in one stretch of host contention.
    Timings are gated as ``measure`` describes; every op is checked.
    """
    _load_library()
    import numpy as np

    from measure import Estimate, Stats, pin_fastest_cpu, run_loop

    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        workload = make_workload(name, seed, workdir)
        rng = np.random.default_rng([seed, 1])
        warm = Stats()
        run_loop(workload, rng, warm, cycles=1)  # checked, not timed
        setup, timed = [], Stats()
        for _ in range(SETUP_PROBES):
            pin_fastest_cpu()  # the probe inherits the CPU
            setup.append(measure_setup(name, seed))
            run_loop(workload, rng, timed, seconds=seconds / SETUP_PROBES, gated=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    estimate = Estimate(timed, workload.cycle)
    everything = Stats.pooled([warm, timed])
    print(f"meta: {json.dumps(metadata())}")
    print(
        f"{name}: {len(timed.latencies)} timed ops, {len(timed.latencies) / timed.busy:.6g} ops/s ungated; "
        f"{estimate.n_kept} ops passed the gate"
    )
    print(f"{name}: by op kind (cycle share, kept ops, p50 ms): {estimate.describe()}")
    print(f"{name}: op_tail_ms is p{estimate.tail_pct:.2f} ({estimate.tail_beyond} of the timed ops beyond)")
    print(f"{name}: setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"{name}: failed_ratio = {everything.failed}/{everything.attempted}")
    if everything.first_failure:
        print(f"{name}: first failure: {everything.first_failure}", file=sys.stderr)
    return {
        "correct": everything.failed == 0,
        "attempted": everything.attempted,
        "failed": everything.failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric(estimate.ops_per_s, "1/s"),
            "samples_per_s": metric(estimate.samples_per_s, "1/s"),
            "op_p50_ms": metric(1e3 * estimate.p50, "ms"),
            "op_tail_ms": metric(1e3 * estimate.tail, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def count_calls(workload, rng, stats) -> tuple[int, int, bool]:
    """Exact interpreter call counts over one cycle.

    Each op runs three times on the same inputs under ``sys.setprofile``:
    the first run warms lazy state, the other two must agree.
    Returns (python calls, C calls, whether the two counted runs agreed).
    """
    from measure import record
    from tracing import CallCounter

    counter = CallCounter()
    py_calls = c_calls = 0
    repeat = True
    for kind in workload.cycle:
        op = workload.op(kind, rng)
        seen = []
        for _ in range(3):
            py0, c0 = counter.py, counter.c
            result = error = None
            t0 = time.perf_counter()
            try:
                with counter.counting():
                    result = op.call()
            except (Exception, SystemExit) as exc:
                error = exc
            record(stats, op, result, error, time.perf_counter() - t0)
            seen.append((counter.py - py0, counter.c - c0))
        repeat = repeat and seen[1] == seen[2]
        py_calls += seen[2][0]
        c_calls += seen[2][1]
    return py_calls, c_calls, repeat


def traced(name: str, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics from spans around library calls."""
    _load_library()
    import numpy as np

    from measure import Estimate, Stats, pin_fastest_cpu, run_loop
    from tracing import TARGETS, Tracer

    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        workload = make_workload(name, seed, workdir)
        rng = np.random.default_rng([seed, 1])
        warm = Stats()
        run_loop(workload, rng, warm, cycles=1)
        phase = TRACE_SHARE * seconds / (2 * TRACE_ROUNDS)
        # untraced and traced phases alternate, so drift in machine speed
        # falls on both sides of trace.overhead_ratio alike
        plain, spans, tracer = Stats(), Stats(), Tracer()
        for _ in range(TRACE_ROUNDS):
            pin_fastest_cpu()
            run_loop(workload, rng, plain, seconds=phase, gated=True)
            pin_fastest_cpu()
            with tracer.patch():
                run_loop(workload, rng, spans, seconds=phase, tracer=tracer, gated=True)
        counted = Stats()
        py_calls, c_calls, repeat = count_calls(workload, rng, counted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tracer.write(str(OUT_DIR / f"spans-{name}.tsv"))
    # counts over every traced op; self times over the gated ops, each op
    # kind at its share of the cycle (see measure.Estimate)
    ops = len(spans.latencies)
    counts = tracer.counts()
    layers, within_search = counts["layers"], counts["within_search"]
    estimate = Estimate(spans, workload.cycle)
    self_ns = tracer.self_ns_by_op(ops)

    def per_op(value):
        return value / ops

    def self_us(layer):
        return estimate.weighted_mean(self_ns[layer], spans.scales) / 1e3

    metrics = {}
    for layer in TARGETS:
        metrics[f"{layer}.calls_per_op"] = metric(per_op(layers[layer]["calls"]), "calls/op")
        metrics[f"{layer}.self_us_per_op"] = metric(self_us(layer), "us/op")
    samples = layers["curvature.sign_search"]["count"]
    tables = within_search["connection.chern_rund_table"]["calls"]
    metrics["randers.solve.cols_per_op"] = metric(per_op(layers["randers.solve"]["count"]), "cols/op")
    metrics["curvature.sign_search.samples_per_op"] = metric(per_op(samples), "samples/op")
    metrics["curvature.sign_search.tables_per_sample"] = metric(tables / samples if samples else 0.0, "tables/sample")
    metrics["curvature.sign_search.degenerate_per_op"] = metric(
        per_op(within_search["curvature.flag_report"]["count"]), "flags/op"
    )
    metrics["cli.bytes_out_per_op"] = metric(per_op(spans.bytes_out), "B/op")
    cycle_ops = len(workload.cycle)
    metrics["interp.py_calls_per_op"] = metric(py_calls / cycle_ops, "calls/op")
    metrics["interp.c_calls_per_op"] = metric(c_calls / cycle_ops, "calls/op")
    op_us = self_us("total")
    metrics["trace.op_us_per_op"] = metric(op_us, "us/op")
    metrics["trace.unattributed_us_per_op"] = metric(self_us("op"), "us/op")
    plain_rate = Estimate(plain, workload.cycle).ops_per_s
    metrics["trace.overhead_ratio"] = metric(estimate.ops_per_s / plain_rate, "ratio")

    attributed = sum(self_us(layer) for layer in TARGETS)
    everything = Stats.pooled([warm, plain, spans, counted])
    print(f"meta: {json.dumps(metadata())}")
    print(
        f"{name}: traced {ops} ops, untraced {len(plain.latencies)} ops; layer self times sum to "
        f"{attributed:.1f} of {op_us:.1f} us/op traced op time; "
        f"ops_per_s traced {estimate.ops_per_s:.1f}, untraced {plain_rate:.1f}"
    )
    print(f"{name}: tables_per_sample = {tables} table builds / {samples} search samples")
    print(f"{name}: interp counts over one cycle of {cycle_ops} ops repeat exactly: {repeat}")
    print(f"{name}: failed_ratio = {everything.failed}/{everything.attempted}")
    if everything.first_failure:
        print(f"{name}: first failure: {everything.first_failure}", file=sys.stderr)
    return {
        "correct": everything.failed == 0,
        "attempted": everything.attempted,
        "failed": everything.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process; prints each metric by name and unit."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        print(f"{name:<11} {'failed_ratio':<44} {ratio:>14.6g} ratio ({result['failed']}/{result['attempted']})")
        for key, entry in result["metrics"].items():
            print(f"{name:<11} {key:<44} {entry['value']:>14.6g} {entry['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{key}": entry for name, r in results.items() for key, entry in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    _load_library()
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
