"""The closed measurement loop and the statistics it reports.

Host contention
---------------
On a shared host, other tenants slow one of this process's CPUs at a time by
1.5-2x, in bursts from a fraction of a second to tens of seconds (measured
with a dim-5 flag: windowed median 205 us, then 350-420 us while slowed).
CPU time slows with wall time, so neither clock avoids it.  Two things do:

* a short numpy-call kernel (``calibrate``) runs right before and right
  after every timed op.  When the reading after an op shows the CPU slowed,
  the process moves to the CPU on which the kernel runs fastest;
* an op whose two readings are both within GATE of the fastest reading of
  the run ran unslowed, and only such ops enter the timings.  Gating looks
  at the host, never at the op's own time, so it does not favour cheap
  inputs;
* when a whole run is slowed, the fastest reading is slowed too and every
  op passes the gate, so each op's time is also scaled by
  REFERENCE_READING over the mean of its two readings: the timings are in
  milliseconds of the reference machine's unslowed CPU.  On an unslowed CPU
  of that machine the scale is about 1.  The kernel slows a little less
  than a dim-5 flag (1.85x against 2x), so a fully slowed run still reads
  up to ~10% slow, against up to 2x unscaled.

Each op kind's kept ops then stand for that kind at its share of the
workload's cycle, so the op mix of the timings is the mix of the workload:
``ops_per_s`` is the inverse of the share-weighted per-kind median latency,
and the p50 and tail are quantiles of the kept ops weighted by share.
"""

from __future__ import annotations

import os
import statistics
from array import array
from time import perf_counter

import numpy as np

#: An op counts as unslowed when both its calibration readings are at most
#: this multiple of the run's fastest reading.
GATE = 1.25

#: Reading of ``calibrate`` on an unslowed CPU of the reference machine (a
#: 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6); timings are scaled to it.
REFERENCE_READING = 120e-6

#: Each op kind keeps at least this many ops, the best-gated ones, even when
#: fewer pass the gate.
MIN_KEPT = 8

#: The tail percentile has at least this many of the timed ops beyond it.
TAIL_BEYOND = 10

#: Highest percentile reported as the tail.  Past p98 the value is set by
#: scheduler and allocator hiccups rather than by the program and does not
#: repeat across runs; each mixed workload makes its slowest op kind 4% of
#: its ops, so that p98 lies in the middle of that kind.
TAIL_CAP = 0.98

_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
_ONES = np.ones(5)


def calibrate() -> float:
    """Seconds for a fixed kernel of small numpy calls, the kind of work
    that dominates dim-5 ops and slows most under contention."""
    t0 = perf_counter()
    for _ in range(30):
        np.outer(_ONES, _ONES)
        np.einsum("i,i->", _ONES, _ONES)
    return perf_counter() - t0


def pin_fastest_cpu() -> None:
    """Move this process to the CPU where ``calibrate`` runs fastest now.
    Child processes inherit the choice."""
    if len(_CPUS) < 2:
        return
    best = {}
    for cpu in _CPUS:
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(calibrate() for _ in range(5))
    os.sched_setaffinity(0, {min(best, key=best.get)})


class Stats:
    """Per-op records of one or more loops."""

    def __init__(self):
        self.latencies = array("d")
        self.gates = array("d")  # max calibration reading around the op
        self.scales = array("d")  # REFERENCE_READING / mean reading around the op
        self.fastest_reading = float("inf")
        self.kinds = []
        self.op_samples = array("q")
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.first_failure = None

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @classmethod
    def pooled(cls, parts) -> "Stats":
        total = cls()
        for part in parts:
            total.latencies.extend(part.latencies)
            total.gates.extend(part.gates)
            total.scales.extend(part.scales)
            total.kinds.extend(part.kinds)
            total.op_samples.extend(part.op_samples)
            total.attempted += part.attempted
            total.failed += part.failed
            total.bytes_out += part.bytes_out
            total.first_failure = total.first_failure or part.first_failure
        return total


def run_loop(workload, rng, stats, *, seconds=None, cycles=None, tracer=None, gated=False):
    """Closed loop: whole cycles until ``cycles`` are done or ``seconds``
    have passed.  Only the library call is timed; inputs, checks and the
    calibration readings (``gated``) are not."""
    deadline = None if seconds is None else perf_counter() + seconds
    done = 0
    while True:
        for kind in workload.cycle:
            op = workload.op(kind, rng)
            result = error = None
            before = calibrate() if gated else 0.0
            t0 = perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    with tracer.op(stats.attempted):
                        result = op.call()
            # checked below: may be the documented outcome; SystemExit is
            # argparse rejecting an argv inside cli.main
            except (Exception, SystemExit) as exc:
                error = exc
            elapsed = perf_counter() - t0
            gate, scale = 0.0, 1.0
            if gated:
                after = calibrate()
                gate = max(before, after)
                scale = 2.0 * REFERENCE_READING / (before + after)
                stats.fastest_reading = min(stats.fastest_reading, before, after)
                if after > GATE * stats.fastest_reading:
                    pin_fastest_cpu()  # this CPU is slowed now; the other may not be
            record(stats, op, result, error, elapsed)
            stats.gates.append(gate)
            stats.scales.append(scale)
            stats.kinds.append(kind)
        done += 1
        if (cycles is not None and done >= cycles) or (deadline is not None and perf_counter() >= deadline):
            return


def record(stats, op, result, error, elapsed):
    """Check one op's result and append its record."""
    stats.attempted += 1
    stats.latencies.append(elapsed)
    samples = 0
    try:
        reason = op.check(result, error)
        if reason is None:
            samples = op.samples(result, error)
            if error is None:
                stats.bytes_out += op.bytes_out(result)
    except Exception as exc:  # a malformed result fails its op, not the run
        reason = f"check raised {exc!r}"
    stats.op_samples.append(samples)
    if reason is not None:
        stats.failed += 1
        if stats.first_failure is None:
            stats.first_failure = reason


def _weighted_quantile(pairs, q: float) -> float:
    pairs = sorted(pairs)
    total = sum(weight for _, weight in pairs)
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= q * total:
            return value
    return pairs[-1][0]


class Estimate:
    """Timings of a gated loop, each op kind weighted by its cycle share."""

    def __init__(self, stats: Stats, cycle):
        fastest = min(stats.gates)
        shares = {kind: cycle.count(kind) / len(cycle) for kind in dict.fromkeys(cycle)}
        self.kept = {}
        for kind in shares:
            ops = sorted(
                (stats.gates[i], stats.latencies[i] * stats.scales[i], stats.op_samples[i], i)
                for i in range(len(stats.latencies))
                if stats.kinds[i] == kind
            )
            passing = [op for op in ops if op[0] <= GATE * fastest]
            self.kept[kind] = passing if len(passing) >= MIN_KEPT else ops[:MIN_KEPT]
        self.shares = shares
        # the median, not the mean: contention that starts inside a long op
        # escapes the gate and only ever adds time
        latency = {k: statistics.median(op[1] for op in v) for k, v in self.kept.items()}
        mean_samples = {k: statistics.fmean(op[2] for op in v) for k, v in self.kept.items()}
        per_op = sum(shares[k] * latency[k] for k in shares)
        self.ops_per_s = 1.0 / per_op
        self.samples_per_s = sum(shares[k] * mean_samples[k] for k in shares) / per_op
        pairs = [
            (op[1], shares[k] / len(v)) for k, v in self.kept.items() for op in v
        ]
        self.p50 = _weighted_quantile(pairs, 0.5)
        # the percentile is fixed by the number of ops timed, so that it never
        # moves between op kinds with the number that pass the gate
        timed = len(stats.latencies)
        q = min(TAIL_CAP, 1.0 - TAIL_BEYOND / timed)
        self.tail = _weighted_quantile(pairs, q)
        self.tail_pct = 100.0 * q
        self.tail_beyond = int(timed * (1.0 - q))
        self.n_kept = len(pairs)

    def weighted_mean(self, per_op, scales) -> float:
        """Mean of a per-op time over the kept ops, scaled like the latencies,
        kinds at their shares."""
        return sum(
            self.shares[k] * statistics.fmean(per_op[op[3]] * scales[op[3]] for op in v)
            for k, v in self.kept.items()
        )

    def describe(self) -> str:
        return ", ".join(
            f"{kind} {self.shares[kind]:.3f} {len(ops)} {1e3 * statistics.median(op[1] for op in ops):.4g}"
            for kind, ops in self.kept.items()
        )
