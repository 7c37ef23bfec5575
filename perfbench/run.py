"""chordhom benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload d2-sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; the program is imported from ./src.
The run is one single-threaded process:

1. set-up, repeated SETUP_REPS times with the median reported as setup_s:
   a fresh import of chordhom, then the workload's inputs made from the
   seed, every input passing through a document round trip;
2. whole rounds of the workload's operations until at least MIN_ROUNDS
   rounds, --seconds of wall time and MIN_SAMPLES operations have been
   measured.  The first round's outputs are checked by the independent
   checkers; later rounds must reproduce the first round's output digests;
3. one JSON line with correct / attempted / failed and the metrics.
   With --trace 0, the end-to-end metrics: setup_s; ops_per_s, the
   operations completed per second of operation time; op_s.p50 and
   op_s.p90, Harrell-Davis estimates over every timed operation of the
   run; and the process's peak RSS.  With --trace 1, the per-layer metrics per set-up
   plus per round; a traced run also writes its spans to
   .perfbench/spans-<workload>-<seed>.jsonl.

Times are CPU times of the process in reference seconds.  The CPU speed
of the shared machine the benchmark was written on switches between a
fast and a slow state every few seconds (1.5x apart), and every kind of
Python code slows with it.  So a fixed calibration task (a sparse rank
computation of the benchmark's own, independent of chordhom and of the
seed) is timed around every set-up repetition, at the start of every
round and after every CALIBRATE_EVERY seconds of operation time.  The
times measured between two readings are multiplied by REFERENCE_S over
the mean of the two.  A `#` line before the result gives the raw CPU
times and the mean calibration readings.

An operation that raises, or whose output fails a check, counts as
failed and the run goes on; a failed check, or a later round that does
not reproduce the first, also makes `correct` false.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter, process_time

import checks
import workloads

SETUP_REPS = 9
MIN_ROUNDS = 2
MIN_SAMPLES = 100

# The process's CPU time: the work is single-threaded and does no I/O, and
# wall time on a shared virtual machine also counts the time the host
# gives to other guests.
clock = process_time

CALIBRATE_EVERY = 0.1  # seconds of operation time between calibration readings
REFERENCE_S = 0.010  # the calibration task's CPU time at the reference speed
_rng = random.Random(0)
CALIBRATION_MATRIX = {(_rng.randrange(45), _rng.randrange(70)): _rng.randrange(1, 7) for _ in range(500)}


def calibrate() -> float:
    """CPU seconds of the fixed calibration task.  The cyclic garbage
    collector is paused while it runs, so that its time depends on the
    machine and not on the heap the program has built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        checks.rank_mod_p(CALIBRATION_MATRIX, 45, 70)
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Drop every chordhom module and import the package again."""
    for name in [n for n in sys.modules if n == "chordhom" or n.startswith("chordhom.")]:
        del sys.modules[name]
    importlib.import_module("chordhom")


def setup(args, tracer):
    """The inputs, the median set-up time in reference seconds, and the
    raw CPU median and mean calibration reading."""
    raw, scaled, readings, ops = [], [], [], []
    for _ in range(SETUP_REPS):
        before = calibrate()
        start = clock()
        fresh_import()
        mods = workloads.modules()
        if tracer is not None:
            tracer.install(mods)
        ops = workloads.make(args.workload, args.seed)
        raw.append(clock() - start)
        after = calibrate()
        scaled.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        readings += [before, after]
    return ops, statistics.median(scaled), statistics.median(raw), statistics.fmean(readings)


def run_rounds(ops, seconds, tracer, log):
    """Whole rounds until the round, wall-time and sample floors are all
    met.  Operation times are in reference seconds: a stretch of
    operations between two calibration readings is scaled by their mean."""
    digests: list[str | None] = [None] * len(ops)
    bad: list[bool] = [False] * len(ops)
    ctx: dict = {}
    times: list[float] = []
    round_times: list[float] = []  # reference seconds
    raw_round_times: list[float] = []  # CPU seconds
    round_readings: list[float] = []  # mean calibration reading of each round
    attempted = failed = 0
    correct = True
    wall_start = perf_counter()
    while (
        len(round_times) < MIN_ROUNDS or perf_counter() - wall_start < seconds or len(times) < MIN_SAMPLES
    ):
        first = not round_times
        raw: list[float] = []  # CPU seconds of every operation of the round
        scaled: list[float] = []
        done: list[int] = []  # the operations that did not raise
        readings = [calibrate()]
        since = 0  # index of the first operation after the last reading
        stretch = 0.0  # CPU seconds of operations since the last reading
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.phase = "timed"
                tracer.begin_op(i)
            start = clock()
            try:
                out = op.run()
                error = None
            except Exception:  # an operation's failure is counted, not fatal
                out, error = None, traceback.format_exc(limit=3)
            elapsed = clock() - start
            if tracer is not None:
                tracer.end_op(op.label)
                tracer.phase = "check"
            attempted += 1
            raw.append(elapsed)
            stretch += elapsed
            if stretch >= CALIBRATE_EVERY or i == len(ops) - 1:
                readings.append(calibrate())
                factor = 2 * REFERENCE_S / (readings[-2] + readings[-1])
                scaled += [t * factor for t in raw[since:]]
                since, stretch = i + 1, 0.0
            if error is not None:
                failed += 1
                if first:
                    log(f"FAILED {op.label}: raised\n{error}")
                continue
            done.append(i)
            if first:
                try:
                    problems = op.check(out, ctx)
                    digests[i] = op.digest(out)
                except Exception:
                    problems = [f"check raised\n{traceback.format_exc(limit=3)}"]
                if problems:
                    bad[i] = True
                    correct = False
                    log(f"WRONG {op.label}: " + "; ".join(problems[:3]))
            elif op.digest(out) != digests[i]:
                bad[i] = True
                correct = False
                log(f"WRONG {op.label}: round {len(round_times) + 1} differs from round 1")
            if bad[i]:
                failed += 1
            del out
        times += [scaled[i] for i in done]
        round_times.append(sum(scaled))
        raw_round_times.append(sum(raw))
        round_readings.append(statistics.fmean(readings))
        gc.collect()
    return {
        "times": times, "round_times": round_times, "raw_round_times": raw_round_times,
        "round_readings": round_readings, "attempted": attempted, "failed": failed, "correct": correct,
    }


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def percentile(sorted_times, q):
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of
    every order statistic, the i-th weighted by the Beta((n+1)q,
    (n+1)(1-q)) mass on [(i-1)/n, i/n].  Unlike one or two order
    statistics, it does not jump when the noise of single operations
    reorders them or when the quantile falls in a gap between operation
    classes."""
    n = len(sorted_times)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * t for i, t in enumerate(sorted_times))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chordhom", "__init__.py")):
        print(f"perfbench: no chordhom sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    def log(msg):
        print(msg, file=sys.stderr)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    wall_start = perf_counter()
    ops, setup_s, raw_setup_s, setup_reading = setup(args, tracer)
    res = run_rounds(ops, args.seconds, tracer, log)
    wall = perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = sorted(res["times"])
    if not times:
        log("perfbench: no operation completed")
        return 1
    ops_per_s = len(times) / sum(res["round_times"])
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(ops)} operations per round, "
        f"{len(times)} timed; set-up {raw_setup_s:.4f} s of CPU time, calibration {setup_reading * 1e3:.2f} ms; "
        "rounds of " + ", ".join(f"{t:.3f}" for t in res["raw_round_times"]) + " s of CPU time, calibration "
        + ", ".join(f"{p * 1e3:.2f}" for p in res["round_readings"])
        + f" ms; {ops_per_s:.4f} ops per reference second; the run took {wall:.1f} s of wall time"
    )
    if tracer is not None:
        divisors = {"setup": SETUP_REPS, "timed": len(res["round_times"])}
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in tracer.per_layer(divisors).items()
        }
        tracer.write(os.path.join(root, ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_s.p50": {"value": percentile(times, 0.5), "unit": "s"},
            "op_s.p90": {"value": percentile(times, 0.9), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
