"""crsing benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a crsing checkout; the package is imported from
``src/`` next to this directory.  One process, one thread, a closed loop
with one caller: each operation starts when the previous one has been
answered.  Every answer is checked by ``workloads`` with the benchmark's
own arithmetic; a wrong answer makes ``correct`` false.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of ``spans``, and the spans themselves
are written to ``perfbench/out/``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# inputs made per run; a run cycles through them if it outlasts the pool
POOL = {"sweep": 160, "basis": 90, "formal": 150, "ode": 1500}
# operations that one round of a traced run repeats
TRACE_OPS = {"sweep": 30, "basis": 5, "formal": 12, "ode": 300}
SETUP_REPEATS = 7
# Machine speed.  On the shared 2-core machine the reference figures come
# from, the speed of pure-Python code swings by up to 2x for tens of
# seconds at a time, and crsing's operations slow down in proportion to a
# fixed loop of Fraction arithmetic run next to them.  Every time is
# therefore reported at reference speed: raw seconds times
# CALIBRATION_REFERENCE_S over the time the loop took around it.
CALIBRATION_REFERENCE_S = 0.00125  # the loop at full speed on that machine
CALIBRATE_EVERY_S = 0.05  # of operation time between two speed samples


def calibration_loop():
    """Seconds one fixed piece of Fraction arithmetic takes now (the faster
    of two tries, so a single interrupt does not count)."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 600):
            acc += Fraction(1, k % 97 + 1)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class SpeedLog:
    """Speed samples (time, calibration seconds) taken between operations,
    and the conversion of raw latencies to reference speed."""

    def __init__(self):
        self.times = []
        self.loops = []
        self.sample()

    def sample(self):
        loop = calibration_loop()
        self.times.append(time.perf_counter())
        self.loops.append(loop)

    def at_reference(self, start, latency):
        """latency scaled by the mean speed of the samples just before
        start and just after start + latency."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, start + latency), len(self.times) - 1)
        loop = (self.loops[before] + self.loops[after]) / 2
        return latency * CALIBRATION_REFERENCE_S / loop


def load_crsing():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import crsing
    import crsing.cli  # noqa: F401  (the basis workload calls cli.main)

    return crsing


def set_up(workload, seed):
    """Import crsing and make the inputs: everything before the first
    operation.  Returns (crsing, inputs, prepared arguments)."""
    crs = load_crsing()
    import workloads

    generate, prepare, _, _ = workloads.WORKLOADS[workload]
    inputs = generate(random.Random(seed), POOL[workload])
    return crs, inputs, [prepare(crs, inp) for inp in inputs]


def peak_rss_mb():
    """Peak resident memory of this process image.  VmHWM starts afresh at
    exec; getrusage's ru_maxrss would also count the parent's memory at the
    moment it forked this process."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def measure_setup(workload, seed):
    """Median time at reference speed, over SETUP_REPEATS fresh
    interpreters, from process start to the point where the first
    operation would begin."""
    times = []
    for _ in range(SETUP_REPEATS):
        loop_before = calibration_loop()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed with exit code %d" % code)
        loop = (loop_before + calibration_loop()) / 2
        times.append(elapsed * CALIBRATION_REFERENCE_S / loop)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "basis", "formal", "ode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    crs, inputs, prepared = set_up(args.workload, args.seed)
    import spans
    import workloads

    _, _, run, check = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.enabled = True

    def attempt(a):
        try:
            return True, run(crs, a)
        except Exception:  # an operation that fails is counted, not fatal
            traceback.print_exc()
            return False, None

    # a traced run repeats whole rounds of a fixed prefix, so that counts
    # per operation do not depend on how many rounds fit into the run
    size = min(TRACE_OPS[args.workload], len(prepared)) if tracer else len(prepared)
    speed = SpeedLog()
    timings = []  # (start, raw latency) of each operation
    attempted = failed = 0
    correct = True
    spent = since_sample = 0.0
    while spent < args.seconds or (tracer and attempted % size):
        i = attempted % size
        start = time.perf_counter()
        ok, out = attempt(prepared[i])
        latency = time.perf_counter() - start
        attempted += 1
        spent += latency
        since_sample += latency
        timings.append((start, latency))
        if since_sample >= CALIBRATE_EVERY_S:
            speed.sample()
            since_sample = 0.0
        if not ok:
            failed += 1
            continue
        if tracer:
            tracer.enabled = False
        try:
            check(crs, inputs[i], out)
        except workloads.CheckFailed as e:
            correct = False
            print("wrong answer on input %d: %s" % (i, e), file=sys.stderr)
        if tracer:
            tracer.enabled = True
    speed.sample()
    lat = sorted(speed.at_reference(s, t) for s, t in timings)
    raw = sum(t for _, t in timings)
    print("raw %.6g op/s, reference %.6g op/s" % (attempted / raw, attempted / sum(lat)), file=sys.stderr)

    if tracer:
        tracer.enabled = False
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(
            os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed)),
            attempted,
            sum(lat),
        )
        metrics = tracer.metrics(attempted, sum(lat) / raw)
    else:
        metrics = {
            "setup_s": (measure_setup(args.workload, args.seed), "s"),
            "ops_per_s": (len(lat) / sum(lat), "op/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_p90_s": (statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
