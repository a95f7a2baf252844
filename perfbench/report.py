"""Print every metric of every workload, and the tracing overhead.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Runs ``run.py`` once untraced and once traced per workload, each in its own
process, and prints each metric by name with its unit.  The tracing
overhead is the traced mean time per operation minus the untraced one; the
traced run repeats a fixed prefix of the inputs, so the difference is an
estimate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "basis", "formal", "ode")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        with open(os.path.join(HERE, "out", "trace-%s-%d.json" % (workload, args.seed)), encoding="utf-8") as fh:
            spans = json.load(fh)
        ok = ok and plain["correct"] and traced["correct"]
        print("== %s  seed %d: %d operations untraced, %d traced, %d failed, correct %s"
              % (workload, args.seed, plain["attempted"], traced["attempted"],
                 plain["failed"] + traced["failed"], plain["correct"] and traced["correct"]))
        for result in (plain, traced):
            for name, m in result["metrics"].items():
                print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
        untraced_op = 1.0 / plain["metrics"]["ops_per_s"]["value"]
        traced_op = spans["op_seconds"] / spans["operations"]
        print("  %-28s %14.6g s/op (traced %.6g - untraced %.6g)"
              % ("tracing_overhead", traced_op - untraced_op, traced_op, untraced_op))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
