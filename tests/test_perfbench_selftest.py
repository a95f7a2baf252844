"""The benchmark's answer checkers against crsing's current API.

perfbench/selftest.py feeds crsing's answers to the checkers the benchmark
uses, and corrupted copies of them; it exits 0 only when every true answer
is accepted and every corrupted one rejected.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
