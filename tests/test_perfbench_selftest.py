"""The benchmark's own self-tests, run in a separate interpreter.

They guard the graphkt functions that the traced benchmark run wraps. A
subprocess keeps their fresh import of graphkt apart from the one the rest
of the suite uses, whose exception classes the CLI tests compare against.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_unittests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
