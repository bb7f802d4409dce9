"""Run the benchmark's self-test (bench/selftest.py) in a child process:
the generator stays deterministic and agrees with semsr's filtering, and
BENCHMARK.json stays valid and matches the metric names the harness prints."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
