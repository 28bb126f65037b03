import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_benchmark_smoke():
    # every benchmark workload at toy size, against the library in src/; a
    # library change that breaks the benchmark's calls fails here
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "smoke.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
