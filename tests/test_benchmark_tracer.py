"""The benchmark's traced pass still attaches to the library.

perfbench/tracing.py wraps library functions by name and reads some
private names (cumulants._nc, cumulants._ncl, wishart._product_trace_powers).
A refactor that renames or deletes one of them breaks the traced benchmark
without failing any library test; this guard runs the warm-up request of
each workload under the tracer.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["convolve-verify", "tcoeff-linked", "wishart-mc"])
def test_traced_worker_warms_up(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--mode", "pass", "--workload", workload,
         "--seed", "1", "--blocks", "0", "--traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["warmup_failed"] is False, out["failures"]
    assert out["self_check_ok"] is True
