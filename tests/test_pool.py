"""Every multi-cycle instance of the benchmark pool is answered right.

perfbench/check_pool.py solves each pool instance with run_auto and
run_plain and compares status, point and optimum with the benchmark's
own exhaustive reference; it exits 1 on any wrong answer.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_check_pool_finds_no_wrong_answer():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "check_pool.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
