"""The benchmark harness still runs against the current sources.

perfbench/selftest.py wraps every traced binding, so it fails if a function
the tracer names is gone.  A zero-second fig3-rank run makes one pass at the
default seed and checks every cell's mean_U/mean_D against
perfbench/reference.json.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, check=False)


def test_selftest_passes():
    proc = run_script("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_fig3_rank_matches_reference():
    proc = run_script("perfbench/run.py", "--workload", "fig3-rank",
                      "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    assert result["correct"] is True, report["errors"]
    assert report["fig3_reference_checked"] is True
