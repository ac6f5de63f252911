"""The narrated demos still run against the current sources.

Demo 03 decodes through DecoderState.solve.  Demo 04 is a desk-scale sweep
of a few seconds and, besides the CLI, the only caller of
experiments.headline_gaps.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_feedback_partitioning.py", "02_hypergraph_coloring.py",
                                  "03_gf_codec.py", "04_broadcast_benchmark.py"])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
