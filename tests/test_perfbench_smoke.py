"""The benchmark harness still runs against the current sources.

perfbench/selftest.py wraps every traced binding, so it fails if a function
the tracer names is gone.  The exact counts it prints are pinned, so a change
to the RNG draw order or to the absorb path fails here too.  Zero-second
fig3-rank runs, one at the default seed and one at the held-out seed
8675309, each make one pass and check every cell's mean_U/mean_D against
perfbench/reference.json.  A traced zero-second payload-decode run decodes every
payload of its 6 cells x 20 trials at 1024 bytes, checks each payload row
against its rank-only row and pins the absorb, slot, innovative and mul_vec
byte counts.  A traced zero-second fig3-rank run pins the absorb, slot and
innovative counts of the whole grid.  A traced oracle-k20 run checks every witness,
colouring and M_opt <= M_heur on all 2,000 operations
of the paper-point workload and pins the exact search's node count.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, check=False)


# exact counts of the self-test's small workloads at the default seed
PINNED_COUNTS = {
    "fig3-rank": {"rlnc.absorb.calls": 1375,
                  "rlnc.absorb.innovative_frac": 0.9978181818181818,
                  "sim.coded_slots": 310},
    "payload-decode": {"rlnc.absorb.calls": 521, "sim.coded_slots": 118,
                       "galois.mul_vec.bytes": 180864},
    "oracle-k20": {"partition.optimal.nodes": 88},
}


@pytest.fixture(scope="module")
def selftest():
    return run_script("perfbench/selftest.py")


def test_selftest_passes(selftest):
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr


def test_selftest_counts_pinned(selftest):
    counts = {}
    for line in selftest.stdout.splitlines():
        if not line.startswith(" "):  # "<workload>: ok {counts}"
            name, rest = line.split(": ", 1)
            counts[name] = ast.literal_eval(rest[rest.index("{"):])
    for name, pinned in PINNED_COUNTS.items():
        assert {key: counts[name][key] for key in pinned} == pinned, name


def run_workload(*args):
    """perfbench/run.py's report and result objects for one run."""
    proc = run_script("perfbench/run.py", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


def test_fig3_rank_matches_reference():
    report, result = run_workload("--workload", "fig3-rank", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True, report["errors"]
    assert report["fig3_reference_checked"] is True


def test_fig3_rank_matches_reference_at_held_out_seed():
    report, result = run_workload("--workload", "fig3-rank", "--seed", "8675309",
                                  "--seconds", "0", "--trace", "0")
    assert result["correct"] is True, report["errors"]
    assert report["fig3_reference_checked"] is True


def test_payload_decode_full_workload():
    # one traced pass decodes every payload; the draw order, the absorb path
    # and the products each slot's decoders share fix these counts exactly
    report, result = run_workload("--workload", "payload-decode", "--seconds", "0",
                                  "--trace", "1")
    assert result["correct"] is True, report["errors"]
    assert result["failed"] == 0
    counts = report["run"]["exact_counts"]
    assert counts["rlnc.absorb.calls"] == 9930
    assert counts["sim.coded_slots"] == 1731
    assert counts["rlnc.absorb.innovative_frac"] == 0.997583081570997
    assert counts["galois.mul_vec.bytes"] == 102447104


def test_oracle_k20_full_workload():
    report, result = run_workload("--workload", "oracle-k20", "--trace", "1")
    assert result["correct"] is True, report["errors"]
    assert result["failed"] == 0
    assert report["run"]["exact_counts"]["partition.optimal.nodes"] == 72409


def test_fig3_rank_trace_counts():
    # one traced pass of the whole fig3 grid: the draw order and the absorb
    # path fix these counts exactly
    report, result = run_workload("--workload", "fig3-rank", "--seconds", "0", "--trace", "1")
    assert result["correct"] is True, report["errors"]
    counts = report["run"]["exact_counts"]
    assert counts["rlnc.absorb.calls"] == 161710
    assert counts["sim.coded_slots"] == 28125
    assert counts["rlnc.absorb.innovative_frac"] == 0.9983303444437573
