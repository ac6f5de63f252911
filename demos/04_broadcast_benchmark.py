"""End-to-end broadcast benchmark: feedback-assisted vs blind partitioning.

Each trial broadcasts a 20-packet block to 20 receivers over 20%-erasure
channels, collects the feedback matrix, partitions (greedy with the rank
cap, or blind chunks of the same generation count), then runs the coded
phase until everyone decodes.  The sweep is the library's fig3_U experiment
at desk scale; bump `trials` for smoother numbers.
"""

import tempfile
from dataclasses import replace

from gencast.experiments import headline_gaps, named_spec, run_simulation_sweep
from gencast.sim import run_trial

trials = 300
spec = replace(named_spec("fig3_U", trials=trials, seed=2025), gammas=(1, 2, 3, 5, 8, 10))
cells = {(cfg.scheduler, cfg.gamma): cfg for cfg in spec.cells()}

# one trial, narrated
row = run_trial(cells["feedback_rr", 2], 0)
print("single trial with the feedback scheduler:")
print(f"  generations M={row['M']}, completion time U={row['U']}, "
      f"delay D={float(row['D']):.2f}")
print(f"  erasure-free floor (total rank) = {row['total_rank']}, "
      f"closed-form delay bound = {row['apdd_bound']}")

blind_row = run_trial(cells["blind_rr", 2], 0)
print("same feedback matrix, blind partitioning:")
print(f"  M={blind_row['M']}, U={blind_row['U']}, D={float(blind_row['D']):.2f}")

# the gamma sweep
print(f"\nsweep over the rank cap ({trials} paired trials per cell):")
with tempfile.TemporaryDirectory() as out_dir:  # the sweep's CSVs are not kept
    rows = run_simulation_sweep(spec, out_dir)
agg = {(r["scheduler"], r["gamma"]): r for r in rows}
print("gamma    U_feedback  U_blind   dU%     D_feedback  D_blind   dD%")
for gap in headline_gaps(rows):
    fb, bl = agg["feedback_rr", gap["gamma"]], agg["blind_rr", gap["gamma"]]
    print(f"{gap['gamma']:5d}    {fb['mean_U']:9.2f} {bl['mean_U']:9.2f} {gap['du_pct']:6.1f}"
          f"    {fb['mean_D']:9.2f} {bl['mean_D']:8.2f} {gap['dd_pct']:6.1f}")

print("\none round of feedback buys both throughput and delay; the gap")
print("closes as the cap grows because both schemes converge to coding over")
print("the whole block.  The same sweep is scriptable via:")
print("  gencast simulate --experiment fig3_U --out results/")
