"""Self-test of the benchmark harness on small versions of the three workloads.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it checks that
* while tracing, no gencast module or class still binds an original traced
  function, so no caller can bypass a wrapper;
* the traced pass gives the same outputs (per-trial rows, oracle results) as
  the untraced pass;
* after tracing every wrapper is gone and every binding is the original;
* two traced passes give identical exact counts;
* every output check passes.
Prints one line per workload and exits 1 if anything fails.
"""

from __future__ import annotations

import shutil
import sys

import run
import tracer
import workloads


def small(name, out_dir):
    if name == "fig3-rank":
        return workloads.SweepWorkload((1, 10), 4, out_dir)
    if name == "payload-decode":
        return workloads.SweepWorkload((2,), 3, out_dir, abstract_decode=False, payload_len=64)
    return workloads.OracleWorkload(12)


def bypassable(gc, originals):
    """Bindings in gencast that still point at an original traced function."""
    found = []
    for module in tracer._package_modules(gc.__name__):
        found += [f"{module.__name__}.{attr}" for attr, value in vars(module).items()
                  if any(value is fn for fn in originals.values())]
    found += [f"{owner.__name__}.{attr}" for (owner, attr), fn in originals.items()
              if isinstance(owner, type) and vars(owner)[attr] is fn]
    return found


def check_workload(name, out_dir):
    wl = small(name, out_dir)
    wl.setup(run.import_gencast(), run.DEFAULT_SEED)
    gc = wl.gc
    host = run.HostSpeed()
    originals = {(owner, attr): vars(owner)[attr] for _, owner, attr, _ in tracer.targets(gc)}
    errors = []

    plain = run.run_pass(wl, host)
    counts = []
    for _ in range(2):
        tr = tracer.Tracer(gc)
        with tr:
            errors += [f"not wrapped: {b}" for b in bypassable(gc, originals)]
            traced = run.run_pass(wl, host)
        errors += [f"left installed: {w}" for w in tr.leftover_wrappers()]
        errors += [f"not restored: {owner.__name__}.{attr}"
                   for (owner, attr), fn in originals.items() if vars(owner)[attr] is not fn]
        errors += [f"{op}: traced output differs" for (op, _, a, _), (_, _, b, _)
                   in zip(plain, traced) if a != b]
        metrics = run.layer_metrics(tr.spans, 1.0, 1.0, 1.0, 0.0)
        counts.append({k: metrics[k]["value"] for k in run.EXACT_COUNTS})
        errors += run.check_pass(wl, traced)[1]
    errors += run.check_pass(wl, plain)[1]
    if counts[0] != counts[1]:
        errors.append(f"exact counts differ between traced passes: {counts}")
    if not any(counts[0].values()):
        errors.append("tracing recorded no work")
    return errors, counts[0]


def main():
    sys.path.insert(0, str(run.SRC))
    out_dir = run.ROOT / ".bench_build" / "perfbench-selftest"
    status = 0
    try:
        for name in workloads.NAMES:
            errors, counts = check_workload(name, out_dir)
            print(f"{name}: {'ok' if not errors else 'FAIL'} {counts}")
            for error in errors[:10]:
                print(f"  {error}")
            status = status or bool(errors)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
