"""Layered benchmark for gencast.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig3-rank --seed 20200731 --seconds 10 --trace 0

``--workload`` is one of fig3-rank, payload-decode, oracle-k20, or ``all``
(each workload in turn, in its own process).  The run imports gencast from
the checkout's ``src/``, sets up several times (fresh import, inputs from the
seed, warm-up) and reports the median set-up time.

``--trace 0`` repeats whole passes over the workload's operations for at
least ``--seconds`` seconds and reports the end-to-end metrics.  ``--trace 1``
makes one untraced pass, then one pass with every layer's public functions
wrapped, and reports per-layer busy time, self time and counts for that
pass, plus the tracing overhead.  Either way every operation's output is
checked; a failed check makes the exit code 1.

Times are host-scaled: a fixed reference loop that never touches gencast
runs between operations at least every LOOP_EVERY_S, and each measured time
is multiplied by ``NOMINAL_LOOP_S / the loop time sampled just before it``.
On a shared host the speed of the whole machine drifts by +-15% within and
between runs; the loop drifts with it, so scaled times stay comparable
across runs and commits.  The report gives the median scale factor.

The line before the last is a report: run context (cores, CPU, Python and
numpy versions, seed, non-blank ``src/`` line count), the workload's metrics
under their workload-specific names, the exact counts of a traced run, and
the check results.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Span, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 20200731  # the CLI's default seed
HELD_OUT_SEED = 8675309  # kept out of tuning; re-check claims on it
SETUP_REPEATS = 7
NOMINAL_LOOP_S = 0.010  # reference-loop time that defines scale 1
LOOP_EVERY_S = 0.1  # run the reference loop at most this often between operations
EXACT_COUNTS = ("rlnc.absorb.calls", "rlnc.absorb.innovative_frac", "partition.optimal.nodes",
                "sfm.validate.calls", "sim.coded_slots", "galois.mul_vec.bytes")


def _reference_loop():
    """Interpreter-bound work with small numpy calls, like gencast's own loops."""
    rng = np.random.default_rng(0)
    counts = np.zeros(20, dtype=np.int64)
    seen = {}
    acc = 0
    for i in range(20000):
        acc ^= (i * 2654435761) & 0xFF
        seen[i & 255] = acc
        if i % 50 == 0:
            counts = counts + rng.integers(0, 2, size=20)
            acc += int(counts.max())
    return acc


class HostSpeed:
    """Reference-loop samples taken through the run.

    Each operation is scaled by the sample taken just before it (at most
    LOOP_EVERY_S earlier): the host's speed drifts within a run as well as
    between runs, and a nearby sample tracks both.
    """

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self):
        """Run the loop now; the scale it implies."""
        t0 = time.perf_counter()
        _reference_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return NOMINAL_LOOP_S / self.samples[-1]

    def current(self):
        """Scale from the latest sample, refreshed when it is older than LOOP_EVERY_S."""
        if time.perf_counter() - self._last >= LOOP_EVERY_S:
            return self.sample()
        return NOMINAL_LOOP_S / self.samples[-1]

    def median_scale(self):
        return NOMINAL_LOOP_S / statistics.median(self.samples)


def import_gencast():
    """Import gencast afresh from the checkout: module code and field tables rerun."""
    for name in [n for n in sys.modules if n == "gencast" or n.startswith("gencast.")]:
        del sys.modules[name]
    gc = importlib.import_module("gencast")
    importlib.import_module("gencast.experiments")  # not imported by the package itself
    if Path(gc.__file__).resolve().parent != SRC / "gencast":
        raise RuntimeError(f"imported gencast from {gc.__file__}, not from {SRC}")
    return gc


def quantile(values, q):
    """Inclusive-method quantile, 0 < q < 1."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_pass(wl, host):
    """Run every operation once: [(op, scaled seconds or None, output, error or None)]."""
    results = []
    for op in wl.ops():
        scale = host.current()
        try:
            dt, output = wl.run(op)
            results.append((op, scale * dt, output, None))
        except Exception as exc:  # a failing operation is counted, not fatal
            results.append((op, None, None, f"{op}: {type(exc).__name__}: {exc}"))
    return results


def check_pass(wl, results):
    """(operations failing a check, their messages)."""
    failed, errors = 0, []
    for op, _, output, error in results:
        op_errors = [error] if error else wl.check(op, output)
        failed += bool(op_errors)
        errors += op_errors
    return failed, errors


def measure(wl, host, seconds):
    """Whole passes until `seconds` have gone; end-to-end metrics."""
    times, work, errors = [], 0, []
    attempted = failed = passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        results = run_pass(wl, host)
        passes += 1
        ok = [(op, dt) for op, dt, _, error in results if error is None]
        times += [dt for _, dt in ok]
        work += sum(wl.work(op) for op, _ in ok)
        n_failed, n_errors = check_pass(wl, results)
        attempted += len(results)
        failed += n_failed
        errors += n_errors
    rate = work / sum(times) if times else 0.0
    p50, p90, p99 = (quantile(times, q) if times else 0.0 for q in (0.5, 0.9, 0.99))
    geomean = math.exp(statistics.fmean(math.log(t) for t in times)) if times else 0.0
    metrics = {"op_ms_geomean": metric(1e3 * geomean, "ms")}
    if wl.unit == "trials":
        named = {"trials_per_s": metric(rate, "trials/s"),
                 "cell_s_p50": metric(p50, "s"), "cell_s_p90": metric(p90, "s")}
    else:
        named = {"instances_per_s": metric(rate, "instances/s"),
                 "solve_ms_p50": metric(1e3 * p50, "ms"),
                 "solve_ms_p99": metric(1e3 * p99, "ms")}
    named.update(metrics)
    named["failed_frac"] = metric(failed / attempted, "ratio")
    info = {"passes": passes, "samples": len(times), "wall_s": time.perf_counter() - start}
    return attempted, failed, errors, metrics, named, info


def layer_metrics(spans, scale, traced_s, untraced_s, improved_frac):
    """Per-layer metrics of one traced pass; span times are scaled by `scale`."""
    def span(name):
        return spans.get(name, Span())

    def busy(name):
        return metric(scale * span(name).busy, "s")

    def calls(name):
        return metric(span(name).calls, "count")

    absorb, optimal = span("rlnc.absorb"), span("partition.optimal")
    coded, sweep = span("sim.coded_phase"), span("experiments.sweep")
    nodes = optimal.counts.get("nodes", 0)
    return {
        "sim.coded_phase.busy_s": busy("sim.coded_phase"),
        "sim.coded_phase.self_s": metric(scale * (coded.busy - coded.child), "s"),
        "sim.systematic_phase.busy_s": busy("sim.systematic_phase"),
        "sim.coded_slots": metric(coded.counts.get("slots", 0), "count"),
        "rlnc.absorb.calls": calls("rlnc.absorb"),
        "rlnc.absorb.busy_s": busy("rlnc.absorb"),
        "rlnc.absorb.innovative_frac": metric(
            absorb.counts.get("innovative", 0) / absorb.calls if absorb.calls else 0.0, "ratio"),
        "rlnc.encode.calls": calls("rlnc.encode"),
        "rlnc.encode.busy_s": busy("rlnc.encode"),
        "galois.mul_vec.calls": calls("galois.mul_vec"),
        "galois.mul_vec.busy_s": busy("galois.mul_vec"),
        "galois.mul_vec.bytes": metric(span("galois.mul_vec").counts.get("bytes", 0),
                                       "B-computed"),
        "partition.heuristic.calls": calls("partition.heuristic"),
        "partition.heuristic.busy_s": busy("partition.heuristic"),
        "partition.optimal.calls": calls("partition.optimal"),
        "partition.optimal.busy_s": busy("partition.optimal"),
        "partition.optimal.nodes": metric(nodes, "count"),
        "partition.optimal.nodes_per_s": metric(
            nodes / (scale * optimal.busy) if optimal.busy else 0.0, "nodes/s"),
        "partition.optimal.improved_frac": metric(improved_frac, "ratio"),
        "sfm.validate.calls": calls("sfm.validate"),
        "sfm.validate.busy_s": busy("sfm.validate"),
        "sfm.total_rank.busy_s": busy("sfm.total_rank"),
        "sfm.apdd_bound.busy_s": busy("sfm.apdd_bound"),
        "experiments.sweep.self_s": metric(scale * (sweep.busy - sweep.child), "s"),
        "trace.untraced_pass_s": metric(untraced_s, "s"),
        "trace.traced_pass_s": metric(traced_s, "s"),
        "trace.overhead_frac": metric(traced_s / untraced_s - 1, "ratio"),
    }


def trace(wl, host):
    """One untraced pass, one traced pass; per-layer metrics of the traced one."""
    plain = run_pass(wl, host)
    tracer = Tracer(wl.gc)
    with tracer:
        traced = run_pass(wl, host)
    errors = [f"wrapper left installed: {w}" for w in tracer.leftover_wrappers()]
    errors += [f"{op}: traced output differs from untraced"
               for (op, _, a, _), (_, _, b, _) in zip(plain, traced) if a != b]
    attempted, failed = len(plain) + len(traced), 0
    for results in (plain, traced):
        n_failed, n_errors = check_pass(wl, results)
        failed += n_failed
        errors += n_errors
    untraced_s, traced_s = (sum(dt or 0.0 for _, dt, _, _ in r) for r in (plain, traced))
    solved = [out for _, _, out, _ in traced if out is not None and wl.unit == "instances"]
    improved = sum(m_opt < m_heur for m_heur, m_opt, _, _ in solved) / max(len(solved), 1)
    metrics = layer_metrics(tracer.spans, host.median_scale(), traced_s, untraced_s, improved)
    info = {"passes": 2, "operations_per_pass": len(traced),
            "exact_counts": {name: metrics[name]["value"] for name in EXACT_COUNTS}}
    return attempted, failed, errors, metrics, {}, info


def context(seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    lines = sum(1 for path in sorted(SRC.rglob("*.py"))
                for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "src_nonblank_lines": lines,
    }


def load_reference():
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))["fig3-rank"]
    return doc["seeds"] if doc["trials_per_cell"] == workloads.FIG3_TRIALS else {}


def run_all(args):
    status = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "gencast" / "__init__.py").is_file():
        print(f"error: no gencast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out_dir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    reference = load_reference() if args.workload == "fig3-rank" else None
    wl = workloads.make(args.workload, out_dir, reference)
    host = HostSpeed()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            scale = host.sample()
            t0 = time.perf_counter()
            wl.setup(import_gencast(), args.seed)
            setup_times.append(scale * (time.perf_counter() - t0))
        if args.trace:
            attempted, failed, errors, metrics, named, info = trace(wl, host)
        else:
            attempted, failed, errors, metrics, named, info = measure(wl, host, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if not args.trace:
        setup = metric(statistics.median(setup_times), "s")
        rss = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics = {"setup_s": setup, **metrics, "peak_rss_mb": rss}
        named = {"setup_s": setup, **named, "peak_rss_mb": rss}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "context": context(args.seed),
        "host": {"median_scale": host.median_scale(),
                 "loop_ms_median": 1e3 * statistics.median(host.samples),
                 "loop_samples": len(host.samples)},
        "metrics": named,
        "run": info,
        "fig3_reference_checked": bool(reference) and str(args.seed) in reference,
        "errors": errors[:20],
    }
    correct = not errors
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
