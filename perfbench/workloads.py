"""The benchmark's three workloads: inputs from a seed, one timed call, output checks.

A workload builds its inputs in ``setup`` (from the seed only), lists the
operations of one pass in ``ops``, times one operation in ``run`` and checks
its output in ``check``, which returns a list of failure messages.  Every
call into gencast goes through a module attribute looked up at call time,
so the tracer's wrappers see it.

* fig3-rank      - the fig3 grid as ``gencast simulate --experiment fig3_U``
                   runs it, one timed cell per ``run_simulation_sweep`` call.
* payload-decode - the same point carrying 1024-byte payloads at three gammas.
* oracle-k20     - greedy then exact partition of seeded K = N = 20 SFMs.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import replace

import numpy as np

K = N = 20
ERASURE_PROB = 0.2


def _trial_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class SweepWorkload:
    """One Monte-Carlo cell per operation, through run_simulation_sweep."""

    unit = "trials"

    def __init__(self, gammas, trials, out_dir, reference=None, **overrides):
        self.gammas = gammas
        self.trials = trials
        self.out_dir = out_dir
        self.reference = reference  # seed -> [[mean_U, mean_D] per cell], or None
        self.overrides = overrides
        self.payload = overrides.get("abstract_decode") is False

    def setup(self, gc, seed):
        self.gc = gc
        self.seed = seed
        spec = gc.experiments.named_spec("fig3_U", trials=self.trials, seed=seed,
                                         **self.overrides)
        self.cells = [replace(spec, gammas=(g,), schedulers=(s,))
                      for g in self.gammas for s in spec.schedulers]
        self.first = {}
        self.rank_only = {}
        warm = replace(self.cells[0], config=replace(spec.config, trials=2))
        gc.experiments.run_simulation_sweep(warm, self.out_dir / "warm")

    def ops(self):
        return list(range(len(self.cells)))

    def work(self, op):
        return self.trials

    def _sweep(self, cell, out):
        t0 = time.perf_counter()
        agg = self.gc.experiments.run_simulation_sweep(cell, out)
        dt = time.perf_counter() - t0
        return dt, (agg[0]["mean_U"], agg[0]["mean_D"],
                    (out / "per_trial.csv").read_text(encoding="utf-8"))

    def run(self, op):
        return self._sweep(self.cells[op], self.out_dir / f"cell{op}")

    def reference_cell(self, op):
        table = self.reference or {}
        cells = table.get(str(self.seed))
        return None if cells is None else tuple(cells[op])

    def check(self, op, output):
        mean_u, mean_d, text = output
        cell = self.cells[op]
        where = f"gamma={cell.gammas[0]} {cell.schedulers[0]}"
        errors = []
        rows = _trial_rows(text)
        if len(rows) != self.trials:
            errors.append(f"{where}: {len(rows)} trial rows, expected {self.trials}")
        short = [r["trial"] for r in rows if int(r["U"]) < int(r["total_rank"])]
        if short:
            errors.append(f"{where}: U < total_rank on trials {short[:5]}")
        expected = self.reference_cell(op)
        if expected is not None and (mean_u, mean_d) != expected:
            errors.append(f"{where}: mean_U/mean_D {(mean_u, mean_d)} != reference {expected}")
        if self.payload:
            if op not in self.rank_only:
                rank_cell = replace(cell, config=replace(cell.config, abstract_decode=True))
                self.rank_only[op] = self._sweep(rank_cell, self.out_dir / f"rank{op}")[1]
            if text != self.rank_only[op][2]:
                errors.append(f"{where}: per-trial rows differ from the rank-only rows")
        if self.first.setdefault(op, output) != output:
            errors.append(f"{where}: output differs from the first pass")
        return errors


class OracleWorkload:
    """Greedy partition then the exact oracle on one seeded SFM per operation."""

    unit = "instances"

    def __init__(self, instances, gammas=(2, 3)):
        self.instances = instances
        self.gammas = gammas

    def setup(self, gc, seed):
        self.gc = gc
        channel = gc.sim.ChannelModel(ERASURE_PROB)
        self.sfms = [
            gc.sim.systematic_phase(
                K, N, channel, np.random.default_rng(np.random.SeedSequence([seed, i])))
            for i in range(self.instances)
        ]
        self.first = {}
        for i in range(4):  # the largest gamma: its searches are short, so set-up stays steady
            self.run((i, max(self.gammas)))

    def ops(self):
        return [(i, g) for i in range(self.instances) for g in self.gammas]

    def work(self, op):
        return 1

    def run(self, op):
        i, gamma = op
        sfm = self.sfms[i]
        partition = self.gc.partition
        t0 = time.perf_counter()
        heur = partition.heuristic_partition(sfm, partition.PartitionerConfig(gamma_cap=gamma))
        opt = partition.optimal_partition(sfm, gamma, max_packets=K)
        dt = time.perf_counter() - t0
        groups = tuple(g.packet_ids for g in opt.witness.generations)
        return dt, (heur.n_generations, opt.min_generations, opt.nodes_explored, groups)

    def check(self, op, output):
        i, gamma = op
        m_heur, m_opt, _, groups = output
        gc = self.gc
        sfm = self.sfms[i]
        witness = gc.sfm.Partition(groups, gamma_cap=gamma)
        where = f"instance {i} gamma={gamma}"
        errors = []
        if not gc.sfm.validate_partition(sfm, witness, gamma).valid:
            errors.append(f"{where}: witness fails validate_partition")
        coloring = gc.hypergraph.partition_to_coloring(witness)
        h = gc.hypergraph.sfm_to_hypergraph(sfm)
        if not gc.hypergraph.is_valid_coloring(h, coloring, gamma).valid:
            errors.append(f"{where}: witness coloring fails is_valid_coloring")
        if len(groups) != m_opt:
            errors.append(f"{where}: witness has {len(groups)} generations, M_opt={m_opt}")
        if m_opt > m_heur:
            errors.append(f"{where}: M_opt={m_opt} > M_heur={m_heur}")
        if self.first.setdefault(op, output) != output:
            errors.append(f"{where}: output differs from the first pass")
        return errors


FIG3_TRIALS = 100
PAYLOAD_TRIALS = 20
ORACLE_INSTANCES = 1000
NAMES = ("fig3-rank", "payload-decode", "oracle-k20")


def make(name, out_dir, reference):
    if name == "fig3-rank":
        return SweepWorkload(tuple(range(1, 11)), FIG3_TRIALS, out_dir, reference=reference)
    if name == "payload-decode":
        return SweepWorkload((2, 5, 10), PAYLOAD_TRIALS, out_dir,
                             abstract_decode=False, payload_len=1024)
    if name == "oracle-k20":
        return OracleWorkload(ORACLE_INSTANCES)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
