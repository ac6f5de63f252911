"""Named experiments, parameter sweeps, and CSV emission.

A spec document names one of EXPERIMENTS, themselves spec documents, and
overrides its keys; load_spec expands it into a grid of (scheduler, gamma, N)
cells, each one Monte-Carlo run; outputs are a per-trial and an aggregate
CSV.  run_oracle_gap, behind ``gencast oracle-gap``, compares the greedy
partitioner against the exact solver on seeded random instances, reading both
counts off one OracleResult, which carries the greedy incumbent the search
started from.  write_csv takes each CSV's header from its first row, so the
row producers own the column order: sim.run_trial for per_trial.csv,
run_simulation_sweep's (scheduler, gamma, N) prefix then sim.aggregate_rows
for aggregate.csv, and run_oracle_gap for the oracle-gap CSV.
"""

from __future__ import annotations

import csv
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from .partition import optimal_partition
from .sim import (ChannelModel, SimConfig, check_seed, run_experiment, systematic_phase,
                  trial_rng)

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "EXPERIMENTS",
    "EXPERIMENT_NAMES",
    "load_spec",
    "named_spec",
    "run_simulation_sweep",
    "run_oracle_gap",
    "write_csv",
]

# each named experiment, as the spec document a user would write; a document
# naming it overrides its keys, and its config key by key
EXPERIMENTS = {
    "fig3_U": {"config": {"n_packets": 20, "erasure_prob": 0.2, "coded_phase_erasures": True,
                          "trials": 2000, "abstract_decode": True},
               "gammas": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "receivers": [20],
               "schedulers": ["feedback_rr", "blind_rr"]},
    "tradeoff": {"config": {"n_packets": 20, "erasure_prob": 0.2, "coded_phase_erasures": False,
                            "trials": 1000, "abstract_decode": True},
                 "gammas": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "receivers": [5, 20],
                 "schedulers": ["feedback_rr"]},
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)

# each sweep list of a spec: the SimConfig field its values set, and their type
_GRID = {"gammas": ("gamma", int), "receivers": ("n_receivers", int),
         "schedulers": ("scheduler", str)}


class SpecError(ValueError):
    """Experiment spec failed validation; message lists the offending keys."""


@dataclass(frozen=True)
class ExperimentSpec:
    config: SimConfig
    gammas: tuple[int, ...]
    receivers: tuple[int, ...]
    schedulers: tuple[str, ...]

    def __post_init__(self):
        for key in _GRID:
            if not getattr(self, key):
                raise SpecError(f"'{key}' sweep list must be nonempty")
        self.cells()  # SimConfig rejects a bad cell before any cell runs

    def cells(self):
        """SimConfig of every (N, gamma, scheduler) cell, in run order."""
        return [replace(self.config, gamma=gamma, n_receivers=n_receivers, scheduler=scheduler)
                for n_receivers in self.receivers
                for gamma in self.gammas
                for scheduler in self.schedulers]


def named_spec(name: str, **config_overrides) -> ExperimentSpec:
    """The named experiment's spec, its config overridden as load_spec does."""
    return load_spec({"experiment": name}, **config_overrides)


# SimConfig fields a spec may override; every cell takes gamma, n_receivers and
# scheduler from the sweep lists, which would overwrite a config value
_CONFIG_KEYS = {f.name for f in fields(SimConfig)} - {name for name, _ in _GRID.values()}
_SPEC_KEYS = {"experiment", "config", "gammas", "receivers", "schedulers"}


def load_spec(doc, **config_overrides) -> ExperimentSpec:
    """Build a spec from a parsed JSON document: its named experiment's
    document, overridden by doc's keys, then by config_overrides on top of
    its config.  Checks the keys, that each sweep list is nonempty and typed,
    and every cell of the grid; each config value passes SimConfig's input
    rule, whose error names the field."""
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    unknown = sorted(set(doc) - _SPEC_KEYS)
    if unknown:
        raise SpecError(f"unknown spec keys: {unknown}; allowed: {sorted(_SPEC_KEYS)}")
    if "experiment" not in doc:
        raise SpecError(f"spec needs an 'experiment' key, one of {EXPERIMENT_NAMES}")
    name = doc["experiment"]
    if type(name) is not str or name not in EXPERIMENTS:
        raise SpecError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    cfg_doc = doc.get("config", {})
    if not isinstance(cfg_doc, dict):
        raise SpecError("'config' must be an object of SimConfig overrides")
    base = EXPERIMENTS[name]
    cfg_doc = {**base["config"], **cfg_doc, **config_overrides}
    unknown = sorted(set(cfg_doc) - _CONFIG_KEYS)
    if unknown:
        raise SpecError(f"config keys {unknown} are not allowed; allowed: "
                        f"{sorted(_CONFIG_KEYS)}; gamma, n_receivers and scheduler come "
                        "from the 'gammas', 'receivers' and 'schedulers' lists")
    grid = {key: doc.get(key, base[key]) for key in _GRID}
    for key, value in grid.items():
        kind = _GRID[key][1]
        # type() rather than isinstance(): JSON true/false must not pass as ints
        if not isinstance(value, list) or not value or any(type(v) is not kind for v in value):
            raise SpecError(
                f"'{key}' must be a nonempty JSON list of {kind.__name__} values, got {value!r}")
    # the base config is the grid's first cell, so no default the grid replaces is checked
    first = {_GRID[key][0]: value[0] for key, value in grid.items()}
    try:
        return ExperimentSpec(config=SimConfig(**cfg_doc, **first),
                              **{key: tuple(value) for key, value in grid.items()})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid spec value: {exc}") from exc


def write_csv(path, rows):
    """Write a nonempty list of row dicts as CSV, headed by the first row's
    keys, to the file at path (creating its directory), or to stdout when
    path is None."""
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    with nullcontext(sys.stdout) if path is None else open(
            path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_fmt(value) for value in row.values()] for row in rows)


def _fmt(value):
    if isinstance(value, (Fraction, float)):
        return repr(float(value))
    return value


def run_simulation_sweep(spec: ExperimentSpec, out_dir, workers: int = 1):
    """Run every (scheduler, gamma, N) cell; write per-trial + aggregate CSVs.

    Cells share the master seed, so the heuristic and blind cells of one
    (gamma, N) point see identical feedback matrices trial for trial.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trial_rows = []
    agg_rows = []
    for cfg in spec.cells():
        rows, agg = run_experiment(cfg, workers=workers)
        trial_rows.extend(rows)
        agg_rows.append({"scheduler": cfg.scheduler, "gamma": cfg.gamma,
                         "N": cfg.n_receivers, **agg})
    write_csv(out / "per_trial.csv", trial_rows)
    write_csv(out / "aggregate.csv", agg_rows)
    return agg_rows


def headline_gaps(agg_rows):
    """Per (gamma, N) and scheduler other than blind_rr, ordered by (N, gamma,
    scheduler): its relative U and D reduction over blind_rr at that point."""
    blind = {(r["gamma"], r["N"]): r for r in agg_rows if r["scheduler"] == "blind_rr"}
    gaps = []
    for row in sorted(agg_rows, key=lambda r: (r["N"], r["gamma"], r["scheduler"])):
        base = blind.get((row["gamma"], row["N"]))
        if row["scheduler"] != "blind_rr" and base and base["mean_U"] and base["mean_D"]:
            gaps.append({
                "scheduler": row["scheduler"],
                "gamma": row["gamma"],
                "N": row["N"],
                "du_pct": 100.0 * (base["mean_U"] - row["mean_U"]) / base["mean_U"],
                "dd_pct": 100.0 * (base["mean_D"] - row["mean_D"]) / base["mean_D"],
            })
    return gaps


def run_oracle_gap(n_packets, n_receivers, erasure_prob, gamma, count, seed):
    """Greedy-vs-exact generation counts on seeded random instances."""
    if count < 1:
        raise ValueError(f"need at least one instance, got count={count}")
    check_seed(seed)
    channel = ChannelModel(erasure_prob)
    rows = []
    for i in range(count):
        sfm = systematic_phase(n_packets, n_receivers, channel, trial_rng(seed, i))
        opt = optimal_partition(sfm, gamma)
        rows.append({
            "instance_seed": f"{seed}:{i}",
            "M_heur": opt.heuristic.n_generations,
            "M_opt": opt.min_generations,
            "nodes_explored": opt.nodes_explored,
        })
    return rows
