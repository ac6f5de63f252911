"""Named experiments, parameter sweeps, and CSV emission.

An experiment spec (JSON document or built-in name) expands into a grid of
simulation cells over (scheduler, gamma, N).  Each cell is one Monte-Carlo
run; outputs are a per-trial CSV and an aggregate CSV with documented,
stable schemas.  run_oracle_gap, behind ``gencast oracle-gap``, compares the
greedy partitioner against the exact solver on seeded random instances.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

from .partition import PartitionerConfig, heuristic_partition, optimal_partition
from .sim import ChannelModel, SimConfig, check_seed, run_experiment, systematic_phase, trial_rng

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "EXPERIMENT_NAMES",
    "load_spec",
    "named_spec",
    "run_simulation_sweep",
    "run_oracle_gap",
    "write_csv",
    "TRIAL_COLUMNS",
    "AGGREGATE_COLUMNS",
    "ORACLE_GAP_COLUMNS",
]

EXPERIMENT_NAMES = ("fig3_U", "fig3_D", "tradeoff")

TRIAL_COLUMNS = ["trial", "scheduler", "gamma", "N", "M", "U", "D",
                 "total_rank", "apdd_bound", "empty_demand"]
AGGREGATE_COLUMNS = ["scheduler", "gamma", "N", "trials", "n_demand",
                     "mean_M", "std_M", "mean_U", "std_U", "ci95_U",
                     "mean_D", "std_D", "ci95_D",
                     "mean_total_rank", "mean_apdd_bound"]
ORACLE_GAP_COLUMNS = ["instance_seed", "M_heur", "M_opt", "nodes_explored"]
# element type of each sweep list of a spec
_GRID_TYPES = {"gammas": int, "receivers": int, "schedulers": str}


class SpecError(ValueError):
    """Experiment spec failed validation; message lists the offending keys."""


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    config: SimConfig = field(default_factory=SimConfig)
    gammas: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    receivers: tuple[int, ...] = (20,)
    schedulers: tuple[str, ...] = ("feedback_rr", "blind_rr")

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise SpecError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENT_NAMES}"
            )
        for key in _GRID_TYPES:
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
    """Built-in experiment definitions with the headline parameters pinned."""
    if name in ("fig3_U", "fig3_D"):
        cfg = SimConfig(n_packets=20, n_receivers=20, erasure_prob=0.2,
                        coded_phase_erasures=True, trials=2000, abstract_decode=True)
        spec = ExperimentSpec(experiment=name, config=cfg,
                              gammas=tuple(range(1, 11)), receivers=(20,),
                              schedulers=("feedback_rr", "blind_rr"))
    elif name == "tradeoff":
        cfg = SimConfig(n_packets=20, n_receivers=20, erasure_prob=0.2,
                        coded_phase_erasures=False, trials=1000, abstract_decode=True)
        spec = ExperimentSpec(experiment=name, config=cfg,
                              gammas=tuple(range(1, 11)), receivers=(5, 20),
                              schedulers=("feedback_rr",))
    else:
        raise SpecError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    if config_overrides:
        spec = replace(spec, config=replace(spec.config, **config_overrides))
    return spec


# SimConfig fields a spec may override; every cell takes gamma, n_receivers and
# scheduler from the sweep lists, which would overwrite a config value
_CONFIG_TYPES = {key: kind for key, kind in get_type_hints(SimConfig).items()
                 if key not in ("gamma", "n_receivers", "scheduler")}
_SPEC_KEYS = {"experiment", "config", "gammas", "receivers", "schedulers"}


def load_spec(doc) -> ExperimentSpec:
    """Build a spec from a parsed JSON document, validating keys, types and
    every cell of the grid."""
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    unknown = sorted(set(doc) - _SPEC_KEYS)
    if unknown:
        raise SpecError(f"unknown spec keys: {unknown}; allowed: {sorted(_SPEC_KEYS)}")
    if "experiment" not in doc:
        raise SpecError(f"spec needs an 'experiment' key, one of {EXPERIMENT_NAMES}")
    cfg_doc = doc.get("config", {})
    if not isinstance(cfg_doc, dict):
        raise SpecError("'config' must be an object of SimConfig overrides")
    unknown = sorted(set(cfg_doc) - _CONFIG_TYPES.keys())
    if unknown:
        raise SpecError(f"config keys {unknown} are not allowed; allowed: "
                        f"{sorted(_CONFIG_TYPES)}; gamma, n_receivers and scheduler come "
                        "from the 'gammas', 'receivers' and 'schedulers' lists")
    for key, value in cfg_doc.items():
        kind = _CONFIG_TYPES[key]
        # a float field also takes an int; type() keeps JSON true/false out of int fields
        if not (type(value) is kind or kind is float and type(value) is int):
            raise SpecError(f"config '{key}' must be a JSON {kind.__name__}, got {value!r}")
    grid = {key: doc[key] for key in _GRID_TYPES if key in doc}
    for key, value in grid.items():
        kind = _GRID_TYPES[key]
        # type() rather than isinstance(): JSON true/false must not pass as ints
        if not isinstance(value, list) or any(type(v) is not kind for v in value):
            raise SpecError(
                f"'{key}' must be a JSON list of {kind.__name__} values, got {value!r}")
    base = named_spec(doc["experiment"])
    try:
        return replace(base, config=replace(base.config, **cfg_doc),
                       **{key: tuple(value) for key, value in grid.items()})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid spec value: {exc}") from exc


def write_csv(path, columns, rows):
    """Write rows as CSV to the file at path (creating its directory), or to
    stdout when path is None."""
    if path is None:
        _write_rows(sys.stdout, columns, rows)
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, columns, rows)


def _write_rows(fh, columns, rows):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])


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
    write_csv(out / "per_trial.csv", TRIAL_COLUMNS, trial_rows)
    write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, agg_rows)
    return agg_rows


def headline_gaps(agg_rows):
    """Per (gamma, N): relative U and D reduction of feedback over blind."""
    cells = {(r["scheduler"], r["gamma"], r["N"]): r for r in agg_rows}
    gaps = []
    for (scheduler, gamma, n), row in sorted(
        cells.items(), key=lambda kv: (kv[0][2], kv[0][1], kv[0][0])
    ):
        if scheduler != "feedback_rr":
            continue
        blind = cells.get(("blind_rr", gamma, n))
        if blind is None or blind["mean_U"] == 0 or blind["mean_D"] == 0:
            continue
        gaps.append({
            "gamma": gamma,
            "N": n,
            "du_pct": 100.0 * (blind["mean_U"] - row["mean_U"]) / blind["mean_U"],
            "dd_pct": 100.0 * (blind["mean_D"] - row["mean_D"]) / blind["mean_D"],
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
        heur = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
        opt = optimal_partition(sfm, gamma)
        rows.append({
            "instance_seed": f"{seed}:{i}",
            "M_heur": heur.n_generations,
            "M_opt": opt.min_generations,
            "nodes_explored": opt.nodes_explored,
        })
    return rows
