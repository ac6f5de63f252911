"""Named experiments, parameter sweeps, and CSV emission.

An experiment spec (JSON document or built-in name) expands into a grid of
simulation cells over (scheduler, gamma, N).  Each cell is one Monte-Carlo
run; outputs are a per-trial CSV and an aggregate CSV.  run_oracle_gap,
behind ``gencast oracle-gap``, compares the greedy partitioner against the
exact solver on seeded random instances, reading both counts off one
OracleResult, which carries the greedy incumbent the search started from.
write_csv takes each CSV's header from its first row, so the row producers
own the column order: sim.run_trial for per_trial.csv, run_simulation_sweep's
(scheduler, gamma, N) prefix then sim.aggregate_rows for aggregate.csv, and
run_oracle_gap for the oracle-gap CSV.
"""

from __future__ import annotations

import csv
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .partition import optimal_partition
from .sim import (SCHEDULERS, ChannelModel, SimConfig, check_seed, run_experiment,
                  systematic_phase, trial_rng)

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "EXPERIMENT_NAMES",
    "load_spec",
    "named_spec",
    "run_simulation_sweep",
    "run_oracle_gap",
    "write_csv",
]

EXPERIMENT_NAMES = ("fig3_U", "tradeoff")

# element type of each sweep list of a spec
_GRID_TYPES = {"gammas": int, "receivers": int, "schedulers": str}


class SpecError(ValueError):
    """Experiment spec failed validation; message lists the offending keys."""


@dataclass(frozen=True)
class ExperimentSpec:
    config: SimConfig = field(default_factory=SimConfig)
    gammas: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    receivers: tuple[int, ...] = (20,)
    schedulers: tuple[str, ...] = SCHEDULERS

    def __post_init__(self):
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
    if name == "fig3_U":
        cfg = SimConfig(n_packets=20, n_receivers=20, erasure_prob=0.2,
                        coded_phase_erasures=True, trials=2000, abstract_decode=True)
        spec = ExperimentSpec(config=cfg)  # gammas 1..10, N=20, both schedulers
    elif name == "tradeoff":
        cfg = SimConfig(n_packets=20, n_receivers=20, erasure_prob=0.2,
                        coded_phase_erasures=False, trials=1000, abstract_decode=True)
        spec = ExperimentSpec(config=cfg, receivers=(5, 20), schedulers=("feedback_rr",))
    else:
        raise SpecError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    if config_overrides:
        spec = replace(spec, config=replace(spec.config, **config_overrides))
    return spec


# SimConfig fields a spec may override; every cell takes gamma, n_receivers and
# scheduler from the sweep lists, which would overwrite a config value
_CONFIG_KEYS = {f.name for f in fields(SimConfig)} - {"gamma", "n_receivers", "scheduler"}
_SPEC_KEYS = {"experiment", "config", "gammas", "receivers", "schedulers"}


def load_spec(doc) -> ExperimentSpec:
    """Build a spec from a parsed JSON document, validating its keys, the
    sweep lists' element types and every cell of the grid; each config value
    passes SimConfig's input rule, whose error names the field."""
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
    unknown = sorted(set(cfg_doc) - _CONFIG_KEYS)
    if unknown:
        raise SpecError(f"config keys {unknown} are not allowed; allowed: "
                        f"{sorted(_CONFIG_KEYS)}; gamma, n_receivers and scheduler come "
                        "from the 'gammas', 'receivers' and 'schedulers' lists")
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
        opt = optimal_partition(sfm, gamma)
        rows.append({
            "instance_seed": f"{seed}:{i}",
            "M_heur": opt.heuristic.n_generations,
            "M_opt": opt.min_generations,
            "nodes_explored": opt.nodes_explored,
        })
    return rows
