"""Command-line front end.

Subcommands:
  partition   partition an SFM file and print the partition as JSON
  simulate    run a simulation experiment spec, write CSVs
  oracle-gap  compare the greedy partitioner against the exact solver
  color       validate or solve hypergraph colorings

Exit codes: 0 success, 1 domain error (bad file contents, infeasible
request), 2 usage error.  simulate builds its spec with experiments.load_spec
from --spec FILE or {"experiment": NAME}, with --seed and --trials as config
overrides.  simulate and oracle-gap take their master seed from --seed, else
(simulate) the spec's config.seed, else sim.DEFAULT_SEED.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, hypergraph, partition, sfm
from .sim import DEFAULT_SEED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gencast",
        description="Feedback-assisted generation partitioning and RLNC broadcast simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition an SFM file")
    p.add_argument("--sfm", required=True, help="SFM text file ('N K' header + 0/1 rows)")
    p.add_argument("--gamma", type=int, required=True, help="generation rank cap")
    p.add_argument("--algorithm", choices=partition.ALGORITHMS, default="heuristic")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("simulate", help="run a simulation experiment")
    p.add_argument("--spec", help="experiment spec JSON file")
    p.add_argument("--experiment", choices=experiments.EXPERIMENT_NAMES,
                   help="named built-in experiment (alternative to --spec)")
    p.add_argument("--out", default="results", help="output directory for CSVs")
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.add_argument("--workers", type=int, default=1, help="parallel trial workers (>= 1)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"master RNG seed (default: the spec's config.seed, else {DEFAULT_SEED})")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle-gap", help="greedy vs exact generation counts")
    p.add_argument("--packets", type=int, default=8)
    p.add_argument("--receivers", type=int, default=6)
    p.add_argument("--erasure-prob", type=float, default=0.5)
    p.add_argument("--gamma", type=int, default=2)
    p.add_argument("--count", type=int, default=300, help="number of random instances")
    p.add_argument("--out", default=None, help="CSV output file (default: stdout)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="master RNG seed (default: %(default)s)")
    p.set_defaults(func=cmd_oracle_gap)

    p = sub.add_parser("color", help="hypergraph coloring tools")
    p.add_argument("--hypergraph", required=True,
                   help="hypergraph text file ('V E' header + edge vertex lists)")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--mode", choices=("validate", "solve"), required=True)
    p.add_argument("--coloring", default=None,
                   help="coloring file for validate mode: V space-separated colors")
    p.set_defaults(func=cmd_color)

    return parser


def cmd_partition(args):
    matrix = sfm.load_sfm(args.sfm)
    part = partition.by_algorithm(matrix, args.gamma, args.algorithm)
    print(sfm.partition_to_json(part))
    ranks = sfm.generation_ranks(matrix, part)
    summary = (
        f"M={part.n_generations} ranks={ranks} total_rank={sum(ranks)} "
        f"apdd_bound={sfm.delay_bound(ranks)} "
        f"irreducible={str(sfm.is_irreducible(matrix, part)).lower()}"
    )
    print(summary, file=sys.stderr)
    return 0


def cmd_simulate(args):
    if bool(args.spec) == bool(args.experiment):
        raise experiments.SpecError("give exactly one of --spec FILE or --experiment NAME")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    doc = {"experiment": args.experiment}
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise experiments.SpecError(f"spec is not valid JSON: {exc}") from exc
    overrides = {"seed": args.seed, "trials": args.trials}
    spec = experiments.load_spec(doc, **{k: v for k, v in overrides.items() if v is not None})

    agg = experiments.run_simulation_sweep(spec, args.out, workers=args.workers)
    gaps = experiments.headline_gaps(agg)
    for scheduler in dict.fromkeys(g["scheduler"] for g in gaps):
        for metric, key in (("U", "du_pct"), ("D", "dd_pct")):
            best = max((g for g in gaps if g["scheduler"] == scheduler), key=lambda g: g[key])
            print(f"best {metric} reduction ({scheduler} over blind_rr): {best[key]:.1f}% "
                  f"at gamma={best['gamma']} N={best['N']}")
    if not gaps:
        groups = {}
        for row in agg:
            groups.setdefault((row["N"], row["scheduler"]), []).append(
                (row["gamma"], row["mean_U"], row["mean_apdd_bound"]))
        for (n, scheduler), cells in sorted(groups.items()):
            cells.sort()
            print(f"N={n} {scheduler}: mean_U {cells[0][1]:.2f} -> {cells[-1][1]:.2f}, "
                  f"delay bound {cells[0][2]:.2f} -> {cells[-1][2]:.2f} "
                  f"across gamma {cells[0][0]}..{cells[-1][0]}")
    print(f"CSV written to {args.out}/per_trial.csv and {args.out}/aggregate.csv")
    return 0


def cmd_oracle_gap(args):
    rows = experiments.write_csv(args.out, experiments.run_oracle_gap(
        args.packets, args.receivers, args.erasure_prob, args.gamma, args.count, args.seed))
    gaps = [row["M_heur"] - row["M_opt"] for row in rows]
    print(f"instances={len(gaps)} mean_gap={sum(gaps) / len(gaps):.4f} max_gap={max(gaps)}",
          file=sys.stderr)
    return 0


def cmd_color(args):
    h = hypergraph.load_hypergraph(args.hypergraph)
    if args.mode == "solve":
        witness = partition.optimal_partition(h, args.gamma).witness
        print(json.dumps({"chromatic_number": witness.n_generations,
                          "coloring": list(hypergraph.partition_to_coloring(witness))}))
        return 0
    if not args.coloring:
        raise ValueError("validate mode needs --coloring FILE")
    with open(args.coloring, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        coloring = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError("coloring file must contain space-separated integers") from None
    report = hypergraph.is_valid_coloring(h, coloring, args.gamma)
    if report.valid:
        print("valid")
        return 0
    for color, edge in report.violations:
        print(f"violation: color {color} meets edge {edge} in more than "
              f"{args.gamma} vertices")
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every domain error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
