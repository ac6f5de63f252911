"""Record the fig3-rank reference cells (mean_U, mean_D per cell) for a seed range.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [FIRST LAST]

Runs the fig3-rank grid once per seed in FIRST..LAST (default 0..99) and for
the default and held-out seeds, and writes perfbench/reference.json.  The
benchmark compares every fig3-rank cell against these values when its seed
is in the table.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(argv):
    first, last = (int(a) for a in argv) if argv else (0, 99)
    seeds = sorted(set(range(first, last + 1)) | {run.DEFAULT_SEED, run.HELD_OUT_SEED})
    sys.path.insert(0, str(run.SRC))
    gc = run.import_gencast()
    table = {}
    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        wl = workloads.make("fig3-rank", Path(tmp), None)
        for seed in seeds:
            wl.setup(gc, seed)
            table[str(seed)] = [list(wl.run(op)[1][:2]) for op in wl.ops()]
            print(f"seed {seed} done", file=sys.stderr)
    doc = {"fig3-rank": {"trials_per_cell": workloads.FIG3_TRIALS,
                         "cells": [[c.gammas[0], c.schedulers[0]] for c in wl.cells],
                         "seeds": table}}
    text = json.dumps(doc, separators=(",", ":"))
    run.REFERENCE.write_text(text.replace('],"', '],\n"') + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
