import argparse
import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from gencast import partition
from gencast.cli import build_parser, main
from gencast.experiments import (EXPERIMENT_NAMES, named_spec, run_oracle_gap,
                                 run_simulation_sweep, write_csv)
from gencast.sfm import format_sfm, load_sfm
from gencast.sim import (DEFAULT_SEED, SCHEDULERS, ChannelModel, SimConfig, systematic_phase,
                         trial_rng)

ROOT = Path(__file__).resolve().parents[1]

CONFLICT_SFM_TEXT = (
    "4 6\n"
    "1 1 0 0 0 0\n"
    "0 1 1 0 0 0\n"
    "1 0 1 0 1 0\n"
    "0 0 0 1 1 1\n"
)


@pytest.fixture
def sfm_file(tmp_path):
    path = tmp_path / "sfm.txt"
    path.write_text(CONFLICT_SFM_TEXT)
    return path


@pytest.fixture
def zero_sfm_file(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("2 4\n0 0 0 0\n0 0 0 0\n")
    return path


# a JSON value of a kind SimConfig refuses, for every field a spec's config may set
_COUNTS = ("n_packets", "field_order", "trials", "payload_len")
_FLAGS = ("coded_phase_erasures", "abstract_decode")
BAD_CONFIG_KINDS = [
    pytest.param({name: value}, name, id=f"{name}-{label}")
    for names, kinds in [
        (_COUNTS + ("seed", "erasure_prob"), [(True, "true"), (False, "false")]),
        (_FLAGS, [(0, "0"), (1, "1")]),
        (_COUNTS + ("seed",), [(2.5, "2.5"), (16.0, "16.0")]),
        (_COUNTS + _FLAGS + ("seed", "erasure_prob"), [("2", "str"), (None, "null")]),
        # the round rule is the scheduler list; the old flag is an unknown key
        (("strict_paper_rounds",), [(True, "true"), (0, "0"), (1, "1"), ("2", "str"),
                                    (None, "null")]),
    ]
    for name in names
    for value, label in kinds
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionCommand:
    def test_all_zero_heuristic(self, capsys, zero_sfm_file):
        code, out, err = run_cli(capsys, "partition", "--sfm", str(zero_sfm_file),
                                 "--gamma", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["generations"]) == 1
        assert "M=1" in err

    def test_oracle_on_conflict_fixture(self, capsys, sfm_file):
        code, out, err = run_cli(capsys, "partition", "--sfm", str(sfm_file),
                                 "--gamma", "1", "--algorithm", "oracle")
        assert code == 0
        assert len(json.loads(out)["generations"]) == 3
        assert "M=3" in err

    def test_deterministic_output_bytes(self, capsys, sfm_file):
        runs = [run_cli(capsys, "partition", "--sfm", str(sfm_file), "--gamma", "2")
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_oracle_past_the_search_cap_when_the_greedy_meets_the_bound(self, capsys,
                                                                         tmp_path):
        # a seeded K = N = 20 SFM at P_e = 0.2 whose greedy meets the demand bound
        # at gamma 3: the oracle answers with the greedy's partition, no search run
        path = tmp_path / "k20.txt"
        path.write_text(format_sfm(systematic_phase(20, 20, ChannelModel(0.2),
                                                    trial_rng(DEFAULT_SEED, 0))))
        heuristic, oracle = (run_cli(capsys, "partition", "--sfm", str(path), "--gamma", "3",
                                     "--algorithm", algorithm)
                             for algorithm in ("heuristic", "oracle"))
        assert oracle == heuristic and oracle[0] == 0

    def test_blind_algorithm(self, capsys, sfm_file):
        code, out, err = run_cli(capsys, "partition", "--sfm", str(sfm_file),
                                 "--gamma", "1", "--algorithm", "blind")
        assert code == 0
        doc = json.loads(out)
        flat = [k for g in doc["generations"] for k in g]
        assert sorted(flat) == list(range(6))
        # the chunk count is the greedy's generation count on the same file
        matrix = load_sfm(sfm_file)
        m = partition.heuristic_partition(matrix, partition.PartitionerConfig(gamma_cap=1))
        chunks = partition.blind_partition(matrix.n_packets, m.n_generations).generations
        assert doc["generations"] == [list(g.packet_ids) for g in chunks]

    def test_parse_error_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3\n1 0 1\n0 2 0\n")
        code, out, err = run_cli(capsys, "partition", "--sfm", str(bad), "--gamma", "1")
        assert code == 1
        assert "line 3" in err and "column 2" in err

    @pytest.mark.parametrize("algorithm", partition.ALGORITHMS)
    def test_gamma_zero_rejected(self, capsys, sfm_file, algorithm):
        code, out, err = run_cli(capsys, "partition", "--sfm", str(sfm_file), "--gamma", "0",
                                 "--algorithm", algorithm)
        assert (code, out, err) == (1, "", "error: gamma must be an integer >= 1, got 0\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "partition", "--sfm", str(tmp_path / "nope"),
                               "--gamma", "1")
        assert code == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--gamma", "1"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_fig3_style_spec(self, capsys, tmp_path):
        spec = {
            "experiment": "fig3_U",
            "config": {"n_packets": 10, "trials": 30, "seed": 5},
            "gammas": [1, 2],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "simulate", "--spec", str(spec_path),
                               "--out", str(out_dir))
        assert code == 0
        with open(out_dir / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["scheduler"], r["gamma"]) for r in rows} == {
            ("feedback_rr", "1"), ("feedback_rr", "2"),
            ("blind_rr", "1"), ("blind_rr", "2"),
        }
        assert "best U reduction" in out

    def test_grid_alone_sets_gamma(self, capsys, tmp_path):
        # no cell runs the default gamma=2, so a one-packet block is valid
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "fig3_U", "gammas": [1],
                                         "config": {"n_packets": 1, "trials": 3}}))
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "simulate", "--spec", str(spec_path),
                               "--out", str(out_dir))
        assert (code, err) == (0, "")
        with open(out_dir / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["scheduler"], r["gamma"]) for r in rows] == [("feedback_rr", "1"),
                                                                ("blind_rr", "1")]

    def test_erasure_free_u_equals_total_rank(self, capsys, tmp_path):
        spec = {
            "experiment": "fig3_U",
            # seed picked so no trial hits a coefficient rank shortfall, the
            # one event that breaks the erasure-free identity
            "config": {"n_packets": 8, "trials": 40, "seed": 0,
                       "coded_phase_erasures": False},
            "gammas": [2],
            "schedulers": ["feedback_rr"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "results"
        code, _, _ = run_cli(capsys, "simulate", "--spec", str(spec_path),
                             "--out", str(out_dir))
        assert code == 0
        with open(out_dir / "per_trial.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(r["U"] == r["total_rank"] for r in rows)

    def test_invalid_spec_diagnostics(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "fig3_U", "config": {"trials": 0}}))
        code, _, err = run_cli(capsys, "simulate", "--spec", str(spec_path))
        assert code == 1
        assert "trials" in err

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "fig3_U", "bogus": 1}))
        code, _, err = run_cli(capsys, "simulate", "--spec", str(spec_path))
        assert code == 1
        assert "bogus" in err

    def test_same_seed_byte_identical_csvs(self, capsys, tmp_path):
        spec = {
            "experiment": "fig3_U",
            "config": {"n_packets": 8, "trials": 25, "seed": 9},
            "gammas": [1, 3],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, "simulate", "--spec", str(spec_path),
                                 "--out", str(out_dir))
            assert code == 0
            outs.append(((out_dir / "per_trial.csv").read_bytes(),
                         (out_dir / "aggregate.csv").read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("grid, needle", [
        ({"gammas": "12"}, "gammas"),
        ({"gammas": [1, True]}, "gammas"),
        ({"gammas": [1, 2.0]}, "gammas"),
        ({"receivers": 20}, "receivers"),
        ({"schedulers": ["feedback_rr", 1]}, "schedulers"),
        ({"schedulers": ["round_robin"]}, "scheduler"),
        ({"gammas": [1, 25]}, "gamma=25"),
        ({"schedulers": []}, "nonempty"),
    ], ids=["gammas-string", "gammas-bool", "gammas-float", "receivers-scalar",
            "schedulers-non-string", "schedulers-unknown", "gamma-above-k", "schedulers-empty"])
    def test_bad_grid_rejected_before_any_cell_runs(self, capsys, tmp_path, grid, needle):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "fig3_U",
                                         "config": {"trials": 2}, **grid}))
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "simulate", "--spec", str(spec_path),
                               "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and needle in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, needle", [
        pytest.param({"trials": 2.5}, "trials", id="trials-float"),
        pytest.param({"n_packets": 3.0}, "n_packets", id="n_packets-float"),
        pytest.param({"erasure_prob": "0.2"}, "erasure_prob", id="erasure_prob-string"),
        pytest.param({"abstract_decode": 0}, "abstract_decode", id="abstract_decode-int"),
        pytest.param({"gamma": 3}, "gammas", id="gamma-in-config"),
        pytest.param({"n_receivers": 5}, "receivers", id="n_receivers-in-config"),
        pytest.param({"seed": -1}, "seed", id="seed-negative"),
        *BAD_CONFIG_KINDS,
    ])
    def test_bad_config_rejected(self, capsys, tmp_path, config, needle):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "fig3_U", "config": config}))
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "simulate", "--spec", str(spec_path),
                               "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and needle in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed_args", [("--seed", "-1")], ids=["flag"])
    def test_negative_seed_rejected(self, capsys, tmp_path, seed_args):
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "simulate", "--experiment", "fig3_U", "--trials", "2",
                               "--out", str(out_dir), *seed_args)
        assert code == 1
        assert err.startswith("error: ") and "seed" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, capsys, tmp_path, workers):
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "simulate", "--experiment", "fig3_U", "--trials", "2",
                               "--workers", workers, "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and f"--workers must be >= 1, got {workers}" in err
        assert not out_dir.exists()

    def test_named_experiment_with_trial_override(self, capsys, tmp_path):
        out_dir = tmp_path / "r"
        code, out, _ = run_cli(capsys, "simulate", "--experiment", "tradeoff",
                               "--trials", "5", "--out", str(out_dir), "--seed", "3")
        assert code == 0
        assert (out_dir / "aggregate.csv").exists()

    def test_strict_paper_rounds_flag(self, capsys, tmp_path):
        # the strict round rule is the strict_rr scheduler of a spec, not a flag
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "fig3_U", "gammas": [2],
                                         "schedulers": ["strict_rr"]}))
        out_dir = tmp_path / "strict"
        code, _, _ = run_cli(capsys, "simulate", "--spec", str(spec_path),
                             "--trials", "4", "--out", str(out_dir), "--seed", "3")
        assert code == 0
        with open(out_dir / "per_trial.csv") as fh:
            assert {r["scheduler"] for r in csv.DictReader(fh)} == {"strict_rr"}
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--experiment", "fig3_U", "--strict-paper-rounds"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("schedulers", [["strict_rr", "blind_rr"],
                                            ["feedback_rr", "strict_rr", "blind_rr"]])
    def test_summary_compares_each_scheduler_with_blind(self, capsys, tmp_path, schedulers):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "fig3_U", "gammas": [1, 5],
                                         "config": {"trials": 20, "seed": 4},
                                         "schedulers": schedulers}))
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "simulate", "--spec", str(spec_path),
                               "--out", str(out_dir))
        assert code == 0
        with open(out_dir / "aggregate.csv") as fh:
            cells = {(r["scheduler"], int(r["gamma"])): r for r in csv.DictReader(fh)}
        lines = out.splitlines()
        expected = []
        for scheduler in schedulers[:-1]:
            for metric in ("U", "D"):
                mean = {(s, gamma): float(cells[s, gamma][f"mean_{metric}"])
                        for s in (scheduler, "blind_rr") for gamma in (1, 5)}
                gaps = {gamma: 100 * (mean["blind_rr", gamma] - mean[scheduler, gamma])
                        / mean["blind_rr", gamma] for gamma in (1, 5)}
                gamma = max(gaps, key=gaps.get)
                expected.append(f"best {metric} reduction ({scheduler} over blind_rr): "
                                f"{gaps[gamma]:.1f}% at gamma={gamma} N=20")
        assert lines[:-1] == expected

    def test_summary_without_blind_groups_by_scheduler(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "tradeoff", "gammas": [1, 5],
                                         "receivers": [6], "config": {"trials": 10},
                                         "schedulers": ["feedback_rr", "strict_rr"]}))
        code, out, _ = run_cli(capsys, "simulate", "--spec", str(spec_path),
                               "--out", str(tmp_path / "results"))
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()[:-1]] == [
            "N=6 feedback_rr", "N=6 strict_rr"]


class TestOracleGapCommand:
    def test_csv_on_stdout_and_gap_sign(self, capsys):
        code, out, err = run_cli(capsys, "oracle-gap", "--packets", "6",
                                 "--receivers", "4", "--count", "20", "--seed", "1")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 20
        assert all(int(r["M_heur"]) >= int(r["M_opt"]) for r in rows)
        assert "mean_gap" in err
        # recorded before write_csv took its header from the rows; re-recorded when
        # the exact search began placing the most demanded packets first, which
        # moved only instance 7:11's nodes_explored (11 -> 17)
        code, out, _ = run_cli(capsys, "oracle-gap", "--packets", "6", "--count", "20",
                               "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "80a0a6157e2b3b5135888745f9c2a7e316b21a125b022fa4a8cc56f188db0124"

    def test_oversize_refused(self, capsys):
        # at the paper's point and gamma 3, instance 1's greedy misses its demand
        # bound, so it needs a search past the cap; the refusal names that instance
        code, out, err = run_cli(capsys, "oracle-gap", "--packets", "20", "--receivers", "20",
                                 "--erasure-prob", "0.2", "--gamma", "3", "--count", "300")
        assert (code, out) == (1, "")
        assert err == (f"error: instance {DEFAULT_SEED}:1: K=20 needs an exact search (the "
                       "greedy's 4 generations miss the demand bound of 3), which is capped "
                       "at 12 packets\n")

    def test_paper_point_answered_without_a_search(self, capsys):
        # at gamma 5 every one of the 300 greedies meets its demand bound
        code, out, err = run_cli(capsys, "oracle-gap", "--packets", "20", "--receivers", "20",
                                 "--erasure-prob", "0.2", "--gamma", "5", "--count", "300")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 300
        assert all(r["M_heur"] == r["M_opt"] and r["nodes_explored"] == "0" for r in rows)
        assert "mean_gap=0.0000" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_count_refused(self, capsys, count):
        code, out, err = run_cli(capsys, "oracle-gap", "--packets", "5", "--count", count)
        assert code == 1
        assert err.startswith("error: ") and "count" in err
        assert out == ""

    @pytest.mark.parametrize("seed_args", [("--seed", "-1")], ids=["flag"])
    def test_negative_seed_rejected(self, capsys, seed_args):
        code, out, err = run_cli(capsys, "oracle-gap", "--packets", "6", "--count", "5",
                                 *seed_args)  # CSV on stdout
        assert code == 1
        assert err.startswith("error: ") and "seed must be a non-negative integer, got -1" in err
        assert out == ""


SEED_COMMANDS = {
    "simulate": ["simulate", "--experiment", "fig3_U", "--trials", "2"],
    "oracle-gap": ["oracle-gap", "--packets", "5", "--receivers", "3", "--count", "5"],
}


def seeded_run(capsys, tmp_path, *argv):
    """Exit code, the output CSV (per_trial.csv or stdout) and stderr."""
    if argv[0] == "oracle-gap":
        return run_cli(capsys, *argv)
    out_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    code, _, err = run_cli(capsys, *argv, "--out", str(out_dir))
    csv_path = out_dir / "per_trial.csv"
    return code, csv_path.read_text() if csv_path.exists() else None, err


@pytest.mark.parametrize("command", list(SEED_COMMANDS.values()), ids=list(SEED_COMMANDS))
class TestSeedResolution:
    """--seed, else (simulate) the spec's config.seed, else sim.DEFAULT_SEED."""

    def test_default_seed_is_20200731(self, capsys, tmp_path, command):
        default = seeded_run(capsys, tmp_path, *command)
        assert default[0] == 0
        assert default == seeded_run(capsys, tmp_path, *command, "--seed", "20200731")
        assert default != seeded_run(capsys, tmp_path, *command, "--seed", "0")


def test_spec_seed_between_flag_and_env(capsys, tmp_path):
    """The spec's config.seed is used as is, and --seed overrides it."""
    def spec_file(config):
        path = tmp_path / f"spec{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({"experiment": "fig3_U", "gammas": [2],
                                    "config": {"trials": 3, **config}}))
        return ["--spec", str(path)]

    seeded = ["simulate", *spec_file({"seed": 5})]
    unseeded = ["simulate", *spec_file({})]
    from_spec = seeded_run(capsys, tmp_path, *seeded)
    from_flag = seeded_run(capsys, tmp_path, *seeded, "--seed", "9")
    assert from_spec == seeded_run(capsys, tmp_path, *unseeded, "--seed", "5")
    assert from_flag == seeded_run(capsys, tmp_path, *unseeded, "--seed", "9")
    assert from_spec[0] == from_flag[0] == 0
    assert from_spec != from_flag
    assert seeded_run(capsys, tmp_path, *unseeded) == seeded_run(
        capsys, tmp_path, *unseeded, "--seed", str(DEFAULT_SEED))


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_cli_and_library_write_the_same_csvs(capsys, tmp_path, name):
    """Without --seed, simulate runs the library's spec as is."""
    assert SimConfig().seed == named_spec(name).config.seed == DEFAULT_SEED == 20200731
    cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
    code, _, _ = run_cli(capsys, "simulate", "--experiment", name, "--trials", "3",
                         "--out", str(cli_dir))
    assert code == 0
    run_simulation_sweep(named_spec(name, trials=3), lib_dir)
    for csv_name in ("per_trial.csv", "aggregate.csv"):
        assert (cli_dir / csv_name).read_bytes() == (lib_dir / csv_name).read_bytes()


def test_oracle_gap_cli_and_library_agree(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "oracle-gap", "--packets", "6", "--count", "20",
                         "--out", str(tmp_path / "cli.csv"))
    assert code == 0
    write_csv(tmp_path / "lib.csv", run_oracle_gap(6, 6, 0.5, 2, 20, seed=DEFAULT_SEED))
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_dropped_fig3_d_alias_is_refused(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"experiment": "fig3_D"}))
    out_dir = tmp_path / "results"
    code, out, err = run_cli(capsys, "simulate", "--spec", str(spec_path), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == f"error: unknown experiment 'fig3_D'; choose from {EXPERIMENT_NAMES}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("name", [3, None, ["fig3_U"], {"fig3_U": 1}],
                         ids=["int", "null", "list", "object"])
def test_non_string_experiment_is_refused(capsys, tmp_path, name):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"experiment": name}))
    code, out, err = run_cli(capsys, "simulate", "--spec", str(spec_path),
                             "--out", str(tmp_path / "results"))
    assert (code, out) == (1, "")
    assert err == f"error: unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}\n"


class TestColorCommand:
    @pytest.mark.parametrize("mode, text", [("solve", "3 1\n0 1 2\n"), ("solve", "4 0\n"),
                                            ("validate", "3 1\n0 1 2\n")],
                             ids=["solve", "solve-edgeless", "validate"])
    def test_gamma_zero_rejected(self, capsys, tmp_path, mode, text):
        h = tmp_path / "h.txt"
        h.write_text(text)
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 1 2\n")
        code, out, err = run_cli(capsys, "color", "--hypergraph", str(h), "--gamma", "0",
                                 "--mode", mode, "--coloring", str(coloring))
        assert (code, out, err) == (1, "", "error: gamma must be an integer >= 1, got 0\n")

    @pytest.mark.parametrize("text, line", [("3\n0 1\n", 1), ("3 x\n0 1\n", 1),
                                            ("3 2\n0 1\n", 3), ("3 1\n0 1.5\n", 2)],
                             ids=["short-header", "non-integer-header", "short-body",
                                  "float-vertex"])
    def test_bad_hypergraph_file_names_its_line(self, capsys, tmp_path, text, line):
        h = tmp_path / "h.txt"
        h.write_text(text)
        code, out, err = run_cli(capsys, "color", "--hypergraph", str(h), "--gamma", "1",
                                 "--mode", "solve")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("3 2\n0 1\n1 5\n", "line 3: vertex ids out of range: [5]"),
        ("3 2\n0 1\n1 -1\n", "line 3: negative vertex id in hyperedge: -1 (1 of 2 ids)"),
    ], ids=["out-of-range", "negative"])
    def test_bad_vertex_id_names_its_line(self, capsys, tmp_path, text, message):
        h = tmp_path / "h.txt"
        h.write_text(text)
        code, out, err = run_cli(capsys, "color", "--hypergraph", str(h), "--gamma", "1",
                                 "--mode", "solve")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_edgeless_solve_past_the_search_cap(self, capsys, tmp_path):
        # one color at any size: the greedy meets the demand bound of 1, so no
        # search runs and the search's 12-packet cap does not apply
        path = tmp_path / "h.txt"
        path.write_text("13 0\n")
        code, out, err = run_cli(capsys, "color", "--hypergraph", str(path),
                                 "--gamma", "1", "--mode", "solve")
        assert (code, err) == (0, "")
        assert out == json.dumps({"chromatic_number": 1, "coloring": [0] * 13}) + "\n"

    def test_validate_wrong_length_coloring(self, capsys, tmp_path):
        h = tmp_path / "h.txt"
        h.write_text("3 1\n0 1 2\n")
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 1\n")
        code, out, err = run_cli(capsys, "color", "--hypergraph", str(h), "--gamma", "1",
                                 "--mode", "validate", "--coloring", str(coloring))
        assert (code, out, err) == (1, "", "error: coloring covers 2 vertices, hypergraph has 3\n")

    def test_edgeless_solve(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("4 0\n")
        code, out, _ = run_cli(capsys, "color", "--hypergraph", str(path),
                               "--gamma", "1", "--mode", "solve")
        assert code == 0
        assert json.loads(out)["chromatic_number"] == 1

    def test_conflict_fixture_needs_three_colors(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("6 4\n0 1\n1 2\n0 2 4\n3 4 5\n")
        code, out, _ = run_cli(capsys, "color", "--hypergraph", str(path),
                               "--gamma", "1", "--mode", "solve")
        assert code == 0
        assert json.loads(out)["chromatic_number"] == 3

    def test_oversize_solve_refused(self, capsys, tmp_path):
        # a triangle among 13 vertices: the greedy's 3 colors miss the bound of 2,
        # so proving 3 needs a search past the cap
        path = tmp_path / "big.txt"
        path.write_text("13 3\n0 1\n1 2\n0 2\n")
        code, out, err = run_cli(capsys, "color", "--hypergraph", str(path),
                                 "--gamma", "1", "--mode", "solve")
        assert (code, out) == (1, "")
        assert err == ("error: K=13 needs an exact search (the greedy's 3 generations miss "
                       "the demand bound of 2), which is capped at 12 packets\n")

    def test_validate_good_and_bad(self, capsys, tmp_path):
        h = tmp_path / "h.txt"
        h.write_text("3 1\n0 1 2\n")
        good = tmp_path / "good.txt"
        good.write_text("0 1 2\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0 1\n")
        code, out, _ = run_cli(capsys, "color", "--hypergraph", str(h),
                               "--gamma", "1", "--mode", "validate", "--coloring", str(good))
        assert code == 0
        assert "valid" in out
        code, out, _ = run_cli(capsys, "color", "--hypergraph", str(h),
                               "--gamma", "1", "--mode", "validate", "--coloring", str(bad))
        assert code == 1
        assert "violation" in out


def test_readme_names_every_long_option():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values() for action in sub._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = sorted(opt for opt in options if not re.search(re.escape(opt) + r"(?![\w-])", readme))
    assert options and not missing, f"README.md omits {missing}"


def readme_flag_choices(readme):
    """(subcommand, option, the README's choices, the parser's choices) for
    every `--option {a,b,...}` in the README's per-subcommand flag list."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = readme.split("Flags, per subcommand:", 1)[1].split("\n\n", 2)[1]
    rows = []
    for command, text in re.findall(r"^\* `([\w-]+)`:(.*?)(?=^\* |\Z)", flags, re.M | re.S):
        actions = {opt: a for a in subparsers.choices[command]._actions for opt in a.option_strings}
        for option, listed in re.findall(r"`(--[\w-]+) \{([^}]*)\}`", text):
            parsed = getattr(actions.get(option), "choices", None)
            rows.append((command, option, listed.split(","), list(parsed or ())))
    return rows


def test_readme_flag_choices_match_the_parser():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = readme_flag_choices(readme)
    assert rows and all(listed == parsed for _, _, listed, parsed in rows), rows
    stale = readme.replace("{fig3_U,tradeoff}", "{fig3_U,fig3_D,tradeoff}")
    assert [row[:2] for row in readme_flag_choices(stale) if row[2] != row[3]] == [
        ("simulate", "--experiment")]


def test_readme_simulation_semantics_names_every_scheduler():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    semantics = readme.split("## Simulation semantics", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in SCHEDULERS if f"`{name}`" not in semantics]
    assert not missing, f"README.md Simulation semantics omits {missing}"


def test_readme_tables_every_module():
    modules = sorted(p.stem for p in (ROOT / "src" / "gencast").glob("*.py")
                     if p.stem != "__init__")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [m for m in modules if not re.search(rf"^\| `gencast\.{m}` \|", readme, re.M)]
    assert modules and not missing, f"README.md module table omits {missing}"
