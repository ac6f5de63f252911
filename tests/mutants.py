"""A committed mutant suite: small, deliberate faults in src/ and the tests
that must catch each one.

    python tests/mutants.py

Each mutant names a file under the repository root, an exact old text that
occurs once in it, the new text that replaces it, and the pytest ids that
must kill it.  The runner copies src/ to a temporary directory, runs the
mutants' tests once on the unmutated copy (they must pass), then applies one
mutant at a time and runs its tests with `pytest -x` against the copy.  A
mutant is killed when a test fails, or runs so long (HANG_S) that it is
taken to hang.  None is meant to hang: DecoderState.absorb stops an
elimination after one step a column, so even a decoder row left
unnormalised fails its test with a RuntimeError.
The exit code is 1 if any mutant survives and 2 if the unmutated copy fails
its tests.  Hypothesis runs with a fixed seed, so a run is repeatable, and
with the `mutants` profile of tests/conftest.py, which does not shrink a
failing example: the verdict needs one.

Tier-1 checks only that each old text occurs exactly once in today's source
(tests/test_mutants.py); a refactor that moves the text updates the mutant
in the same change.  Only the standard library is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HANG_S = 60  # a run that ends is over in 4 s on a 2-core Xeon: one this long is taken to hang


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids relative to the repository root


PARTITION = "src/gencast/partition.py"
SFM = "src/gencast/sfm.py"
SIM = "src/gencast/sim.py"
RLNC = "src/gencast/rlnc.py"
GALOIS = "src/gencast/galois.py"
HYPERGRAPH = "src/gencast/hypergraph.py"
GREEDY_REFERENCE = "tests/test_partition.py::TestHeuristic::test_matches_count_matrix_reference"
RELABELLING = "tests/test_partition.py::TestOracle::test_relabelling_packets_keeps_the_optimum"
SEARCH_PINS = "tests/test_partition.py::test_search_tree_pinned_at_paper_point"
MUL_VEC_REFUSALS = "tests/test_galois.py::test_mul_vec_refuses_what_is_outside_the_field"
COLORING_REFERENCE = ("tests/test_hypergraph.py::"
                      "test_is_valid_coloring_matches_set_intersection_reference")

MUTANTS = {
    # the packets nobody wants join the first generation after its wanted packets
    "greedy-unwanted-after-wanted": Mutant(
        PARTITION,
        "        groups.append(members)\n",
        "        cut = len(order) - wanted if not groups else 0\n"
        "        groups.append(members[cut:] + members[:cut])\n",
        (GREEDY_REFERENCE,)),
    # the packets nobody wants join the last generation
    "greedy-unwanted-in-last-generation": Mutant(
        PARTITION,
        "        if not remaining:\n            return groups\n",
        "        if not remaining:\n"
        "            del groups[0][:len(order) - wanted]\n"
        "            groups[-1] += order[wanted:]\n"
        "            return groups\n",
        (GREEDY_REFERENCE,)),
    # after an insertion the scan skips the next candidate at that rank
    "greedy-resumes-one-past-insertion": Mutant(
        PARTITION,
        "            for chosen in remaining:\n"
        "                mask = bits[chosen]\n"
        "                if mask & full:\n"
        "                    rejected.append(chosen)\n"
        "                    continue\n"
        "                members.append(chosen)\n",
        "            skip = False\n"
        "            for chosen in remaining:\n"
        "                mask = bits[chosen]\n"
        "                if mask & full or skip:\n"
        "                    rejected.append(chosen)\n"
        "                    skip = False\n"
        "                    continue\n"
        "                skip = True\n"
        "                members.append(chosen)\n",
        (GREEDY_REFERENCE,)),
    # every generation's slice of the flat id list starts one id late
    "partition-boundaries-off-by-one": Mutant(
        SFM,
        "bounds.append(slice(start, len(ids)))",
        "bounds.append(slice(start + 1, len(ids) + 1))",
        ("tests/test_sfm.py::test_plain_groups_pass_one_check",)),
    # a duplicated id that fills a gap passes the cover test
    "cover-without-distinct-check": Mutant(
        SFM,
        "if n and (max(ids) != n - 1 or len(set(ids)) != n):",
        "if n and max(ids) != n - 1:",
        ("tests/test_sfm.py::test_a_duplicate_that_fills_a_gap_is_no_cover",)),
    # two partitions of the same generations are equal whatever their rank caps
    "partition-equality-ignores-gamma-cap": Mutant(
        SFM,
        "return (self._generations, self._gamma_cap) == (other._generations, other._gamma_cap)",
        "return self._generations == other._generations",
        ("tests/test_records.py::test_equality_and_hash",)),
    # the uint8 want-matrix summed to uint64, whose negation wraps
    "search-weight-sum-wraps": Mutant(
        PARTITION,
        "demand = sfm.wants.sum(axis=1, dtype=np.int64)",
        "demand = sfm.wants.sum(axis=1)",
        (SEARCH_PINS,)),
    # the demand lower bound read off packet popularity (column sums), not receiver demand
    "search-bound-from-column-sums": Mutant(
        PARTITION,
        "lower_bound = max(1, -(-max(demand.tolist()) // gamma))",
        "lower_bound = max(1, -(-max(sfm.wants.sum(axis=0).tolist()) // gamma))",
        (SEARCH_PINS,)),
    # search positions mapped back as if they were packet ids
    "search-maps-positions-back": Mutant(
        PARTITION,
        "for k, j in zip(order, best_assign):",
        "for k, j in enumerate(best_assign):",
        (RELABELLING,)),
    # the witness keeps the search's generation order
    "search-skips-canonical-sort": Mutant(
        PARTITION,
        "groups = sorted(sorted(g) for g in groups)",
        "groups = [sorted(g) for g in groups]",
        (RELABELLING,)),
    # receivers are never carried up a level, so every placement fits
    "search-never-carries-up": Mutant(
        PARTITION,
        "below = level & mask",
        "below = 0",
        (SEARCH_PINS,)),
    # a decode adds its slot time once, not once per decoded packet
    "delay-adds-t-once-per-decode": Mutant(
        SIM,
        "delay_sum += t * waiting[m][r]",
        "delay_sum += t",
        ("tests/test_sim.py::TestCodedPhase::test_single_receiver_delay_is_exact",)),
    # a decode recorded one slot early
    "delay-one-slot-early": Mutant(
        SIM,
        "delay_sum += t * waiting[m][r]",
        "delay_sum += (t - 1) * waiting[m][r]",
        ("tests/test_sim.py::TestCodedPhase::test_single_receiver_delay_is_exact",)),
    # slot times start at 2
    "slot-time-off-by-one": Mutant(
        SIM,
        "for t, m in enumerate(_schedule(cfg, gen_ids, ranks, pending), 1):",
        "for t, m in enumerate(_schedule(cfg, gen_ids, ranks, pending), 2):",
        ("tests/test_sim.py::TestSchedulers::test_blind_sends_every_generation_every_round",)),
    # blind_rr stops sending generations that no receiver waits for
    "blind-skips-finished-generations": Mutant(
        SIM,
        "            yield from nonempty\n",
        "            yield from [m for m in nonempty if pending[m]]\n",
        ("tests/test_sim.py::TestSchedulers::test_blind_sends_every_generation_every_round",)),
    # feedback_rr sends each round's generations in reverse partition order
    "rounds-in-reverse": Mutant(
        SIM,
        "for m, waiting in enumerate(pending):",
        "for m, waiting in reversed(list(enumerate(pending))):",
        ("tests/test_sim.py::TestSlotSchedule::"
         "test_feedback_round_one_sends_ranks_in_partition_order",)),
    # each slot's erasure words are read before its coefficient words
    "erasures-before-coefficients": Mutant(
        SIM,
        "        end = pos + words\n"
        "        buf = self._carry + self._bytes[pos * 8:end * 8]\n"
        "        self._carry = buf[-4:] if halves % 2 else b\"\"\n"
        "        self._pos = end + n\n"
        "        coeffs = np.frombuffer(buf[:g].translate(self._top_bits), np.uint8)\n"
        "        return coeffs, self._flags[end:end + n] if n else self._clear\n",
        "        end = pos + n + words\n"
        "        buf = self._carry + self._bytes[(pos + n) * 8:end * 8]\n"
        "        self._carry = buf[-4:] if halves % 2 else b\"\"\n"
        "        self._pos = end\n"
        "        coeffs = np.frombuffer(buf[:g].translate(self._top_bits), np.uint8)\n"
        "        return coeffs, self._flags[pos:pos + n] if n else self._clear\n",
        ("tests/test_sim.py::test_slot_draws_equal_per_slot_numpy_draws",)),
    # every decoder reads its generation's want flags one column late in the packed row
    "packed-row-one-column-off": Mutant(
        SIM,
        "rows = {r: flags[r * k + start:r * k + stop] for r, c in enumerate(waiting[m]) if c}",
        "rows = {r: flags[r * k + start + 1:r * k + stop + 1] "
        "for r, c in enumerate(waiting[m]) if c}",
        ("tests/test_sim.py::test_trial_decoders_match_decoders_built_alone",)),
    # a decoder keeps the held columns in the reduced coefficient vector
    "decoder-keeps-held-columns": Mutant(
        RLNC,
        "vec = whole & self._mask",
        "vec = whole",
        ("tests/test_rlnc.py::TestAbsorb::test_known_payload_substitution",)),
    # a packet that passed one field's check passes every field's
    "field-check-remembered-without-its-field": Mutant(
        RLNC,
        "if checked is not field:",
        "if checked is None:",
        ("tests/test_rlnc.py::test_a_packet_shared_by_decoders_acts_as_a_fresh_copy_on_each",)),
    # a payload decoder takes a packet's payload symbols unchecked
    "payload-symbols-unchecked": Mutant(
        RLNC,
        "if pkt.payload_field is not field:",
        "if False:",
        ("tests/test_rlnc.py::TestAbsorb::test_payload_symbols_outside_the_field_are_refused",)),
    # a payload is cast to uint8 without comparing back, so a wider array's 256 wraps to 0
    "payload-cast-not-compared-back": Mutant(
        RLNC,
        "u8 is not x and (u8 != x).any() or ",
        "",
        ("tests/test_rlnc.py::TestAbsorb::test_a_wider_integer_payload_is_refused_not_wrapped",)),
    # a new basis row is scaled by its pivot, not by the pivot's inverse
    "row-normalised-by-pivot": Mutant(
        RLNC,
        "fi = field.inverse[f]",
        "fi = f",
        ("tests/test_rlnc.py::test_decoder_rank_innovation_and_solve",)),
    # mul_vec multiplies GF(16) bytes of 16 or more (by zero, off the padded table)
    "mul-vec-skips-symbol-check": Mutant(
        GALOIS,
        " or self.q < 256 and self.outside(data)",
        "",
        (MUL_VEC_REFUSALS,)),
    # mul_vec takes any coefficient its table indexes: -1 wraps to q - 1
    "mul-vec-skips-coefficient-check": Mutant(
        GALOIS,
        "if not 0 <= c < self.q:",
        "if False:",
        (MUL_VEC_REFUSALS,)),
    # a color class that meets an edge in exactly gamma vertices is a violation
    "coloring-cap-inclusive": Mutant(
        HYPERGRAPH,
        ".T > gamma",
        ".T >= gamma",
        (COLORING_REFERENCE,)),
    # a violation names the color class's generation index, not its color
    "coloring-reports-generation-index": Mutant(
        HYPERGRAPH,
        "tuple((colors[m], n) for m, n in",
        "tuple((m, n) for m, n in",
        (COLORING_REFERENCE,)),
    # the receivers that want nothing stay in the hypergraph as edges, so edge numbers shift
    "hypergraph-keeps-empty-rows": Mutant(
        HYPERGRAPH,
        "return _hypergraph(sfm.wants[sfm.wants.any(axis=1)])",
        "return _hypergraph(sfm.wants)",
        ("tests/test_hypergraph.py::TestConversions::test_row_supports_become_edges",)),
}


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text, which must occur once, under root."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run_tests(tests, src: Path, cwd: Path, timeout=None) -> subprocess.CompletedProcess:
    """pytest -x on tests (ids relative to ROOT), importing gencast from src;
    cwd holds whatever the run writes (the Hypothesis example database).
    subprocess.TimeoutExpired after timeout seconds, the run killed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", "-o", "addopts=", f"--rootdir={ROOT}",
           "--hypothesis-seed=0", "--hypothesis-profile=mutants",
           *(str(ROOT / t) for t in tests)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="gencast-mutants-") as tmp:
        tmp = Path(tmp)
        pristine = tmp / "pristine"
        shutil.copytree(ROOT / "src", pristine / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in MUTANTS.values() for t in m.tests})
        baseline = run_tests(tests, pristine / "src", tmp)
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:], baseline.stderr[-3000:], sep="\n")
            print("the mutants' tests fail on the unmutated source", file=sys.stderr)
            return 2
        survivors = []
        for name, mutant in MUTANTS.items():
            work = tmp / name
            shutil.copytree(pristine, work)
            apply(mutant, work)
            t0 = time.perf_counter()
            try:
                result = run_tests(mutant.tests, work / "src", work, HANG_S)
            except subprocess.TimeoutExpired:
                result = None
            if result is None:
                verdict = "killed (hung)"
            elif result.returncode == 1:
                verdict = "killed"
            elif result.returncode == 0:
                verdict = "SURVIVED"
                survivors.append(name)
            else:  # pytest could not run the tests: no kill
                verdict = f"ERROR (pytest exit {result.returncode})"
                survivors.append(name)
                print(result.stdout[-2000:], result.stderr[-2000:], sep="\n")
            print(f"{verdict:10s} {name} ({time.perf_counter() - t0:.1f} s)", flush=True)
            shutil.rmtree(work)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
