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
EXPERIMENTS = "src/gencast/experiments.py"
CLI = "src/gencast/cli.py"
GREEDY_REFERENCE = "tests/test_partition.py::TestHeuristic::test_matches_count_matrix_reference"
RELABELLING = "tests/test_partition.py::TestOracle::test_relabelling_packets_keeps_the_optimum"
SEARCH_PINS = "tests/test_partition.py::test_search_tree_pinned_at_paper_point"
MUL_VEC_REFUSALS = "tests/test_galois.py::test_mul_vec_refuses_what_is_outside_the_field"
ENCODE_REFUSALS = ("tests/test_rlnc.py::TestEncode::"
                   "test_values_outside_the_field_are_refused_not_wrapped")
PACKET_READ = "tests/test_rlnc.py::test_a_coded_packet_is_read_when_it_is_made"
SINGLE_RECEIVER_DELAY = "tests/test_sim.py::TestCodedPhase::test_single_receiver_delay_is_exact"
TRIAL_DECODERS = "tests/test_sim.py::test_trial_decoders_match_decoders_built_alone"
COLORING_REFERENCE = ("tests/test_hypergraph.py::"
                      "test_is_valid_coloring_matches_set_intersection_reference")
PRODUCERS = "tests/test_partition.py::test_producers_build_what_the_checked_reader_reads"
ZERO_FIRST_HELD = ("tests/test_rlnc.py::TestAbsorb::"
                   "test_a_zero_first_held_coefficient_before_a_nonzero_one")
THREE_UNKNOWNS = "tests/test_rlnc.py::TestSolve::test_back_substitution_over_three_unknowns"
SIZE_CAP = ("tests/test_partition.py::TestOracle::test_size_cap",
            "tests/test_partition.py::TestOracle::test_cap_refuses_only_a_search_past_it")

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
    # the greedy's partition forgets the cap it was built for
    "greedy-built-without-its-cap": Mutant(
        PARTITION,
        "Partition._of(_greedy(sfm, cfg.gamma_cap), cfg.gamma_cap, sfm.n_packets)",
        "Partition._of(_greedy(sfm, cfg.gamma_cap), None, sfm.n_packets)",
        (PRODUCERS,)),
    # the blind chunks claim to cover one packet fewer than they do
    "blind-covers-one-packet-short": Mutant(
        PARTITION,
        "Partition._of(map(range, starts, starts[1:]), None, int(n_packets))",
        "Partition._of(map(range, starts, starts[1:]), None, int(n_packets) - 1)",
        (PRODUCERS,)),
    # a witness found by the search forgets the cap it was searched at
    "witness-built-without-its-cap": Mutant(
        PARTITION,
        "witness = Partition._of(groups, gamma, K)",
        "witness = Partition._of(groups, None, K)",
        (PRODUCERS,)),
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
    # the size cap checked before the demand bound: a greedy that meets the bound
    # past the cap is refused
    "search-cap-before-bound": Mutant(
        PARTITION,
        "    if best_m > lower_bound:\n        if K > max_packets:\n",
        "    if K > max_packets or best_m > lower_bound:\n        if K > max_packets:\n",
        SIZE_CAP),
    # no size cap: a search past it runs instead of being refused
    "search-cap-dropped": Mutant(
        PARTITION,
        "        if K > max_packets:\n",
        "        if False:\n",
        SIZE_CAP),
    # a decode adds its slot time once, not once per decoded packet
    "delay-adds-t-once-per-decode": Mutant(
        SIM,
        "delay_sum += t * state.rank",
        "delay_sum += t",
        (SINGLE_RECEIVER_DELAY,)),
    # a decode recorded one slot early
    "delay-one-slot-early": Mutant(
        SIM,
        "delay_sum += t * state.rank",
        "delay_sum += (t - 1) * state.rank",
        (SINGLE_RECEIVER_DELAY,)),
    # a decode weighted by what its receiver still needs, which is 0 when it decodes
    "delay-weight-from-needed": Mutant(
        SIM,
        "delay_sum += t * state.rank",
        "delay_sum += t * state.needed",
        (SINGLE_RECEIVER_DELAY,)),
    # D averages over the decoders, not over the wanted (receiver, packet) pairs
    "demand-counts-decoders": Mutant(
        SIM,
        "n_wanted = sum(s.needed for states in pending for s in states.values())",
        "n_wanted = sum(map(len, pending))",
        (SINGLE_RECEIVER_DELAY,)),
    # slot times start at 2
    "slot-time-off-by-one": Mutant(
        SIM,
        "t = 0  # coded slots sent",
        "t = 1  # coded slots sent",
        ("tests/test_sim.py::TestSchedulers::test_blind_sends_every_generation_every_round",)),
    # blind_rr stops sending generations that no receiver waits for
    "blind-skips-finished-generations": Mutant(
        SIM,
        "return [m for m, ids in enumerate(gen_ids) if ids]",
        "return [m for m, ids in enumerate(gen_ids) if ids and pending[m]]",
        ("tests/test_sim.py::TestSchedulers::test_blind_sends_every_generation_every_round",)),
    # feedback_rr sends each round's generations in reverse partition order
    "rounds-in-reverse": Mutant(
        SIM,
        "for m, waiting in enumerate(pending):",
        "for m, waiting in reversed(list(enumerate(pending))):",
        ("tests/test_sim.py::TestSlotSchedule::"
         "test_feedback_round_one_sends_ranks_in_partition_order",)),
    # the block's completion is checked only when a round ends, so blind_rr and
    # strict_rr send the rest of the round that completes it
    "completion-checked-at-round-end": Mutant(
        SIM,
        "            if not pending[m] and not any(pending):\n"
        "                break  # the block just completed; U is this slot\n",
        "",
        ("tests/test_sim.py::TestCodedPhase::"
         "test_blind_stops_at_the_slot_that_completes_the_block",)),
    # one round goes out before pending is read, so blind_rr sends a slot when
    # nobody wants anything (feedback_rr's and strict_rr's rounds are then empty)
    "round-sent-with-nothing-pending": Mutant(
        SIM,
        "    while any(pending):\n",
        "    rounds = 0\n"
        "    while not rounds or any(pending):\n"
        "        rounds += 1\n",
        ("tests/test_sim.py::TestCodedPhase::test_all_zero_sfm_skips_coded_phase",)),
    # the pool asks for as many workers as trials, however few CPUs the host has
    "pool-ignores-cpu-count": Mutant(
        SIM,
        "workers = min(workers, cfg.trials, os.cpu_count() or 1)",
        "workers = min(workers, cfg.trials)",
        ("tests/test_sim.py::TestRunExperiment::test_pool_no_larger_than_cell",)),
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
        RLNC,
        "row = flags[r * size + start:r * size + stop]",
        "row = flags[r * size + start + 1:r * size + stop + 1]",
        (TRIAL_DECODERS,)),
    # the want flags are sliced in packet index order, not in partition order
    "decoders-gathered-in-index-order": Mutant(
        RLNC,
        "flags = sfm.wants[:, [pid for ids in partition.generations for pid in ids]].tobytes()",
        "flags = sfm.wants.tobytes()",
        (TRIAL_DECODERS,)),
    # a partition of another K builds decoders (or fails indexing) instead of being refused
    "for-partition-skips-k-check": Mutant(
        RLNC,
        "        check_same_k(sfm, partition)\n",
        "",
        ("tests/test_rlnc.py::TestConstructor::test_partition_of_another_k_rejected",)),
    # a decoder keeps the held columns in the reduced coefficient vector
    "decoder-keeps-held-columns": Mutant(
        RLNC,
        "vec = whole & self._mask",
        "vec = whole",
        ("tests/test_rlnc.py::TestAbsorb::test_known_payload_substitution",)),
    # a packet reads its coefficients by GF(256)'s rule whatever its field, so a
    # GF(16) packet holds bytes of 16 or more, which no decoder checks again
    "field-check-remembered-without-its-field": Mutant(
        RLNC,
        "self.coefficients = field.symbols(coefficients)",
        "self.coefficients = GF256.symbols(coefficients)",
        (PACKET_READ,)),
    # absorb's residual starts from the payload alone, dropping the first held product
    "residual-without-first-held-product": Mutant(
        RLNC,
        "                        residual = payload ^ product\n",
        "                        residual = payload.copy()\n",
        (ZERO_FIRST_HELD,)),
    # the residual is started only at the first held column, so a zero coefficient
    # there leaves nothing to add a later held product into
    "residual-started-at-first-held-column": Mutant(
        RLNC,
        "                    if residual is None:  # a new array, so no product or payload",
        "                    if j == held[0][0]:  # a new array, so no product or payload",
        (ZERO_FIRST_HELD,)),
    # with no held product the residual is the packet's own read-only payload,
    # so an elimination step writes into it
    "residual-is-the-packet-payload": Mutant(
        RLNC,
        "                residual = payload.copy()\n",
        "                residual = payload\n",
        ("tests/test_rlnc.py::TestAbsorb::"
         "test_no_held_product_leaves_the_packet_payload_unwritten",)),
    # encode's payload leaves out its first product
    "encode-drops-first-product": Mutant(
        RLNC,
        "                payload = product\n",
        "                payload = np.zeros_like(product)\n",
        ("tests/test_rlnc.py::test_encode_records_the_products_it_sums",)),
    # encode adds the second product into the first, which its record still names
    "encode-sums-into-first-product": Mutant(
        RLNC,
        "                payload = payload ^ product\n",
        "                payload ^= product\n",
        ("tests/test_rlnc.py::test_encode_records_the_products_it_sums",)),
    # an all-zero coefficient vector gives a zero payload of the generation's length
    "encode-zero-payload-of-generation-length": Mutant(
        RLNC,
        "payload = np.zeros(len(sources[0]), dtype=np.uint8)",
        "payload = np.zeros(len(sources), dtype=np.uint8)",
        ("tests/test_rlnc.py::TestEncode::"
         "test_all_zero_coefficients_give_a_read_only_zero_payload",)),
    # solve walks its pivots first to last, so a row reads later solutions unsubstituted
    "solve-walks-pivots-forward": Mutant(
        RLNC,
        "for i in range(len(cols) - 1, -1, -1):",
        "for i in range(len(cols)):",
        (THREE_UNKNOWNS,)),
    # solve adds each term into the stored row's payload it starts from
    "solve-adds-into-the-stored-row": Mutant(
        RLNC,
        "                    term ^= sol[j]\n                    sol[j] = term\n",
        "                    sol[j] ^= term\n",
        (THREE_UNKNOWNS,)),
    # the decode check compares every solution with source 0
    "decode-check-against-one-source": Mutant(
        SIM,
        "got.tobytes() != sources[pid]",
        "got.tobytes() != sources[0]",
        ("tests/test_sim.py::TestSchedulers::test_modes_agree_exactly",)),
    # oracle-gap answers every instance before it writes a row, so a refusal
    # part-way loses the rows before it
    "oracle-gap-rows-built-first": Mutant(
        CLI,
        "    rows = experiments.write_csv(args.out, experiments.run_oracle_gap(\n"
        "        args.packets, args.receivers, args.erasure_prob, args.gamma, args.count, "
        "args.seed))\n",
        "    rows = experiments.write_csv(args.out, list(experiments.run_oracle_gap(\n"
        "        args.packets, args.receivers, args.erasure_prob, args.gamma, args.count, "
        "args.seed)))\n",
        ("tests/test_cli.py::TestOracleGapCommand::test_oversize_refused",)),
    # write_csv makes the file before it has a row, so a run refused at its
    # first instance leaves an empty file behind
    "csv-file-made-before-first-row": Mutant(
        EXPERIMENTS,
        "    rows = iter(rows)\n"
        "    if (first := next(rows, None)) is None:\n"
        "        raise ValueError(\"no rows to write\")\n"
        "    if path is not None:\n"
        "        Path(path).parent.mkdir(parents=True, exist_ok=True)\n"
        "    written = []\n"
        "    with nullcontext(sys.stdout) if path is None else open(\n"
        "            path, \"w\", newline=\"\", encoding=\"utf-8\") as fh:\n",
        "    if path is not None:\n"
        "        Path(path).parent.mkdir(parents=True, exist_ok=True)\n"
        "    written = []\n"
        "    with nullcontext(sys.stdout) if path is None else open(\n"
        "            path, \"w\", newline=\"\", encoding=\"utf-8\") as fh:\n"
        "        rows = iter(rows)\n"
        "        if (first := next(rows, None)) is None:\n"
        "            raise ValueError(\"no rows to write\")\n",
        ("tests/test_cli.py::TestOracleGapCommand::"
         "test_a_run_refused_before_its_first_row_makes_no_out_file",)),
    # write_csv hands back every row it wrote but the first
    "csv-returns-all-but-first-row": Mutant(
        EXPERIMENTS,
        "    return written\n",
        "    return written[1:]\n",
        ("tests/test_cli.py::test_write_csv_returns_the_rows_it_wrote",)),
    # oracle-gap checks its count and seed after its first row, so a bad count
    # yields nothing and a bad seed escapes as numpy's own error
    "oracle-gap-checks-after-first-row": Mutant(
        EXPERIMENTS,
        "    if count < 1:\n"
        "        raise ValueError(f\"need at least one instance, got count={count}\")\n"
        "    check_seed(seed)\n"
        "    channel = ChannelModel(erasure_prob)\n"
        "    for i in range(count):\n",
        "    channel = ChannelModel(erasure_prob)\n"
        "    for i in range(count):\n"
        "        if i == 1:\n"
        "            if count < 1:\n"
        "                raise ValueError(f\"need at least one instance, got count={count}\")\n"
        "            check_seed(seed)\n",
        ("tests/test_cli.py::"
         "test_run_oracle_gap_refuses_a_bad_argument_with_its_first_row",)),
    # a packet takes its payload symbols unchecked
    "payload-symbols-unchecked": Mutant(
        RLNC,
        "(read := field.symbols(payload))",
        "(read := np.asarray(payload, np.uint8))",
        ("tests/test_rlnc.py::TestAbsorb::test_payload_symbols_outside_the_field_are_refused",)),
    # the symbol rule casts to uint8 without comparing back, so a wider array's 256
    # wraps to 0 and -1 to 255, in a payload, a coefficient or a source
    "payload-cast-not-compared-back": Mutant(
        GALOIS,
        "u8 is None or u8 is not x and (u8 != x).any() \\\n                or ",
        "u8 is None or ",
        ("tests/test_rlnc.py::TestAbsorb::test_a_wider_integer_payload_is_refused_not_wrapped",
         ENCODE_REFUSALS)),
    # the symbol rule lets what the uint8 cast refuses escape as TypeError or OverflowError
    "symbols-lets-cast-errors-escape": Mutant(
        GALOIS,
        "except (TypeError, ValueError, OverflowError):",
        "except ValueError:",
        ("tests/test_rlnc.py::test_input_the_uint8_cast_refuses_is_no_symbol",)),
    # absorb compares the ids only, so a packet over another field is decoded as if
    # its symbols were the decoder's
    "absorb-ignores-packet-field": Mutant(
        RLNC,
        "if pkt.field.q != field.q or pkt.generation_ids != self.generation_ids:",
        "if pkt.generation_ids != self.generation_ids:",
        ("tests/test_rlnc.py::TestAbsorb::test_a_packet_of_another_field_is_refused",)),
    # absorb compares the ids as sets, so a packet of the same ids in another order
    # is read column by column against the wrong packets
    "ids-compared-as-sets": Mutant(
        RLNC,
        "pkt.generation_ids != self.generation_ids:",
        "set(pkt.generation_ids) != set(self.generation_ids):",
        ("tests/test_rlnc.py::TestAbsorb::test_the_same_ids_in_another_order_are_refused",)),
    # a packet takes any number of coefficients for its ids
    "packet-count-unchecked": Mutant(
        RLNC,
        "if len(self.coefficients) != len(ids):",
        "if False:",
        (PACKET_READ,)),
    # a packet holds its caller's payload array, writable, so a change after it was
    # read reaches every decoder
    "payload-left-writable": Mutant(
        RLNC,
        "            payload.setflags(write=False)\n",
        "",
        ("tests/test_rlnc.py::TestAbsorb::test_a_payload_cannot_change_after_it_was_read",)),
    # a stored row's payload stays writable, so a write into the solution solve
    # hands back changes what the next solve returns
    "solve-hands-back-writable-row": Mutant(
        RLNC,
        "            stored.setflags(write=False)  # solve may hand it back\n",
        "",
        ("tests/test_rlnc.py::TestSolve::"
         "test_a_write_into_a_solution_never_changes_a_later_solve",)),
    # a field pickles by value, so a packet comes back over a copy of its field
    "field-pickled-by-value": Mutant(
        GALOIS,
        "    def __reduce__(self):  # unpickled as the shared instance of its order\n"
        "        return get_field, (self.q,)\n",
        "",
        ("tests/test_rlnc.py::test_a_pickled_packet_is_read_again_over_the_shared_field",)),
    # encode casts its coefficients to uint8 itself, so 300 wraps to 44
    "encode-casts-coefficients": Mutant(
        RLNC,
        "coeffs = field.symbols(coefficients)",
        "coeffs = np.asarray(coefficients, dtype=np.uint8)",
        (ENCODE_REFUSALS,)),
    # encode reads only the sources it scales, so one with a zero coefficient goes unchecked
    "encode-skips-unscaled-sources": Mutant(
        RLNC,
        "sources = [field.symbols(payloads[pid]) for pid in ids]",
        "sources = [payloads[pid] for pid in ids]",
        (ENCODE_REFUSALS,)),
    # a packet casts its coefficients to uint8 itself, so -1 wraps to 255
    "packet-coefficients-cast": Mutant(
        RLNC,
        "self.coefficients = field.symbols(coefficients)",
        "self.coefficients = np.asarray(coefficients, np.uint8)",
        (PACKET_READ,)),
    # a new basis row is scaled by its pivot, not by the pivot's inverse
    "row-normalised-by-pivot": Mutant(
        RLNC,
        "fi = field.inverse[f]",
        "fi = f",
        ("tests/test_rlnc.py::test_decoder_rank_innovation_and_solve",)),
    # the symbol rule passes GF(16) bytes of 16 or more, so mul_vec multiplies them
    # (by zero, off the padded table)
    "mul-vec-skips-symbol-check": Mutant(
        GALOIS,
        "\\\n                or self.q < 256 and self.outside(u8.tobytes()):",
        ":",
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
