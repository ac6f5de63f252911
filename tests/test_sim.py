import concurrent.futures
import hashlib
import math
import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gencast.rlnc
import gencast.sfm
import gencast.sim
from gencast import (
    ChannelModel,
    DecoderState,
    Partition,
    PartitionerConfig,
    SimConfig,
    StateFeedbackMatrix,
    apdd_upper_bound,
    blind_partition,
    coded_phase,
    heuristic_partition,
    run_experiment,
    run_trial,
    systematic_phase,
    total_rank,
)
from gencast.experiments import load_spec, run_simulation_sweep
from gencast.galois import get_field
from gencast.rlnc import CodedPacket, random_coefficients
from gencast.sfm import generation_ranks
from gencast.sim import SCHEDULERS, SlotDraws, aggregate_rows

from conftest import random_sfm


class TestChannel:
    def test_rejects_certain_erasure(self):
        with pytest.raises(ValueError):
            ChannelModel(1.0)
        with pytest.raises(ValueError):
            SimConfig(erasure_prob=1.0)


class TestSystematicPhase:
    def test_perfect_channel_all_zero(self):
        sfm = systematic_phase(10, 4, ChannelModel(0.0), np.random.default_rng(0))
        assert not sfm.wants.any()

    def test_mean_total_demand(self):
        # sum of T(k) over many trials is Binomial(R*N*K, p)
        rng = np.random.default_rng(1)
        n, k, p, reps = 20, 20, 0.2, 200
        total = sum(
            int(systematic_phase(k, n, ChannelModel(p), rng).wants.sum())
            for _ in range(reps)
        )
        mean = reps * n * k * p
        sigma = (reps * n * k * p * (1 - p)) ** 0.5
        assert abs(total - mean) < 3 * sigma

    def test_high_erasure_probability_raises_popularity(self):
        rng = np.random.default_rng(2)
        sfm = systematic_phase(30, 10, ChannelModel(0.95), rng)
        assert sfm.wants.mean() > 0.8


def run_single(cfg, trial=0):
    return run_trial(cfg, trial)


def sent_rounds(sfm, part, cfg, rng):
    """coded_phase's result and the length of every round _round gave it."""
    lengths, real = [], gencast.sim._round

    def spy(*args):
        slots = real(*args)
        lengths.append(len(slots))
        return slots

    with mock.patch.object(gencast.sim, "_round", spy):
        return coded_phase(sfm, part, cfg, rng), lengths


class TestCodedPhase:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_all_zero_sfm_skips_coded_phase(self, scheduler):
        sfm = StateFeedbackMatrix(np.zeros((3, 5), dtype=int))
        part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=2))
        cfg = SimConfig(n_packets=5, n_receivers=3, gamma=2, erasure_prob=0.2,
                        scheduler=scheduler)
        result = coded_phase(sfm, part, cfg, np.random.default_rng(0))
        assert result.completion_time == 0
        assert not any(result.ranks)
        assert result.delay == Fraction(0)
        assert result.ranks == (0,) * part.n_generations

    def test_blind_stops_at_the_slot_that_completes_the_block(self):
        # nobody wants generation 1, so round 1's second slot is never sent;
        # the first coefficient this seed draws is nonzero
        sfm = StateFeedbackMatrix([[1, 0]])
        part = Partition(((0,), (1,)), gamma_cap=1)
        cfg = SimConfig(n_packets=2, n_receivers=1, gamma=1, erasure_prob=0.2,
                        coded_phase_erasures=False, scheduler="blind_rr")
        result = coded_phase(sfm, part, cfg, np.random.default_rng(0))
        assert (result.completion_time, result.delay) == (1, 1)

    def test_strict_stops_inside_a_round_whose_quota_exceeds_the_need(self):
        # one receiver wants both packets of a rank-2 generation; with this
        # seed one slot of round 1 brings it nothing, round 2 resends the rank
        # although it needs 1, and round 2's first slot completes the block
        sfm = StateFeedbackMatrix([[1, 1]])
        part = Partition(((0, 1),), gamma_cap=2)
        cfg = SimConfig(n_packets=2, n_receivers=1, gamma=2, erasure_prob=0.5,
                        scheduler="strict_rr")
        result, lengths = sent_rounds(sfm, part, cfg, np.random.default_rng(2))
        assert lengths == [2, 2] and result.completion_time == 3

    @pytest.mark.parametrize("q", [16, 256])
    def test_u_falls_in_the_last_round_sent(self, q):
        # U is a slot of the last round _round gave; feedback_rr gives each
        # generation its largest need, so its U is that round's last slot,
        # while blind_rr and strict_rr can finish mid-round
        mid_round = dict.fromkeys(SCHEDULERS, 0)
        for trial in range(40):
            sfm = random_sfm(np.random.default_rng([q, trial]), 10, 12, 0.3)
            part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=3))
            for scheduler in SCHEDULERS:
                cfg = SimConfig(n_packets=12, n_receivers=10, gamma=3, erasure_prob=0.3,
                                field_order=q, scheduler=scheduler, abstract_decode=True)
                result, lengths = sent_rounds(sfm, part, cfg, np.random.default_rng(trial))
                u = result.completion_time
                assert sum(lengths[:-1]) < u <= sum(lengths), (scheduler, trial)
                mid_round[scheduler] += u < sum(lengths)
        assert mid_round["feedback_rr"] == 0
        assert mid_round["blind_rr"] > 0 and mid_round["strict_rr"] > 0

    def test_erasure_free_decode_times_follow_generation_order(self):
        # with no erasures and full-rank draws, generation m completes by
        # the cumulative rank boundary B_m, so D is at most the demand-weighted
        # mean of the boundaries
        sfm = StateFeedbackMatrix([[1, 1, 0, 1], [0, 1, 1, 0]])
        part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=2))
        cfg = SimConfig(n_packets=4, n_receivers=2, gamma=2, erasure_prob=0.2,
                        coded_phase_erasures=False, seed=3)
        result = coded_phase(sfm, part, cfg, np.random.default_rng(3))
        ranks = [int(sfm.wants[:, list(g.packet_ids)].sum(axis=1).max())
                 for g in part.generations]
        assert result.ranks == tuple(ranks)
        assert result.completion_time == sum(ranks)
        boundaries = np.cumsum(ranks)
        demand = [int(sfm.wants[:, list(g.packet_ids)].sum()) for g in part.generations]
        assert result.delay <= Fraction(int(np.dot(demand, boundaries)), sum(demand))

    def test_single_receiver_delay_is_exact(self):
        # one receiver, no coded-phase erasures: when every draw is innovative
        # (U == total rank), generation m decodes exactly at B_m, the
        # cumulative rank boundary, delivering r_m packets there
        rng = np.random.default_rng(40)
        hit = 0
        for _ in range(30):
            sfm = random_sfm(rng, 1, 12, 0.5)
            part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=3))
            cfg = SimConfig(n_packets=12, n_receivers=1, gamma=3, erasure_prob=0.2,
                            coded_phase_erasures=False, field_order=16)
            result = coded_phase(sfm, part, cfg, rng)
            ranks = generation_ranks(sfm, part)
            if not any(ranks) or result.completion_time != sum(ranks):
                continue
            hit += 1
            boundaries = np.cumsum(ranks).tolist()
            expected = Fraction(sum(r * b for r, b in zip(ranks, boundaries)), sum(ranks))
            assert result.delay == expected
        assert hit >= 20

    def test_single_generation_u_is_max_row_sum(self):
        sfm = StateFeedbackMatrix([[1, 1, 1, 0], [1, 0, 0, 0]])
        part = Partition((tuple(range(4)),), gamma_cap=4)
        cfg = SimConfig(n_packets=4, n_receivers=2, gamma=4, erasure_prob=0.2,
                        coded_phase_erasures=False, seed=4)
        result = coded_phase(sfm, part, cfg, np.random.default_rng(4))
        assert result.completion_time == 3  # max row sum, lucky-draw seed

    def test_decode_times_bounded_by_u_and_demand_covered(self):
        # every wanted pair decodes at some slot in 1..U
        rng = np.random.default_rng(6)
        for _ in range(10):
            sfm = random_sfm(rng, 4, 10, 0.3)
            part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=2))
            cfg = SimConfig(n_packets=10, n_receivers=4, gamma=2, erasure_prob=0.25)
            result = coded_phase(sfm, part, cfg, rng)
            assert any(result.ranks) == sfm.wants.any()
            if sfm.wants.any():
                assert 1 <= result.delay <= result.completion_time
            assert result.completion_time >= total_rank(sfm, part)

    def test_rejects_a_generator_that_is_not_pcg64(self):
        sfm = StateFeedbackMatrix([[1, 1]])
        part = Partition(((0, 1),), gamma_cap=2)
        cfg = SimConfig(n_packets=2, n_receivers=1, gamma=2, erasure_prob=0.2)
        with pytest.raises(ValueError, match="PCG64.*MT19937"):
            coded_phase(sfm, part, cfg, np.random.Generator(np.random.MT19937(0)))

    def test_invalid_partition_rejected(self):
        sfm = StateFeedbackMatrix([[1, 1]])
        cfg = SimConfig(n_packets=2, n_receivers=1, gamma=1, erasure_prob=0.2)
        with pytest.raises(ValueError, match=r"^partition covers K=1 packets, SFM has K=2$"):
            coded_phase(sfm, Partition(((0,),)), cfg, np.random.default_rng(0))


class TestApdd:
    def test_erasure_free_delay_within_bound(self):
        rng = np.random.default_rng(7)
        hit = 0
        for _ in range(25):
            sfm = random_sfm(rng, 5, 12, 0.3)
            part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=2))
            cfg = SimConfig(n_packets=12, n_receivers=5, gamma=2, erasure_prob=0.3,
                            coded_phase_erasures=False)
            result = coded_phase(sfm, part, cfg, rng)
            if result.completion_time == total_rank(sfm, part):
                hit += 1
                assert result.delay <= apdd_upper_bound(sfm, part)
        assert hit >= 20  # rank shortfalls are ~0.4% events


class TestSchedulers:
    def test_blind_sends_every_generation_every_round(self):
        # one receiver wants only the last blind chunk: every earlier chunk
        # still consumes one slot per round
        sfm = StateFeedbackMatrix([[0, 0, 0, 1]])
        part = blind_partition(4, 2)
        cfg = SimConfig(n_packets=4, n_receivers=1, gamma=1, erasure_prob=0.2,
                        coded_phase_erasures=False, scheduler="blind_rr", seed=8)
        result = coded_phase(sfm, part, cfg, np.random.default_rng(8))
        # round 1 = chunk {0,1} then chunk {2,3}; decode lands on slot 2
        assert result.completion_time == 2

    @pytest.mark.parametrize("q", [16, 256])
    @pytest.mark.parametrize("gamma", [1, 2, 5])
    def test_blind_delay_matches_its_expectation(self, q, gamma):
        # blind_rr sends the j-th slot of generation m (from 0) of M at
        # (j - 1) * M + m + 1 whatever the decoders say, and a receiver wanting
        # c of its packets decodes it after J_c of its slots, with
        # E J_c = sum over x = 1..c of 1 / ((1 - Pe) (1 - q^-x)); so
        # E[D | SFM, partition] = sum c ((E J_c - 1) M + m + 1) / sum c, and
        # the paired per-trial D - E[D] has mean 0 unless the decoder
        # mis-ranks or the schedule drifts
        cfg = SimConfig(n_packets=20, n_receivers=20, gamma=gamma, erasure_prob=0.2,
                        field_order=q, scheduler="blind_rr", abstract_decode=True, seed=31337)
        diffs = []
        for trial in range(300):
            row = run_trial(cfg, trial)
            sfm = systematic_phase(20, 20, ChannelModel(0.2),
                                   gencast.sim.trial_rng(cfg.seed, trial))
            counts = gencast.sfm.generation_counts(sfm, blind_partition(20, row["M"]))
            jumps = np.cumsum([0] + [1 / (0.8 * (1 - q ** -x)) for x in range(1, 21)])
            expected = sum(c * ((jumps[c] - 1) * row["M"] + m + 1)
                           for r_counts in counts.tolist() for m, c in enumerate(r_counts))
            diffs.append(float(row["D"]) - expected / max(int(counts.sum()), 1))
        z = np.mean(diffs) / (np.std(diffs, ddof=1) / np.sqrt(len(diffs)))
        assert abs(z) < 3, f"blind_rr mean D off its expectation by {z:.2f} standard errors"

    @pytest.mark.parametrize("q", [16, 256])
    def test_feedback_slots_match_their_expectation(self, q):
        # at gamma = 1 feedback_rr sends one slot per round to each generation
        # with a pending receiver, and a receiver decodes at its first
        # unerased slot with a nonzero coefficient on its one wanted packet,
        # so the last slot completes the block and U = sum over m of S_m,
        # generation m's slot count, with P(S_m <= s) = prod over its packets
        # k of sum_j C(s, j) (1 - 1/q)^j q^-(s-j) (1 - Pe^j)^n_k (n_k
        # receivers want k) and E[U | SFM, partition] = sum_m sum_s P(S_m > s)
        # a receiver misses a slot w.p. <= 0.25, so P(S_m >= 80) < 20 * 0.25^79
        pe, n, horizon = 0.2, 20, 80
        s, j = np.arange(horizon)[:, None], np.arange(horizon)[None, :]
        binom = np.array([[math.comb(a, b) for b in range(horizon)] for a in range(horizon)],
                         dtype=float) * (1 - 1 / q) ** j * (1 / q) ** np.maximum(s - j, 0)
        # cdf[c, s]: all c receivers of one packet decoded within s slots
        cdf = np.stack([binom @ (1 - pe ** np.arange(horizon)) ** c for c in range(n + 1)])
        cfg = SimConfig(n_packets=n, n_receivers=n, gamma=1, erasure_prob=pe, field_order=q,
                        scheduler="feedback_rr", abstract_decode=True, seed=31337)
        diffs = []
        for trial in range(1000):
            sfm = systematic_phase(n, n, ChannelModel(pe), gencast.sim.trial_rng(cfg.seed, trial))
            demand = sfm.wants.sum(axis=0)
            part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=1))
            expected = sum((1 - cdf[demand[list(g.packet_ids)]].prod(axis=0)).sum()
                           for g in part.generations)
            diffs.append(run_trial(cfg, trial)["U"] - expected)
        z = np.mean(diffs) / (np.std(diffs, ddof=1) / np.sqrt(len(diffs)))
        assert abs(z) < 3, f"feedback_rr mean U off its expectation by {z:.2f} standard errors"

    @pytest.mark.parametrize("erasures", [False, True])
    @pytest.mark.parametrize("scheduler", ["feedback_rr", "strict_rr"])
    def test_delay_at_least_the_erasure_free_delay(self, scheduler, erasures):
        # round 1 sends generation m (from 0) only after the S_{m-1} slots
        # that carry the ranks before it, and a receiver wanting c of its
        # packets needs c of its slots, so D >= D_ef = sum c (S_{m-1} + c) /
        # sum c, with equality when no slot is erased or non-innovative
        equal = 0
        for gamma in (1, 2, 5):
            cfg = SimConfig(n_packets=20, n_receivers=20, gamma=gamma, erasure_prob=0.2,
                            scheduler=scheduler, coded_phase_erasures=erasures,
                            abstract_decode=True, seed=31337)
            for trial in range(150):
                row = run_trial(cfg, trial)
                sfm = systematic_phase(20, 20, ChannelModel(0.2),
                                       gencast.sim.trial_rng(cfg.seed, trial))
                part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
                counts = gencast.sfm.generation_counts(sfm, part)
                before = np.cumsum(counts.max(axis=0)) - counts.max(axis=0)  # S_{m-1}
                d_ef = Fraction(int((counts * (before + counts)).sum()), int(counts.sum()))
                assert row["D"] >= d_ef, (gamma, trial)
                equal += row["D"] == d_ef
        if not erasures:  # then only a non-innovative slot delays: 413 of 450 are equal
            assert equal >= 400

    def test_feedback_skips_satisfied_generations(self):
        sfm = StateFeedbackMatrix([[0, 0, 0, 1]])
        part = blind_partition(4, 2)
        cfg = SimConfig(n_packets=4, n_receivers=1, gamma=1, erasure_prob=0.2,
                        coded_phase_erasures=False, scheduler="feedback_rr", seed=8)
        result = coded_phase(sfm, part, cfg, np.random.default_rng(8))
        assert result.completion_time == 1  # zero-demand chunk never scheduled

    def test_modes_agree_exactly(self):
        for scheduler in ("feedback_rr", "blind_rr"):
            for seed in range(8):
                cfg = SimConfig(n_packets=12, n_receivers=5, gamma=2, erasure_prob=0.25,
                                seed=seed, scheduler=scheduler)
                assert run_trial(cfg, 0) == run_trial(replace(cfg, abstract_decode=True), 0)

    def test_modes_agree_on_decode_times(self):
        # payload-free and payload-carrying decoding share coefficient draws,
        # so every u_{n,k} must match, not just the aggregates
        rng = np.random.default_rng(20)
        sfm = random_sfm(rng, 6, 14, 0.3)
        part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=3))
        base = SimConfig(n_packets=14, n_receivers=6, gamma=3, erasure_prob=0.25, seed=20)
        a = coded_phase(sfm, part, base, np.random.default_rng(21))
        b = coded_phase(sfm, part, replace(base, abstract_decode=True),
                        np.random.default_rng(21))
        assert (a.delay, a.completion_time) == (b.delay, b.completion_time)

    def test_payload_mode_checks_decoded_payloads(self, monkeypatch):
        sfm = StateFeedbackMatrix([[1, 1, 0, 1], [0, 1, 1, 0]])
        part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=2))
        cfg = SimConfig(n_packets=4, n_receivers=2, gamma=2, erasure_prob=0.2, seed=3)
        coded_phase(sfm, part, cfg, np.random.default_rng(3))  # the real solve passes
        solve = DecoderState.solve

        def corrupted(state):
            return {k: v ^ 1 for k, v in solve(state).items()}

        def one_byte_short(state):
            return {k: v[:-1] for k, v in solve(state).items()}

        for wrong in (corrupted, one_byte_short):
            monkeypatch.setattr(DecoderState, "solve", wrong)
            with pytest.raises(RuntimeError, match="decoded generation"):
                coded_phase(sfm, part, cfg, np.random.default_rng(3))
        # rank-only decoding has no payloads to check
        coded_phase(sfm, part, replace(cfg, abstract_decode=True), np.random.default_rng(3))

    def test_strict_rounds_cost_at_least_as_much_on_average(self):
        # resending the full rank every round wastes slots once receivers
        # are partially served; the residual policy should win in the mean
        means = {}
        for scheduler in ("feedback_rr", "strict_rr"):
            cfg = SimConfig(n_packets=12, n_receivers=8, gamma=2, erasure_prob=0.3,
                            seed=30, trials=150, abstract_decode=True, scheduler=scheduler)
            _, agg = run_experiment(cfg)
            means[scheduler] = agg["mean_U"]
        assert means["strict_rr"] >= means["feedback_rr"]

    def test_strict_rounds_identical_when_erasure_free(self):
        # without erasures everything decodes in round 1, so the round-two
        # policies can never disagree
        cfg = SimConfig(n_packets=10, n_receivers=4, gamma=2, erasure_prob=0.2,
                        coded_phase_erasures=False, seed=31, trials=30,
                        abstract_decode=True)
        base_rows, base_agg = run_experiment(cfg)
        strict_rows, strict_agg = run_experiment(replace(cfg, scheduler="strict_rr"))
        assert base_agg == strict_agg
        assert [{**row, "scheduler": None} for row in base_rows] == \
            [{**row, "scheduler": None} for row in strict_rows]

    def test_gamma_equals_k_schedulers_converge(self):
        # single generation: both schedulers send one coded packet at a time
        # from the same stream, so the completion times match trial for trial
        for seed in range(6):
            base = SimConfig(n_packets=10, n_receivers=6, gamma=10, erasure_prob=0.2,
                             seed=seed, abstract_decode=True)
            a = run_trial(base, 0)
            b = run_trial(replace(base, scheduler="blind_rr"), 0)
            assert a["M"] == b["M"] == 1
            assert a["U"] == b["U"]


class TestSlotSchedule:
    """The round policy alone: gencast.sim._round fed stand-in decoders that a
    trial could hold before its first slot (each generation's largest needed
    is its rank).  A test changes them between calls, as a round's slots do."""

    GEN_IDS = [(0, 1), (), (2,), (3, 4, 5), (6, 7)]
    RANKS = [2, 0, 1, 3, 0]
    ROUND_ONE = [0, 0, 2, 3, 3, 3]

    def pending(self):
        # generation 4 has packets but no pending receiver
        need = SimpleNamespace
        return [{0: need(needed=1), 3: need(needed=2)}, {}, {1: need(needed=1)},
                {0: need(needed=3), 2: need(needed=1)}, {}]

    def next_round(self, pending, scheduler="feedback_rr"):
        cfg = SimConfig(n_packets=8, n_receivers=4, gamma=3, scheduler=scheduler)
        return gencast.sim._round(cfg, self.GEN_IDS, self.RANKS, pending)

    def after_round_one(self, scheduler):
        """Round one, then the next round after generation 0's largest-need
        receiver finishes and generation 3's drops to needing 2."""
        pending = self.pending()
        first = self.next_round(pending, scheduler)
        del pending[0][3]
        pending[3][0].needed = 2
        return first, self.next_round(pending, scheduler)

    def test_blind_slot_times(self):
        # the j-th slot of nonempty generation m goes out at (j - 1) * M + m + 1,
        # also once a generation's receivers have finished
        nonempty = [0, 2, 3, 4]
        pending, sent = self.pending(), []
        for j in range(5):
            sent += self.next_round(pending, scheduler="blind_rr")
            pending[nonempty[j % 4]].clear()
        sent_at = dict(enumerate(sent, 1))
        assert len(sent_at) == 5 * len(nonempty)
        for j in range(1, 6):
            for m, gen in enumerate(nonempty):
                assert sent_at[(j - 1) * len(nonempty) + m + 1] == gen

    def test_feedback_round_one_sends_ranks_in_partition_order(self):
        first, later = self.after_round_one("feedback_rr")
        assert first == self.ROUND_ONE
        # a later round sends each pending generation its largest needed
        assert later == [0, 2, 3, 3]

    def test_strict_rounds_resend_ranks(self):
        pending = self.pending()
        assert [self.next_round(pending, "strict_rr") for _ in range(3)] == [self.ROUND_ONE] * 3

    def test_strict_resends_the_rank_after_the_largest_need_finishes(self):
        first, later = self.after_round_one("strict_rr")
        assert first == later == self.ROUND_ONE

    def test_nothing_pending_sends_nothing(self):
        # blind_rr's round ignores the decoders: coded_phase's loop condition
        # keeps it from sending when nothing is pending
        for scheduler in ("feedback_rr", "strict_rr"):
            assert self.next_round([{}] * len(self.GEN_IDS), scheduler) == []
        assert self.next_round([{}] * len(self.GEN_IDS), "blind_rr") == [0, 2, 3, 4]


class TestRunExperiment:
    def test_trials_one_matches_single_trial(self):
        cfg = SimConfig(n_packets=8, n_receivers=3, gamma=2, erasure_prob=0.2,
                        seed=9, trials=1)
        rows, agg = run_experiment(cfg)
        assert rows == [run_trial(cfg, 0)]
        assert agg["mean_U"] == rows[0]["U"]

    def test_same_seed_bit_identical(self):
        cfg = SimConfig(n_packets=10, n_receivers=4, gamma=2, erasure_prob=0.3,
                        seed=10, trials=25)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_parallel_matches_serial(self):
        cfg = SimConfig(n_packets=10, n_receivers=4, gamma=2, erasure_prob=0.3,
                        seed=11, trials=24)
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)

    def test_pool_no_larger_than_cell(self, monkeypatch):
        # a forked pool starts every worker at its first submit, so a 2-trial
        # cell must not ask for 8, nor a 2-CPU host for more than 2; the fake
        # runs the trials in this process, and a one-worker bound needs no pool
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(gencast.sim.os, "cpu_count", lambda: 8)
        cfg = SimConfig(n_packets=6, n_receivers=3, seed=4, trials=2)
        serial = run_experiment(cfg)
        assert run_experiment(cfg, workers=8) == serial
        assert asked == [2]
        many = replace(cfg, trials=40)
        for cpus, expect in ((2, [2, 2]), (3, [3, 2]), (None, []), (1, [])):
            asked.clear()
            monkeypatch.setattr(gencast.sim.os, "cpu_count", lambda: cpus)
            assert run_experiment(many, workers=64) == run_experiment(many)
            assert run_experiment(cfg, workers=64) == serial
            assert asked == expect

    def test_schedulers_share_feedback_matrices(self):
        # paired cells: identical trial seeds produce identical SFMs, hence
        # identical generation counts
        a = SimConfig(n_packets=12, n_receivers=5, gamma=2, erasure_prob=0.25,
                      seed=12, trials=15)
        b = replace(a, scheduler="blind_rr")
        rows_a, _ = run_experiment(a)
        rows_b, _ = run_experiment(b)
        assert [r["M"] for r in rows_a] == [r["M"] for r in rows_b]

    def test_aggregate_excludes_empty_demand_from_delay(self):
        rows = [
            {"trial": 0, "M": 1, "U": 0, "D": Fraction(0), "total_rank": 0,
             "apdd_bound": 0, "empty_demand": 1},
            {"trial": 1, "M": 1, "U": 2, "D": Fraction(3, 2), "total_rank": 2,
             "apdd_bound": 3, "empty_demand": 0},
        ]
        agg = aggregate_rows(rows)
        assert agg["n_demand"] == 1
        assert agg["mean_D"] == 1.5
        assert agg["mean_U"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(gamma=0)
        with pytest.raises(ValueError):
            SimConfig(gamma=30, n_packets=20)
        with pytest.raises(ValueError):
            SimConfig(scheduler="bogus")
        with pytest.raises(ValueError):
            SimConfig(field_order=64)
        for seed in (-1, 1.5, True, "7"):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(seed=seed)
        # the counts pass sfm.check_cap under their own names, never coerced
        for field in ("n_packets", "n_receivers", "gamma", "trials", "payload_len"):
            for bad in (0, True, 2.5, 2.0, "2"):
                with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
                    SimConfig(**{field: bad})
        with pytest.raises(ValueError, match="^n_packets must be an integer"):
            SimConfig(n_packets=20.0, gamma=2)
        cfg = SimConfig(n_packets=np.int64(8), gamma=np.uint8(3), trials=np.int32(2))
        assert (cfg.n_packets, cfg.gamma, cfg.trials) == (8, 3, 2)
        assert all(type(v) is int for v in (cfg.n_packets, cfg.gamma, cfg.trials))
        # field_order passes the same integer rule before the field lookup
        for bad in (256.0, True, "256", 0):
            with pytest.raises(ValueError, match="^field_order must be an integer >= 1"):
                SimConfig(field_order=bad)
        # the erasure limit reads a real number; bool, str and nan are not one
        for bad in ("0.2", False, True, np.bool_(False), None, float("nan"), -0.1):
            with pytest.raises(ValueError, match="^erasure_prob must be a real number"):
                SimConfig(erasure_prob=bad)
        # the flags take bool or numpy.bool_ only, never truthiness
        for name in ("coded_phase_erasures", "abstract_decode"):
            for bad in (0, 1, "no", None, np.int64(1)):
                with pytest.raises(ValueError, match=f"^{name} must be a bool"):
                    SimConfig(**{name: bad})
        cfg = SimConfig(field_order=np.int64(16), erasure_prob=np.float32(0.25),
                        abstract_decode=np.bool_(True), coded_phase_erasures=np.bool_(False))
        assert type(cfg.field_order) is int and cfg.field_order == 16
        assert cfg.abstract_decode is True and cfg.coded_phase_erasures is False
        # the round rule is a scheduler name, not a flag
        assert SimConfig(scheduler="strict_rr").scheduler == "strict_rr"
        with pytest.raises(TypeError, match="strict_paper_rounds"):
            SimConfig(strict_paper_rounds=True)


class TestTrialCounts:
    def test_no_generation_ids_checked_and_known_payloads_read_once(self):
        # a trial's generations are a Partition's, checked when it is built, so
        # its decoders check no ids again; in payload mode they read the trial's
        # known payloads once, over all K ids (sfm and rlnc bind the checks)
        checks, reads = [], []
        check, read = gencast.sfm.check_generation_ids, gencast.rlnc._checked_payloads

        def counted_check(ids):
            checks.append(ids)
            return check(ids)

        def counted_read(known, ids, field):
            if known is not None:
                reads.append(list(ids))
            return read(known, ids, field)

        with mock.patch.object(gencast.sfm, "check_generation_ids", counted_check), \
                mock.patch.object(gencast.rlnc, "check_generation_ids", counted_check), \
                mock.patch.object(gencast.rlnc, "_checked_payloads", counted_read):
            for scheduler in SCHEDULERS:
                for abstract in (True, False):
                    cfg = SimConfig(n_packets=20, n_receivers=20, gamma=3, erasure_prob=0.2,
                                    seed=1, abstract_decode=abstract, scheduler=scheduler,
                                    payload_len=4)
                    for trial in range(3):
                        checks.clear()
                        reads.clear()
                        run_trial(cfg, trial)
                        assert checks == []
                        assert reads == ([] if abstract else [list(range(20))])


@st.composite
def trial_decoder_cases(draw):
    """A field, a random SFM, a partition of its packets in shuffled order
    (cuts drawn twice make empty generations), source payloads and, per
    generation, coefficient rows."""
    field = get_field(draw(st.sampled_from([16, 256])))
    k, n = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    wants = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                          min_size=n, max_size=n))
    order = draw(st.permutations(range(k)))
    cuts = [0, *sorted(draw(st.lists(st.integers(0, k), max_size=6))), k]
    groups = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    symbol = st.integers(0, field.q - 1)
    payloads = [np.array(draw(st.lists(symbol, min_size=3, max_size=3)), np.uint8)
                for _ in range(k)]
    coeffs = [draw(st.lists(st.lists(symbol, min_size=len(g), max_size=len(g)),
                            max_size=2 * len(g) + 1)) for g in groups]
    sfm = StateFeedbackMatrix(np.array(wants, np.uint8))
    return field, sfm, Partition(groups), payloads, coeffs


@settings(max_examples=150, deadline=None)
@given(trial_decoder_cases())
def test_trial_decoders_match_decoders_built_alone(case):
    # the decoders DecoderState.for_partition builds for a trial, one dict per
    # generation in partition order, equal DecoderState(ids, wanted, field,
    # held) built one at a time, rank-only and with payloads: when built and
    # after each of the same packets; and a generation's packet fits only its
    # own decoders: every other generation's, of equal size or not, refuse it
    # before anything changes
    field, sfm, part, payloads, coeffs = case
    wants = sfm.wants.tolist()
    sources = dict(enumerate(payloads))

    def observed(states):
        return {r: (s.generation_ids, s.field, s.unknown_ids, s.needed, s.rank)
                for r, s in states.items()}

    for with_payloads in (False, True):
        built = DecoderState.for_partition(sfm, part, field, sources if with_payloads else None)
        assert len(built) == part.n_generations
        for m, g in enumerate(part.generations):
            ids = g.packet_ids
            alone = {r: DecoderState(ids, [k for k in ids if row[k]], field,
                                     {k: sources[k] for k in ids if not row[k]}
                                     if with_payloads else None)
                     for r, row in enumerate(wants) if any(row[k] for k in ids)}
            assert observed(built[m]) == observed(alone)
            for row in coeffs[m]:
                coded = None
                if with_payloads:
                    coded = np.zeros(3, np.uint8)
                    for c, k in zip(row, ids):
                        coded ^= field.mul_vec(c, sources[k])
                pkt = CodedPacket(ids, np.array(row, np.uint8), coded, field)
                assert ({r: s.absorb(pkt) for r, s in built[m].items()}
                        == {r: s.absorb(pkt) for r, s in alone.items()})
                assert observed(built[m]) == observed(alone)
                refused = rf"^a packet of {re.escape(str(ids))} over GF\({field.q}\) does not fit"
                for others in built[:m] + built[m + 1:]:
                    before = observed(others)
                    for state in others.values():
                        with pytest.raises(ValueError, match=refused):
                            state.absorb(pkt)
                    assert observed(others) == before
            for r, state in built[m].items():
                if with_payloads and state.decoded:
                    got, want = state.solve(), alone[r].solve()
                    assert {k: v.tolist() for k, v in got.items()} == {
                        k: v.tolist() for k, v in want.items()}


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), n=st.integers(1, 8), gamma=st.integers(1, 12),
       p=st.sampled_from([0.1, 0.3, 0.6]), scheduler=st.sampled_from(SCHEDULERS),
       erasures=st.booleans(), seed=st.integers(0, 2**32))
def test_trial_ranks_and_bounds_match_sfm(k, n, gamma, p, scheduler, erasures, seed):
    # the row's ranks and bounds equal the sfm metrics of the trial's own
    # feedback matrix and partition, which coded_phase receives
    cfg = SimConfig(n_packets=k, n_receivers=n, gamma=min(gamma, k), erasure_prob=p,
                    seed=seed, scheduler=scheduler, coded_phase_erasures=erasures,
                    abstract_decode=True)
    seen = []

    def spy(sfm, part, cfg, rng):
        result = coded_phase(sfm, part, cfg, rng)
        seen.append((sfm, part, result))
        return result

    with mock.patch.object(gencast.sim, "coded_phase", spy):
        row = run_trial(cfg, 0)
    [(sfm, part, result)] = seen
    assert list(result.ranks) == generation_ranks(sfm, part)
    assert row["total_rank"] == total_rank(sfm, part)
    assert row["apdd_bound"] == apdd_upper_bound(sfm, part)
    assert (row["U"], row["D"], row["M"]) == (result.completion_time, result.delay,
                                              part.n_generations)


def per_slot_draws(rng, field, n, erasure_prob, sizes):
    """The reference: one Generator call per coefficient vector and per erasure pattern."""
    channel = ChannelModel(erasure_prob) if erasure_prob is not None else None
    return [(random_coefficients(g, rng, field).tolist(),
             channel.erased(rng, n).tolist() if channel else [False] * n) for g in sizes]


def block_draws(rng, field, n, erasure_prob, sizes):
    draws = SlotDraws(rng, field, n, erasure_prob)
    out = []
    for g in sizes:
        coeffs, erased = draws.slot(g)
        assert coeffs.dtype == np.uint8 and coeffs.shape == (g,)
        out.append((coeffs.tolist(), erased))
    return out


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([16, 256]), sizes=st.lists(st.integers(1, 20), min_size=1, max_size=30),
       n=st.integers(1, 40),
       p=st.sampled_from([0.0, 5e-324, 0.2, 0.5, 0.9999999999999999])
       | st.floats(0.0, 1.0, exclude_max=True),
       erasures=st.booleans(), buffered=st.booleans(), seed=st.integers(0, 2**64 - 1))
def test_slot_draws_equal_per_slot_numpy_draws(q, sizes, n, p, erasures, buffered, seed):
    # twin generators: the block reader must return exactly the per-call draws
    field = get_field(q)
    ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # leaves the upper 32-bit half of a word buffered in the generator
        for rng in (ref, fast):
            rng.integers(0, 256, 1, np.uint8)
    prob = p if erasures else None
    assert block_draws(fast, field, n, prob, sizes) == per_slot_draws(ref, field, n, prob, sizes)


@pytest.mark.parametrize("n", [256, 600])
def test_slot_draws_span_several_blocks(n):
    # one slot's erasure words may fill more than one block read
    sizes = [3, 20, 1, 7]
    ref, fast = np.random.default_rng(5), np.random.default_rng(5)
    assert block_draws(fast, get_field(256), n, 0.3, sizes) == \
        per_slot_draws(ref, get_field(256), n, 0.3, sizes)


# sha256 of per_trial.csv and aggregate.csv for fig3_U sweeps (gammas 1, 3, 6,
# both schedulers, 25 trials, seed 11) on paths perfbench/reference.json does
# not check; per_trial.csv recorded with per-slot Generator draws before the
# block reader replaced them, aggregate.csv before the CSV header came from the
# rows.  Each case is a fragment of the spec document.
SWEEP_DIGESTS = {
    "gf16": ({"config": {"field_order": 16}},
             "5b86b8d37cbed46c2400e90d1fff77372a6dadd2c8effbfa993f0e3250076f20",
             "dae794458c9ce2ee97e9b993d6749aeeb37d75b22a99d76c4cc442580973ecf6"),
    "no-erasures": ({"config": {"coded_phase_erasures": False}},
                    "045dd4b360a4ad18f614de10014cb019a680b3ab83d49de4445d68cbf0520446",
                    "f5bf4dc45838da792e5e4f9b614e780fd36a8444cb14ce37a8dd0f761305b199"),
    # recorded when the strict round rule was a flag on feedback_rr, so its
    # CSVs named the scheduler feedback_rr
    "strict-rounds": ({"schedulers": ["strict_rr", "blind_rr"]},
                      "021df11b328b4293000134c0a12c0b39e16aff787f03c1cdc6a80a4c0d0be14a",
                      "d2fc68f91feb39e19552c356996dac8aee6d8f45b0732d427e24de302e6389a0"),
    "payload": ({"config": {"abstract_decode": False, "payload_len": 16}},
                "8bc16f7ca29f2e9832f5d2f6da62e68d3a0c34527d57f6580b17f6263feeaad0",
                "d26533a81a74ea42698ee626990a46a4e98e1fb86ae1ae2d7689c190c3010f24"),
    # payload decoding over GF(16) reads the same draws as rank-only GF(16)
    "payload-gf16": ({"config": {"abstract_decode": False, "payload_len": 16, "field_order": 16}},
                     "5b86b8d37cbed46c2400e90d1fff77372a6dadd2c8effbfa993f0e3250076f20",
                     "dae794458c9ce2ee97e9b993d6749aeeb37d75b22a99d76c4cc442580973ecf6"),
}


@pytest.mark.parametrize("case", SWEEP_DIGESTS)
def test_sweep_bytes_pinned(case, tmp_path):
    fragment, *digests = SWEEP_DIGESTS[case]
    spec = load_spec({"experiment": "fig3_U", "gammas": [1, 3, 6], **fragment},
                     trials=25, seed=11)
    run_simulation_sweep(spec, tmp_path)
    assert [hashlib.sha256(
        (tmp_path / name).read_bytes().replace(b"strict_rr", b"feedback_rr")).hexdigest()
        for name in ("per_trial.csv", "aggregate.csv")] == digests
