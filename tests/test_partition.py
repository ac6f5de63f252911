import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencast import (
    Generation,
    Partition,
    PartitionerConfig,
    StateFeedbackMatrix,
    blind_partition,
    by_algorithm,
    heuristic_partition,
    is_irreducible,
    optimal_partition,
    validate_partition,
)
from gencast import partition as partition_module
from gencast.experiments import run_oracle_gap
from gencast.partition import ALGORITHMS, InstanceTooLargeError
from gencast.sfm import generation_ranks
from gencast.sim import ChannelModel, systematic_phase, trial_rng

from conftest import prefix_ranks, random_sfm


def insertion_steps(sfm, part):
    """Each generation's greedy insertions as (packet, branch, rank after),
    read off the partition: the greedy lists a generation's packets in
    insertion order, and a step is "raise" iff the prefix rank grew."""
    steps = []
    for gen in part.generations:
        ids = gen.packet_ids
        ranks = prefix_ranks(sfm, ids)
        steps.append([(k, "raise" if r > prev else "keep", r)
                      for k, prev, r in zip(ids, [0] + ranks, ranks)])
    return steps


def by_algorithm_instances():
    """Seeded (sfm, gamma) pairs, some with K mod M != 0 and some where the
    exact search beats the greedy."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        sfm = random_sfm(rng, int(rng.integers(3, 8)), int(rng.integers(5, 10)),
                         float(rng.choice([0.3, 0.5, 0.7])))
        yield sfm, int(rng.integers(1, 4))


def reference_greedy(sfm, gamma):
    """The greedy partitioner written on the N x K count matrix: every
    insertion recomputes, for each pool packet in candidate order, the rank
    the open generation would have with it.  Returns the generations' packet
    ids and the (packet, branch, rank after) insertion traces."""
    wants = sfm.wants
    pop = wants.sum(axis=0)
    order = sorted(range(sfm.n_packets), key=lambda k: (-int(pop[k]), k))
    pool = set(order)
    groups, traces = [], []
    while pool:
        members, steps = [], []
        counts = np.zeros(sfm.n_receivers, dtype=np.int64)
        cur_rank = 0
        while pool:
            pool_ids = [k for k in order if k in pool]
            new_ranks = (counts[:, None] + wants[:, pool_ids]).max(axis=0)
            keep = [k for k, r in zip(pool_ids, new_ranks) if int(r) == cur_rank]
            if keep:
                chosen, branch = keep[0], "keep"
            elif cur_rank < gamma:
                chosen, branch = pool_ids[0], "raise"
                cur_rank += 1
            else:
                break
            pool.remove(chosen)
            members.append(chosen)
            counts = counts + wants[:, chosen]
            steps.append((chosen, branch, cur_rank))
        groups.append(tuple(members))
        traces.append(steps)
    return groups, traces


def reference_search(sfm, gamma):
    """The exact search as first written, with the level carry as a list
    comprehension, on receiver bitsets rebuilt from the want-matrix and the
    reference_greedy incumbent.  Packets are placed heaviest first: a packet
    weighs the summed want counts of the receivers that want it, ties by
    index.  Returns the minimum generation count, the nodes explored and the
    witness groups, by smallest id and ascending inside each group."""
    K = sfm.n_packets
    rows = sfm.wants.tolist()
    row_sums = [sum(row) for row in rows]
    order = sorted(range(K), key=lambda k: (-sum(w for w, row in zip(row_sums, rows)
                                                  if row[k]), k))
    bits = [sum(row[k] << n for n, row in enumerate(rows)) for k in order]
    lower_bound = max(1, -(-max(row_sums) // gamma))
    incumbent, _ = reference_greedy(sfm, gamma)
    best_m, best_assign, nodes = len(incumbent), None, 0
    top = gamma - 1
    assign = [-1] * K
    gens = []

    def search(k):
        nonlocal best_m, best_assign, nodes
        if len(gens) >= best_m:
            return
        if k == K:
            best_m = len(gens)
            best_assign = assign.copy()
            return
        mask = bits[k]
        for j, levels in enumerate(gens):
            nodes += 1
            if mask & levels[top]:
                continue
            carried = [levels[0] | mask]
            carried += [levels[i] | levels[i - 1] & mask for i in range(1, gamma)]
            gens[j] = carried
            assign[k] = j
            search(k + 1)
            gens[j] = levels
            if best_m == lower_bound:
                return
        if len(gens) + 1 < best_m:
            nodes += 1
            gens.append([mask] + [0] * top)
            assign[k] = len(gens) - 1
            search(k + 1)
            gens.pop()

    if best_m > lower_bound:
        search(0)
    if best_assign is None:
        return best_m, nodes, tuple(incumbent)
    groups = [[] for _ in range(best_m)]
    for k, j in zip(order, best_assign):
        groups[j].append(k)
    return best_m, nodes, tuple(sorted(tuple(sorted(g)) for g in groups))


def brute_force_min_partition(sfm, gamma):
    """Dumb oracle: enumerate every set partition via restricted growth
    strings and keep the smallest rank-feasible one."""
    K = sfm.n_packets
    best = K + 1

    def rec(k, assign, n_groups):
        nonlocal best
        if k == K:
            groups = {}
            for i, g in enumerate(assign):
                groups.setdefault(g, []).append(i)
            if all(int(sfm.wants[:, g].sum(axis=1).max()) <= gamma for g in groups.values()):
                best = min(best, n_groups)
            return
        for g in range(n_groups + 1):
            assign.append(g)
            rec(k + 1, assign, max(n_groups, g + 1))
            assign.pop()

    rec(0, [], 0)
    return best


class TestHeuristic:
    def test_all_zero_sfm_single_generation(self):
        sfm = StateFeedbackMatrix(np.zeros((3, 6), dtype=int))
        p = heuristic_partition(sfm, PartitionerConfig(gamma_cap=2))
        assert p.n_generations == 1
        assert sorted(p.generations[0].packet_ids) == list(range(6))

    def test_large_gamma_single_generation(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            sfm = random_sfm(rng, 4, 8, 0.5)
            gamma = int(sfm.wants.sum(axis=1).max()) or 1
            p = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
            assert p.n_generations == 1

    def test_cap_above_k_allocates_as_k_does(self, conflict_sfm):
        # no generation's rank exceeds K, so the levels stop there
        big = 10**7
        tracemalloc.start()
        try:
            part = heuristic_partition(conflict_sfm, PartitionerConfig(gamma_cap=big))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        at_k = heuristic_partition(conflict_sfm, PartitionerConfig(conflict_sfm.n_packets))
        assert part.generations == at_k.generations and part.gamma_cap == big
        assert peak < 2**20

    def test_golden_trace_all_popularity_tied(self):
        # every packet has popularity 2; lowest index wins each tie, and no
        # packet ever preserves the rank at cap 1, so each generation is a
        # single raise-branch insertion
        sfm = StateFeedbackMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        p = heuristic_partition(sfm, PartitionerConfig(gamma_cap=1))
        assert [g.packet_ids for g in p.generations] == [(0,), (1,), (2,)]
        assert insertion_steps(sfm, p) == [
            [(0, "raise", 1)],
            [(1, "raise", 1)],
            [(2, "raise", 1)],
        ]

    def test_keep_branch_preferred_over_raise(self):
        # packet 2 is unwanted: it must join the first generation on the
        # keep branch before any rank is raised
        sfm = StateFeedbackMatrix([[1, 1, 0]])
        p = heuristic_partition(sfm, PartitionerConfig(gamma_cap=1))
        assert insertion_steps(sfm, p)[0][0] == (2, "keep", 0)

    @pytest.mark.parametrize("wants, gamma, groups", [
        # packets 1 and 5 are unwanted: they open the first generation, in index order
        ([[1, 0, 1, 0, 1, 0], [1, 0, 0, 1, 1, 0]], 1, [(1, 5, 0), (4,), (2, 3)]),
        ([[1, 0, 1, 0, 1, 0], [1, 0, 0, 1, 1, 0]], 2, [(1, 5, 0, 4), (2, 3)]),
        ([[1, 0, 1, 0, 1, 0], [1, 0, 0, 1, 1, 0]], 3, [(1, 5, 0, 4, 2, 3)]),
        ([[0, 0, 0], [0, 0, 0]], 1, [(0, 1, 2)]),
        ([[0, 0, 0], [0, 0, 0]], 3, [(0, 1, 2)]),
        ([[0], [0]], 2, [(0,)]),
        ([[1]], 1, [(0,)]),
        ([[0, 1]], 1, [(0, 1)]),
        ([[1, 0], [1, 0]], 1, [(1, 0)]),
    ])
    def test_unwanted_packets_open_the_first_generation(self, wants, gamma, groups):
        sfm = StateFeedbackMatrix(wants)
        part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
        assert [g.packet_ids for g in part.generations] == groups
        assert reference_greedy(sfm, gamma)[0] == groups

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            PartitionerConfig(gamma_cap=0)

    def test_validity_and_irreducibility_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            sfm = random_sfm(rng, int(rng.integers(1, 7)), int(rng.integers(1, 12)), 0.4)
            gamma = int(rng.integers(1, 5))
            p = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
            assert validate_partition(sfm, p, gamma).valid
            assert is_irreducible(sfm, p)

    def test_popularity_non_increasing_within_branch_runs(self):
        # consecutive same-branch insertions pick from a shrinking candidate
        # set, so their popularity cannot increase
        rng = np.random.default_rng(4)
        for _ in range(40):
            sfm = random_sfm(rng, 5, 10, 0.4)
            pop = sfm.wants.sum(axis=0)
            p = heuristic_partition(sfm, PartitionerConfig(gamma_cap=2))
            for steps in insertion_steps(sfm, p):
                for (ka, branch_a, _), (kb, branch_b, _) in zip(steps, steps[1:]):
                    if branch_a == branch_b:
                        assert pop[ka] >= pop[kb]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 24), st.sampled_from([0.05, 0.2, 0.5, 0.8]),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_count_matrix_reference(self, n, k, p, gamma, seed):
        # N up to 70 crosses the 64-bit word and covers N not a multiple of 8
        sfm = random_sfm(np.random.default_rng(seed), n, k, p)
        part = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
        groups, steps = reference_greedy(sfm, gamma)
        assert [g.packet_ids for g in part.generations] == groups
        assert insertion_steps(sfm, part) == steps
        # each generation climbs to its rank one "raise" at a time
        assert [sum(branch == "raise" for _, branch, _ in t) for t in steps] == \
            generation_ranks(sfm, part)
        bits = sfm.receiver_bitsets
        rebuilt = [[(bits[j] >> i) & 1 for j in range(k)] for i in range(n)]
        assert rebuilt == sfm.wants.tolist()
        assert bits is sfm.receiver_bitsets

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        sfm = random_sfm(rng, 6, 15, 0.3)
        cfg = PartitionerConfig(gamma_cap=3)
        a = heuristic_partition(sfm, cfg)
        b = heuristic_partition(sfm, cfg)
        assert a == b
        assert insertion_steps(sfm, a) == insertion_steps(sfm, b)


class TestIdncReference:
    """The greedy partitioner at cap 1 is the IDNC reference partition."""

    @staticmethod
    def idnc(sfm):
        return heuristic_partition(sfm, PartitionerConfig(gamma_cap=1))

    def test_all_zero(self):
        sfm = StateFeedbackMatrix(np.zeros((2, 4), dtype=int))
        assert self.idnc(sfm).n_generations == 1

    def test_conflict_forces_split(self):
        assert self.idnc(StateFeedbackMatrix([[1, 1]])).n_generations == 2

    def test_disjoint_wants_coexist(self):
        assert self.idnc(StateFeedbackMatrix([[1, 0], [0, 1]])).n_generations == 1

    def test_instantly_decodable(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            sfm = random_sfm(rng, 5, 10, 0.4)
            p = self.idnc(sfm)
            assert max(generation_ranks(sfm, p)) <= 1


class TestBlind:
    def test_even_split(self):
        p = blind_partition(20, 4)
        assert [len(g) for g in p.generations] == [5, 5, 5, 5]
        assert p.generations[1].packet_ids == (5, 6, 7, 8, 9)

    def test_singletons(self):
        p = blind_partition(5, 5)
        assert [g.packet_ids for g in p.generations] == [(0,), (1,), (2,), (3,), (4,)]

    def test_remainder_rule(self):
        assert [len(g) for g in blind_partition(7, 3).generations] == [3, 2, 2]

    def test_bad_m(self):
        with pytest.raises(ValueError):
            blind_partition(4, 5)
        with pytest.raises(ValueError):
            blind_partition(4, 0)

    def test_consecutive_cover(self):
        p = blind_partition(11, 4)
        assert [k for g in p.generations for k in g.packet_ids] == list(range(11))

    def test_numpy_counts_give_the_same_partition(self):
        p = blind_partition(np.int64(11), np.int64(4))
        assert p == blind_partition(11, 4) and type(p.n_packets) is int


class TestOracle:
    def test_all_zero(self):
        sfm = StateFeedbackMatrix(np.zeros((2, 5), dtype=int))
        assert optimal_partition(sfm, 1).min_generations == 1

    def test_identity_sfm(self):
        sfm = StateFeedbackMatrix(np.eye(3, dtype=int))
        res = optimal_partition(sfm, 1)
        assert res.min_generations == 1
        assert validate_partition(sfm, res.witness, 1).valid
        assert heuristic_partition(sfm, PartitionerConfig(gamma_cap=1)).n_generations == 1

    def test_conflict_triangle_needs_three(self, conflict_sfm):
        res = optimal_partition(conflict_sfm, 1)
        assert res.min_generations == 3
        assert validate_partition(conflict_sfm, res.witness, 1).valid

    def test_witness_always_valid_and_minimal(self):
        # on most draws greedy meets the demand lower bound and the search
        # never runs, so draw until 20 instances have made it expand nodes
        rng = np.random.default_rng(12)
        searched = beat_greedy = 0
        while searched < 20:
            sfm = random_sfm(rng, int(rng.integers(3, 8)), int(rng.integers(5, 9)),
                             float(rng.choice([0.3, 0.5, 0.7])))
            gamma = int(rng.integers(1, 4))
            res = optimal_partition(sfm, gamma)
            assert validate_partition(sfm, res.witness, gamma).valid
            assert res.witness.n_generations == res.min_generations
            if res.nodes_explored == 0:
                continue
            searched += 1
            assert res.min_generations == brute_force_min_partition(sfm, gamma)
            greedy = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
            beat_greedy += res.min_generations < greedy.n_generations
        assert beat_greedy > 0

    def test_search_matches_reference_at_larger_k(self):
        # the search's node order, count and witness equal the reference
        # search's on 100 instances past brute force's reach that expand nodes
        rng = np.random.default_rng(16)
        searched = 0
        while searched < 100:
            sfm = random_sfm(rng, int(rng.integers(4, 11)), int(rng.integers(9, 15)),
                             float(rng.choice([0.3, 0.5, 0.7])))
            gamma = int(rng.integers(1, 5))
            res = optimal_partition(sfm, gamma, max_packets=14)
            groups = tuple(g.packet_ids for g in res.witness.generations)
            assert (res.min_generations, res.nodes_explored, groups) == \
                reference_search(sfm, gamma)
            searched += res.nodes_explored > 0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(5, 10)), st.sampled_from(range(6, 9)), st.integers(1, 2),
           st.integers(0, 2**32 - 1), st.data())
    def test_relabelling_packets_keeps_the_optimum(self, n, k, gamma, seed, data):
        # the search's branching order depends on the packet ids only through
        # ties, so permuting the columns must leave the minimum where it is;
        # N >= 5, K >= 6 and P = 0.5 make the search run on about a third of
        # the examples (sampled_from draws the sizes evenly)
        sfm = random_sfm(np.random.default_rng(seed), n, k, 0.5)
        perm = data.draw(st.permutations(range(k)))
        relabelled = StateFeedbackMatrix(sfm.wants[:, perm])
        m_opt = brute_force_min_partition(sfm, gamma)
        for instance in (sfm, relabelled):
            res = optimal_partition(instance, gamma)
            assert res.min_generations == m_opt
            assert validate_partition(instance, res.witness, gamma).valid
            if res.witness is not res.heuristic:  # found by the search: canonical form
                groups = [list(g.packet_ids) for g in res.witness.generations]
                assert groups == sorted(sorted(g) for g in groups)

    def test_heuristic_never_beats_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            sfm = random_sfm(rng, 5, 8, 0.5)
            gamma = int(rng.integers(1, 4))
            mh = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma)).n_generations
            assert mh >= optimal_partition(sfm, gamma).min_generations

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            sfm = random_sfm(rng, 4, 7, 0.5)
            ms = [optimal_partition(sfm, g).min_generations for g in (1, 2, 3)]
            assert ms[0] >= ms[1] >= ms[2]

    def test_size_cap(self):
        # the cap bounds only the search: the conflict triangle padded with 10
        # unwanted packets (K = 13) needs one, since its greedy's 3 generations
        # miss the demand bound of 2
        wants = np.zeros((3, 13), dtype=int)
        wants[:, :3] = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        sfm = StateFeedbackMatrix(wants)
        with pytest.raises(InstanceTooLargeError) as refusal:
            optimal_partition(sfm, 1)
        assert str(refusal.value) == (
            "K=13 needs an exact search (the greedy's 3 generations miss the demand bound "
            "of 2), which is capped at 12 packets")
        res = optimal_partition(sfm, 1, max_packets=13)
        assert (res.min_generations, res.nodes_explored) == (3, 5)
        # an all-zero K = 13 SFM meets its bound of 1 with the greedy: no search, no cap
        res = optimal_partition(StateFeedbackMatrix(np.zeros((1, 13), dtype=int)), 1)
        assert (res.min_generations, res.nodes_explored) == (1, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(range(1, 9)), st.integers(1, 12) | st.integers(13, 14),
           st.sampled_from([0.1, 0.3]), st.integers(0, 2**32 - 1))
    def test_cap_refuses_only_a_search_past_it(self, n, k, p, seed):
        # at the default cap of 12 the answer is the uncapped one, or a refusal
        # exactly when K > 12 and the greedy misses the demand bound; K is drawn
        # past the cap about half the time, and a few percent of those are refused
        sfm = random_sfm(np.random.default_rng(seed), n, k, p)
        for gamma in range(1, k + 1):
            uncapped = optimal_partition(sfm, gamma, max_packets=k)
            bound = max(1, -(-int(sfm.wants.sum(axis=1).max()) // gamma))
            if k > 12 and uncapped.heuristic.n_generations > bound:
                with pytest.raises(InstanceTooLargeError, match="capped at 12 packets"):
                    optimal_partition(sfm, gamma)
            else:
                assert optimal_partition(sfm, gamma) == uncapped

    def test_nodes_explored_reported(self):
        # receiver lower bound is 2, the true optimum is 3: the search must
        # actually expand nodes to prove it
        sfm = StateFeedbackMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        res = optimal_partition(sfm, 1)
        assert res.min_generations == 3
        assert res.nodes_explored > 0
        # when the greedy result already meets the demand lower bound the
        # search exits without expanding anything
        easy = optimal_partition(StateFeedbackMatrix([[1, 1]]), 1)
        assert easy.nodes_explored == 0

    def test_result_carries_the_greedy_incumbent(self):
        improved = 0
        for sfm, gamma in by_algorithm_instances():
            res = optimal_partition(sfm, gamma)
            assert res.heuristic == heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
            assert res.min_generations == res.witness.n_generations
            if res.min_generations == res.heuristic.n_generations:
                assert res.witness is res.heuristic
            else:
                improved += 1
        assert improved > 0  # both branches run

    def test_oracle_gap_runs_the_greedy_once_per_instance(self, monkeypatch):
        calls = []
        greedy = partition_module.heuristic_partition

        def counting_greedy(*args):
            calls.append(args)
            return greedy(*args)

        monkeypatch.setattr(partition_module, "heuristic_partition", counting_greedy)
        rows = []
        for row in run_oracle_gap(8, 6, 0.5, 2, 20, seed=7):  # each as soon as it is answered
            rows.append(row)
            assert len(calls) == len(rows)
        assert len(rows) == 20
        for row, (sfm, cfg) in zip(rows, calls):
            assert row["M_heur"] == greedy(sfm, cfg).n_generations


class TestByAlgorithm:
    def test_each_name_gives_its_producer(self):
        for sfm, gamma in by_algorithm_instances():
            heur = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
            assert by_algorithm(sfm, gamma, "heuristic") == heur
            assert by_algorithm(sfm, gamma, "blind") == blind_partition(sfm.n_packets,
                                                                        heur.n_generations)
            assert by_algorithm(sfm, gamma, "oracle") == optimal_partition(sfm, gamma).witness

    def test_unknown_name_lists_choices(self, conflict_sfm):
        with pytest.raises(ValueError, match="unknown algorithm 'greedy'") as exc:
            by_algorithm(conflict_sfm, 1, "greedy")
        assert all(name in str(exc.value) for name in ALGORITHMS)


def test_producers_build_what_the_checked_reader_reads():
    # the greedy, the blind chunks and the oracle's searched witness build their
    # covers directly, unread: each must equal what the checked reader builds of
    # its generations at its cap, cover 0..K-1 and hold Generations
    witness_was_greedy = set()  # both branches of the witness, over all examples

    def same_as_checked(p, k, cap):
        assert Partition(p.generations, gamma_cap=cap) == p
        assert p.n_packets == k
        assert all(type(g) is Generation for g in p.generations)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 40), st.sampled_from([0.05, 0.2, 0.5, 0.8]),
           st.integers(0, 2**32 - 1))
    @example(6, 8, 0.5, 0)  # its oracle beats the greedy at cap 2
    def check(n, k, p, seed):
        sfm = random_sfm(np.random.default_rng(seed), n, k, p)
        small = StateFeedbackMatrix(sfm.wants[:, :8])  # K <= 8 for the exact search
        for cap in range(1, k + 1):
            same_as_checked(heuristic_partition(sfm, PartitionerConfig(cap)), k, cap)
            same_as_checked(blind_partition(k, cap), k, None)  # cap as M, 1..K
            if cap <= small.n_packets:
                res = optimal_partition(small, cap)
                same_as_checked(res.witness, small.n_packets, cap)
                witness_was_greedy.add(res.witness is res.heuristic)

    check()
    assert witness_was_greedy == {True, False}


# Search-tree pin at the paper's operating point (K = N = 20, P_e = 0.2) on the
# SFMs drawn from seeds [31337, i], i < 40.  The M_opt values were recorded
# with the index-order search (14,422,102 nodes at gamma = 1), before the
# search placed the most demanded packets first.  The instances listed under
# SEARCHED are the ones where greedy misses the demand lower bound, so the
# search runs; at gamma = 2 and 3 each of them beats greedy.
PINNED_M_OPT = {
    1: [8, 8, 7, 9, 8, 8, 9, 9, 11, 7, 9, 8, 8, 7, 8, 9, 7, 10, 7, 8,
        8, 7, 8, 8, 11, 8, 8, 7, 9, 9, 7, 10, 8, 10, 7, 9, 9, 7, 9, 10],
    2: [4, 4, 4, 4, 4, 4, 4, 4, 6, 3, 4, 4, 4, 4, 4, 5, 4, 4, 3, 4,
        4, 3, 4, 4, 5, 4, 4, 4, 4, 5, 4, 5, 4, 5, 4, 4, 4, 3, 4, 4],
    3: [3, 3, 3, 3, 3, 3, 3, 3, 4, 2, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3,
        3, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 3, 3, 3, 3, 3, 2, 3, 3],
}
# (gamma, i) -> (nodes_explored, witness groups); None where no node beat
# greedy, so the witness is the greedy incumbent
SEARCHED = {
    (1, 1): (96, ((0, 16, 17), (1, 9, 12), (2, 7, 14), (3,), (4, 5, 19), (6, 10),
                  (8, 13, 15), (11, 18))),
    (1, 3): (305, None),
    (1, 4): (596, ((0, 13), (1, 10, 17), (2, 9, 12), (3, 18), (4, 8), (5, 15), (6, 14, 19),
                   (7, 11, 16))),
    (1, 6): (113, None),
    (1, 7): (385, None),
    (1, 9): (92, None),
    (1, 10): (798, ((0, 2, 15), (1, 3, 13), (4, 7), (5, 11, 14), (6, 17), (8, 10), (9, 18),
                    (12,), (16, 19))),
    (1, 11): (1081, None),
    (1, 12): (141, None),
    (1, 13): (75, ((0, 2, 4, 6), (1, 15, 17), (3, 12), (5, 13, 18), (7, 8, 11),
                   (9, 16, 19), (10, 14))),
    (1, 14): (332, ((0, 17), (1, 3, 19), (2, 6, 9, 18), (4, 11), (5, 14), (7, 13),
                    (8, 10, 16), (12, 15))),
    (1, 17): (837, None),
    (1, 18): (164, ((0, 2, 3, 14, 17), (1, 4), (5, 13, 15), (6, 12), (7, 10), (8, 9, 18),
                    (11, 16, 19))),
    (1, 19): (84, ((0, 9, 11), (1, 2, 14), (3, 6, 18), (4, 15, 16), (5, 8, 19), (7, 17),
                   (10,), (12, 13))),
    (1, 20): (89, ((0, 1, 13, 16), (2, 5), (3,), (4, 12, 17), (6, 19), (7, 9, 11, 18),
                   (8, 10), (14, 15))),
    (1, 21): (168, ((0, 14, 17), (1, 2, 7, 13, 15), (3, 11), (4, 9), (5, 10, 12, 18),
                    (6, 19), (8, 16))),
    (1, 22): (194, ((0, 2), (1, 8, 11), (3, 9, 16), (4, 14, 18), (5, 10), (6, 15, 19),
                    (7, 17), (12, 13))),
    (1, 23): (56, None),
    (1, 24): (415, None),
    (1, 25): (159, ((0, 1, 5), (2, 13, 16), (3, 10), (4, 19), (6, 7, 9), (8, 12, 15),
                    (11, 17), (14, 18))),
    (1, 28): (213, ((0, 17), (1, 14), (2, 6), (3, 10, 13), (4, 18), (5, 15, 19), (7, 8, 9),
                    (11, 12), (16,))),
    (1, 29): (89, ((0, 1, 14), (2, 3, 4), (5, 13), (6, 8), (7, 16), (9, 10, 12), (11, 18),
                   (15, 17), (19,))),
    (1, 32): (373, ((0, 9, 11), (1, 2, 7), (3, 6, 13), (4,), (5, 8), (10, 14, 18),
                    (12, 16), (15, 17, 19))),
    (1, 33): (90, None),
    (1, 34): (83, ((0, 4, 5), (1, 2, 10), (3, 14, 18), (6, 11, 15), (7, 13, 19),
                   (8, 9, 12), (16, 17))),
    (1, 35): (556, None),
    (1, 36): (442, ((0, 17), (1, 5, 7), (2, 11, 15), (3, 19), (4, 18), (6, 8, 14),
                    (9, 12, 13), (10,), (16,))),
    (1, 37): (211, ((0, 2, 3, 12), (1, 7, 11, 15), (4, 10), (5, 16), (6, 9, 17),
                    (8, 13, 18, 19), (14,))),
    (1, 38): (180, None),
    (1, 39): (63, None),
    (2, 17): (49, ((0, 14, 15, 18), (1, 2, 4, 5, 16), (3, 7, 9, 12, 13),
                   (6, 8, 10, 11, 17, 19))),
    (2, 18): (38, ((0, 2, 5, 12, 13, 14, 15, 17), (1, 4, 7, 8, 9, 10),
                   (3, 6, 11, 16, 18, 19))),
    (2, 19): (48, ((0, 9, 11, 12, 13), (1, 2, 4, 14, 16, 17), (3, 7, 8, 15),
                   (5, 6, 10, 18, 19))),
    (2, 28): (50, ((0, 5, 6, 13, 14, 17), (1, 3, 4, 12), (2, 10, 16, 18),
                   (7, 8, 9, 11, 15, 19))),
    (2, 37): (228, ((0, 2, 3, 8, 9, 13, 18), (1, 5, 7, 12, 14, 15, 16, 19),
                    (4, 6, 10, 11, 17))),
    (2, 39): (500, ((0, 15, 16, 18), (1, 2, 13, 14, 17, 19), (3, 4, 7, 10, 12),
                    (5, 6, 8, 9, 11))),
    (3, 18): (30, ((0, 2, 4, 5, 7, 10, 12, 13, 15, 17),
                   (1, 3, 6, 8, 9, 11, 14, 16, 18, 19))),
    (3, 21): (56, ((0, 1, 2, 5, 7, 8, 11, 12, 15, 16, 17, 18),
                   (3, 4, 6, 9, 10, 13, 14, 19))),
    (3, 33): (35, ((0, 1, 5, 8, 11, 13, 14, 17, 19), (2, 3, 4, 7, 9, 10, 15, 16),
                   (6, 12, 18))),
}


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_search_tree_pinned_at_paper_point(gamma):
    channel = ChannelModel(0.2)
    for i, m_opt in enumerate(PINNED_M_OPT[gamma]):
        rng = np.random.default_rng(np.random.SeedSequence([31337, i]))
        sfm = systematic_phase(20, 20, channel, rng)
        res = optimal_partition(sfm, gamma, max_packets=20)
        groups = tuple(g.packet_ids for g in res.witness.generations)
        assert res.min_generations == m_opt, i
        nodes, pinned = SEARCHED.get((gamma, i), (0, None))
        if pinned is None:
            greedy = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
            pinned = tuple(g.packet_ids for g in greedy.generations)
        assert (res.nodes_explored, groups) == (nodes, pinned), i


def milp_min_generations(sfm, gamma, max_generations):
    """Minimum generation count by an integer program solved with HiGHS,
    independent of the search: binary x[k, m] puts packet k in generation m,
    binary y[m] opens generation m, over m < max_generations."""
    optimize = pytest.importorskip("scipy.optimize")
    wants = sfm.wants
    n, k, m = wants.shape[0], sfm.n_packets, max_generations
    x = np.arange(k * m).reshape(k, m)  # variable index of x[k, m]; y[m] follows
    y = k * m + np.arange(m)
    rows, lower, upper = [], [], []

    def constrain(coeffs, lo, hi):
        row = np.zeros(k * m + m)
        for var, coeff in coeffs:
            row[var] = coeff
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    for packet in range(k):  # each packet in exactly one generation
        constrain([(x[packet, j], 1) for j in range(m)], 1, 1)
    for receiver in range(n):  # each receiver wants at most gamma per open generation
        wanted = np.flatnonzero(wants[receiver])
        for j in range(m):
            constrain([(x[w, j], 1) for w in wanted] + [(y[j], -gamma)], -np.inf, 0)
    for j in range(m - 1):  # generations open in order
        constrain([(y[j], 1), (y[j + 1], -1)], 0, np.inf)
    ub = np.ones(k * m + m)
    for packet in range(k):  # packet k opens at most generation k
        ub[x[packet, packet + 1:]] = 0
    cost = np.concatenate([np.zeros(k * m), np.ones(m)])
    res = optimize.milp(cost, integrality=np.ones_like(cost),
                        bounds=optimize.Bounds(np.zeros_like(cost), ub),
                        constraints=optimize.LinearConstraint(np.array(rows), lower, upper))
    assert res.status == 0, res.message
    return round(res.fun)


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_search_matches_milp_at_paper_point(gamma):
    # every instance drawn at K = N = 20, P_e = 0.2, none skipped
    channel = ChannelModel(0.2)
    for i in range(30):
        sfm = systematic_phase(20, 20, channel, trial_rng(31337, i))
        res = optimal_partition(sfm, gamma, max_packets=20)
        assert res.min_generations == milp_min_generations(
            sfm, gamma, res.heuristic.n_generations), i
