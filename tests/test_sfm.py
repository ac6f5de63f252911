import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gencast import (
    DecoderState,
    Generation,
    Partition,
    PartitionerConfig,
    StateFeedbackMatrix,
    apdd_upper_bound,
    coloring_to_partition,
    generation_counts,
    heuristic_partition,
    is_irreducible,
    is_valid_coloring,
    optimal_partition,
    parse_sfm,
    partition_from_json,
    partition_to_json,
    total_rank,
    validate_partition,
)
from gencast.hypergraph import parse_hypergraph
from gencast.sfm import SfmParseError, format_sfm, generation_ranks

from conftest import prefix_ranks, random_sfm


def gens(*groups):
    return tuple(Generation(tuple(g)) for g in groups)


class TestConstruction:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            StateFeedbackMatrix([[0, 2]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StateFeedbackMatrix(np.zeros((0, 3)))

    def test_immutable(self):
        sfm = StateFeedbackMatrix([[1, 0]])
        with pytest.raises(ValueError):
            sfm.wants[0, 0] = 0

    def test_generation_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Generation((1, 1))

    def test_generation_rejects_negative_ids(self):
        with pytest.raises(ValueError, match=re.escape(
                "negative packet id in generation: -1 (1 of 2 ids)")):
            Generation((0, -1))

    def test_negative_id_error_names_at_most_five_ids(self):
        # the message names the offending ids, not every id it was given
        with pytest.raises(ValueError) as err:
            Partition((range(10**5), [-1]))
        assert str(err.value) == "negative packet id in partition: -1 (1 of 100001 ids)"
        assert len(str(err.value)) < 200
        coloring = (0, -1, -2, -3, -4, -5, -6, -7)
        message = re.escape("negative color in coloring: -1, -2, -3, -4, -5, ... (7 of 8 ids)")
        with pytest.raises(ValueError, match=message):
            coloring_to_partition(coloring)
        with pytest.raises(ValueError, match=message):
            is_valid_coloring(parse_hypergraph("8 0\n"), coloring, 1)

    def test_generation_normalises_numpy_integers(self):
        g = Generation((np.int64(3), np.uint8(0), 4))
        assert g.packet_ids == (3, 0, 4)
        assert all(type(i) is int for i in g.packet_ids)

    NON_INTEGER_IDS = [(1.9, "1.9"), (2.0, "2.0"), ("3", "'3'"), (True, "True"),
                       (False, "False"), (np.float64(1.0), "np.float64(1.0)"),
                       (np.bool_(True), "np.True_")]

    @pytest.mark.parametrize("bad, shown", NON_INTEGER_IDS)
    def test_generation_rejects_non_integer_ids(self, bad, shown):
        with pytest.raises(ValueError, match=f"packet ids must be integers, got {re.escape(shown)}$"):
            Generation((0, bad))

    @pytest.mark.parametrize("bad, shown", [(1.7, "1.7"), ("2", "'2'"), (True, "True"),
                                            (False, "False")])
    def test_partition_json_rejects_non_integer_ids(self, bad, shown):
        text = json.dumps({"generations": [[0, bad], [2]]})
        with pytest.raises(ValueError, match=f"packet ids must be integers, got {re.escape(shown)}$"):
            partition_from_json(text)


# --- the one input rule for ids, colours and rank caps --------------------

RULE_SFM = StateFeedbackMatrix([[1, 0, 1, 1], [0, 1, 1, 0]])
RULE_H = parse_hypergraph("4 2\n0 1\n2 3\n")


def _json_partition(**doc):
    return partition_from_json(json.dumps({"gamma": None, "generations": [[0, 1, 2, 3]],
                                           **doc}, default=int))


# entry point -> (call on one id or colour v, result for v = np.int64(3)), each
# with v next to a valid 0
ID_ENTRY_POINTS = {
    "Generation": (lambda v: Generation((0, v)).packet_ids, (0, 3)),
    "DecoderState.generation_ids": (lambda v: DecoderState((0, v), (0,)).generation_ids, (0, 3)),
    "DecoderState.wanted_ids": (lambda v: DecoderState((0, 3), (0, v)).unknown_ids, (0, 3)),
    # a coloring's colors, as is_valid_coloring reports them
    "Coloring": (lambda v: tuple(c for c, _ in is_valid_coloring(RULE_H, (0, 0, v, v), 1)
                                 .violations), (0, 3)),
    "partition_from_json": (lambda v: _json_partition(generations=[[0, v], [1], [2]])
                            .generations[0].packet_ids, (0, 3)),
}
# the entry points that take one generation's ids
GENERATION_ENTRY_POINTS = ["Generation", "DecoderState.generation_ids", "partition_from_json"]
# a loaded partition's ids pass the Partition check, as one list: a negative id is
# named as in a partition, and an id twice in a generation breaks the cover
PARTITION_JSON_MESSAGES = {-1: "negative packet id in partition", 0: "duplicated ids"}
# entry point -> (call on one rank cap g, result for g = np.int64(3))
CAP_ENTRY_POINTS = {
    "Partition.gamma_cap": (lambda g: Partition(gens([0, 1, 2, 3]), gamma_cap=g).gamma_cap, 3),
    "PartitionerConfig": (lambda g: PartitionerConfig(gamma_cap=g).gamma_cap, 3),
    "optimal_partition": (lambda g: optimal_partition(RULE_SFM, g).witness.gamma_cap, 3),
    "is_valid_coloring": (lambda g: is_valid_coloring(RULE_H, (0,) * 4, g).valid,
                          True),
    "partition_from_json": (lambda g: _json_partition(gamma=g).gamma_cap, 3),
    "validate_partition": (lambda g: validate_partition(RULE_SFM, Partition(gens([0, 1, 2, 3])),
                                                        g).rank_violations, ()),
}
NON_INTEGERS = [True, 1.5, np.float64(2.0), "2"]


class TestInputRule:
    @pytest.mark.parametrize("entry", ID_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
    def test_ids_and_colours_reject_non_integers(self, entry, bad):
        call, _ = ID_ENTRY_POINTS[entry]
        if entry == "partition_from_json" and isinstance(bad, np.floating):
            bad = float(bad)  # JSON carries it as a plain float
        with pytest.raises(ValueError, match=f"s must be integers, got {re.escape(repr(bad))}$"):
            call(bad)

    @pytest.mark.parametrize("entry", ID_ENTRY_POINTS)
    def test_ids_and_colours_accept_numpy_integers_as_int(self, entry):
        call, expected = ID_ENTRY_POINTS[entry]
        got = call(np.int64(3))
        assert got == expected
        assert all(type(i) is int for i in got)

    @pytest.mark.parametrize("entry", GENERATION_ENTRY_POINTS)
    @pytest.mark.parametrize("bad, message", [(-1, "negative packet id in generation"),
                                              (0, "duplicate packet ids in generation")])
    def test_generation_ids_non_negative_and_distinct(self, entry, bad, message):
        if entry == "partition_from_json":
            message = PARTITION_JSON_MESSAGES[bad]
        with pytest.raises(ValueError, match=message):
            ID_ENTRY_POINTS[entry][0](bad)

    def test_duplicate_ids_do_not_inflate_a_decoder(self):
        with pytest.raises(ValueError, match="duplicate packet ids"):
            DecoderState((1, 1, 2), (1,))

    @pytest.mark.parametrize("entry", CAP_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", NON_INTEGERS + [0, 0.5], ids=repr)
    def test_caps_reject_non_integers_and_zero(self, entry, bad):
        if entry == "partition_from_json" and isinstance(bad, np.floating):
            bad = float(bad)
        message = f"gamma must be an integer >= 1, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            CAP_ENTRY_POINTS[entry][0](bad)

    @pytest.mark.parametrize("entry", CAP_ENTRY_POINTS)
    def test_caps_accept_numpy_integers_as_int(self, entry):
        call, expected = CAP_ENTRY_POINTS[entry]
        got = call(np.int64(3))
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("bad", NON_INTEGERS + [0, 2.0], ids=repr)
    def test_hypergraph_vertex_count_is_an_integer(self, bad):
        # the vertex count is the hypergraph header's V: an integer token, at least 1
        header = f"{bad!r} 1"
        message = ("n_vertices must be an integer >= 1, got 0$" if bad == 0 else
                   f"^line 1: header must be two integers, got {re.escape(repr(header))}$")
        with pytest.raises(ValueError, match=message):
            parse_hypergraph(header + "\n0\n")

    def test_hypergraph_vertex_count_stored_as_int(self):
        h = parse_hypergraph("03 1\n0 2\n")
        assert h.n_packets == 3 and type(h.n_packets) is int
        assert h.wants.tolist() == [[1, 0, 1]]

    @pytest.mark.parametrize("doc", [{"gamma": True}, {"gamma": 2.5}, {"gamma": "2"},
                                     {"generations": 3}, {"generations": [5]}], ids=repr)
    def test_partition_json_raises_value_error_not_type_error(self, doc):
        with pytest.raises(ValueError):
            _json_partition(**doc)

    @pytest.mark.parametrize("groups, ids", [
        ([[0, 1], [1]], "0..1: duplicated ids [1], missing ids []"),
        ([[0], [2]], "0..2: duplicated ids [], missing ids [1]"),
    ])
    def test_partition_json_rejects_a_non_cover(self, groups, ids):
        with pytest.raises(ValueError, match=re.escape(f"does not disjointly cover packets {ids}")):
            _json_partition(generations=groups)


def first_rank(sfm, ids):
    """generation_ranks' rank of ids, as the first generation of a cover."""
    rest = [k for k in range(sfm.n_packets) if k not in ids]
    return generation_ranks(sfm, Partition((ids, rest)))[0]


class TestRank:
    def test_empty_generation_is_zero(self):
        sfm = StateFeedbackMatrix([[1, 1], [1, 0]])
        assert generation_ranks(sfm, Partition(gens([], [0, 1]))) == [0, 2]

    def test_all_zero_sfm(self):
        sfm = StateFeedbackMatrix(np.zeros((3, 4), dtype=int))
        assert generation_ranks(sfm, Partition(gens([0, 1, 2, 3]))) == [0]

    def test_hand_computed(self):
        sfm = StateFeedbackMatrix([[1, 1, 0], [0, 1, 1]])
        assert generation_ranks(sfm, Partition(gens([1, 2], [0]))) == [2, 1]

    def test_monotone_under_insertion(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sfm = random_sfm(rng, 4, 8, 0.4)
            ids = rng.permutation(8).tolist()
            cut = int(rng.integers(0, 8))
            base = first_rank(sfm, ids[:cut])
            grown = first_rank(sfm, ids[: cut + 1])
            assert base <= grown <= base + 1

    def test_whole_block_is_max_row_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sfm = random_sfm(rng, 5, 9, 0.3)
            assert first_rank(sfm, range(9)) == int(sfm.wants.sum(axis=1).max())


class TestValidatePartition:
    def test_single_generation_whole_block(self):
        sfm = StateFeedbackMatrix([[1, 1, 0], [0, 1, 1]])
        p = Partition(gens(range(3)))
        assert validate_partition(sfm, p, gamma=2).valid

    def test_shared_packet_is_cover_violation(self):
        # a Partition is a disjoint cover by construction
        with pytest.raises(ValueError, match=re.escape(
                "does not disjointly cover packets 0..1: duplicated ids [1], missing ids []")):
            Partition(gens([0, 1], [1]))

    def test_rank_violation_reported(self):
        sfm = StateFeedbackMatrix([[1, 1]])
        p = Partition(gens([0, 1]))
        report = validate_partition(sfm, p, gamma=1)
        assert report.rank_violations == ((0, 2),)
        assert not report.valid

    def test_missing_packet(self):
        with pytest.raises(ValueError, match=re.escape(
                "does not disjointly cover packets 0..2: duplicated ids [], missing ids [1]")):
            Partition(gens([0, 2]))

    def test_partition_of_another_block_size(self):
        sfm = StateFeedbackMatrix([[1, 1, 1]])
        for p in (Partition(gens([0, 1])), Partition(gens([0, 1], [2, 3]))):
            message = f"partition covers K={p.n_packets} packets, SFM has K=3"
            with pytest.raises(ValueError, match=message):
                generation_counts(sfm, p)
            with pytest.raises(ValueError, match=message):
                validate_partition(sfm, p, gamma=3)

    def test_empty_generations_allowed(self):
        p = Partition(gens([], [1, 0], []))
        assert p.n_packets == 2 and p.n_generations == 3
        assert Partition(()).n_packets == 0

    def test_accepts_exactly_rank_capped_covers(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            sfm = random_sfm(rng, 4, 6, 0.5)
            # random disjoint cover
            perm = list(rng.permutation(6))
            cuts = sorted(set(rng.integers(1, 6, size=2).tolist()))
            parts = [perm[i:j] for i, j in zip([0] + cuts, cuts + [6]) if perm[i:j]]
            p = Partition(gens(*parts))
            for gamma in (1, 2, 3):
                expect = all(max(prefix_ranks(sfm, g), default=0) <= gamma
                             for g in p.generations)
                assert validate_partition(sfm, p, gamma).valid == expect


class TestTotalRank:
    def test_all_zero(self):
        sfm = StateFeedbackMatrix(np.zeros((2, 3), dtype=int))
        assert total_rank(sfm, Partition(gens(range(3)))) == 0

    def test_hand_computed(self):
        sfm = StateFeedbackMatrix([[1, 1, 0], [0, 1, 1]])
        assert total_rank(sfm, Partition(gens([0, 1], [2]))) == 3

    def test_invalid_partition_raises(self):
        sfm = StateFeedbackMatrix([[1, 1]])
        with pytest.raises(ValueError):
            total_rank(sfm, Partition(gens([0])))

    def test_bounded_by_m_gamma_and_reorder_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            sfm = random_sfm(rng, 4, 7, 0.4)
            from gencast import PartitionerConfig, heuristic_partition

            gamma = int(rng.integers(1, 4))
            p = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
            assert total_rank(sfm, p) <= p.n_generations * gamma
            order = rng.permutation(p.n_generations)  # a Generation is a tuple: shuffle indices
            shuffled = Partition(tuple(p.generations[i] for i in order), gamma_cap=gamma)
            assert total_rank(sfm, shuffled) == total_rank(sfm, p)
            assert apdd_upper_bound(sfm, shuffled) == apdd_upper_bound(sfm, p)


class TestApddUpperBound:
    def test_zero_ranks(self):
        sfm = StateFeedbackMatrix(np.zeros((2, 2), dtype=int))
        assert apdd_upper_bound(sfm, Partition(gens([0], [1]))) == 0

    def test_single_rank_one(self):
        sfm = StateFeedbackMatrix([[1]])
        assert apdd_upper_bound(sfm, Partition(gens([0]))) == 1

    def test_ranks_two_one(self):
        sfm = StateFeedbackMatrix([[1, 1, 0], [0, 1, 1]])
        # ranks 2 and 1 -> 3 + 1
        assert apdd_upper_bound(sfm, Partition(gens([0, 1], [2]))) == 4


class TestIrreducibility:
    def test_single_generation(self):
        sfm = StateFeedbackMatrix([[1, 0], [0, 1]])
        assert is_irreducible(sfm, Partition(gens([0, 1])))

    def test_movable_packet_detected(self):
        sfm = StateFeedbackMatrix([[1, 0], [0, 1]])
        assert not is_irreducible(sfm, Partition(gens([0], [1])))

    def test_forced_split_is_irreducible(self):
        sfm = StateFeedbackMatrix([[1, 1]])
        assert is_irreducible(sfm, Partition(gens([0], [1])))


class TestTextFormats:
    def test_round_trip(self, conflict_sfm):
        assert parse_sfm(format_sfm(conflict_sfm)) == conflict_sfm

    def test_header_errors(self):
        with pytest.raises(SfmParseError):
            parse_sfm("")
        with pytest.raises(SfmParseError):
            parse_sfm("2\n1 0\n0 1\n")

    def test_bad_entry_position(self):
        with pytest.raises(SfmParseError) as err:
            parse_sfm("1 3\n0 x 1\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_row_count_mismatch(self):
        with pytest.raises(SfmParseError):
            parse_sfm("2 2\n1 0\n")

    def test_partition_json_round_trip(self):
        p = Partition(gens([0, 2], [1]), gamma_cap=2)
        q = partition_from_json(partition_to_json(p))
        assert q == p

    def test_partition_json_schema(self):
        doc = json.loads(partition_to_json(Partition(gens([1, 0]), gamma_cap=3)))
        assert doc == {"gamma": 3, "generations": [[1, 0]]}


# --- properties of the count matrix on arbitrary SFMs and covers ----------

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def sfms(draw):
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 10)))
    return StateFeedbackMatrix(draw(arrays(np.uint8, shape, elements=st.integers(0, 1))))


@PROPERTY_SETTINGS
@given(sfms())
def test_sfm_text_round_trip(sfm):
    assert parse_sfm(format_sfm(sfm)) == sfm


@st.composite
def covers(draw):
    """An SFM plus a disjoint cover: each packet gets a generation label, in
    a random order within its generation; unused labels stay as empty
    generations."""
    sfm = draw(sfms())
    k = sfm.n_packets
    labels = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    order = draw(st.permutations(range(k)))
    groups = [[i for i in order if labels[i] == m] for m in range(max(labels) + 1)]
    return sfm, Partition(gens(*groups))


def brute_force_counts(sfm, p):
    return [[sum(int(sfm.wants[n, k]) for k in g.packet_ids) for g in p.generations]
            for n in range(sfm.n_receivers)]


@PROPERTY_SETTINGS
@given(covers(), st.integers(1, 10))
def test_metrics_agree_with_brute_force_counts(cover, gamma):
    sfm, p = cover
    expected = brute_force_counts(sfm, p)
    counts = generation_counts(sfm, p)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected
    ranks = [max(row[m] for row in expected) for m in range(p.n_generations)]
    assert generation_ranks(sfm, p) == ranks
    assert [max(prefix_ranks(sfm, g), default=0) for g in p.generations] == ranks
    assert total_rank(sfm, p) == sum(ranks)
    assert apdd_upper_bound(sfm, p) == sum(r * (r + 1) // 2 for r in ranks)
    report = validate_partition(sfm, p, gamma)
    assert report.rank_violations == tuple((m, r) for m, r in enumerate(ranks) if r > gamma)


@PROPERTY_SETTINGS
@given(covers(), st.sampled_from(["duplicated", "missing", "out_of_range"]), st.data())
def test_non_covers_rejected(cover, fault, data):
    # a duplicate or a gap fails when the Partition is built; ids that are
    # 0..K'-1 for another K' fail against the SFM instead
    sfm, p = cover
    k = sfm.n_packets
    groups = [list(g.packet_ids) for g in p.generations if g.packet_ids]
    if fault == "duplicated":
        extra = data.draw(st.integers(0, k - 1))
        groups.append([extra])
        ids = rf"duplicated ids \[{extra}\], missing ids \[\]"
    elif fault == "missing":
        victim = data.draw(st.sampled_from(groups))
        lost = victim.pop(data.draw(st.integers(0, len(victim) - 1)))
        ids = rf"duplicated ids \[\], missing ids \[{lost}\]"
    else:
        extra = data.draw(st.integers(k, 99))
        data.draw(st.sampled_from(groups)).append(extra)
        # the gap k..extra-1 prints as one run, a single id as itself
        gap = str(k) if extra == k + 1 else f"{k}..{extra - 1}"
        ids = rf"duplicated ids \[\], missing ids \[{re.escape(gap)}\]"
    flat = sorted(i for g in groups for i in g)
    if flat == list(range(len(flat))):  # a cover of another K
        broken = Partition(gens(*groups))
        message = f"partition covers K={len(flat)} packets, SFM has K={k}"
        with pytest.raises(ValueError, match=message):
            generation_counts(sfm, broken)
        with pytest.raises(ValueError, match=message):
            validate_partition(sfm, broken, k)
    else:
        with pytest.raises(ValueError, match=f"disjointly cover packets 0..{flat[-1]}: {ids}$"):
            Partition(gens(*groups))


# fault -> the id that replaces one id of a group, or None for a change of ids
PLAIN_GROUP_FAULTS = {"negative": -1, "bool": True, "numpy bool": np.bool_(True), "float": 1.0,
                      "within": None, "across": None, "missing": None}


@PROPERTY_SETTINGS
@given(covers(), st.sampled_from(sorted(PLAIN_GROUP_FAULTS)), st.data())
def test_plain_groups_pass_one_check(cover, fault, data):
    # groups given as lists are checked once, as one flat list of ids, and
    # read like Generations: the same partition, or the same cover error
    _, p = cover
    groups = [[np.int64(i) if data.draw(st.booleans()) else i for i in g.packet_ids]
              for g in p.generations]
    built = Partition(tuple(groups), gamma_cap=2)
    assert built == Partition(p.generations, gamma_cap=2)
    assert [list(g.packet_ids) for g in built.generations] == groups
    assert [type(i) for g in built.generations for i in g.packet_ids] == [int] * p.n_packets
    victim = data.draw(st.sampled_from([g for g in groups if g]))
    if fault == "within":
        victim.append(data.draw(st.sampled_from(victim)))
    elif fault == "across":
        groups.append([data.draw(st.sampled_from(victim))])
    elif fault == "missing":  # an id below the largest: dropping the largest leaves a cover
        if p.n_packets == 1:
            groups.append([2])
        else:
            lost = data.draw(st.integers(0, p.n_packets - 2))
            next(g for g in groups if lost in g).remove(lost)
    else:
        victim[data.draw(st.integers(0, len(victim) - 1))] = PLAIN_GROUP_FAULTS[fault]
    with pytest.raises(ValueError) as err:
        Partition(tuple(groups))
    if fault in ("across", "missing"):  # Generations of the same ids, so only the cover breaks
        with pytest.raises(ValueError) as from_generations:
            Partition(gens(*groups))
        assert str(from_generations.value) == str(err.value)


def test_cover_error_prints_missing_runs():
    with pytest.raises(ValueError, match=re.escape(
            "0..9: duplicated ids [5], missing ids [1, 3..4, 7..8]")):
        Partition(((0, 2), (5, 6, 9), (5,)))
    # the message and its cost follow the ids given, not the largest id
    with pytest.raises(ValueError) as err:
        Partition(((0, 10**6),))
    assert str(err.value).endswith("missing ids [1..999999]")
    assert len(str(err.value)) < 200


def test_a_duplicate_that_fills_a_gap_is_no_cover():
    # as many ids as a cover and the right largest id, but one id twice
    for groups in (((0,), (0, 2)), ((0, 0, 2),), gens([0], [0, 2])):
        with pytest.raises(ValueError, match=re.escape(
                "0..2: duplicated ids [0], missing ids [1]")):
            Partition(groups)


@PROPERTY_SETTINGS
@given(sfms(), st.integers(1, 10))
def test_heuristic_partition_valid_and_irreducible(sfm, gamma):
    p = heuristic_partition(sfm, PartitionerConfig(gamma_cap=gamma))
    assert validate_partition(sfm, p, gamma).valid
    assert is_irreducible(sfm, p)
