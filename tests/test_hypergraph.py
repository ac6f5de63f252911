import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencast import (
    Coloring,
    Hypergraph,
    NoReceiversError,
    Partition,
    StateFeedbackMatrix,
    chromatic_number,
    coloring_to_partition,
    hypergraph_to_sfm,
    is_uniform,
    is_valid_coloring,
    optimal_partition,
    partition_to_coloring,
    random_hypergraph,
    random_uniform_hypergraph,
    sfm_to_hypergraph,
    validate_partition,
)
from gencast.hypergraph import format_hypergraph, load_hypergraph, parse_hypergraph

class TestConversions:
    def test_all_zero_sfm_gives_no_edges(self):
        sfm = StateFeedbackMatrix(np.zeros((3, 4), dtype=int))
        h = sfm_to_hypergraph(sfm)
        assert h.n_vertices == 4
        assert h.n_edges == 0

    def test_row_supports_become_edges(self):
        sfm = StateFeedbackMatrix([[1, 1, 0], [0, 1, 1]])
        h = sfm_to_hypergraph(sfm)
        assert h.edges == (frozenset({0, 1}), frozenset({1, 2}))

    def test_conflict_fixture_shape(self, conflict_sfm):
        h = sfm_to_hypergraph(conflict_sfm)
        assert h.n_vertices == 6
        assert h.n_edges == 4

    def test_edges_back_to_sfm(self):
        h = Hypergraph(3, (frozenset({0, 1}), frozenset({1, 2})))
        sfm = hypergraph_to_sfm(h)
        assert sfm.wants.tolist() == [[1, 1, 0], [0, 1, 1]]

    def test_edgeless_conversion_rejected(self):
        with pytest.raises(NoReceiversError):
            hypergraph_to_sfm(Hypergraph(3, ()))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            h = random_hypergraph(int(rng.integers(2, 9)), int(rng.integers(1, 7)), 0.4, rng)
            back = sfm_to_hypergraph(hypergraph_to_sfm(h))
            assert back.n_vertices == h.n_vertices
            assert sorted(back.edges, key=sorted) == sorted(h.edges, key=sorted)

    def test_duplicate_edges_preserved(self):
        h = Hypergraph(2, (frozenset({0, 1}), frozenset({0, 1})))
        assert hypergraph_to_sfm(h).n_receivers == 2


class TestColoringChecks:
    def test_distinct_colors_valid_at_cap_one(self):
        h = Hypergraph(3, (frozenset({0, 1, 2}),))
        assert is_valid_coloring(h, Coloring((0, 1, 2)), 1).valid

    def test_one_color_valid_at_max_edge_size(self):
        h = Hypergraph(4, (frozenset({0, 1, 2}), frozenset({2, 3})))
        assert is_valid_coloring(h, Coloring((0, 0, 0, 0)), 3).valid

    def test_violation_located(self):
        h = Hypergraph(3, (frozenset({0, 1, 2}),))
        report = is_valid_coloring(h, Coloring((0, 0, 1)), 1)
        assert report.violations == ((0, 0),)

    def test_partial_coloring_rejected(self):
        h = Hypergraph(3, (frozenset({0, 1}),))
        with pytest.raises(ValueError):
            is_valid_coloring(h, Coloring((0, 1)), 1)


class TestChromaticNumber:
    def test_edgeless_is_one(self):
        m, coloring = chromatic_number(Hypergraph(5, ()), 1)
        assert m == 1
        assert coloring.assignment == (0,) * 5

    def test_conflict_fixture_needs_three(self, conflict_sfm):
        m, witness = chromatic_number(sfm_to_hypergraph(conflict_sfm), 1)
        assert m == 3
        assert is_valid_coloring(sfm_to_hypergraph(conflict_sfm), witness, 1).valid

    def test_single_size4_edge_cap2(self):
        h = Hypergraph(4, (frozenset({0, 1, 2, 3}),))
        m, witness = chromatic_number(h, 2)
        assert m == 2
        assert is_valid_coloring(h, witness, 2).valid

    def test_agrees_with_partition_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            h = random_hypergraph(int(rng.integers(2, 8)), int(rng.integers(1, 6)), 0.5, rng)
            for gamma in (1, 2):
                m, _ = chromatic_number(h, gamma)
                assert m == optimal_partition(hypergraph_to_sfm(h), gamma).min_generations


class TestUniformity:
    def test_uniform(self):
        h = Hypergraph(4, (frozenset({0, 1}), frozenset({2, 3})))
        assert is_uniform(h, 2)

    def test_not_uniform(self):
        h = Hypergraph(3, (frozenset({0, 1}), frozenset({0, 1, 2})))
        assert not is_uniform(h, 2)

    def test_generator_contract(self):
        rng = np.random.default_rng(23)
        h = random_uniform_hypergraph(8, 10, 3, rng)
        assert is_uniform(h, 3)


class TestColoringPartitionMaps:
    def test_empty_classes_dropped(self):
        p = coloring_to_partition(Coloring((0, 2, 2)))
        assert [g.packet_ids for g in p.generations] == [(0,), (1, 2)]

    def test_relabeling(self):
        p = Partition(((0, 1), (2,)))
        assert partition_to_coloring(p).assignment == (0, 0, 1)
        back = coloring_to_partition(Coloring((0, 0, 1)))
        assert [g.packet_ids for g in back.generations] == [(0, 1), (2,)]

    def test_round_trip_on_valid_partitions(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            colors = tuple(int(c) for c in rng.integers(0, 3, size=k))
            p = coloring_to_partition(Coloring(colors))
            again = coloring_to_partition(partition_to_coloring(p))
            assert again == Partition(p.generations)

    def test_large_colour_values_are_relabelled(self):
        # the work follows the colours in use, not the largest colour value
        h = Hypergraph(3, (frozenset({0, 1, 2}), frozenset({1, 2})))
        small, large = Coloring((0, 1, 1)), Coloring((0, 10**6, 10**6))
        assert coloring_to_partition(large) == coloring_to_partition(small)
        assert is_valid_coloring(h, small, 1).violations == ((1, 0), (1, 1))
        assert is_valid_coloring(h, large, 1).violations == ((10**6, 0), (10**6, 1))

    def test_incomplete_partition_rejected(self):
        with pytest.raises(ValueError):
            partition_to_coloring(Partition(((0, 2),)))


class TestReductionEquivalence:
    def test_coloring_valid_iff_partition_rank_ok(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            n_v = int(rng.integers(2, 9))
            h = random_hypergraph(n_v, int(rng.integers(1, 6)), 0.45, rng)
            sfm = hypergraph_to_sfm(h)
            colors = tuple(int(c) for c in rng.integers(0, max(1, n_v - 1), size=n_v))
            coloring = Coloring(colors)
            part = coloring_to_partition(coloring)
            for gamma in (1, 2, 3):
                lhs = is_valid_coloring(h, coloring, gamma).valid
                rhs = not validate_partition(sfm, part, gamma).rank_violations
                assert lhs == rhs


@st.composite
def hypergraphs(draw):
    """Any hypergraph: duplicate edges and the edgeless case included."""
    n = draw(st.integers(1, 12))
    edges = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=8))
    return Hypergraph(n, tuple(edges))


class TestTextFormat:
    def test_round_trip(self):
        h = Hypergraph(5, (frozenset({0, 4}), frozenset({1, 2, 3})))
        assert parse_hypergraph(format_hypergraph(h)) == h

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs())
    def test_round_trip_property(self, h):
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_hypergraph("5\n0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_hypergraph("3 2\n0 1\n")

    def test_load(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("3 1\n0 2\n")
        assert load_hypergraph(path) == Hypergraph(3, (frozenset({0, 2}),))
