import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencast import (
    Partition,
    StateFeedbackMatrix,
    coloring_to_partition,
    is_valid_coloring,
    optimal_partition,
    partition_to_coloring,
    sfm_to_hypergraph,
    validate_partition,
)
from gencast.hypergraph import format_hypergraph, load_hypergraph, parse_hypergraph
from gencast.sfm import SfmParseError

from conftest import coloring_violations, random_sfm


def hypergraph(n_vertices, *edges):
    """The hypergraph on n_vertices with the given edges, read from its text."""
    return parse_hypergraph(f"{n_vertices} {len(edges)}\n"
                            + "".join(" ".join(map(str, e)) + "\n" for e in edges))


class TestConversions:
    def test_all_zero_sfm_gives_no_edges(self):
        sfm = StateFeedbackMatrix(np.zeros((3, 4), dtype=int))
        h = sfm_to_hypergraph(sfm)
        assert h.n_packets == 4
        assert h.wants.tolist() == [[0, 0, 0, 0]]  # edgeless: one all-zero row
        assert format_hypergraph(h) == "4 0\n"

    def test_row_supports_become_edges(self):
        sfm = StateFeedbackMatrix([[1, 1, 0], [0, 0, 0], [0, 1, 1]])
        h = sfm_to_hypergraph(sfm)
        assert h.wants.tolist() == [[1, 1, 0], [0, 1, 1]]

    def test_conflict_fixture_shape(self, conflict_sfm):
        h = sfm_to_hypergraph(conflict_sfm)
        assert h.n_packets == 6
        assert h.n_receivers == 4

    def test_edges_back_to_sfm(self):
        h = hypergraph(3, (0, 1), (1, 2))
        assert h == StateFeedbackMatrix([[1, 1, 0], [0, 1, 1]])

    def test_edgeless_is_one_all_zero_row(self):
        h = parse_hypergraph("3 0\n")
        assert h.wants.tolist() == [[0, 0, 0]]
        assert sfm_to_hypergraph(h) == h

    def test_round_trip_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            sfm = random_sfm(rng, int(rng.integers(1, 7)), int(rng.integers(2, 9)), 0.4)
            h = sfm_to_hypergraph(sfm)
            assert sfm_to_hypergraph(h) == h
            assert parse_hypergraph(format_hypergraph(h)) == h

    def test_duplicate_edges_preserved(self):
        h = hypergraph(2, (0, 1), (0, 1))
        assert h.n_receivers == 2


class TestColoringChecks:
    def test_distinct_colors_valid_at_cap_one(self):
        h = hypergraph(3, (0, 1, 2))
        assert is_valid_coloring(h, (0, 1, 2), 1).valid

    def test_one_color_valid_at_max_edge_size(self):
        h = hypergraph(4, (0, 1, 2), (2, 3))
        assert is_valid_coloring(h, (0, 0, 0, 0), 3).valid

    def test_violation_located(self):
        h = hypergraph(3, (0, 1, 2))
        report = is_valid_coloring(h, (0, 0, 1), 1)
        assert report.violations == ((0, 0),)
        assert not report.valid

    def test_partial_coloring_rejected(self):
        h = hypergraph(3, (0, 1))
        with pytest.raises(ValueError, match="^coloring covers 2 vertices, hypergraph has 3$"):
            is_valid_coloring(h, (0, 1), 1)


class TestChromaticNumber:
    """The gamma-chromatic number is optimal_partition's minimum on the hypergraph."""

    def test_edgeless_is_one(self):
        result = optimal_partition(parse_hypergraph("5 0\n"), 1)
        assert result.min_generations == 1
        assert partition_to_coloring(result.witness) == (0,) * 5

    def test_conflict_fixture_needs_three(self, conflict_sfm):
        h = sfm_to_hypergraph(conflict_sfm)
        witness = optimal_partition(h, 1).witness
        assert witness.n_generations == 3
        assert is_valid_coloring(h, partition_to_coloring(witness), 1).valid

    def test_single_size4_edge_cap2(self):
        h = hypergraph(4, (0, 1, 2, 3))
        witness = optimal_partition(h, 2).witness
        assert witness.n_generations == 2
        assert is_valid_coloring(h, partition_to_coloring(witness), 2).valid

    def test_agrees_with_partition_oracle(self):
        # dropping the receivers that want nothing keeps the optimum
        rng = np.random.default_rng(22)
        for _ in range(20):
            sfm = random_sfm(rng, int(rng.integers(1, 6)), int(rng.integers(2, 8)), 0.5)
            for gamma in (1, 2):
                assert (optimal_partition(sfm_to_hypergraph(sfm), gamma).min_generations
                        == optimal_partition(sfm, gamma).min_generations)


class TestColoringPartitionMaps:
    def test_empty_classes_dropped(self):
        p = coloring_to_partition((0, 2, 2))
        assert [g.packet_ids for g in p.generations] == [(0,), (1, 2)]

    def test_relabeling(self):
        p = Partition(((0, 1), (2,)))
        assert partition_to_coloring(p) == (0, 0, 1)
        back = coloring_to_partition((0, 0, 1))
        assert [g.packet_ids for g in back.generations] == [(0, 1), (2,)]

    def test_round_trip_on_valid_partitions(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            colors = tuple(int(c) for c in rng.integers(0, 3, size=k))
            p = coloring_to_partition(colors)
            again = coloring_to_partition(partition_to_coloring(p))
            assert again == Partition(p.generations)

    def test_large_colour_values_are_relabelled(self):
        # the work follows the colours in use, not the largest colour value
        h = hypergraph(3, (0, 1, 2), (1, 2))
        small, large = (0, 1, 1), (0, 10**6, 10**6)
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
            sfm = random_sfm(rng, int(rng.integers(1, 6)), n_v, 0.45)
            h = sfm_to_hypergraph(sfm)
            coloring = tuple(int(c) for c in rng.integers(0, max(1, n_v - 1), size=n_v))
            part = coloring_to_partition(coloring)
            for gamma in (1, 2, 3):
                report = is_valid_coloring(h, coloring, gamma)
                assert report.violations == coloring_violations(h, coloring, gamma)
                assert report.valid == (not validate_partition(sfm, part, gamma).rank_violations)


@st.composite
def edge_lists(draw):
    """(V, edges) of any hypergraph: duplicate edges and the edgeless case included."""
    n = draw(st.integers(1, 12))
    return n, draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=8))


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.data(), st.integers(1, 4))
def test_is_valid_coloring_matches_set_intersection_reference(graph, data, gamma):
    n, edges = graph
    h = hypergraph(n, *map(sorted, edges))
    colors = st.one_of(st.integers(0, 3), st.just(10**6))  # sparse colours too
    coloring = tuple(data.draw(st.lists(colors, min_size=n, max_size=n)))
    report = is_valid_coloring(h, coloring, gamma)
    assert report.violations == coloring_violations(h, coloring, gamma)
    assert report.valid == (not report.violations)


class TestTextFormat:
    def test_round_trip(self):
        h = hypergraph(5, (0, 4), (1, 2, 3))
        assert format_hypergraph(h) == "5 2\n0 4\n1 2 3\n"
        assert parse_hypergraph(format_hypergraph(h)) == h

    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_round_trip_property(self, graph):
        n, edges = graph
        text = f"{n} {len(edges)}\n" + "".join(" ".join(map(str, sorted(e))) + "\n"
                                               for e in edges)
        h = parse_hypergraph(text)
        assert [set(np.flatnonzero(row)) for row in h.wants if row.any()] == list(edges)
        assert format_hypergraph(h) == text
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_hypergraph("5\n0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_hypergraph("3 2\n0 1\n")

    @pytest.mark.parametrize("text, message", [
        ("3 2\n0 1\n1 5\n", "line 3: vertex ids out of range: [5]"),
        ("3 2\n0 1\n1 -1\n", "line 3: negative vertex id in hyperedge: -1 (1 of 2 ids)"),
        ("0 1\n0\n", "n_vertices must be an integer >= 1, got 0"),
    ], ids=["out-of-range", "negative", "no-vertices"])
    def test_bad_vertex_ids_name_their_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_hypergraph(text)
        assert str(err.value) == message
        assert isinstance(err.value, SfmParseError) == message.startswith("line ")

    def test_load(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("3 1\n0 2\n")
        assert load_hypergraph(path) == StateFeedbackMatrix([[1, 0, 1]])
