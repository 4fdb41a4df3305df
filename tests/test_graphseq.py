from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

from treebridges import graphseq

# counts of graphical degree sequences by vertex count; n = 11..14 from
# _count_by_enumeration (about 110 s for the four)
GRAPHICAL_COUNTS = [
    1, 2, 4, 11, 31, 102, 342, 1213, 4361, 16016, 59348, 222117, 836315, 3166852
]


def test_is_graphical_sequence_basics():
    assert graphseq.is_graphical_sequence((0,))
    assert graphseq.is_graphical_sequence((1, 1))
    assert graphseq.is_graphical_sequence((2, 2, 2))
    assert graphseq.is_graphical_sequence((3, 3, 3, 3))
    assert graphseq.is_graphical_sequence((1, 1, 1, 1))
    assert graphseq.is_graphical_sequence((0, 0, 0, 0))


def test_is_graphical_sequence_rejections():
    # odd total degree can never be realized
    assert not graphseq.is_graphical_sequence((0, 1))
    assert not graphseq.is_graphical_sequence((1, 2, 2))
    # even sum but too top-heavy for the isolated vertices to absorb
    assert not graphseq.is_graphical_sequence((0, 0, 2, 2))
    assert not graphseq.is_graphical_sequence((1, 1, 3, 3))


def test_is_graphical_sequence_validation():
    with pytest.raises(ValueError):
        graphseq.is_graphical_sequence((2, 1))  # not sorted
    with pytest.raises(ValueError):
        graphseq.is_graphical_sequence((1, 3))  # entry exceeds n - 1
    with pytest.raises(ValueError):
        graphseq.is_graphical_sequence((-1, 1))


def test_all_graph_degree_sequences_n3():
    assert graphseq.all_graph_degree_sequences(3) == {
        (0, 0, 0),
        (0, 1, 1),
        (1, 1, 2),
        (2, 2, 2),
    }


def test_all_graph_degree_sequences_members_are_graphical():
    # and, conversely, every graphical sequence is some graph's
    for n in range(graphseq.ORACLE_CAP + 1):
        assert graphseq.all_graph_degree_sequences(n) == {
            s for s in combinations_with_replacement(range(n), n)
            if graphseq.is_graphical_sequence(s)
        }


def test_oracle_cap():
    with pytest.raises(ValueError):
        graphseq.all_graph_degree_sequences(graphseq.ORACLE_CAP + 1)


def test_count_graphical_sequences_frozen_row():
    got = [graphseq.count_graphical_sequences(n) for n in range(1, 15)]
    assert got == GRAPHICAL_COUNTS
    assert graphseq.graphical_sequence_counts(14) == (1, *GRAPHICAL_COUNTS)


def test_frobenius_dp_matches_enumeration():
    counts = graphseq.graphical_sequence_counts(12)
    for n in range(1, 13):
        assert counts[n] == graphseq._count_by_enumeration(n)


@pytest.mark.parametrize("n", [60, 25, 7])
def test_graphical_sequence_counts_prefix_consistent(n):
    # the sweep's bounds depend on n_max, yet every shorter count must stay exact
    full = graphseq.graphical_sequence_counts(n)
    for m in (0, 1, 2, n // 3, n // 2, n - 1):
        assert graphseq.graphical_sequence_counts(m) == full[: m + 1]


def test_count_matches_graph_oracle():
    for n in range(1, 7):
        assert graphseq.count_graphical_sequences(n) == len(
            graphseq.all_graph_degree_sequences(n)
        )


def test_count_caps_and_validation():
    with pytest.raises(ValueError):
        graphseq.count_graphical_sequences(graphseq.COUNT_CAP + 1)
    with pytest.raises(ValueError):
        graphseq.count_graphical_sequences(0)
    with pytest.raises(ValueError, match="capped"):
        graphseq.graphical_sequence_counts(graphseq.COUNT_CAP + 1)
    with pytest.raises(ValueError):
        graphseq.graphical_sequence_counts(-1)


def test_count_graphical_sequences_rejects_non_int():
    graphseq.count_graphical_sequences(1)  # with 1 computed, True is still refused
    for bad in (True, 2.0, "3"):
        with pytest.raises(TypeError, match="n must be an int"):
            graphseq.count_graphical_sequences(bad)


def test_graphical_sequence_counts_rejects_non_int():
    graphseq.graphical_sequence_counts(1)
    for bad in (True, 2.0, "3"):
        with pytest.raises(TypeError, match="n_max must be an int"):
            graphseq.graphical_sequence_counts(bad)


def test_ratio_table_rejects_non_int():
    for bad in (True, 12.0, "3"):
        with pytest.raises(TypeError, match="n_max must be an int"):
            graphseq.ratio_table(bad)


def test_ratio_table_shape_and_band():
    rows = graphseq.ratio_table(12)
    assert [r[0] for r in rows] == list(range(1, 13))
    assert rows[11][1] == 222117
    ratios = [r[2] for r in rows]
    # slow drift toward the growth constant: settled into a narrow band
    # and still decreasing over the reachable range
    for n in range(8, 13):
        assert 0.03 < ratios[n - 1] < 0.3
    assert ratios[7] > ratios[8] > ratios[9] > ratios[10] > ratios[11]
