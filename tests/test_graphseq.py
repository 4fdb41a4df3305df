from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from treebridges import bridges, graphseq

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
    with pytest.raises(ValueError, match="non-decreasing"):
        graphseq.is_graphical_sequence((1, 0))  # in range, not sorted
    with pytest.raises(ValueError, match="degree is capped at 1, got 3"):
        graphseq.is_graphical_sequence((1, 3))  # entry exceeds n - 1
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
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


def _dense_push(stacks, x: int, size: int):
    """Put a pair with offset x on top of every stack in stacks.

    stacks[m, p] counts stacks whose partial sums from the top reach
    down to -m at worst (m >= 0) and whose total has parity p.  The new
    top gives m' = max(0, m - x) and p' = p + x; rows m' >= size are
    dropped, so x = 0 only cuts or zero-pads stacks to size rows.  The
    result may be a view of stacks; callers do not write to it.
    """
    if x == 0 and len(stacks) >= size:
        return stacks[:size]
    if x & 1:
        stacks = stacks[:, ::-1]
    out = np.zeros((size, 2), dtype=stacks.dtype)
    if x >= 0:
        out[0] = stacks[: x + 1].sum(axis=0)
        tail = stacks[x + 1 : x + size]
        out[1 : 1 + len(tail)] = tail
    else:
        head = stacks[: max(size + x, 0)]
        out[-x : -x + len(head)] = head
    return out


def _dense_graphical_sequence_counts(n_max: int) -> tuple:
    """The Frobenius sweep of graphseq.graphical_sequence_counts on
    dtype=object arrays, one row per worst deficit m: the reference for
    the packed cumulative layout."""
    empty = np.array([[1, 0]], dtype=object)
    below = [empty] * (n_max + 1)
    for a in range(n_max - 1):
        size = min((a + 1) * (a + 2) // 2, (n_max - a - 2) ** 2 // 4) + 1
        run = np.zeros((size, 2), dtype=empty.dtype)
        here = [empty]
        for leg in range(n_max):
            top = _dense_push(below[leg], leg - a - 1, size)
            run += top
            here.append(_dense_push(below[leg + 1], 0, size) + run)
        below = here
    return tuple(t[0, 0] for t in below)


def test_packed_sweep_is_the_dense_sweep():
    for n_max in [*range(41), 60, 100]:
        assert graphseq.graphical_sequence_counts(n_max) == _dense_graphical_sequence_counts(
            n_max
        ), n_max


def test_sweep_width_holds_the_pair_count(unpack):
    # C(2n - 1, n - 1) pairs of equal-size arm and leg sets bound every
    # field of the sweep at n_max = n; it must come back whole from a
    # field between two others
    for n in range(1, graphseq.COUNT_CAP + 1):
        w = bridges.field_width(n)
        top = math.comb(2 * n - 1, n - 1)
        packed = graphseq._repeat(top, 3, w)
        assert packed == top | top << w | top << 2 * w
        assert unpack(packed, w) == [top] * 3
