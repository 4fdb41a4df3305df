from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treebridges import bridges, series

IRREDUCIBLE_ROW = [0, 2, 0, 0, 1, 2, 8, 20, 66, 200, 644]


def test_log_transform_requires_unit_head():
    with pytest.raises(ValueError):
        series.log_transform([2, 1])
    with pytest.raises(ValueError):
        series.log_transform([])


def test_log_transform_of_geometric_sequence():
    # a_n = c^n transforms to the constant-ratio sequence c, c^2, ...
    for c in (1, 2, 5):
        a = [c**n for n in range(12)]
        assert series.log_transform(a) == a[1:]


@given(st.lists(st.integers(-6, 6), min_size=0, max_size=12))
def test_log_transform_round_trip(tail):
    a = [1] + [Fraction(x) for x in tail]
    star = series.log_transform(a)
    assert series.inverse_log_transform(star) == a


def test_irreducible_bridge_counts_frozen_row():
    b = list(bridges.graphical_bridge_counts(10))
    assert series.irreducible_bridge_counts(b) == IRREDUCIBLE_ROW


def test_irreducible_bridge_counts_need_b0_one():
    for b in ([2, 1], []):
        with pytest.raises(ValueError, match=r"needs b\[0\] = 1"):
            series.irreducible_bridge_counts(b)


def test_irreducible_counts_nonnegative_far_out():
    b = list(bridges.graphical_bridge_counts(60))
    assert all(i >= 0 for i in series.irreducible_bridge_counts(b))


def test_renewal_recurrence():
    # b_n = sum_k i_k b_{n-k}: every bridge is a first irreducible part
    # followed by a shorter graphical bridge
    b = list(bridges.graphical_bridge_counts(40))
    irr = series.irreducible_bridge_counts(b)
    for n in range(1, 41):
        assert b[n] == sum(irr[k] * b[n - k] for k in range(1, n + 1))


def test_parts_count_distribution_is_a_distribution():
    for n in range(1, 26):
        dist = series.parts_count_distribution(n)
        assert sum(dist.values(), Fraction(0)) == 1
        assert all(1 <= m <= n for m in dist)
        assert all(p > 0 for p in dist.values())


def test_parts_count_distribution_extremes():
    b = list(bridges.graphical_bridge_counts(12))
    irr = series.irreducible_bridge_counts(b)
    for n in (4, 7, 12):
        dist = series.parts_count_distribution(n)
        # n parts forces n minimal parts, each chosen 2 ways
        assert dist[n] == Fraction(2**n, b[n])
        assert dist[1] == Fraction(irr[n], b[n])


def test_mean_inverse_parts_small_values():
    assert series.mean_inverse_parts(1) == 1
    assert series.mean_inverse_parts(2) == Fraction(1, 2)
    assert series.mean_inverse_parts(4) == Fraction(5, 17)


def test_bridge_counts_from_trees_frozen_row():
    assert series.bridge_counts_from_trees(9) == [1, 2, 4, 8, 17, 38, 92, 236, 643, 1834]
    assert series.bridge_counts_from_trees(0) == [1]


def test_part_counts_do_not_run_the_bridge_dp():
    # the part-count law reads the tree formula; the DP is only the oracle
    misses = bridges.graphical_bridge_counts.cache_info().misses
    for n in range(1, 31):
        series.parts_count_distribution(n)
    assert bridges.graphical_bridge_counts.cache_info().misses == misses


def _parts_by_power_loop(n: int) -> list[int]:
    """[x^n] I^m for m = 0, ..., n with I = 1 - 1/B, one n at a time:
    the power loop that served each n before parts_count_table."""
    b = series.bridge_counts_from_trees(n)
    irr = series.irreducible_bridge_counts(b)
    row = [int(n == 0)]
    power = [1] + [0] * n
    for _ in range(1, n + 1):
        nxt = [0] * (n + 1)
        for lo in range(n):
            if power[lo]:
                for k in range(1, n - lo + 1):
                    nxt[lo + k] += power[lo] * irr[k]
        power = nxt
        row.append(power[n])
    return row


def test_parts_count_table_is_the_per_n_power_loop():
    rows = series.parts_count_table(40)
    assert rows == [_parts_by_power_loop(n) for n in range(41)]


def test_parts_count_table_rows_do_not_change_as_n_max_grows():
    rows = series.parts_count_table(40)
    for n_max in range(40):
        assert series.parts_count_table(n_max) == rows[: n_max + 1]
    assert rows[:5] == [[1], [0, 2], [0, 0, 4], [0, 0, 0, 8], [0, 1, 0, 0, 16]]


def test_parts_negbin_tv_distance_range_and_trend():
    d10 = series.parts_negbin_tv_distance(10)
    d40 = series.parts_negbin_tv_distance(40)
    assert 0.0 <= d40 < d10 <= 1.0
