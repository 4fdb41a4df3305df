from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treebridges import bijections, bridges, trees


def test_first_irreducible_length():
    assert bijections.first_irreducible_length((1, -1)) == 2
    assert bijections.first_irreducible_length((1, -1, -1, 1)) == 2
    with pytest.raises(ValueError):
        bijections.first_irreducible_length(())
    with pytest.raises(ValueError):
        bijections.first_irreducible_length((1, 1, -1, -1))


def test_shifted_pair_validation():
    with pytest.raises(ValueError):
        bijections.ShiftedPair((1, 1, -1, -1), 0)  # not graphical
    with pytest.raises(ValueError):
        bijections.ShiftedPair((1, -1), 1)  # offset past first part
    pair = bijections.ShiftedPair((1, -1), 0)
    assert pair.shift == 0


def test_replace_and_make_revalidate_the_shift():
    # j = 4: shifts 0..3 are legal
    pair = bijections.ShiftedPair((1, 1, -1, -1, -1, -1, 1, 1), 2)
    assert pair._replace(shift=3) == bijections.ShiftedPair(pair.bridge, 3)
    with pytest.raises(ValueError, match="shift is capped at 3, got 99"):
        pair._replace(shift=99)
    with pytest.raises(ValueError, match="shift is capped at 0, got 1"):
        bijections.ShiftedPair._make(((1, -1), 1))
    with pytest.raises(ValueError):
        pair._replace(bridge=(1, 1, -1, -1))  # not graphical


def test_shift_bridge_rejects_a_non_pair():
    # a plain tuple compares equal to a ShiftedPair but skipped its check
    with pytest.raises(TypeError, match="pair must be a ShiftedPair, got int 5"):
        bijections.shift_bridge(5)
    with pytest.raises(TypeError, match="pair must be a ShiftedPair, got tuple"):
        bijections.shift_bridge(((1, -1), 0))


def test_enumerate_shifted_pairs_count(graphical_bridges_by_n):
    for n in range(1, 7):
        pairs = list(bijections.enumerate_shifted_pairs(n))
        assert len(pairs) == 2 * trees.plane_tree_count(n)
        assert len(set(pairs)) == len(pairs)
    # the empty bridge has no first irreducible part to shift within
    assert list(bijections.enumerate_shifted_pairs(0)) == []


def test_shift_bridge_rotates_left(graphical_bridges_by_n):
    for b in graphical_bridges_by_n[5]:
        j = bijections.first_irreducible_length(b) // 2
        for i in range(j):
            shifted = bijections.shift_bridge(bijections.ShiftedPair(b, i))
            assert shifted == b[2 * i :] + b[: 2 * i]


def test_shift_zero_is_identity(graphical_bridges_by_n):
    for b in graphical_bridges_by_n[6]:
        assert bijections.shift_bridge(bijections.ShiftedPair(b, 0)) == b


def test_shift_map_image_is_divisible_area_bridges(graphical_bridges_by_n):
    for n in range(1, 7):
        images = {
            bijections.shift_bridge(p) for p in bijections.enumerate_shifted_pairs(n)
        }
        target = {
            b for b in bridges.enumerate_bridges(n) if bridges.diamond_area(b) % n == 0
        }
        assert images == target
        assert len(images) == len(list(bijections.enumerate_shifted_pairs(n)))


def test_unshift_round_trip(graphical_bridges_by_n):
    for n in range(1, 7):
        for pair in bijections.enumerate_shifted_pairs(n):
            assert bijections.unshift_bridge(bijections.shift_bridge(pair)) == pair


def test_unshift_rejects_bad_area():
    # diamond area 1 is not divisible by 2
    with pytest.raises(ValueError):
        bijections.unshift_bridge((1, 1, -1, -1))
    with pytest.raises(ValueError, match="needs a nonempty bridge"):
        bijections.unshift_bridge(())


def test_bridge_to_path_area_identity_exhaustive():
    for n in range(1, 7):
        for b in bridges.enumerate_bridges(n):
            path, ell = bijections.bridge_to_path(b)
            assert path.count("U") == n and len(path) == 2 * n
            assert trees.path_area(path) == bridges.diamond_area(b) + ell * n
            assert bijections.path_to_bridge(path) == b


@given(st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_bridge_to_path_round_trip_sampled(n, seed):
    b = bridges.sample_uniform_graphical_bridge(n, seed)
    path, ell = bijections.bridge_to_path(b)
    assert bijections.path_to_bridge(path) == b
    assert trees.path_area(path) == ell * n  # graphical bridges have area 0


def test_path_to_bridge_validation():
    with pytest.raises(ValueError):
        bijections.path_to_bridge(("U", "R", "U"))
    with pytest.raises(ValueError):
        bijections.path_to_bridge(("U", "U", "R", "X"))
    with pytest.raises(ValueError):
        bijections.path_to_bridge(("U", "U", "U", "R"))
