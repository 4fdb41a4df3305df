from __future__ import annotations

import math
from itertools import combinations

import pytest

from treebridges import bridges, trees

# rotation-distinct plane trees by edge count, cross-checked against the
# path counts below
TREE_COUNTS = [1, 2, 4, 10, 26, 80, 246, 810, 2704, 9252, 32066, 112720]


def test_plane_tree_count_frozen_row():
    assert [trees.plane_tree_count(n) for n in range(1, 13)] == TREE_COUNTS
    assert trees.plane_tree_counts(12) == (0, *TREE_COUNTS)
    assert trees.plane_tree_counts(0) == (0,)


def test_zero_sum_multisets_matches_bruteforce():
    for n in range(1, 8):
        for k in range(8):
            assert trees.zero_sum_multisets(n, k) == trees.zero_sum_multisets_bruteforce(
                n, k
            )


def test_zero_sum_multisets_edges():
    for n in range(1, 10):
        assert trees.zero_sum_multisets(n, 0) == 1
        assert trees.zero_sum_multisets(n, 1) == 1


def test_zero_sum_multisets_diagonal_gives_tree_counts():
    # swapping d -> n/d in the divisor sum turns one formula into the
    # other; the sieve builds the binomials by a ratio recurrence and the
    # totients by a sieve, so the two routes share no code
    table = trees.plane_tree_counts(150)
    for n in (*range(1, 81), 150):
        assert trees.zero_sum_multisets(n, n) == table[n]


def test_path_area_examples():
    assert trees.path_area(("U", "U", "R", "R")) == 4
    assert trees.path_area(("R", "R", "U", "U")) == 0
    assert trees.path_area(("U", "R", "U", "R")) == 3
    assert trees.path_area(()) == 0


def test_path_area_rejects_bad_step():
    with pytest.raises(ValueError):
        trees.path_area(("U", "X"))


def test_path_area_complement():
    # reflecting across the diagonal swaps the two step letters and
    # complements the area within the n-by-n box
    n = 4
    for ups in combinations(range(2 * n), n):
        path = tuple("U" if i in ups else "R" for i in range(2 * n))
        swapped = tuple("U" if s == "R" else "R" for s in path)
        assert trees.path_area(path) + trees.path_area(swapped) == n * n


def _list_paths_by_final_step(n):
    # the per-entry form of the packed path DP: one list entry per residue
    col = [[0] * n for _ in range(n + 1)]
    for y in range(n + 1):
        col[y][0] = 1
    for _ in range(n):
        nxt = []
        for y in range(n + 1):
            row = col[y]
            shift = y % n
            nxt.append(row[-shift:] + row[:-shift])
        ending_right = nxt[n][0]
        for y in range(1, n + 1):
            below, here = nxt[y - 1], nxt[y]
            for r in range(n):
                here[r] += below[r]
        col = nxt
    return col[n][0] - ending_right, ending_right


def test_count_paths_by_final_step_is_the_list_dp():
    for n in range(1, 61):
        assert trees.count_paths_by_final_step(n) == _list_paths_by_final_step(n), n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 45, bridges.RESIDUE_DP_CAP])
def test_path_field_width_holds_the_central_binomial(n, unpack):
    # binomial(2n, n) paths reach (n, n), the most of any point the DP
    # visits; it must come back whole from a field between two others
    w = bridges.field_width(n)
    top = math.comb(2 * n, n)
    packed = top | top << w | top << 2 * w
    assert unpack(packed, w) == [top] * 3
