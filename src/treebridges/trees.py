"""Plane-tree counts and the lattice-path / submultiset counts tied to them.

T(n) counts rooted, unlabelled plane trees with n edges, where two trees
are identified when one arises from the other by cyclically rotating the
subtrees at the root:

    T(n) = (1/n) * sum over d | n of binomial(2d-1, d) * phi(n/d).

The companion quantities here are M(n, k), the number of size-k
submultisets of {0, ..., n-1} whose sum is divisible by n, and the number
of monotone lattice paths from (0,0) to (n,n) whose area statistic is
divisible by n.  Both collapse onto T(n); the dual counting routes
(closed formula, DP, exhaustive scan) exist to check each other.  The
path DP, count_paths_by_final_step, packs its counts by area mod n into
one int per height, in fields of bridges.field_width(n) bits: a path to
a point of the n x n grid is one of at most binomial(2n, n) < 4^n, so
no field carries into the next.

A run T(0..n_max) comes from the sieve plane_tree_counts; a single value
comes from the divisor sum in zero_sum_multisets, since T(n) = M(n, n).
Likewise a row M(n, 0..n) comes from zero_sum_multiset_row, one ratio
chain per divisor of n, and a single M(n, k) from zero_sum_multisets.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

from .bridges import RESIDUE_DP_CAP, field_width
from .numtheory import check_size, divisors, euler_phi

UP = "U"
RIGHT = "R"

# exhaustive path enumeration walks binomial(2n, n) paths: measured
# 8.8 s at 13 and 36 s at 14 (15 MB peak resident memory) on a 2-core
# x86-64 host with Python 3.11
EXHAUSTIVE_PATH_CAP = 14
# the multiset scan walks binomial(n+k-1, k) multisets, the most at
# n = k: measured 0.5 s at 12 and 1.9 s at 13 (28 MB peak resident
# memory) on a 2-core x86-64 host with Python 3.11
MULTISET_SCAN_CAP = 12
# the plane_tree_counts sieve holds one sum of up to about 2k bits for
# every k <= n_max, so its memory grows like n_max^2: measured 0.6 s /
# 101 MB at 20,000 and 3.7 s / 443 MB peak resident memory at 50,000
# (the deepest tree_series the tests ask for) on a 2-core x86-64 host
# with Python 3.11; it caps n and k of the single values too, where
# zero_sum_multisets took 0.3 s at 50,000 and 66 s at 10**6
TREE_TABLE_CAP = 50_000
# a zero_sum_multiset_row holds n + 1 sums of up to about 2n bits, all
# live at once, so its memory grows like n^2: measured 0.09 s / 30 MB
# peak resident memory at 7,000 on a 2-core x86-64 host with Python 3.11,
# where its n + 1 single values through zero_sum_multisets take 14 s
MULTISET_ROW_CAP = 7000


def plane_tree_counts(n_max: int) -> tuple:
    """(T(0), T(1), ..., T(n_max)), with T(0) = 0, built in one sieved sweep.

    The big binomials binomial(2k-1, k) are produced by the ratio
    recurrence c_{k} = c_{k-1} * 2 * (2k-1) / k, which is far cheaper
    than independent binomial calls at this scale.
    """
    check_size("n_max", n_max, 0, TREE_TABLE_CAP)
    phi = list(range(n_max + 1))
    for p in range(2, n_max + 1):
        if phi[p] == p:  # p prime
            for m in range(p, n_max + 1, p):
                phi[m] -= phi[m] // p
    out = [0] * (n_max + 1)
    c = 1
    for k in range(1, n_max + 1):
        if k > 1:
            c = c * (2 * (2 * k - 1)) // k
        # out[k] already holds the terms of the proper divisors of k;
        # push this term, binomial(2k-1, k) * phi(m/k), to each multiple m
        for m in range(2 * k, n_max + 1, k):
            out[m] += c * phi[m // k]
        acc = out[k] + c
        if acc % k:
            raise AssertionError(f"Walkup's sum for T({k}) is not a multiple of {k}")
        out[k] = acc // k
    return tuple(out)


def plane_tree_count(n: int) -> int:
    """T(n): plane trees with n edges, distinct up to root rotation.

    Walkup's formula T(n) = (1/n) * sum over d | n of
    binomial(2d-1, d) * phi(n/d) is the divisor sum of M(n, n) with
    d -> n/d, so one value costs one divisor sum and no table;
    zero_sum_multisets checks n, with the cap TREE_TABLE_CAP.
    """
    return zero_sum_multisets(n, n)


def zero_sum_multisets(n: int, k: int) -> int:
    """M(n, k): size-k submultisets of {0..n-1} with sum divisible by n.

    Closed form: (1/n) * sum over d | gcd(k, n) of
    binomial((n+k)/d - 1, k/d) * phi(d).  For k = 0 the divisor sum
    degenerates to the empty-multiset count, which is 1.
    """
    check_size("n", n, 1, TREE_TABLE_CAP)
    check_size("k", k, 0, TREE_TABLE_CAP)
    total = 0
    for d in divisors(math.gcd(k, n)):
        total += math.comb((n + k) // d - 1, k // d) * euler_phi(d)
    if total % n:
        raise AssertionError(f"the divisor sum for M({n}, {k}) is not a multiple of {n}")
    return total // n


def zero_sum_multiset_row(n: int) -> tuple:
    """(M(n, 0), M(n, 1), ..., M(n, n)), one ratio chain per divisor of n.

    In the divisor sum of zero_sum_multisets, a divisor d of n serves
    exactly the k = j*d with 0 <= j <= m = n/d, and its term there is
    binomial((n+k)/d - 1, k/d) * phi(d) = binomial(m + j - 1, j) * phi(d).
    So the terms of d are c_j = phi(d) * binomial(m + j - 1, j), built
    by c_0 = phi(d) and c_j = c_{j-1} * (m + j - 1) // j.  The division
    is exact: c_{j-1} * (m + j - 1) = phi(d) * j * binomial(m + j - 1, j).
    """
    check_size("n", n, 1, MULTISET_ROW_CAP)
    sums = [0] * (n + 1)
    for d in divisors(n):
        m = n // d
        c = euler_phi(d)
        sums[0] += c
        for j in range(1, m + 1):
            c = c * (m + j - 1) // j
            sums[j * d] += c
    for k, total in enumerate(sums):
        if total % n:
            raise AssertionError(f"the divisor sum for M({n}, {k}) is not a multiple of {n}")
    return tuple(total // n for total in sums)


def zero_sum_multisets_bruteforce(n: int, k: int) -> int:
    """Oracle for zero_sum_multisets by direct enumeration, n and k capped at
    MULTISET_SCAN_CAP."""
    check_size("n", n, 1, MULTISET_SCAN_CAP)
    check_size("k", k, 0, MULTISET_SCAN_CAP)
    return sum(
        1
        for ms in combinations_with_replacement(range(n), k)
        if sum(ms) % n == 0
    )


def path_area(path: tuple[str, ...]) -> int:
    """Area under a monotone lattice path.

    The path is a sequence over {"U", "R"}.  Each Right step contributes
    the number of Up steps strictly before it, so the result is the area
    of the bar chart whose i-th bar has the height of the path above the
    i-th unit of the x-axis.
    """
    ups = 0
    area = 0
    for step in path:
        if step == UP:
            ups += 1
        elif step == RIGHT:
            area += ups
        else:
            raise ValueError(f"bad step {step!r}, expected {UP!r} or {RIGHT!r}")
    return area


def count_paths_area_divisible(n: int) -> int:
    """Paths (0,0) -> (n,n) with area divisible by n: the capped DP oracle
    for N(n) = 2T(n), which the N table reads as 2 * plane_tree_counts."""
    return sum(count_paths_by_final_step(n))


# the lemmas battery reads each n twice, here and through
# count_paths_area_divisible; typed, so that True is not served the
# cached entry for 1
@lru_cache(maxsize=None, typed=True)
def count_paths_by_final_step(n: int) -> tuple[int, int]:
    """Paths (0,0) -> (n,n) with area divisible by n, counted by DP and
    split by the path's last step.

    Returns (count ending in Up, count ending in Right).  State is
    (current column, height, area mod n).  Entering column x by a Right
    step at height y adds y to the area; Up steps within a column leave
    it unchanged, so each column is a residue-rotation followed by a
    running sum over heights.  A path ends in Right exactly when its
    final Right step lands at height n.  The oracle that each half is
    T(n): it never reads the sieve, and the N table never runs it.

    One packed int per height y holds the counts by area mod n, n fields
    of bridges.field_width(n) bits, residue r in field r.  The rotation
    by y is a shift left by y mod n fields, the fields pushed past n
    folded back to the bottom, and the running sum over heights adds
    whole packed ints.  No field carries: each counts paths from (0, 0)
    to one lattice point (x, y) with x, y <= n, at most
    binomial(x + y, y) <= binomial(2n, n) < 4^n.
    """
    check_size("n", n, 1, RESIDUE_DP_CAP)
    w = field_width(n)
    span = n * w
    full = (1 << span) - 1
    low = (1 << w) - 1
    # column 0: the all-Up prefix to height y, area 0
    col = [1] * (n + 1)
    for _ in range(n):
        # read in the last column: the final Right step lands at height n,
        # whose rotation, by n, is the identity
        ending_right = col[n] & low
        acc = 0
        for y in range(n + 1):
            # Right step into this column at height y: residue r -> r + y
            v = col[y] << (y % n) * w
            acc += (v & full) | (v >> span)
            col[y] = acc
    return (col[n] & low) - ending_right, ending_right


def count_paths_area_divisible_bruteforce(n: int) -> int:
    """Exhaustive oracle for count_paths_area_divisible.

    Walks every path depth first, sharing prefixes: a Right step adds
    the Ups so far to the area, and each path is counted at its own
    leaf, with no memo and no closed-form shortcut.
    """
    check_size("n", n, 1, EXHAUSTIVE_PATH_CAP)

    def walk(ups: int, rights: int, area: int) -> int:
        if ups == rights == n:
            return int(area % n == 0)
        count = walk(ups + 1, rights, area) if ups < n else 0
        if rights < n:
            count += walk(ups, rights + 1, area + ups)
        return count

    return walk(0, 0, 0)
