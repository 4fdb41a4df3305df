"""Plane-tree counts and the lattice-path / submultiset counts tied to them.

T(n) counts rooted, unlabelled plane trees with n edges, where two trees
are identified when one arises from the other by cyclically rotating the
subtrees at the root:

    T(n) = (1/n) * sum over d | n of binomial(2d-1, d) * phi(n/d).

The companion quantities here are M(n, k), the number of size-k
submultisets of {0, ..., n-1} whose sum is divisible by n, and the number
of monotone lattice paths from (0,0) to (n,n) whose area statistic is
divisible by n.  Both collapse onto T(n); the dual counting routes
(closed formula, DP, exhaustive scan) exist to check each other.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .numtheory import binomial, check_int, divisors, euler_phi

UP = "U"
RIGHT = "R"

# exhaustive path enumeration walks binomial(2n, n) paths; past n = 14
# that is no longer desk-scale
EXHAUSTIVE_PATH_CAP = 14


def plane_tree_count(n: int) -> int:
    """T(n): plane trees with n edges, distinct up to root rotation."""
    check_int("n", n)
    if n < 1:
        raise ValueError(f"plane_tree_count needs n >= 1, got {n}")
    total = 0
    for d in divisors(n):
        total += binomial(2 * d - 1, d) * euler_phi(n // d)
    assert total % n == 0
    return total // n


def zero_sum_multisets(n: int, k: int) -> int:
    """M(n, k): size-k submultisets of {0..n-1} with sum divisible by n.

    Closed form: (1/n) * sum over d | gcd(k, n) of
    binomial((n+k)/d - 1, k/d) * phi(d).  For k = 0 the divisor sum
    degenerates to the empty-multiset count, which is 1.
    """
    if n < 1:
        raise ValueError(f"zero_sum_multisets needs n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"zero_sum_multisets needs k >= 0, got {k}")
    import math

    total = 0
    for d in divisors(math.gcd(k, n) if k else n):
        total += binomial((n + k) // d - 1, k // d) * euler_phi(d)
    assert total % n == 0
    return total // n


def zero_sum_multisets_bruteforce(n: int, k: int) -> int:
    """Oracle for zero_sum_multisets by direct enumeration (small n, k)."""
    from itertools import combinations_with_replacement

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


def enumerate_lattice_paths(n: int) -> Iterator[tuple[str, ...]]:
    """All monotone paths (0,0) -> (n,n), as tuples over {"U", "R"}."""
    if n < 0:
        raise ValueError(f"enumerate_lattice_paths needs n >= 0, got {n}")
    for up_positions in combinations(range(2 * n), n):
        steps = [RIGHT] * (2 * n)
        for p in up_positions:
            steps[p] = UP
        yield tuple(steps)


def count_paths_area_divisible(n: int) -> int:
    """Paths (0,0) -> (n,n) with area divisible by n, counted by DP."""
    return sum(count_paths_by_final_step(n))


def count_paths_by_final_step(n: int) -> tuple[int, int]:
    """Paths (0,0) -> (n,n) with area divisible by n, counted by DP and
    split by the path's last step.

    Returns (count ending in Up, count ending in Right).  State is
    (current column, height, area mod n).  Entering column x by a Right
    step at height y adds y to the area; Up steps within a column leave
    it unchanged, so each column is a residue-rotation followed by a
    running sum over heights.  A path ends in Right exactly when its
    final Right step lands at height n.
    """
    if n < 1:
        raise ValueError(f"divisible-area path count needs n >= 1, got {n}")
    # column 0: the all-Up prefix to height y, area 0
    col = [[0] * n for _ in range(n + 1)]
    for y in range(n + 1):
        col[y][0] = 1
    for _ in range(n):
        nxt = []
        for y in range(n + 1):
            row = col[y]
            shift = y % n
            # Right step into this column at height y: residue r -> r + y
            nxt.append(row[-shift:] + row[:-shift] if shift else row[:])
        # read in the last column: the final Right step lands at height n
        ending_right = nxt[n][0]
        for y in range(1, n + 1):
            below, here = nxt[y - 1], nxt[y]
            for r in range(n):
                here[r] += below[r]
        col = nxt
    return col[n][0] - ending_right, ending_right


def count_paths_area_divisible_bruteforce(n: int) -> int:
    """Exhaustive oracle for count_paths_area_divisible.

    Scans every placement of the n Up steps and accumulates the area by
    walking the 2n slots directly, with no closed-form shortcut.
    """
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    if n > EXHAUSTIVE_PATH_CAP:
        raise ValueError(
            f"exhaustive path count capped at n = {EXHAUSTIVE_PATH_CAP}, got {n}"
        )
    count = 0
    for up_positions in combinations(range(2 * n), n):
        area = 0
        ups = 0
        it = iter(up_positions)
        nxt = next(it, -1)
        for slot in range(2 * n):
            if slot == nxt:
                ups += 1
                nxt = next(it, -1)
            else:
                area += ups
        if area % n == 0:
            count += 1
    return count
