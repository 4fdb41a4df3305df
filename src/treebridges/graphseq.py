"""Graphical degree sequences: the realizability test and exact counts.

A non-decreasing sequence d over [0, n-1] is graphical when some simple
graph on n vertices has exactly these degrees.  The classic
characterization: the sum must be even, and for every k (with the
sequence read in non-increasing order)

    sum_{i <= k} d_i  <=  k*(k-1) + sum_{i > k} min(d_i, k).

Counting runs in Frobenius coordinates.  Read d non-increasing, let h
be its Durfee size (the largest i with d_i >= i) and c its conjugate
(c_i the number of entries >= i).  The arms a_i = d_i - i and legs
l_i = c_i - i, i <= h, are strictly decreasing, with a_1 <= n-2 and
l_1 <= n-1, and every such pair of equal-length sets is exactly one
sequence.  With x_i = l_i - a_i - 1 the k-th inequality for k <= h reads
x_1 + ... + x_k >= 0, the ones past h follow, and x_1 + ... + x_h has
the parity of sum(d).  So G(n) counts the pairs in the n x (n-1) box
whose prefix sums of x are all >= 0 with an even total; the empty pair
is the all-zero sequence.  graphical_sequence_counts builds these
counts for every n <= n_max in one O(n_max^4) sweep.

The sweep keeps each table of stacks as two ints, one per parity of
the stacks' totals, in fields of w = field_width(n_max) bits.  The
table is cumulative in the worst deficit m: field k counts the stacks
with m <= k, so every field at or past the table's size s would equal
field s - 1, its total.  A new top moves every m by the same offset and
clips it at 0, and a cumulative count clips at 0 by itself, so a push
(_push) is one shift of each int, a fill of the fields shifted in from
past s with the total, and a mask, and the 2-D prefix sums are adds of
whole ints.  No field carries: every field counts a set of distinct
stacks, and a stack is a pair of equal-size sets, arms in
[0, n_max - 2] and legs in [0, n_max - 1], so there are at most

    sum_k C(n_max - 1, k) * C(n_max, k) = C(2 n_max - 1, n_max - 1) < 4^n_max

of them (Vandermonde), and w >= 2 n_max + 1 bits hold 4^n_max.

The enumeration of non-increasing candidate sequences with a prefix
prune (_count_by_enumeration) and a brute-force oracle over all graphs
on up to 6 vertices certify the test and the counts independently.
"""

from __future__ import annotations

from itertools import combinations

from .bridges import field_width
from .numtheory import check_size

# the labelled degree vectors number up to n^n: 0.03 s / 16 MB at n = 6
# and 0.5 s / 48 MB peak resident memory at 7 (2-core x86-64, Python 3.11)
ORACLE_CAP = 6
# the Frobenius sweep behind count_graphical_sequences and the G table:
# the whole CLI table takes 0.5-0.6 s / 21 MB at n = 100 and 8.6-10.9 s /
# 98 MB peak resident memory at 200 on a loaded 2-core x86-64 host with
# Python 3.11
COUNT_CAP = 200


def _erdos_gallai_descending(d: list[int]) -> bool:
    n = len(d)
    lhs = 0
    for k in range(1, n + 1):
        lhs += d[k - 1]
        rhs = k * (k - 1)
        for i in range(k, n):
            di = d[i]
            rhs += di if di < k else k
        if lhs > rhs:
            return False
    return True


def is_graphical_sequence(seq) -> bool:
    """Realizability test for a non-decreasing degree sequence.

    Entries must be ints in [0, n-1] and the sequence must be sorted
    non-decreasing; both are validated.
    """
    d = list(seq)
    n = len(d)
    if n == 0:
        return True
    for v in d:
        check_size("degree", v, 0, n - 1)
    if any(d[i] > d[i + 1] for i in range(n - 1)):
        raise ValueError("degree sequence must be non-decreasing")
    if sum(d) % 2:
        return False
    return _erdos_gallai_descending(d[::-1])


def all_graph_degree_sequences(n: int) -> set:
    """Degree sequences (sorted non-decreasing) of all graphs on n
    labelled vertices, whose degree vectors are built one edge at a
    time; the brute-force oracle, capped at n = 6."""
    check_size("n", n, 0, ORACLE_CAP)
    degs = {(0,) * n}
    for a, b in combinations(range(n), 2):
        degs |= {
            d[:a] + (d[a] + 1,) + d[a + 1 : b] + (d[b] + 1,) + d[b + 1 :] for d in degs
        }
    return {tuple(sorted(d)) for d in degs}


def _count_by_enumeration(n: int) -> int:
    """Count graphical sequences of length n by walking all
    non-increasing candidates.

    The prune drops a partial sequence d_1 >= ... >= d_k as soon as its
    k-th inequality is unsatisfiable by any completion: later entries
    are at most d_k, so the right side can reach at most
    k*(k-1) + (n-k)*min(d_k, k).  Dropping such prefixes never loses a
    graphical sequence.
    """
    total = 0
    d = [0] * n

    def descend(idx: int, mx: int, acc: int) -> None:
        nonlocal total
        if idx == n:
            if acc % 2 == 0 and _erdos_gallai_descending(d):
                total += 1
            return
        k = idx + 1
        for v in range(mx, -1, -1):
            if acc + v > k * (k - 1) + (n - k) * min(v, k):
                continue
            d[idx] = v
            descend(idx + 1, v, acc + v)

    descend(0, n - 1, 0)
    return total


def _repeat(value: int, count: int, width: int) -> int:
    """value in each of count fields of width bits."""
    return int.from_bytes(value.to_bytes(width // 8, "little") * count, "little")


def _push(stacks: tuple, x: int, s: int, size: int, width: int, keep: int) -> tuple:
    """Put a pair with offset x on top of every stack in stacks.

    stacks is a table of s fields of width bits in the layout of the
    module docstring: (even, odd) by the parity of the total, field k
    counting the stacks whose partial sums from the top reach down to -m
    at worst with m <= k.  The new top gives m' = max(0, m - x) and
    flips the parity when x is odd, so field k of the result is field
    k + x of the table: a right shift by x fields, or a left shift by -x
    (which leaves the first -x fields empty).  The fields from s - x on
    come from past the table and are filled with its total, field s - 1.
    Stacks with m' >= size are dropped: the result keeps size fields,
    and keep masks them.
    """
    low = max(s - x, 0)
    out = []
    for table in stacks[::-1] if x & 1 else stacks:
        total = table >> (s - 1) * width
        if x > 0:
            table >>= x * width
        elif x < 0:
            table <<= -x * width
        if low < size:
            table |= _repeat(total, size - low, width) << low * width
        elif low > size:
            table &= keep
        out.append(table)
    return tuple(out)


def graphical_sequence_counts(n_max: int) -> tuple:
    """(G(0), G(1), ..., G(n_max)): graphical degree sequences of each
    length, G(0) = 1 counting the empty sequence.

    The sweep reads the Frobenius pairs from the smallest upward.  A
    stack is a set of pairs read so far, kept by its worst deficit m and
    the parity of its total as in _push; it is a graphical sequence when
    m = 0 and the parity is even.  The stacks a top (a, l) can sit on
    are the empty one and those whose top lies strictly below and left
    of it, a 2-D prefix sum kept row by row: below[l + 1] sums the empty
    stack and the stacks with top arm < a and top leg <= l, and
    below[0] is the empty stack.  A closed stack's top (a, l) has
    x = l - a - 1 >= 0, so it fits the box from length l + 1 on: after
    the last arm, the closed stacks counted in below[n] (field 0 of its
    even int) are G(n), and one sweep serves every length.  below[leg]
    is last read in iteration leg, and is released there.

    Pairs above arm a add at most floor((n_max - a - 2)^2 / 4) to the
    partial sums, and the arms up to a take at most (a+1)(a+2)/2 from
    them, so no field m past the smaller bound is kept.
    """
    check_size("n_max", n_max, 0, COUNT_CAP)
    width = field_width(n_max)
    below = [(1, 0)] * (n_max + 1)
    s = 1
    for a in range(n_max - 1):
        size = min((a + 1) * (a + 2) // 2, (n_max - a - 2) ** 2 // 4) + 1
        keep = (1 << size * width) - 1
        # the empty stack has m = 0, so every field counts it
        here = [(_repeat(1, size, width), 0)]
        run_even = run_odd = 0
        for leg in range(n_max):
            top_even, top_odd = _push(below[leg], leg - a - 1, s, size, width, keep)
            below[leg] = None
            run_even += top_even
            run_odd += top_odd
            even, odd = _push(below[leg + 1], 0, s, size, width, keep)
            here.append((even + run_even, odd + run_odd))
        below, s = here, size
    return tuple(even & (1 << width) - 1 for even, _ in below)


def count_graphical_sequences(n: int) -> int:
    """Number of graphical degree sequences of length n."""
    check_size("n", n, 1, COUNT_CAP)
    return graphical_sequence_counts(n)[n]


def ratio_table(n_max: int) -> list[tuple[int, int, float]]:
    """Rows (n, count, n^(3/4) * count / 4^n) for n = 1..n_max.

    The scaled ratio drifts toward the growth constant C, but far too
    slowly to pin C at desk scale; the table is a stabilization
    diagnostic, not an estimator.
    """
    counts = graphical_sequence_counts(n_max)
    return [(n, counts[n], n**0.75 * counts[n] / 4**n) for n in range(1, n_max + 1)]
