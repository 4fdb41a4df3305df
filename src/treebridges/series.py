"""Log transform of counting sequences and the renewal structure it exposes.

For a sequence a with a_0 = 1, the log transform a* is defined by

    n * a_n = sum_{i=1..n} a*_i * a_{n-i},

i.e. A*(x) = x (d/dx) log A(x).  Applied to the graphical-bridge counts
b_n this recovers twice the plane-tree counts, and the companion
renewal decomposition 1 - 1/B(x) generates the irreducible bridge
counts.  Powers of that series give the distribution of the number of
irreducible parts of a uniform graphical bridge: parts_count_table
reads [x^n] of the m-th power for every n <= n_max off one power loop,
and parts_count_distribution and mean_inverse_parts read its row n.
The depth-first walk bridges.count_irreducible_bridges is the oracle
for the irreducible counts.

Read backwards, the identity gives the bridge counts from the tree
counts (bridge_counts_from_trees); the (height, area) DP in bridges is
its independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .constants import exact_zero_area_prob
from .numtheory import check_size
from .trees import plane_tree_counts

# O(n^2) products of numbers about 2n bits long: measured 0.6 s at
# n = 1,000 and 6.7 s / 30 MB peak resident memory at 2,000, and as long
# again for irreducible_bridge_counts on top, on a 2-core x86-64 host
# with Python 3.11
BRIDGE_TABLE_CAP = 2000
# parts_count_table takes n_max powers of an n_max-term series, about
# n^3.5 to n^4 in practice, and serves every n <= n_max at once:
# measured 0.16 s at n_max = 200, 1.9 s at 400 and 4.6 s / 27 MB peak
# resident memory at 500 (9.3 s at 600) on a 2-core x86-64 host with
# Python 3.11
PARTS_CAP = 500


def log_transform(a: list) -> list:
    """The sequence a* with n*a_n = sum a*_i a_{n-i}; requires a[0] = 1.

    Returns [a*_1, ..., a*_N] for input [a_0, ..., a_N].  Integer input
    yields integers; Fraction input yields Fractions.
    """
    if not a or a[0] != 1:
        raise ValueError("log_transform needs a sequence starting with 1")
    star: list = []
    for n in range(1, len(a)):
        acc = n * a[n]
        for i in range(1, n):
            acc -= star[i - 1] * a[n - i]
        star.append(acc)
    return star


def inverse_log_transform(star: list) -> list:
    """Rebuild [a_0, ..., a_N] from [a*_1, ..., a*_N]; left inverse of log_transform."""
    a: list = [1]
    for n in range(1, len(star) + 1):
        acc = sum(star[i - 1] * a[n - i] for i in range(1, n + 1))
        q, r = divmod(acc, n)
        a.append(q if r == 0 else Fraction(acc, n))
    return a


def irreducible_bridge_counts(b: list) -> list:
    """Coefficients of 1 - 1/B(x) for a counting sequence with b[0] = 1.

    Returns [i_0, i_1, ..., i_N] with i_0 = 0.  For the graphical-bridge
    counts these are the numbers of irreducible bridges.
    """
    if not b or b[0] != 1:
        raise ValueError("irreducible_bridge_counts needs b[0] = 1")
    recip = [1]  # coefficients of 1/B(x)
    for k in range(1, len(b)):
        recip.append(-sum(b[j] * recip[k - j] for j in range(1, k + 1)))
    return [0] + [-c for c in recip[1:]]


def bridge_counts_from_trees(n_max: int) -> list[int]:
    """Counts of graphical bridges of lengths 0, 2, ..., 2*n_max, from
    the tree counts: the inverse log transform of 2T(1), ..., 2T(n_max).
    """
    check_size("n_max", n_max, 0, BRIDGE_TABLE_CAP)
    b = inverse_log_transform([2 * t for t in plane_tree_counts(n_max)[1:]])
    # a Fraction here would mean the tree table broke the identity
    if any(type(v) is not int for v in b):
        raise AssertionError("the tree counts give a non-integer bridge count")
    return b


def parts_count_table(n_max: int) -> list[list[int]]:
    """Graphical bridges of length 2n by their number m of irreducible
    parts, for every n <= n_max: row n is [c_0, c_1, ..., c_n].

    c_m = [x^n] I(x)^m with I(x) = 1 - 1/B(x), read off the m-th power
    for every n at once; row 0 is [1], the empty bridge.  Each row sums
    to b_n, since sum_{m>=1} I^m = I/(1 - I) = B - 1.
    """
    check_size("n_max", n_max, 0, PARTS_CAP)
    b = bridge_counts_from_trees(n_max)
    irr = irreducible_bridge_counts(b)
    rows = [[0] * (n + 1) for n in range(n_max + 1)]
    rows[0][0] = 1
    power = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        nxt = [0] * (n_max + 1)
        for lo in range(n_max):
            coeff = power[lo]
            if coeff:
                for k in range(1, n_max - lo + 1):
                    if irr[k]:
                        nxt[lo + k] += coeff * irr[k]
        power = nxt
        for n in range(m, n_max + 1):
            rows[n][m] = power[n]
    for n, row in enumerate(rows):
        if sum(row) != b[n]:
            raise AssertionError(f"the part counts at n = {n} do not sum to b_n")
    return rows


def parts_count_distribution(n: int) -> dict[int, Fraction]:
    """Distribution of the number of irreducible parts of a uniform
    graphical bridge of length 2n.

    P(m parts) = [x^n] (1 - 1/B(x))^m / b_n, read from row n of
    parts_count_table; only nonzero entries are returned.
    """
    check_size("n", n, 1, PARTS_CAP)
    row = parts_count_table(n)[n]
    total = sum(row)
    return {m: Fraction(c, total) for m, c in enumerate(row) if c}


def mean_inverse_parts(n: int) -> Fraction:
    """E[1 / (number of irreducible parts)] for a uniform graphical
    bridge of length 2n, as an exact rational."""
    return sum(
        (Fraction(1, m) * p for m, p in parts_count_distribution(n).items()),
        start=Fraction(0),
    )


def parts_negbin_tv_distance(n: int) -> float:
    """Total-variation distance between the part-count distribution at n
    and 1 + X with X negative binomial (r = 2, success prob 1 - rho).

    X counts failures before the second success, so
    P(1 + X = m) = m * (1-rho)^2 * rho^(m-1) for m >= 1.
    """
    rho = exact_zero_area_prob().value
    dist = parts_count_distribution(n)
    acc = 0.0
    mass = 0.0
    for m in range(1, n + 1):
        q = m * (1 - rho) ** 2 * rho ** (m - 1)
        mass += q
        acc += abs(float(dist.get(m, 0)) - q)
    # the negative binomial keeps mass beyond m = n; the exact
    # distribution has none there
    return 0.5 * (acc + (1.0 - mass))
