"""High-precision evaluation of the limiting constants, with error bounds.

The central quantity is the series

    xi = sum_{k >= 1} T(k) / (k * 4^k)

over the plane-tree counts T(k).  Everything else is elementary in xi:
the growth constant of the graphical-sequence count is

    C = Gamma(3/4) / (2^(5/2) * pi) * exp(xi),

and the probability that the stopped lazy walk ends with area exactly
zero is rho = 1 - exp(-2*xi).

Every value is returned as a BoundedReal whose error_bound is meant
rigorously.  The series tail after N terms is bounded by

    tail(N) <= (2 / (3*sqrt(pi))) * N^(-3/2),

which follows from k*T(k) <= 2*binomial(2k-1, k) (the divisor sum is
dominated by its largest term) together with
binomial(2k, k) <= 4^k / sqrt(pi*k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .numtheory import check_size
from .trees import plane_tree_counts

DEFAULT_TERMS = 10_000

# cover for the floating-point rounding of the series: each int / int
# term is correctly rounded and math.fsum rounds their sum once, so the
# float value is within 2^-52 * xi (about 8e-17) of the partial sum
FLOAT_SLOP = 5e-15


@dataclass(frozen=True)
class BoundedReal:
    """A value together with a rigorous absolute error bound."""

    value: float
    error_bound: float

    @property
    def low(self) -> float:
        return self.value - self.error_bound

    @property
    def high(self) -> float:
        return self.value + self.error_bound

    def contains(self, x: float) -> bool:
        return self.low <= x <= self.high

    @staticmethod
    def from_interval(lo: float, hi: float, slack: float = 0.0) -> "BoundedReal":
        return BoundedReal((lo + hi) / 2, (hi - lo) / 2 + slack)


def series_tail_bound(terms: int) -> float:
    """Rigorous bound on the tree series tail after the given many terms."""
    check_size("terms", terms, 1)
    return 2.0 / (3.0 * math.sqrt(math.pi)) * terms**-1.5


# the one xi of a process: C, rho and the CLI all read tree_series();
# typed, so that True is not served the cached entry for 1
@lru_cache(maxsize=8, typed=True)
def tree_series(terms: int = DEFAULT_TERMS) -> BoundedReal:
    """Partial sum of sum_k T(k) / (k * 4^k) with a rigorous bound.

    Every term is converted on its own (int by int division is correctly
    rounded) and the terms are added by one math.fsum.  The error bound
    is the series tail plus FLOAT_SLOP.  terms is capped at
    trees.TREE_TABLE_CAP.
    """
    check_size("terms", terms, 1)
    trees = plane_tree_counts(terms)
    value = math.fsum(trees[k] / (k << (2 * k)) for k in range(1, terms + 1))
    return BoundedReal(value, series_tail_bound(terms) + FLOAT_SLOP)


def gamma_three_quarters() -> BoundedReal:
    """Gamma(3/4) by the platform's Lanczos-class evaluator.

    The libm gamma is correct to a couple of ulps here; the bound is set
    well above that and the value is certified in the test suite against
    an independent quadrature of the defining integral and against the
    reflection identity Gamma(3/4) * Gamma(1/4) = pi * sqrt(2).
    """
    return BoundedReal(math.gamma(0.75), 1e-15)


def gamma_prefactor() -> BoundedReal:
    """Gamma(3/4) / (2^(5/2) * pi), the growth constant with xi zeroed."""
    g = gamma_three_quarters()
    denom = 2**2.5 * math.pi
    return BoundedReal.from_interval(
        g.low / denom, g.high / denom, slack=4e-17
    )


def count_growth_constant() -> BoundedReal:
    """C: the constant in the 4^n / n^(3/4) growth of the number of
    graphical sequences; equals gamma_prefactor * exp(tree series)."""
    xi = tree_series()
    pref = gamma_prefactor()
    lo = pref.low * math.exp(xi.low)
    hi = pref.high * math.exp(xi.high)
    return BoundedReal.from_interval(lo, hi, slack=4e-17)


def exact_zero_area_prob() -> BoundedReal:
    """rho: probability that the stopped lazy walk has area exactly
    zero; equals 1 - exp(-2 * tree series), increasing in the series."""
    xi = tree_series()
    lo = -math.expm1(-2.0 * xi.low)
    hi = -math.expm1(-2.0 * xi.high)
    return BoundedReal.from_interval(lo, hi, slack=4e-17)
