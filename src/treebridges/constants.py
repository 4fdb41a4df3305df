"""High-precision evaluation of the limiting constants, with error bounds.

The central quantity is the series

    xi = sum_{k >= 1} T(k) / (k * 4^k)

over the plane-tree counts T(k).  Everything else is elementary in xi:
the growth constant of the graphical-sequence count is

    C = Gamma(3/4) / (2^(5/2) * pi) * exp(xi),

and the probability that the stopped lazy walk ends with area exactly
zero is rho = 1 - exp(-2*xi).

Every value is returned as a BoundedReal whose error_bound is meant
rigorously.  Two routes give xi.

tree_series(terms) sums the definition over the sieve
trees.plane_tree_counts; it is the oracle.  Its tail after N terms is
bounded by

    tail(N) <= (2 / (3*sqrt(pi))) * N^(-3/2) < 5000 / (13293 * isqrt(N^3)).

The first bound follows from k*T(k) <= 2*binomial(2k-1, k) (the divisor
sum is dominated by its largest term) together with
binomial(2k, k) <= 4^k / sqrt(pi*k).  The second is rational: pi >
3.1415 > 1.7724^2 = 3.14140176, so 2 / (3*sqrt(pi)) < 2 / (3 * 1.7724)
= 5000/13293, and isqrt(N^3) <= N^(3/2).  The partial sum is bracketed
in integers: each term floor(T(k) 2^128 / (k 4^k)) is short by less
than one, so with S their sum the partial sum lies in
[S, S + N) / 2^128, and xi in [S, S + N) / 2^128 + [0, tail(N)].

xi() is the production route: C, rho and the CLI read it.  Walkup's
formula k*T(k) = sum_{d | k} binomial(2d-1, d) * phi(k/d), with
binomial(2d-1, d) = binomial(2d, d)/2, puts k = d*m in every term:

    xi = sum_k sum_{d*m = k} binomial(2d, d) phi(m) / (2 d^2 m^2 4^(dm))
       = (1/2) sum_{m >= 1} phi(m)/m^2 * I_m,
    I_m = sum_{d >= 1} binomial(2d, d) / (d^2 * 4^(dm)),

and the order of summation is free because every term is positive.

    m = 1:  I_1 = pi^2/6 - 2 ln^2 2.  With f(x) = sum_d binomial(2d, d)
            x^d / d = 2 ln(2 / (1 + sqrt(1 - 4x))) (integrate
            sum_d binomial(2d, d) x^(d-1) = (1/sqrt(1-4x) - 1)/x),
            I_1 = int_0^(1/4) f(t)/t dt.  Put t = (1 - s^2)/4 and split
            s/(1 - s^2) = (1/(1-s) - 1/(1+s))/2:
            I_1 = 2 int_0^1 ln(2/(1+s))/(1-s) ds
                  - 2 int_0^1 ln(2/(1+s))/(1+s) ds
                = 2 Li_2(1/2) - ln^2 2,
            and Euler's Li_2(1/2) = pi^2/12 - ln^2 2 / 2.
    pi:     Machin, pi = 16 atan(1/5) - 4 atan(1/239), each arctangent
            an alternating series of decreasing terms
            (-1)^k / ((2k+1) q^(2k+1)), so a partial sum is within its
            first omitted term of the limit.
    ln 2:   sum_{k >= 1} 1 / (k 2^k); the tail after K terms is at most
            (1/(K+1)) sum_{k > K} 2^-k = 1 / ((K+1) 2^K).
    m >= 2: the term ratio of I_m is
            2(2d+1)/(d+1) * (d/(d+1))^2 * 4^-m < r = 4^(1-m) <= 1/4,
            so the tail after the term a_D is at most a_D r / (1 - r).
    m >= M: binomial(2d, d) <= 4^d gives I_m <= r/(1-r) <= (4/3) 4^(1-m),
            and phi(m)/m^2 <= 1/m, so the terms from M on sum to at most
            (1/M) (4/3) sum_{m >= M} 4^(1-m) = (16/9) 4^(1-M) / M.

Every sum is exact in Fractions and every tail is added to the upper
end, so [low, high] holds xi; each series stops once its tail is below
2^-100.  C and rho apply exp to the ends of xi's float interval by
Taylor's series: for 0 <= x <= 1 the terms from x^k/k! on sum to at
most x^k/k! / (1 - x/(k+1)) <= 2 x^k/k!.  Both functions increase in
xi.  The prefactor divides Gamma(3/4)'s interval by Machin's pi and by
4 sqrt(2) in [r, r + 1) / 2^98, r = isqrt(2^201), in Fractions too; its
one trusted input is libm's Gamma(3/4), in gamma_three_quarters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .numtheory import check_size, euler_phi
from .trees import TREE_TABLE_CAP, plane_tree_counts

# every series behind xi() stops once its tail bound is below this
_TAIL = Fraction(1, 2**100)


class BoundedReal(NamedTuple):
    """A value together with a rigorous absolute error bound."""

    value: float
    error_bound: float

    @property
    def low(self) -> float:
        return self.value - self.error_bound

    @property
    def high(self) -> float:
        return self.value + self.error_bound

    @staticmethod
    def from_fractions(lo: Fraction, hi: Fraction) -> "BoundedReal":
        """The nearest float to the midpoint of [lo, hi], with a bound
        of a whole number of its ulps, at least the radius plus one ulp.

        low and high are a float subtraction and addition, each rounded
        to nearest.  value -/+ error_bound is a multiple of ulp(value)
        and, for error_bound < value, moves by at most one ulp when
        rounded, which the extra ulp absorbs; so the bound is at least
        2 ulps, even where [lo, hi] is far narrower than one.
        """
        value = float((lo + hi) / 2)
        ulp = math.ulp(value)
        radius = max(hi - Fraction(value), Fraction(value) - lo)
        return BoundedReal(value, (math.floor(radius / Fraction(ulp)) + 2) * ulp)


# the definition, kept as the oracle for xi()
def tree_series(terms: int) -> BoundedReal:
    """Partial sum of sum_k T(k) / (k * 4^k) with a rigorous bound.

    The integer floors of T(k) 2^128 / (k 4^k) sum to S, so the partial
    sum lies in [S, S + terms) / 2^128 (module docstring).  That interval
    is widened by the rational tail bound on both sides, not only above,
    so that the value stays at the partial sum and does not move up by
    half the tail.  terms is capped at trees.TREE_TABLE_CAP.
    """
    check_size("terms", terms, 1, TREE_TABLE_CAP)
    trees = plane_tree_counts(terms)
    total = sum((trees[k] << 128 >> 2 * k) // k for k in range(1, terms + 1))
    tail = Fraction(5000, 13293 * math.isqrt(terms**3))
    return BoundedReal.from_fractions(
        Fraction(total, 1 << 128) - tail, Fraction(total + terms, 1 << 128) + tail
    )


def _ln2() -> tuple[Fraction, Fraction]:
    """ln 2 = sum_{k >= 1} 1/(k 2^k), bracketed."""
    total, k = Fraction(0), 0
    while True:
        k += 1
        total += Fraction(1, k << k)
        tail = Fraction(1, (k + 1) << k)
        if tail < _TAIL:
            return total, total + tail


def _atan_inverse(q: int) -> tuple[Fraction, Fraction]:
    """atan(1/q) bracketed by an alternating partial sum and its first
    omitted term."""
    total, k = Fraction(0), 0
    while True:
        term = Fraction(1, (2 * k + 1) * q ** (2 * k + 1))
        if term < _TAIL:
            return total - term, total + term
        total += -term if k & 1 else term
        k += 1


def _pi() -> tuple[Fraction, Fraction]:
    """pi = 16 atan(1/5) - 4 atan(1/239) (Machin), bracketed."""
    a5, a239 = _atan_inverse(5), _atan_inverse(239)
    return 16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0]


def _inner_sum_m1() -> tuple[Fraction, Fraction]:
    """I_1 = pi^2/6 - 2 ln^2 2, bracketed."""
    pi_lo, pi_hi = _pi()
    ln2_lo, ln2_hi = _ln2()
    return pi_lo**2 / 6 - 2 * ln2_hi**2, pi_hi**2 / 6 - 2 * ln2_lo**2


def _xi_interval() -> tuple[Fraction, Fraction]:
    """xi bracketed by the rearranged divisor series (module docstring)."""
    lo, hi = _inner_sum_m1()
    m = 2
    while True:
        # the terms from m on sum to at most (16/9) 4^(1-m) / m
        outer = Fraction(16, 9 * m << 2 * (m - 1))
        if outer < _TAIL:
            return lo / 2, (hi + outer) / 2
        weight = Fraction(euler_phi(m), m * m)
        r = Fraction(1, 1 << 2 * (m - 1))
        d, central = 1, 2
        while True:
            term = weight * Fraction(central, d * d << 2 * d * m)
            lo += term
            hi += term
            tail = term * r / (1 - r)
            if tail < _TAIL:
                break
            d += 1
            central = central * 2 * (2 * d - 1) // d
        hi += tail
        m += 1


# the one evaluation of xi in a process: C, rho and the CLI read it
@lru_cache(maxsize=1)
def xi() -> BoundedReal:
    """xi from the rearranged divisor series, rigorous by its arithmetic.

    Exact Fractions with a rational bound on every tail (see the module
    docstring), converted outward by BoundedReal.from_fractions; no tree
    table is built.
    """
    return BoundedReal.from_fractions(*_xi_interval())


def _exp(x: float) -> tuple[Fraction, Fraction]:
    """exp(x) for 0 <= x <= 1 bracketed by Taylor's series."""
    x = Fraction(x)
    total, term, k = Fraction(0), Fraction(1), 0
    while term >= _TAIL:
        total += term
        k += 1
        term = term * x / k
    return total, total + 2 * term


def gamma_three_quarters() -> BoundedReal:
    """Gamma(3/4) by the platform's Lanczos-class evaluator.

    The libm gamma is correct to a couple of ulps here; the bound is set
    well above that and the value is certified in the test suite against
    an independent quadrature of the defining integral and against the
    reflection identity Gamma(3/4) * Gamma(1/4) = pi * sqrt(2).
    """
    return BoundedReal(math.gamma(0.75), 1e-15)


def gamma_prefactor() -> BoundedReal:
    """Gamma(3/4) / (2^(5/2) * pi), the growth constant with xi zeroed;
    r / 2^98 <= 2^(5/2) = 4 sqrt(2) < (r + 1) / 2^98."""
    g = gamma_three_quarters()
    v, e = Fraction(g.value), Fraction(g.error_bound)
    r = math.isqrt(2 << 200)
    pi_lo, pi_hi = _pi()
    return BoundedReal.from_fractions(
        (v - e) * 2**98 / ((r + 1) * pi_hi), (v + e) * 2**98 / (r * pi_lo)
    )


def count_growth_constant() -> BoundedReal:
    """C: the constant in the 4^n / n^(3/4) growth of the number of
    graphical sequences; equals gamma_prefactor * exp(xi)."""
    x, pref = xi(), gamma_prefactor()
    lo, hi = _exp(x.low)[0], _exp(x.high)[1]
    return BoundedReal.from_fractions(Fraction(pref.low) * lo, Fraction(pref.high) * hi)


def exact_zero_area_prob() -> BoundedReal:
    """rho: probability that the stopped lazy walk has area exactly
    zero; equals 1 - exp(-2 xi), increasing in xi."""
    x = xi()
    lo, hi = _exp(x.low)[0], _exp(x.high)[1]
    return BoundedReal.from_fractions(1 - 1 / lo**2, 1 - 1 / hi**2)
