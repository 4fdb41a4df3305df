from __future__ import annotations

import math
from fractions import Fraction

import pytest
from scipy import integrate

from treebridges import constants, trees
from treebridges.numtheory import euler_phi

# the limits to 20 digits, independently of the float evaluation path
# under test: xi = (pi^2/6 - 2 ln^2 2)/2 + (1/2) sum_{m>=2} phi(m)/m^2
# sum_{d>=1} binomial(2d, d)/(d^2 4^(dm)) and Gamma(3/4), both evaluated
# with mpmath at 45 digits, then prefactor = Gamma(3/4)/(2^(5/2) pi),
# C = prefactor * exp(xi) and rho = 1 - exp(-2 xi)
XI_REF = 0.36263134141951955540
GAMMA34_REF = 1.2254167024651776451
PREFACTOR_REF = 0.068953915707552328590
C_REF = 0.099094083237488745361
RHO_REF = 0.51580263808914185850
# each reference, read as a double, lies within 3e-17 of its limit; the
# slop covers that and the rounding of the difference, nothing more
REF_SLOP = 1e-16


def test_bounded_real_interval_api():
    x = constants.BoundedReal(1.5, 0.25)
    assert x.low == 1.25 and x.high == 1.75
    assert x.low <= 1.6 <= x.high
    assert not x.low <= 1.8 <= x.high


def test_tree_count_table_matches_per_index_formula():
    table = trees.plane_tree_counts(80)
    for n in range(1, 81):
        assert table[n] == trees.plane_tree_count(n)


def test_tree_count_table_spot_value():
    # one deep value, recomputed through the independent divisor formula
    assert trees.plane_tree_counts(150)[150] == trees.plane_tree_count(150)


def test_tail_bound_premise():
    # every term of the series is at most 2 binomial(2k-1, k) / (k^2 4^k),
    # which is what the closed-form tail bound integrates
    table = trees.plane_tree_counts(200)
    for k in range(1, 201):
        assert k * table[k] <= 2 * math.comb(2 * k - 1, k)


def test_rational_tail_bound_covers_the_proved_tail():
    # tree_series widens by 5000 / (13293 isqrt(N^3)); against Machin's
    # lower pi it is at least (2 / (3 sqrt(pi))) N^(-3/2), and it falls in N
    pi_lo = constants._pi()[0]
    assert pi_lo > Fraction(17724, 10_000) ** 2
    tails = []
    for n in (*range(1, 200), 10_000, trees.TREE_TABLE_CAP):
        tail = Fraction(5000, 13293 * math.isqrt(n**3))
        assert tail**2 * 9 * pi_lo * n**3 >= 4, n
        tails.append(tail)
    assert tails == sorted(tails, reverse=True)


def test_tree_series_brackets_reference():
    xi = constants.tree_series()
    assert abs(xi.value - XI_REF) <= xi.error_bound + REF_SLOP
    assert xi.error_bound < 1e-6


def test_tree_series_within_one_ulp_of_the_exact_partial_sum():
    table = trees.plane_tree_counts(60)
    partial = Fraction(0)
    for terms in range(1, 61):
        partial += Fraction(table[terms], terms * 4**terms)
        xi = constants.tree_series(terms)
        assert Fraction(xi.low) <= partial <= Fraction(xi.high), terms
        assert Fraction(xi.high) - partial >= Fraction(5000, 13293 * math.isqrt(terms**3))


def test_tree_series_nested_intervals():
    prev_bound = math.inf
    for terms in (2000, 10_000, 50_000):
        xi = constants.tree_series(terms)
        assert xi.error_bound < prev_bound
        prev_bound = xi.error_bound
        assert abs(xi.value - XI_REF) <= xi.error_bound + REF_SLOP
    # partial sums of a positive series only grow
    assert constants.tree_series(2000).value < constants.tree_series(50_000).value


def test_rearranged_series_equals_the_tree_series_exactly():
    # Walkup's divisor sum with k = d m: every partial sum of the tree
    # series equals the rearranged double sum over d m <= K
    table = trees.plane_tree_counts(60)
    lhs = rhs = Fraction(0)
    for k in range(1, 61):
        lhs += Fraction(table[k], k * 4**k)
        rhs += sum(
            Fraction(euler_phi(k // d) * math.comb(2 * d, d), 2 * k * k * 4**k)
            for d in range(1, k + 1)
            if k % d == 0
        )
        assert lhs == rhs, k


def test_closed_form_m1_brackets_its_partial_sum():
    # pi^2/6 - 2 ln^2 2 against sum_{d <= N} binomial(2d, d) / (d^2 4^d);
    # binomial(2d, d) <= 4^d / sqrt(pi d) bounds the tail after N by
    # (2 / (3 sqrt(pi))) N^(-3/2)
    lo, hi = constants._inner_sum_m1()
    assert 0 < hi - lo < Fraction(1, 2**95)
    n = 200
    partial = sum(Fraction(math.comb(2 * d, d), d * d * 4**d) for d in range(1, n + 1))
    tail = 2 / (3 * math.sqrt(math.pi)) * n**-1.5
    assert partial < lo and hi < partial + Fraction(tail)
    assert float(lo) == pytest.approx(math.pi**2 / 6 - 2 * math.log(2) ** 2, abs=1e-15)


def test_xi_inside_the_tree_series_and_at_the_references():
    x = constants.xi()
    coarse = constants.tree_series(50_000)
    assert coarse.low <= x.low and x.high <= coarse.high
    # the rational interval is far narrower than a float, so the bound
    # is its floor of 2 ulps
    lo, hi = constants._xi_interval()
    assert hi - lo < Fraction(1, 2**95)
    assert x.error_bound == 2 * math.ulp(x.value)
    for got, ref in (
        (x, XI_REF),
        (constants.count_growth_constant(), C_REF),
        (constants.exact_zero_area_prob(), RHO_REF),
    ):
        assert abs(got.value - ref) <= got.error_bound + REF_SLOP
        assert got.error_bound < 1e-15


@pytest.mark.parametrize(
    "lo, hi",
    [
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**10)),
        (Fraction(1, 2) - Fraction(1, 2**80), Fraction(1, 2)),
        (1 - Fraction(1, 2**60), 1 - Fraction(1, 2**61)),
    ],
)
def test_from_fractions_rounds_outward(lo, hi):
    b = constants.BoundedReal.from_fractions(lo, hi)
    assert Fraction(b.low) <= lo and hi <= Fraction(b.high)
    assert b.error_bound >= 2 * math.ulp(b.value)
    assert b.error_bound <= float(hi - lo) / 2 + 3 * math.ulp(b.value)


def test_gamma_three_quarters_against_quadrature():
    # defining integral, split so the integrand stays bounded: on [0,1]
    # substitute t = u^4, beyond 1 integrate directly
    head, head_err = integrate.quad(lambda u: 4 * u * u * math.exp(-(u**4)), 0.0, 1.0)
    tail, tail_err = integrate.quad(
        lambda t: t**-0.25 * math.exp(-t), 1.0, math.inf
    )
    assert head_err + tail_err < 1e-9
    g = constants.gamma_three_quarters()
    assert abs(g.value - (head + tail)) < 1e-9
    assert abs(g.value - GAMMA34_REF) <= g.error_bound + REF_SLOP


def test_gamma_reflection_identity():
    lhs = math.gamma(0.75) * math.gamma(0.25)
    assert lhs == pytest.approx(math.pi * math.sqrt(2), rel=1e-12)


def test_gamma_prefactor():
    pref = constants.gamma_prefactor()
    direct = GAMMA34_REF / (2**2.5 * math.pi)
    assert abs(pref.value - direct) <= pref.error_bound + REF_SLOP
    assert abs(pref.value - PREFACTOR_REF) <= pref.error_bound + REF_SLOP


def test_prefactor_and_growth_constant_read_no_float_pi(monkeypatch):
    # the two divide by Machin's pi and the tree series bounds its tail by
    # a rational, so a wrong math.pi cannot move any of them; the series is
    # called past its cache, so that each call recomputes it
    calls = (
        constants.gamma_prefactor,
        constants.count_growth_constant,
        lambda: constants.tree_series.__wrapped__(100),
    )
    want = [f() for f in calls]
    monkeypatch.setattr(math, "pi", 3.0)
    assert [f() for f in calls] == want
    for got, ref in zip(want, (PREFACTOR_REF, C_REF)):
        assert abs(got.value - ref) <= got.error_bound + REF_SLOP


def test_count_growth_constant_brackets_reference():
    c = constants.count_growth_constant()
    assert abs(c.value - C_REF) <= c.error_bound + REF_SLOP
    # C's formula recomputed from the 50,000-term tree series gives a
    # coarser interval, which must hold C's
    pref = constants.gamma_prefactor()
    xi = constants.tree_series(50_000)
    coarse_lo, coarse_hi = pref.low * math.exp(xi.low), pref.high * math.exp(xi.high)
    assert coarse_lo - REF_SLOP <= c.low and c.high <= coarse_hi + REF_SLOP
    assert c.error_bound < (coarse_hi - coarse_lo) / 2


def test_exact_zero_area_prob_brackets_reference():
    rho = constants.exact_zero_area_prob()
    assert abs(rho.value - RHO_REF) <= rho.error_bound + REF_SLOP
    assert 0.0 < rho.low and rho.high < 1.0


def test_growth_constant_prefactor_consistency():
    # eliminating the series between the two limit formulas leaves
    # C * sqrt(1 - rho) = prefactor
    c = constants.count_growth_constant()
    rho = constants.exact_zero_area_prob()
    pref = constants.gamma_prefactor()
    lo = c.low * math.sqrt(1 - rho.high)
    hi = c.high * math.sqrt(1 - rho.low)
    assert lo <= pref.high and pref.low <= hi
