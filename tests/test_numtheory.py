from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treebridges.numtheory import divisors, euler_phi


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_euler_phi_prime_and_prime_power():
    assert euler_phi(97) == 96
    assert euler_phi(1024) == 512
    assert euler_phi(3**5) == 3**5 - 3**4


def test_euler_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        euler_phi(-3)


def test_euler_phi_divisor_sum():
    # totients of the divisors partition the n residues by denominator
    for n in range(1, 400):
        assert sum(euler_phi(d) for d in divisors(n)) == n


@given(st.integers(1, 300), st.integers(1, 300))
def test_euler_phi_multiplicative_on_coprime_pairs(a, b):
    if gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_divisors_small():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_divisors_sorted_and_complete():
    for n in range(1, 200):
        assert divisors(n) == [k for k in range(1, n + 1) if n % k == 0]


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)
