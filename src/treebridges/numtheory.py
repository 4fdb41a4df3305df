"""Small number-theoretic helpers: totient, divisors, and the
argument checks shared by the public counting functions."""

from __future__ import annotations

from functools import lru_cache


def check_size(name: str, value, least: int, cap: int | None = None) -> None:
    """Reject a bool or non-int with a TypeError, then a value below least
    or above cap with a ValueError, each naming the argument."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__} {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if cap is not None and value > cap:
        raise ValueError(f"{name} is capped at {cap}, got {value}")


# euler_phi and divisors trial-divide up to sqrt(n): 0.13-0.36 s and
# 0.13-0.16 s at the prime 10**12 + 39 (2-core x86-64, Python 3.11)
TRIAL_DIVISION_CAP = 10**12


# typed, so that True is not served the cached entry for 1
@lru_cache(maxsize=None, typed=True)
def euler_phi(n: int) -> int:
    """Euler's totient of n, by trial-division factorization."""
    check_size("n", n, 1, TRIAL_DIVISION_CAP)
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n."""
    check_size("n", n, 1, TRIAL_DIVISION_CAP)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
