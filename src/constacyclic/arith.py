"""Exact arithmetic on residue rings Z_m, on plain ints.

Factorization, Euler's phi, divisors, multiplicative orders and 2-adic
valuation: the arithmetic behind the closed forms in duadic.

Every operation is a pure function of its int arguments, so results can
be shared freely across threads.  Moduli are capped at 2**31;
CodeSetting enforces the cap before n is factored, so larger requests
fail loudly instead of degrading.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NonUnit

MAX_MODULUS = 1 << 31


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division, as ((p, e), ...)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def nu2(t: int) -> int:
    """2-adic valuation of a positive integer."""
    if t < 1:
        raise ValueError(f"2-adic valuation needs a positive integer, got {t}")
    return (t & -t).bit_length() - 1


def _mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a**k = 1 mod m; raises NonUnit for a non-unit."""
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise NonUnit(f"{a} is not a unit mod {m}")
    return _order_dividing(euler_phi(m), lambda e: pow(a, e, m) == 1)


def _order_dividing(k: int, is_one) -> int:
    """Order of an element whose order divides k, is_one(e) saying if its
    e-th power is 1: each prime of k is stripped while the power stays 1."""
    for p, _ in factorize(k):
        while k % p == 0 and is_one(k // p):
            k //= p
    return k
