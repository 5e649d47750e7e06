"""Exact arithmetic on residue rings Z_m, on plain ints.

Factorization, Euler's phi, divisors, multiplicative orders, 2-adic
valuation, and the coset/orbit bookkeeping behind multiplier actions on
residue sets.

Every operation is a pure function of its int arguments, so results can
be shared freely across threads.  Moduli are capped at 2**31;
CodeSetting enforces the cap before n is factored, so larger requests
fail loudly instead of degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import NonUnit, NotClosed, NotInvariant

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
    k = euler_phi(m)
    for p, _ in factorize(k):
        while k % p == 0 and pow(a, k // p, m) == 1:
            k //= p
    return k


@dataclass(frozen=True)
class CosetPartition:
    """Orbits of multiplication by a fixed unit on a closed residue set.

    Cosets are stored sorted ascending and listed by ascending canonical
    (minimum) representative, so the partition prints the same way on
    every run.
    """

    modulus: int
    generator: int
    ambient: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]

    @property
    def reps(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cosets)


def cosets_of(ambient: Iterable[int], g: int, m: int) -> CosetPartition:
    """Partition a closed set of residues mod m into orbits of the unit g.

    Each walk removes its orbit from the unvisited set.  Multiplication
    by a unit permutes Z_m, so a walk that stops anywhere but at its
    start has stepped outside the ambient set.
    """
    g %= m
    if math.gcd(g, m) != 1:
        raise NonUnit(f"{g} is not a unit mod {m}")
    amb = sorted({x % m for x in ambient})
    unvisited = set(amb)
    cosets = []
    for x in amb:
        if x not in unvisited:
            continue
        orbit = []
        y = x
        while y in unvisited:
            unvisited.remove(y)
            orbit.append(y)
            y = (y * g) % m
        if y != x:
            amb_set = set(amb)
            bad = min(z for z in amb if (z * g) % m not in amb_set)
            raise NotClosed(f"{bad}*{g} mod {m} leaves the ambient set")
        cosets.append(tuple(sorted(orbit)))
    return CosetPartition(m, g, tuple(amb), tuple(cosets))


def orbits_on_cosets(
    partition: CosetPartition, s: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Cycles of the multiplier s on the cosets, as walks of cosets.

    s commutes with the generator, so it maps a coset C onto the coset
    whose least element is min(s*x mod m for x in C); when no coset has
    that representative, s moves the ambient set.  Each cycle starts at
    its least coset and follows repeated multiplication by s; cycles are
    listed by ascending start.
    """
    m = partition.modulus
    sv = s % m
    if math.gcd(sv, m) != 1:
        raise NonUnit(f"{sv} is not a unit mod {m}")
    by_rep = {c[0]: c for c in partition.cosets}
    seen: set[int] = set()
    cycles = []
    for coset in partition.cosets:
        walk = []
        c = coset
        while c[0] not in seen:
            seen.add(c[0])
            walk.append(c)
            image = min([(sv * x) % m for x in c])
            if image not in by_rep:
                raise NotInvariant(
                    f"{sv} does not fix the ambient set mod {m}"
                )
            c = by_rep[image]
        if walk:
            cycles.append(tuple(walk))
    return tuple(cycles)
