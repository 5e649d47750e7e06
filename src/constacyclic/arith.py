"""Exact arithmetic on residue rings Z_m.

Units and multiplicative orders, CRT decomposition along prime-power
factors, 2-adic valuation, and the coset/orbit bookkeeping behind
multiplier actions on residue sets.

Everything here is immutable after construction and every operation is
a pure function, so values can be shared freely across threads.  Moduli
are capped at 2**31: desk-scale inputs stay far below that, and larger
requests fail loudly instead of degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import BadFrame, NonUnit, NotClosed, NotInvariant, TooLarge

MAX_MODULUS = 1 << 31


def _check_modulus(modulus: int) -> None:
    if modulus < 1:
        raise BadFrame(f"modulus must be positive, got {modulus}")
    if modulus > MAX_MODULUS:
        raise TooLarge(f"modulus {modulus} exceeds the 2^31 cap")


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


@dataclass(frozen=True)
class Residue:
    """An element of Z_m, stored reduced to the range [0, m)."""

    value: int
    modulus: int

    def __post_init__(self):
        _check_modulus(self.modulus)
        object.__setattr__(self, "value", self.value % self.modulus)

    def _lift(self, other) -> int:
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise BadFrame(
                    f"mixed moduli {self.modulus} and {other.modulus}"
                )
            return other.value
        if isinstance(other, int):
            return other
        raise TypeError(f"cannot combine Residue with {type(other).__name__}")

    def __add__(self, other) -> "Residue":
        return Residue(self.value + self._lift(other), self.modulus)

    def __sub__(self, other) -> "Residue":
        return Residue(self.value - self._lift(other), self.modulus)

    def __mul__(self, other) -> "Residue":
        return Residue(self.value * self._lift(other), self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __pow__(self, e: int) -> "Residue":
        if e < 0:
            return pow(self.inverse(), -e)
        return Residue(pow(self.value, e, self.modulus), self.modulus)

    def __int__(self) -> int:
        return self.value

    @property
    def is_unit(self) -> bool:
        return math.gcd(self.value, self.modulus) == 1

    def inverse(self) -> "Residue":
        if not self.is_unit:
            raise NonUnit(f"{self.value} is not a unit mod {self.modulus}")
        return Residue(pow(self.value, -1, self.modulus), self.modulus)


def mult_order(t: Residue) -> int:
    """Least k >= 1 with t**k = 1 in Z_m^*."""
    if not t.is_unit:
        raise NonUnit(f"{t.value} is not a unit mod {t.modulus}")
    return _mult_order(t.value, t.modulus)


def _mult_order(a: int, m: int) -> int:
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
class CrtFrame:
    """Z_modulus split into pairwise-coprime prime-power factors."""

    modulus: int
    factors: tuple[int, ...]

    def __post_init__(self):
        _check_modulus(self.modulus)
        prod = 1
        primes = []
        for w in self.factors:
            fw = factorize(w) if w >= 1 else ()
            if w < 2 or len(fw) != 1:
                raise BadFrame(f"factor {w} is not a prime power")
            primes.append(fw[0][0])
            prod *= w
        if prod != self.modulus:
            raise BadFrame(
                f"factors multiply to {prod}, expected {self.modulus}"
            )
        if len(set(primes)) != len(primes):
            raise BadFrame("factors are not pairwise coprime")

    @classmethod
    def from_modulus(cls, modulus: int) -> "CrtFrame":
        _check_modulus(modulus)
        return cls(modulus, tuple(p**e for p, e in factorize(modulus)))

    def prime_of(self, w: int) -> int:
        return factorize(w)[0][0]


def crt_decompose(x: Residue, frame: CrtFrame) -> tuple[Residue, ...]:
    """Reduce x along every prime-power factor of the frame."""
    if x.modulus != frame.modulus:
        raise BadFrame(
            f"residue modulus {x.modulus} does not match frame {frame.modulus}"
        )
    return tuple(Residue(x.value, w) for w in frame.factors)


def crt_compose(parts: Sequence, frame: CrtFrame) -> Residue:
    """Rebuild the residue mod frame.modulus from its prime-power parts."""
    if len(parts) != len(frame.factors):
        raise BadFrame(
            f"expected {len(frame.factors)} parts, got {len(parts)}"
        )
    total = 0
    for part, w in zip(parts, frame.factors):
        if isinstance(part, Residue):
            if part.modulus != w:
                raise BadFrame(f"part modulus {part.modulus}, expected {w}")
            a = part.value
        else:
            a = int(part) % w
        mi = frame.modulus // w
        total += a * mi * pow(mi, -1, w)
    return Residue(total, frame.modulus)


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


def cosets_of(ambient: Iterable[int], generator: Residue) -> CosetPartition:
    """Partition a closed residue set into orbits of the generator.

    Each walk removes its orbit from the unvisited set.  Multiplication
    by a unit permutes Z_m, so a walk that stops anywhere but at its
    start has stepped outside the ambient set.
    """
    m = generator.modulus
    if not generator.is_unit:
        raise NonUnit(f"{generator.value} is not a unit mod {m}")
    g = generator.value
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
    partition: CosetPartition, s: Residue
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Cycles of the multiplier s on the cosets, as walks of cosets.

    s commutes with the generator, so it maps a coset C onto the coset
    whose least element is min(s*x mod m for x in C); when no coset has
    that representative, s moves the ambient set.  Each cycle starts at
    its least coset and follows repeated multiplication by s; cycles are
    listed by ascending start.
    """
    if s.modulus != partition.modulus:
        raise BadFrame(
            f"multiplier modulus {s.modulus} does not match partition"
        )
    if not s.is_unit:
        raise NonUnit(f"{s.value} is not a unit mod {s.modulus}")
    m = partition.modulus
    sv = s.value
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
