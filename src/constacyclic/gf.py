"""Finite fields F_{p^m}, dense polynomials, and root-of-unity towers.

Elements of F_{p^m} are integer labels in [0, p^m): the coordinate
vector (c_0, ..., c_{m-1}) over F_p gets the label sum(c_i * p**i), so
0 and 1 are the additive and multiplicative identities and the prime
subfield occupies labels 0..p-1 in every field.  The modulus polynomial
is always the lexicographically least monic irreducible of the right
degree (coefficients compared low-to-high), which pins every derived
object down bit-for-bit.

A FieldTower places F_q inside the minimal extension F_{q^d} containing
a primitive nr-th root of unity theta with theta**n equal to the
embedded constacyclic unit; theta is the candidate with the
lexicographically least coordinate vector, so towers are reproducible
too.  poly_from_root_set multiplies, over F_q, the minimal polynomials
of the q-cosets of its root set.  Each tower expands a coset's minimal
polynomial prod(X - theta**x) in the extension once, at about |C|**2 / 2
extension multiplications, and caches it, so over a tower's life the
extension work is the sum of |C|**2 / 2 over the cosets ever asked for;
each call then pays only the F_q products.  Callers that need a
complementary pair still expand the smaller set and divide
(codes.ConstaCode).  A tower over a prime field, like one of degree 1,
embeds by identity: F_p is labels 0..p-1 of every extension.

Scalar arithmetic works on labels directly.  An odd-characteristic
product is reduced by the modulus itself, and the field-size cap is
decided from the degree, before any power is built.  Fields of order at
most 1024 also offer numpy (add, mul) tables: mul is one gather from the
field's exp/log pair over its least primitive element, add is built one
base-p digit at a time.  Only np_tables imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as _iterproduct

from .arith import _mult_order, factorize
from .errors import (
    DivideByZero,
    Internal,
    NotInvariant,
    NotPrime,
    SettingMismatch,
    TooLarge,
)

MAX_FIELD_SIZE = 1 << 20
_NP_TABLE_LIMIT = 1 << 10


# ---------------------------------------------------------------------------
# polynomial helpers over a prime field, used only to build moduli


def _pf_rem(a, b: tuple[int, ...], p: int) -> list[int]:
    """Coefficients of a mod b over F_p, for monic b and a reduced mod p."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            for j, bj in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * bj) % p
    return a[:db]


@lru_cache(maxsize=None)
def _irreducibles(p: int, max_deg: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles over F_p of degree 1..max_deg, sieved."""
    found: list[tuple[int, ...]] = []
    for d in range(1, max_deg + 1):
        for cs in _iterproduct(range(p), repeat=d):
            cand = list(cs) + [1]
            if d > 1 and cand[0] == 0:
                continue
            reducible = False
            for f in found:
                if len(f) - 1 > d // 2:
                    break
                if not any(_pf_rem(cand, f, p)):
                    reducible = True
                    break
            if not reducible:
                found.append(tuple(cand))
    return tuple(found)


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    # make_field asks only for m >= 2, where X divides every candidate
    # with constant term 0; starting that term at 1 skips those p**(m-1)
    # candidates and keeps the lexicographic order, so the modulus found
    # is unchanged
    factors = _irreducibles(p, m // 2)
    for cs in _iterproduct(range(1, p), *[range(p)] * (m - 1)):
        cand = list(cs) + [1]
        if all(any(_pf_rem(cand, f, p)) for f in factors):
            return tuple(cand)
    raise Internal(f"no irreducible of degree {m} over F_{p}")


# ---------------------------------------------------------------------------
# field arithmetic on integer labels


class FieldSpec:
    """Arithmetic of F_{p^m} on integer element labels.

    Instances are created through make_field only, one per (p, m), so
    identity comparison is field equality.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        if p == 2:
            mask = 0
            for i, c in enumerate(modulus):
                if c:
                    mask |= 1 << i
            self._mask = mask
        elif m > 1:
            # X**m = tail[0] + tail[1]*X + ... + tail[m-1]*X**(m-1), so mul
            # folds c*X**i into c*tail at X**(i-m)..X**(i-1), top down
            self._tail = [(-c) % p for c in modulus[:m]]
        self._np_tables = None

    # -- coordinates ------------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.m):
            a, c = divmod(a, p)
            out.append(c)
        return tuple(out)

    def from_coords(self, cs) -> int:
        a = 0
        for c in reversed(tuple(cs)):
            a = a * self.p + c % self.p
        return a

    # -- ring operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += ((ca + cb) % p) * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            a, ca = divmod(a, p)
            out += ((-ca) % p) * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            r = 0
            top = 1 << self.m
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= self._mask
            return r
        p, m = self.p, self.m
        A = self.coords(a)
        B = self.coords(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(A):
            if ai:
                for j, bj in enumerate(B):
                    prod[i + j] += ai * bj
        tail = self._tail
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i] % p
            if c:
                for j, tj in enumerate(tail, i - m):
                    prod[j] += c * tj
        return self.from_coords(c % p for c in prod[:m])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.m == 1:
            return pow(a, e, self.p)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.q - 2)

    def order_of(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise DivideByZero("zero has no multiplicative order")
        k = self.q - 1
        for p, _ in factorize(k):
            while k % p == 0 and self.pow(a, k // p) == 1:
                k //= p
        return k

    @cached_property
    def primitive(self) -> int:
        """Least label of multiplicative order q - 1, found once per field."""
        if self.q == 2:
            return 1
        for a in range(2, self.q):
            if self.order_of(a) == self.q - 1:
                return a
        raise Internal(f"no primitive element found in {self!r}")

    def element(self, label: int) -> "FieldElement":
        if not 0 <= label < self.q:
            raise ValueError(f"label {label} out of range for {self!r}")
        return FieldElement(self, label)

    # -- vectorized tables --------------------------------------------------

    def np_tables(self):
        """(add, mul) lookup tables as numpy arrays; small fields only.

        mul is one gather from the field's exp/log pair, so building it
        costs q - 2 scalar multiplications; add is a xor in characteristic
        2 and otherwise coordinatewise addition, one base-p digit at a time.
        """
        if self._np_tables is None:
            if self.q > _NP_TABLE_LIMIT:
                raise TooLarge(
                    f"operation tables unsupported for field size {self.q}"
                )
            import numpy as np

            q, p = self.q, self.p
            g = self.primitive
            exp = [1]
            for _ in range(q - 2):
                exp.append(self.mul(exp[-1], g))
            exp = np.array(exp, dtype=np.int16)
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
            mul[0, :] = 0
            mul[:, 0] = 0
            v = np.arange(q, dtype=np.int16)
            if p == 2:
                add = np.bitwise_xor.outer(v, v)
            else:
                add = np.zeros((q, q), dtype=np.int16)
                place = 1
                while place < q:
                    digit = (v // place) % p
                    add += (digit[:, None] + digit[None, :]) % p * place
                    place *= p
            self._np_tables = (add, mul)
        return self._np_tables

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> FieldSpec:
    """F_{p^m} with the lexicographically least irreducible modulus."""
    if p < 2 or factorize(p) != ((p, 1),):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree must be positive, got {m}")
    # p**21 > 2**20 for every prime, so no large power is built
    if p ** min(m, 21) > MAX_FIELD_SIZE:
        raise TooLarge(f"field size {p}^{m} exceeds 2^20")
    modulus = (0, 1) if m == 1 else _least_irreducible(p, m)
    return FieldSpec(p, m, modulus)


def field_for_order(q: int) -> FieldSpec:
    """F_q for a prime power q; sizes above the cap are refused unfactored."""
    if q > MAX_FIELD_SIZE:
        raise TooLarge(f"field size {q} exceeds 2^20")
    fac = factorize(q) if q >= 2 else ()
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, m = fac[0]
    return make_field(p, m)


@dataclass(frozen=True)
class FieldElement:
    """A field element carried together with its field."""

    field: FieldSpec
    label: int

    def __repr__(self) -> str:
        return f"{element_to_text(self.field, self.label)} in {self.field!r}"


# ---------------------------------------------------------------------------
# dense polynomials over a field


@dataclass(frozen=True)
class Poly:
    """Dense polynomial, coefficients low-to-high, no trailing zeros."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "Poly") -> None:
        if self.field is not other.field:
            raise SettingMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, tuple(out))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly(F, tuple(out))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise DivideByZero("polynomial division by zero")
        F = self.field
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv = F.inv(b[-1])
        q = [0] * max(len(a) - db, 0)
        for i in range(len(a) - 1, db - 1, -1):
            c = F.mul(a[i], inv)
            if c:
                q[i - db] = c
                for j, bj in enumerate(b):
                    a[i - db + j] = F.sub(a[i - db + j], F.mul(c, bj))
        return Poly(F, tuple(q)), Poly(F, tuple(a))

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True when self divides other exactly."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __call__(self, x: int) -> int:
        F = self.field
        y = 0
        for c in reversed(self.coeffs):
            y = F.add(F.mul(y, x), c)
        return y

    def __repr__(self) -> str:
        return f"Poly({poly_to_text(self)!r} over {self.field!r})"


def poly_one(field: FieldSpec) -> Poly:
    return Poly(field, (1,))


def poly_x_pow_minus(field: FieldSpec, n: int, c: int) -> Poly:
    """X**n - c."""
    return Poly(field, (field.neg(c),) + (0,) * (n - 1) + (1,))


# -- text format ------------------------------------------------------------


def element_to_text(field: FieldSpec, label: int) -> str:
    if field.m == 1:
        return str(label)
    return " ".join(str(c) for c in field.coords(label))


def element_from_text(field: FieldSpec, text: str) -> int:
    parts = text.replace(",", " ").split()
    if field.m == 1:
        if len(parts) != 1:
            raise ValueError(f"expected one coordinate, got {text!r}")
        label = int(parts[0])
    else:
        if len(parts) != field.m:
            raise ValueError(
                f"expected {field.m} coordinates for {field!r}, got {text!r}"
            )
        label = field.from_coords(int(c) for c in parts)
    if not 0 <= label < field.q:
        raise ValueError(f"element {text!r} out of range for {field!r}")
    return label


def poly_to_text(poly: Poly) -> str:
    F = poly.field
    coeffs = poly.coeffs if poly.coeffs else (0,)
    if F.m == 1:
        return " ".join(str(c) for c in coeffs)
    return ", ".join(element_to_text(F, c) for c in coeffs)


# ---------------------------------------------------------------------------
# extension towers


class FieldTower:
    """F_q inside F_{q^d} together with a distinguished theta.

    theta has multiplicative order nr and theta**n is the embedded
    constacyclic unit, so theta's exponents index the roots of
    X**n - lambda**t for every unit t mod nr.
    """

    def __init__(self, base: FieldSpec, ext: FieldSpec, d: int, nr: int,
                 embed_table: tuple[int, ...] | None, theta: int):
        self.base = base
        self.ext = ext
        self.d = d
        self.nr = nr
        self._embed_table = embed_table
        self.theta = theta
        pows = [1]
        for _ in range(nr - 1):
            pows.append(ext.mul(pows[-1], theta))
        self.theta_pows = tuple(pows)
        self._project_map: dict[int, int] | None = None
        self._min_polys: dict[int, Poly] = {}

    def embed(self, label: int) -> int:
        """Image of a base-field label in the extension."""
        if self._embed_table is None:
            return label
        return self._embed_table[label]

    def project(self, label: int) -> int | None:
        """Base-field label of an extension element, or None if outside."""
        if self._embed_table is None:
            return label if label < self.base.q else None
        if self._project_map is None:
            self._project_map = {
                img: a for a, img in enumerate(self._embed_table)
            }
        return self._project_map.get(label)

    def _min_poly(self, coset) -> Poly:
        """Minimal polynomial over F_q of theta**x for x in a q-coset.

        coset lists the q-coset as poly_from_root_set walks it, from its
        least residue mod nr; that residue keys the tower's cache.  The
        first call expands prod(X - theta**x) over the coset in the
        extension, at about |C|**2 / 2 multiplications, and projects the
        coefficients to F_q; later calls return the cached polynomial.
        """
        rep = coset[0]
        f = self._min_polys.get(rep)
        if f is None:
            ext = self.ext
            prod = [1]
            for x in coset:
                mr = ext.neg(self.theta_pows[x])
                nxt = [0] * (len(prod) + 1)
                nxt[0] = ext.mul(mr, prod[0])
                for j in range(1, len(prod)):
                    nxt[j] = ext.add(prod[j - 1], ext.mul(mr, prod[j]))
                nxt[len(prod)] = prod[-1]
                prod = nxt
            coeffs = []
            for c in prod:
                down = self.project(c)
                if down is None:
                    raise NotInvariant(
                        "coefficients do not descend to the base field"
                    )
                coeffs.append(down)
            f = self._min_polys[rep] = Poly(self.base, tuple(coeffs))
        return f

    def __repr__(self) -> str:
        return f"FieldTower({self.base!r} in {self.ext!r}, d={self.d})"


def build_tower(setting) -> FieldTower:
    """Minimal extension of the setting's field holding a suitable theta.

    Reached only through CodeSetting.tower, which caches it.  theta is
    the lexicographically least coordinate vector among elements of
    order nr whose n-th power is the embedded unit.
    """
    F: FieldSpec = setting.field
    n, r, nr = setting.n, setting.r, setting.nr
    lam = setting.lam.label
    d = _mult_order(F.q % nr, nr) if nr > 1 else 1
    ext = make_field(F.p, F.m * d)

    g = ext.primitive
    if ext is F or F.m == 1:
        # the prime field holds labels 0..p-1 of every extension
        embed_table = None
    else:
        # the base generator maps to a root of the base modulus inside
        # the subfield of order q
        h = ext.pow(g, (ext.q - 1) // (F.q - 1))
        mu = Poly(ext, tuple(F.modulus))
        roots, x = [], 1
        for _ in range(F.q - 1):
            if mu(x) == 0:
                roots.append(x)
            x = ext.mul(x, h)
        if not roots:
            raise Internal("base modulus has no root in the extension")
        rho = min(roots, key=ext.coords)
        # a = sum c_i X**i maps to sum c_i rho**i
        embed_table = tuple(Poly(ext, F.coords(a))(rho) for a in range(F.q))

    lam_ext = lam if embed_table is None else embed_table[lam]
    zeta = ext.pow(g, (ext.q - 1) // nr)
    # w = zeta**n has order r, so (zeta**k)**n = w**k equals the unit
    # exactly when k = k0 (mod r) for the k0 < r with w**k0 = lam_ext
    w = ext.pow(zeta, n)
    k0, wk = 0, 1
    while wk != lam_ext:
        k0, wk = k0 + 1, ext.mul(wk, w)
        if k0 == r:
            raise Internal("the unit is not a power of zeta**n")
    step = ext.pow(zeta, r)
    candidates = []
    zk = ext.pow(zeta, k0)
    for k in range(k0, nr, r):
        if k > k0:
            zk = ext.mul(zk, step)
        if math.gcd(k, nr) == 1:
            candidates.append(zk)
    if not candidates:
        raise Internal("no admissible root of unity found")
    theta = min(candidates, key=ext.coords)
    if ext.order_of(theta) != nr:
        raise Internal("chosen root of unity has the wrong order")

    return FieldTower(F, ext, d, nr, embed_table, theta)


def poly_from_root_set(tower: FieldTower, root_exponents) -> Poly:
    """prod(X - theta**i) over the exponent set, as a polynomial over F_q.

    The exponent set must be closed under multiplication by q mod nr;
    exactly then it is a union of q-cosets and the product descends to
    the base field.  Each coset is walked once, from its least residue,
    and the result is the F_q product of the tower's cached minimal
    polynomials (FieldTower._min_poly) in increasing order of that residue.
    """
    elems = getattr(root_exponents, "elems", root_exponents)
    nr, q = tower.nr, tower.base.q
    S = sorted({x % nr for x in elems})
    left = set(S)
    if {(q * x) % nr for x in S} != left:
        raise NotInvariant("root exponent set is not closed under the field size")
    prod = poly_one(tower.base)
    for rep in S:
        if rep not in left:
            continue
        coset = [rep]
        y = (q * rep) % nr
        while y != rep:
            coset.append(y)
            y = (q * y) % nr
        left.difference_update(coset)
        prod = prod * tower._min_poly(coset)
    return prod
