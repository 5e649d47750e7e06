"""Finite fields F_{p^m}, dense polynomials, and root-of-unity towers.

Elements of F_{p^m} are integer labels in [0, p^m): the coordinate
vector (c_0, ..., c_{m-1}) over F_p gets the label sum(c_i * p**i), so
0 and 1 are the additive and multiplicative identities and the prime
subfield occupies labels 0..p-1 in every field.  The modulus polynomial
is always the lexicographically least monic irreducible of the right
degree (coefficients compared low-to-high), which pins every derived
object down bit-for-bit: the first item of one candidate walk
(_irreducible_walk), each lower degree's sieve walked once per p.

A FieldTower places F_q inside the minimal extension F_{q^d} containing
a primitive nr-th root of unity theta with theta**n equal to the
embedded constacyclic unit; theta is the candidate with the
lexicographically least coordinate vector, so towers are reproducible
too.  build_tower reads theta, its powers and its order from one table,
the nr powers of zeta = g**((Q - 1)/nr).  Over an extension base X maps
to rho, the least-coordinate root of the base modulus mu, found by
evaluating mu at every element of the subfield at once, and the labels
with j + 1 base-p digits are embedded from those with j.  Each of these
tables is a few packed products of a vector by one scalar (below), not
one scalar multiply per entry.  Every table of roots of unity (zeta's,
the subfield's, np_tables' exp) comes from _root_powers.
poly_from_root_set walks each q-coset of its root set once, refusing
the set at the first step that leaves it, and multiplies the cosets'
minimal polynomials over F_q.  Each tower expands a coset's minimal
polynomial prod(X - theta**x) once over the extension and caches it.
Both products are one balanced product (_product): pairs, then pairs
of pairs, by packed products (below).  Callers that need a
complementary pair still expand the smaller set and divide
(codes.ConstaCode).  A tower over a prime field, like one of degree 1,
embeds by identity: F_p is labels 0..p-1 of every extension.

Scalar arithmetic works on labels directly.  An odd-characteristic
product is reduced by the modulus itself, and the field-size cap is
decided from the degree, before any power is built.  A constacyclic
unit lambda is a plain label too.  has_order is the one order-r test
(a**r = 1, skipped at r = q - 1 where it always holds, and
a**(r/ell) != 1 for each prime ell | r): least_of_order
scans labels with it for the least of order r, and primitive is
r = q - 1.  order_of finds each label's order once per field and keeps
it on the FieldSpec.  Fields of order at most 1024 also offer numpy
(add, mul) tables: mul is one gather from the field's exp/log pair over
the primitive element, add is built one base-p digit at a time.  Only
np_tables imports numpy.

Polynomial products and quotients work on packed ints, a Kronecker
substitution (von zur Gathen and Gerhard, Modern Computer Algebra,
section 8.4).  Each coefficient's base-p coordinates go into slots of
one int, at least 2m - 1 slots per coefficient, each slot wide enough
that no sum of coordinate products overflows it, so a product of two
polynomials is one int multiply.  Each output coefficient is then
reduced once: mod p (over F_{2^m}, m > 1, slot parities read at C
speed) and by the modulus, its digits m..2m-2 folded back over all
coefficients at once.  A quotient is Newton division (section 9.1):
the dividend, read backwards, times the inverse series of the
reversed divisor, each of its products one truncated packed
multiply-add (_mul_add).  The field-specific data (_tail, _mask,
_fold, _group) live on each FieldSpec.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as _iterproduct

from .arith import _mult_order, _order_dividing, factorize
from .errors import (
    DivideByZero,
    Internal,
    NotInvariant,
    NotPrime,
    SettingMismatch,
    TooLarge,
)

MAX_FIELD_SIZE = 1 << 20
# Guards the q^2 cells of np_tables for direct callers; codes asks only
# for k >= 3, which the 2^25 enumeration cap holds to q <= 322.
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


def _irreducible_walk(p: int, d: int):
    """The monic irreducibles of degree d over F_p, in lexicographic order
    (coefficients low-to-high): the candidates that no irreducible of
    degree <= d/2 divides.  Above degree 1 X divides every candidate with
    constant term 0, so that term starts at 1; the order is kept."""
    factors = [f for e in range(1, d // 2 + 1) for f in _irreducibles(p, e)]
    for cs in _iterproduct(range(1 if d > 1 else 0, p), *[range(p)] * (d - 1)):
        cand = list(cs) + [1]
        if all(any(_pf_rem(cand, f, p)) for f in factors):
            yield tuple(cand)


@lru_cache(maxsize=None)
def _irreducibles(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles over F_p of degree d, sieved once per (p, d)."""
    return tuple(_irreducible_walk(p, d))


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
        # a packed coefficient spans the 2m - 1 digits of an unreduced
        # product; for F_{2^m}, m > 1, a whole number of bytes of parity bits
        if p == 2 and m > 1:
            self._group = 8 * _pow2_at_least((2 * m + 6) // 8)
        else:
            self._group = 2 * m - 1
        # X**m = tail[0] + tail[1]*X + ... + tail[m-1]*X**(m-1), so mul
        # folds c*X**i into c*tail at X**(i-m)..X**(i-1), top down
        tail = self._tail = [(-c) % p for c in modulus[:m]]
        # _fold[i] is X**(m+i) reduced by the modulus, for the digits
        # m..2m-2 of an unreduced product: its coordinates, or in
        # characteristic 2 the int with those bits
        fold, x = [], tail
        for _ in range(m - 1):
            fold.append(tuple(x) if p > 2 else int("".join(map(str, x[::-1])), 2))
            x = [(lo + x[-1] * t) % p for lo, t in zip([0] + x[:-1], tail)]
        self._fold = tuple(fold)
        self._np_tables = None
        self._orders: dict[int, int] = {}

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
            a = a * self.p + c
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
        return self.pow(a, self.q - 2)

    def order_of(self, a: int) -> int:
        """Multiplicative order of a nonzero element, found once per label."""
        k = self._orders.get(a)
        if k is None:
            if a == 0:
                raise DivideByZero("zero has no multiplicative order")
            if not 0 < a < self.q:
                raise ValueError(f"label {a} out of range for {self!r}")
            k = _order_dividing(self.q - 1, lambda e: self.pow(a, e) == 1)
            self._orders[a] = k
        return k

    def has_order(self, a: int, r: int) -> bool:
        """a**r == 1 and a**(r // ell) != 1 for each prime ell | r.

        a**(q - 1) == 1 holds for every nonzero a (Lagrange), so at
        r = q - 1 only the prime divisors are tested.
        """
        if a == 0 or (r != self.q - 1 and self.pow(a, r) != 1):
            return False
        return all(self.pow(a, r // ell) != 1 for ell, _ in factorize(r))

    def least_of_order(self, r: int) -> int | None:
        """The least label of order r, None if r does not divide q - 1."""
        if r < 1 or (self.q - 1) % r:
            return None
        return next(a for a in range(1, self.q) if self.has_order(a, r))

    @cached_property
    def primitive(self) -> int:
        """Least label of multiplicative order q - 1, found once per field."""
        return self.least_of_order(self.q - 1)

    # -- vectorized tables --------------------------------------------------

    def np_tables(self):
        """(add, mul) lookup tables as numpy arrays; small fields only.

        mul is one gather from the field's exp/log pair, exp the q - 1
        powers of the primitive element (_root_powers); add is
        coordinatewise addition, one base-p digit at a time.
        """
        if self._np_tables is None:
            if self.q > _NP_TABLE_LIMIT:
                raise TooLarge(
                    f"operation tables unsupported for field size {self.q}"
                )
            import numpy as np

            q, p = self.q, self.p
            exp = np.array(_root_powers(self, q - 1), dtype=np.int16)
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
            mul[0, :] = 0
            mul[:, 0] = 0
            v = np.arange(q, dtype=np.int16)
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
def make_field(p: int, m: int, /) -> FieldSpec:
    """F_{p^m} with the lexicographically least irreducible modulus."""
    if p < 2 or factorize(p) != ((p, 1),):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree must be positive, got {m}")
    # p**c > MAX_FIELD_SIZE for c its bit length, so no large power is built
    if p ** min(m, MAX_FIELD_SIZE.bit_length()) > MAX_FIELD_SIZE:
        raise TooLarge(f"field size {p}^{m} exceeds 2^{MAX_FIELD_SIZE.bit_length() - 1}")
    modulus = next(_irreducible_walk(p, m), None)
    if modulus is None:
        raise Internal(f"no irreducible of degree {m} over F_{p}")
    return FieldSpec(p, m, modulus)


def field_for_order(q: int) -> FieldSpec:
    """F_q for a prime power q; sizes above the cap are refused unfactored.

    q must be an integer: a float is refused with TypeError."""
    q = operator.index(q)
    if q > MAX_FIELD_SIZE:
        raise TooLarge(f"field size {q} exceeds 2^{MAX_FIELD_SIZE.bit_length() - 1}")
    fac = factorize(q) if q >= 2 else ()
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, m = fac[0]
    return make_field(p, m)


# ---------------------------------------------------------------------------
# packed polynomial arithmetic: a Kronecker substitution
#
# A coefficient of F_{p^m} occupies a group of F._group slots of 8*wb
# bits each, its base-p coordinates in the lowest m slots and zeros
# above, so the digits 0..2m-2 of a product of two coefficients stay
# inside their group.  One int multiply of two packed polynomials sums
# every coordinate product into its slot; no slot overflows, because wb
# is chosen from the number of terms a slot can receive.


def _pow2_at_least(k: int) -> int:
    return 1 << (k - 1).bit_length()


def _slot_bytes(F: FieldSpec, terms: int) -> int:
    """Slot width in bytes for digits summing terms products each."""
    p, m = F.p, F.m
    bound = terms * m * (p - 1) ** 2
    if p > 2:
        # room for the fold of the digits m..2m-2 (_unpack)
        bound *= 1 + (m - 1) * (p - 1)
    return _pow2_at_least(-(-bound.bit_length() // 8))


def _to_int(slots, wb: int) -> int:
    """Non-negative slot values, lowest first, as one packed int."""
    if wb <= 8:
        # native unsigned types of 1, 2, 4 and 8 bytes
        data = array("BHIQ"[wb.bit_length() - 1], slots).tobytes()
        return int.from_bytes(data, sys.byteorder)
    return int.from_bytes(b"".join(v.to_bytes(wb, "little") for v in slots), "little")


def _from_int(x: int, count: int, wb: int) -> list[int]:
    """The lowest count slots of a packed int, lowest first."""
    if wb <= 8:
        data = x.to_bytes(count * wb, sys.byteorder)
        return memoryview(data).cast("BHIQ"[wb.bit_length() - 1]).tolist()
    data = x.to_bytes(count * wb, "little")
    return [int.from_bytes(data[i:i + wb], "little") for i in range(0, len(data), wb)]


# ASCII binary digit -> byte of that value, and byte -> ASCII digit of
# its parity (only the low byte of a slot decides the slot's parity)
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_PARITY = bytes(b"01"[i & 1] for i in range(256))


def _spread_bits(digits: str, wb: int) -> int:
    """A binary numeral, each digit moved into a slot of its own."""
    data = digits.encode().translate(_DIGIT_BYTES)
    if wb > 1:
        wide = bytearray(len(data) * wb)
        wide[wb - 1::wb] = data
        data = wide
    return int.from_bytes(data, "big")


def _pack(F: FieldSpec, coeffs, wb: int) -> int:
    """Coefficient labels, lowest first, one group each."""
    p, m, G = F.p, F.m, F._group
    if m == 1:
        return _to_int(coeffs, wb)
    if p == 2:
        # the labels in whole-byte groups are the coordinate bits
        return _spread_bits(format(_to_int(coeffs, G // 8), f"0{len(coeffs) * G}b"), wb)
    slots = [0] * (len(coeffs) * G)
    pj = 1
    for j in range(m):
        slots[j::G] = [a // pj % p for a in coeffs]
        pj *= p
    return _to_int(slots, wb)


def _unpack(F: FieldSpec, x: int, count: int, wb: int) -> list[int]:
    """Labels of the lowest count groups of a packed int.

    The digits m..2m-2 of every group are folded into its low m digits
    at once: digit m+i times the reduced X**(m+i) (F._fold[i]), one
    multiply-add over the whole int per i.  Over F_{2^m}, m > 1, the
    slots are first reduced to their parities at C speed, the low byte
    of each slot mapped to an ASCII digit and read by one int(..., 2);
    the fold is then a xor and each group a whole number of bytes.
    """
    if not count:
        return []
    p, m, G = F.p, F.m, F._group
    if p == 2 and m > 1:
        gb = G // 8
        bits = int(x.to_bytes(count * G * wb, "big")[wb - 1::wb].translate(_PARITY), 2)
        first = int.from_bytes((b"\x01" + bytes(gb - 1)) * count, "little")
        folded = 0
        for i, r in enumerate(F._fold, m):
            folded ^= ((bits >> i) & first) * r
        return _from_int((bits ^ folded) & first * ((1 << m) - 1), count, gb)
    if m > 1:
        w = 8 * wb
        first = int.from_bytes((b"\xff" * wb + bytes(wb * (G - 1))) * count, "little")
        folded = 0
        for i, r in enumerate(F._fold, m):
            folded += ((x >> (i * w)) & first) * _to_int(r, wb)
        x += folded
    slots = _from_int(x, count * G, wb)
    labels = [v % p for v in slots[m - 1::G]]
    for j in range(m - 2, -1, -1):
        labels = [c * p + v % p for c, v in zip(labels, slots[j::G])]
    return labels


def _poly_mul(F: FieldSpec, a, b) -> list[int]:
    """Coefficients of a*b for non-empty coefficient tuples a, b."""
    wb = _slot_bytes(F, min(len(a), len(b)))
    return _unpack(F, _pack(F, a, wb) * _pack(F, b, wb), len(a) + len(b) - 1, wb)


def _mul_add(F: FieldSpec, x, y, count: int, z=()) -> list[int]:
    """The lowest count coefficients of z + x*y, zeros included."""
    x, y = x[:count], y[:count]
    wb = _slot_bytes(F, min(len(x), len(y)) + 1)
    v = _pack(F, z[:count], wb) + _pack(F, x, wb) * _pack(F, y, wb)
    return _unpack(F, v & (1 << count * F._group * 8 * wb) - 1, count, wb)


def _poly_divmod(F: FieldSpec, a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder coefficients of a by a non-empty b.

    Newton division (von zur Gathen and Gerhard, section 9.1).  With
    f = b/lead and k = len(a) - len(b) + 1, the quotient read backwards
    is the top k coefficients of a, read backwards, times the inverse
    series g of f read backwards, to k terms.  Each round doubles the
    known terms of g: if rev(f)*g = 1 + X**l * e, the next l terms are
    g times -e, the terms l..2l-1 of -rev(f)*g.  The remainder is the
    low len(b) - 1 terms of a - quotient*f.  A monic b is not scaled,
    nor is its quotient.
    """
    la, lb = len(a), len(b)
    if la < lb:
        return [], list(a)
    k, lead = la - lb + 1, b[-1]
    if lead != 1:
        inv = F.inv(lead)
        b = [F.mul(c, inv) for c in b]
    neg_f, g = [F.neg(c) for c in reversed(b)], [1]
    while len(g) < k:
        size = min(2 * len(g), k)
        g += _mul_add(F, g, _mul_add(F, neg_f, g, size)[len(g):], size - len(g))
    quot = _mul_add(F, a[:-k - 1:-1], g, k)[::-1]
    rem = _mul_add(F, quot, neg_f[::-1], lb - 1, a)
    return (quot if lead == 1 else [F.mul(c, inv) for c in quot]), rem


@dataclass(frozen=True)
class FieldElement:
    """A label boxed with its field: what mds.default_lambda returns."""

    field: FieldSpec
    label: int


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

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        return Poly(F, tuple(_poly_mul(F, a, b)))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise DivideByZero("polynomial division by zero")
        F = self.field
        q, r = _poly_divmod(F, self.coeffs, other.coeffs)
        return Poly(F, tuple(q)), Poly(F, tuple(r))

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
    """The label of an element's text: a bare integer over a prime field,
    otherwise m coordinates in [0, p), separated by spaces or commas."""
    parts = text.replace(",", " ").split()
    if field.m == 1 and len(parts) != 1:
        raise ValueError(f"expected one coordinate, got {text!r}")
    if len(parts) != field.m:
        raise ValueError(
            f"expected {field.m} coordinates for {field!r}, got {text!r}"
        )
    digits = [int(c) for c in parts]
    if not all(0 <= c < field.p for c in digits):
        raise ValueError(f"element {text!r} out of range for {field!r}")
    return field.from_coords(digits)


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
    X**n - lambda**t for every unit t mod nr; theta_pows[j] is theta**j.
    """

    def __init__(self, base: FieldSpec, ext: FieldSpec, d: int,
                 embed_table: list[int] | None,
                 theta_pows: tuple[int, ...]):
        self.base = base
        self.ext = ext
        self.d = d
        self.nr = len(theta_pows)
        self._embed_table = embed_table
        self.theta_pows = theta_pows
        self.theta = theta_pows[1 % self.nr]  # 1 when nr = 1
        if embed_table is not None:
            self._project_map = {img: a for a, img in enumerate(embed_table)}
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
        return self._project_map.get(label)

    def _min_poly(self, coset) -> Poly:
        """Minimal polynomial over F_q of theta**x for x in a q-coset.

        coset lists the q-coset as poly_from_root_set walks it, from its
        least residue mod nr; that residue keys the tower's cache.  The
        first call expands prod(X - theta**x) over the coset in the
        extension as one balanced product (_product) of the linear
        factors and projects the coefficients to F_q; later calls return
        the cached polynomial.
        """
        rep = coset[0]
        f = self._min_polys.get(rep)
        if f is None:
            ext = self.ext
            g = _product([Poly(ext, (ext.neg(self.theta_pows[x]), 1)) for x in coset])
            coeffs = [self.project(c) for c in g.coeffs]
            if None in coeffs:
                raise NotInvariant("coefficients do not descend to the base field")
            f = self._min_polys[rep] = Poly(self.base, tuple(coeffs))
        return f

    def __repr__(self) -> str:
        return f"FieldTower({self.base!r} in {self.ext!r}, d={self.d})"


def _product(fs: list[Poly]) -> Poly:
    """Product of a non-empty list of polynomials: pairs, then pairs of
    pairs (von zur Gathen and Gerhard, section 10.1)."""
    while len(fs) > 1:
        # an odd one out waits for the next round
        fs = [a * b for a, b in zip(fs[::2], fs[1::2])] + fs[len(fs) & ~1:]
    return fs[0]


def _powers(F: FieldSpec, z: int, count: int) -> list[int]:
    """[z**0, ..., z**(count - 1)] for count >= 1.

    A short table grows by scalar multiplies, since a packed product has
    a fixed cost of several of them.  After that each round multiplies
    the last b = min(len, 4096) entries by z**b in one packed product;
    the cap keeps every packed int small.
    """
    pows = [1]
    while len(pows) < min(count, 16):
        pows.append(F.mul(pows[-1], z))
    while len(pows) < count:
        size = len(pows)
        b = min(size, 4096)
        zb = F.mul(pows[-1], z) if b == size else pows[b]
        pows += _poly_mul(F, pows[size - b:size - b + min(b, count - size)], (zb,))
    return pows


def _root_powers(F: FieldSpec, k: int) -> list[int]:
    """The k powers of g**((q - 1)/k), the k-th roots of unity, for k | q - 1."""
    return _powers(F, F.pow(F.primitive, (F.q - 1) // k), k)


def _base_modulus_roots(F: FieldSpec, ext: FieldSpec) -> list[int]:
    """The m roots in ext of F's modulus mu, for an extension base F.

    They lie in the subfield of order q, the powers H of
    h = g**((Q - 1)/(q - 1)).  mu(h**j) = sum c_i * H[i*j mod (q - 1)],
    every c_i in F_p, so the sum over i of c_i times H packed in the
    order i*j is mu at every h**j at once, read by one unpack.
    """
    k = F.q - 1
    H = _root_powers(ext, k)
    wb = _slot_bytes(ext, F.m + 1)
    values = sum(
        c * _pack(ext, [H[i * j % k] for j in range(k)], wb)
        for i, c in enumerate(F.modulus) if c
    )
    roots = [H[j] for j, v in enumerate(_unpack(ext, values, k, wb)) if not v]
    if len(roots) != F.m:
        raise Internal(f"base modulus has {len(roots)} roots in the extension, not {F.m}")
    return roots


def _embedding(F: FieldSpec, ext: FieldSpec, rho: int) -> list[int]:
    """Image in ext of every label of F, X mapped to rho.

    a = c + p*b, for the digit c < p, maps to c + rho * image(b).  The
    labels with j + 1 digits come from those with j digits: rho times
    them in one packed product, then each digit c added to coordinate 0.
    """
    p = F.p
    table = list(range(p))
    for j in range(1, F.m):
        level = _poly_mul(ext, table[p ** (j - 1):p**j], (rho,))
        table += [x - x % p + (x % p + c) % p for x in level for c in range(p)]
    return table


def _least_by_coords(F: FieldSpec, labels: list[int]) -> int:
    """The label of least coords() among distinct labels, with no tuple
    built: the candidates are filtered by their base-p digits, lowest
    digit first, until one is left."""
    p, unit = F.p, 1
    while len(labels) > 1 and unit < F.q:
        low = min(a // unit % p for a in labels)
        labels = [a for a in labels if a // unit % p == low]
        unit *= p
    return labels[0]


def build_tower(setting) -> FieldTower:
    """Minimal extension of the setting's field holding a suitable theta.

    Reached only through CodeSetting.tower, which caches it.  theta is
    the least-coordinate zeta**k, k a unit mod nr, with zeta**(k*n) the
    embedded unit; theta**j = zeta**(k*j) from the same table of zeta's
    powers (_root_powers), and rho is the least-coordinate root of the
    base modulus; both minima are taken digit by digit
    (_least_by_coords).  The power table, the root search and the embedding
    are each a few packed products (_powers, _base_modulus_roots,
    _embedding).  theta's order is read from theta_pows: theta**nr is
    theta_pows[nr - 1] * theta, and each theta**(nr/ell) a lookup.
    """
    F: FieldSpec = setting.field
    n, nr = setting.n, setting.nr
    d = _mult_order(F.q, nr)
    ext = make_field(F.p, F.m * d)

    if ext is F or F.m == 1:
        # the prime field holds labels 0..p-1 of every extension
        embed_table = None
    else:
        rho = _least_by_coords(ext, _base_modulus_roots(F, ext))
        embed_table = _embedding(F, ext, rho)

    lam_ext = setting.lam if embed_table is None else embed_table[setting.lam]
    pows = _root_powers(ext, nr)
    units = [k for k in range(nr) if pows[k * n % nr] == lam_ext and math.gcd(k, nr) == 1]
    if not units:
        raise Internal("no admissible root of unity found")
    labels = [pows[k] for k in units]
    k = units[labels.index(_least_by_coords(ext, labels))]
    theta_pows = tuple(pows[k * j % nr] for j in range(nr))
    if ext.mul(theta_pows[-1], theta_pows[1 % nr]) != 1 or any(
            theta_pows[nr // ell] == 1 for ell, _ in factorize(nr)):
        raise Internal("chosen root of unity has the wrong order")

    return FieldTower(F, ext, d, embed_table, theta_pows)


def poly_from_root_set(tower: FieldTower, root_exponents) -> Poly:
    """prod(X - theta**i) over the exponent set, as a polynomial over F_q.

    The exponent set must be closed under multiplication by q mod nr;
    exactly then it is a union of q-cosets and the product descends to
    the base field.  Each coset is walked once, from its least residue,
    and a walk that leaves the set raises NotInvariant: q is a unit mod
    nr, so the set is closed exactly when no walk leaves it.  The result
    is one balanced product (_product) over F_q of the tower's cached
    minimal polynomials (FieldTower._min_poly).
    """
    elems = getattr(root_exponents, "elems", root_exponents)
    nr, q = tower.nr, tower.base.q
    left = {x % nr for x in elems}
    fs = []
    for rep in sorted(left):
        if rep not in left:
            continue
        coset = [rep]
        y = (q * rep) % nr
        while y != rep:
            if y not in left:
                raise NotInvariant("root exponent set is not closed under the field size")
            coset.append(y)
            y = (q * y) % nr
        left.difference_update(coset)
        fs.append(tower._min_poly(coset))
    return _product(fs or [poly_one(tower.base)])
