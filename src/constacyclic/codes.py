"""Constacyclic codes stored by check set.

A code setting is the value (F_q, n, lambda) with gcd(n, q) = 1, lambda
a nonzero label of F_q and r its order, which the field finds once; the
codes of exponent t live in R_{n,lambda^t} = F_q[X]/(X^n - lambda^t) and
are determined by a check set inside P_{n,lambda^t}, the residues mod nr
congruent to t mod r.  Check and generator polynomials are cached lazily,
so purely set-theoretic work never builds a field extension.  Only the
smaller of the check set and its complement is expanded from the
root-of-unity tower; the other polynomial is the exact quotient of
X^n - lambda^t by it over F_q.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat

from . import gf
from .arith import MAX_MODULUS, factorize
from .errors import Internal, NonUnit, NotInvariant, SettingMismatch, TooLarge
from .gf import FieldSpec, Poly

_ENUM_LIMIT = 1 << 25
_BLOCK = 1 << 16
# Longest n for which P_{n,lambda^t}, a splitting or a certificate is
# listed.  Near the cap, split --q 2 --n 4194287 --lambda 1 takes 6.7 s
# and 363 MB peak RSS and its verify 3.1 s and 228 MB (2-core Xeon,
# Python 3.11); time and memory grow linearly in n.
MAX_WITNESS_LENGTH = 1 << 22

INFINITY = math.inf


def _check_witness_length(n: int) -> None:
    if n > MAX_WITNESS_LENGTH:
        raise TooLarge(f"length {n} exceeds the 2^22 witness cap")


@dataclass(frozen=True)
class CodeSetting:
    """The ambient data (q, n, lambda) with its derived constants.

    lambda is a label of the field.  The index modulus nr is held to the
    2^31 residue cap, checked before n is ever factored.
    """

    field: FieldSpec
    n: int
    lam: int

    def __post_init__(self):
        field, n, lam = self.field, self.n, self.lam
        if not 0 <= lam < field.q:
            raise ValueError(f"label {lam} out of range for {field!r}")
        if n < 1:
            raise ValueError(f"length must be positive, got {n}")
        if n % field.p == 0:
            raise ValueError(
                f"length {n} shares a factor with the characteristic {field.p}"
            )
        if lam == 0:
            raise ValueError("lambda must be a nonzero field element")
        if self.nr > MAX_MODULUS:
            raise TooLarge(f"modulus n*r = {self.nr} exceeds the 2^31 cap")

    @property
    def q(self) -> int:
        return self.field.q

    @cached_property
    def r(self) -> int:
        return self.field.order_of(self.lam)

    @property
    def nr(self) -> int:
        return self.n * self.r

    @cached_property
    def _n_split(self) -> tuple[int, int]:
        n_r = 1
        for p, e in factorize(self.n):
            if self.r % p == 0:
                n_r *= p**e
        return n_r, self.n // n_r

    @property
    def n_r(self) -> int:
        """Part of n built from primes dividing r."""
        return self._n_split[0]

    @property
    def n_r_prime(self) -> int:
        """Maximal divisor of n coprime to r."""
        return self._n_split[1]

    @cached_property
    def tower(self) -> gf.FieldTower:
        return gf.build_tower(self)

    def lam_power(self, e: int) -> int:
        """Label of lambda**e (exponents live mod r)."""
        return self.field.pow(self.lam, e % self.r)

    def unit_check(self, t: int) -> int:
        t %= self.nr
        if math.gcd(t, self.nr) != 1:
            raise NonUnit(f"{t} is not a unit mod {self.nr}")
        return t

    def p_set(self, t: int = 1) -> tuple[int, ...]:
        """P_{n,lambda^t}: residues mod nr congruent to t mod r.

        Raises TooLarge, before listing them, above MAX_WITNESS_LENGTH.
        """
        _check_witness_length(self.n)
        t = self.unit_check(t)
        return tuple(range(t % self.r, self.nr, self.r))

    def binomial(self, t: int = 1) -> Poly:
        """X**n - lambda**t."""
        return gf.poly_x_pow_minus(self.field, self.n, self.lam_power(t))

    @property
    def lam_text(self) -> str:
        """lambda as payloads and the CLI write it."""
        return gf.element_to_text(self.field, self.lam)

    def payload_fields(self) -> dict:
        """The fields every setting payload opens with, in order."""
        return {"q": self.q, "n": self.n, "r": self.r, "lambda": self.lam_text}

    def __repr__(self) -> str:
        return f"CodeSetting(q={self.q}, n={self.n}, lambda={self.lam_text})"


_setting_cached = lru_cache(maxsize=None)(CodeSetting)


def make_setting(q: int, n: int, lam) -> CodeSetting:
    """The setting of the field of order q, one per (q, n, lambda); lambda
    is a label or its text.  q, n and a label must be integers: a float
    is refused with TypeError, so none reaches the cache."""
    field = gf.field_for_order(q)
    if isinstance(lam, str):
        lam = gf.element_from_text(field, lam)
    return _setting_cached(field, operator.index(n), operator.index(lam))


@dataclass(frozen=True, eq=False)
class IndexSet:
    """A q-closed subset of P_{n,lambda^t}: the check set of a code.

    Elements are sorted residues mod nr, all congruent to t mod r and
    closed under multiplication by q; every input is reduced, deduplicated
    and sorted, then checked.  A splitting holds plain residues and builds
    no IndexSet until its codes are made.  The closure check sorts the
    image q*X instead of labelling every index of P_{n,lambda^t}: a check
    set of a few cosets may live in an algebra with n near the 2^31
    modulus cap, where a label per index would cost gigabytes.
    """

    setting: CodeSetting
    t: int
    elems: tuple[int, ...]

    def __post_init__(self):
        st = self.setting
        nr, q, r = st.nr, st.q, st.r
        t = st.unit_check(self.t)
        object.__setattr__(self, "t", t)
        elems = tuple(sorted({x % nr for x in self.elems}))
        object.__setattr__(self, "elems", elems)
        tr = t % r
        if not set(map(operator.mod, elems, repeat(r))) <= {tr}:
            x = next(x for x in elems if x % r != tr)
            raise ValueError(
                f"residue {x} lies outside P for exponent {t} (mod {nr})"
            )
        # q is a unit mod nr, so q*X lies in X exactly when it is X; on
        # ascending X the image is a few ascending runs, cheap to sort
        if sorted([q * x % nr for x in elems]) != list(elems):
            raise NotInvariant("set is not closed under multiplication by q")

    def complement(self) -> "IndexSet":
        rest = set(self.setting.p_set(self.t)) - set(self.elems)
        return IndexSet(self.setting, self.t, tuple(rest))

    def scale(self, u: int) -> "IndexSet":
        st = self.setting
        u = st.unit_check(u)
        return IndexSet(
            st, (u * self.t) % st.nr, tuple((u * x) % st.nr for x in self.elems)
        )

    def _key(self):
        return (self.setting, self.t % self.setting.r, self.elems)

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"IndexSet(t={self.t}, {list(self.elems)})"


class ConstaCode:
    """A lambda^t-constacyclic code, canonically its check set."""

    def __init__(self, check: IndexSet):
        self.check = check

    @property
    def setting(self) -> CodeSetting:
        return self.check.setting

    @property
    def t(self) -> int:
        return self.check.t

    @property
    def dim(self) -> int:
        return len(self.check.elems)

    @cached_property
    def _polys(self) -> tuple[Poly, Poly]:
        """(check_poly, gen_poly); only the smaller root set is expanded,
        and the complement is built only when it is that set."""
        st = self.setting
        tower = st.tower  # refused over the field cap before P is listed
        swap = st.n - self.dim < self.dim
        small = gf.poly_from_root_set(
            tower, self.check.complement() if swap else self.check
        )
        other, rem = divmod(st.binomial(self.t), small)
        if not rem.is_zero:
            raise Internal("root-set polynomial does not divide X^n - lambda^t")
        return (other, small) if swap else (small, other)

    @property
    def check_poly(self) -> Poly:
        return self._polys[0]

    @property
    def gen_poly(self) -> Poly:
        return self._polys[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, ConstaCode) and self.check == other.check

    def __hash__(self) -> int:
        return hash(self.check)

    def __repr__(self) -> str:
        return (
            f"ConstaCode[{self.setting.n},{self.dim}]"
            f"(t={self.t}, check={list(self.check.elems)})"
        )


@dataclass(frozen=True)
class IsometryDesc:
    """Monomial form of the weight-preserving map X -> X**tbar.

    For tbar*i = n*q_i + t_i the word map sends coordinate i to position
    t_i scaled by lambda**(t*q_i) (or lambda**(u*t*q_i) when the source
    algebra has exponent u).
    """

    setting: CodeSetting
    t: int
    tbar: int
    perm: tuple[int, ...]
    qs: tuple[int, ...]

    def scalars_for(self, src_t: int) -> tuple[int, ...]:
        st = self.setting
        return tuple(st.lam_power(src_t * self.t * qi) for qi in self.qs)

    def apply_word(self, coords, src_t: int = 1) -> tuple[int, ...]:
        st = self.setting
        F = st.field
        out = [0] * st.n
        for i, (pi, sc) in enumerate(zip(self.perm, self.scalars_for(src_t))):
            out[pi] = F.mul(coords[i], sc)
        return tuple(out)


def isometry(setting: CodeSetting, t: int) -> IsometryDesc:
    """The isometry of exponent t, with its permutation/scalar data.

    Raises TooLarge above MAX_WITNESS_LENGTH, before the n-long data."""
    _check_witness_length(setting.n)
    t = setting.unit_check(t)
    nr = setting.nr
    tbar = pow(t, -1, nr)
    n = setting.n
    perm = []
    qs = []
    for i in range(n):
        qi, ti = divmod(tbar * i, n)
        perm.append(ti)
        qs.append(qi)
    return IsometryDesc(setting, t, tbar, tuple(perm), tuple(qs))


def apply_isometry(iso: IsometryDesc, code: ConstaCode) -> ConstaCode:
    """Image code: check set scaled by t, exponent multiplied by t."""
    if iso.setting != code.setting:
        raise SettingMismatch("isometry and code from different settings")
    return ConstaCode(code.check.scale(iso.t))


def annihilator(code: ConstaCode) -> ConstaCode:
    """Code with the complementary check set; products with code vanish."""
    return ConstaCode(code.check.complement())


def dual(code: ConstaCode) -> ConstaCode:
    """Euclidean dual: a lambda^(-t) code with check set -(complement)."""
    return ConstaCode(code.check.complement().scale(-1))


def min_distance(code: ConstaCode) -> float | int:
    """Exact minimum Hamming weight, enumerated lead by lead.

    The scan stops by the zero-run argument.  The code is an ideal of
    F_q[X]/(X^n - lambda^t), so the constacyclic shift X*c is a codeword
    of the weight of c with its support rotated.  The n - w zeros of a
    word of weight w lie in at most w cyclic runs, one of them at least
    ceil((n - w)/w) long, and some shift moves that run to the top
    coordinates.  The shifted word has degree at most n - 1 - that run,
    so its message, the quotient by g, has lead at most
    k - 1 - ceil((n - w)/w).

    _min_distance_np weighs the leads in order, lead 0 being g itself.
    Once the lightest word found has weight B, a lighter one has a shift
    led at most k - 1 - ceil((n - B + 1)/(B - 1)), and the scan stops
    past that lead; at B = 1 it stops at once.  For k <= 2 that lead is
    at most 0, since B = wt(g) <= n, so the distance is wt(g) and no
    table is built.  The cap on q^k is checked first for every k, before
    any scan.
    """
    k = code.dim
    if k == 0:
        return INFINITY
    st = code.setting
    q, n = st.q, st.n
    # q >= 2, so k at or past the cap's bit length is over it unbuilt
    if k >= _ENUM_LIMIT.bit_length() or q**k > _ENUM_LIMIT:
        raise TooLarge(f"{q}^{k} codewords exceed the enumeration cap")
    g = code.gen_poly.coeffs
    for lead, best in enumerate(_min_distance_np(st, g, k)):
        if best == 1:
            break
        # the zero run every word lighter than best has
        run = -(-(n - best + 1) // (best - 1))
        if lead >= k - 1 - run:
            break
    return best


def _min_distance_np(st: CodeSetting, g: tuple[int, ...], k: int):
    """Yield the least weight of the monic words led at most j, for j =
    0..k-1: split enumeration over numpy tables, one word per scalar class.

    Lead 0's one word is g: wt(g) is yielded before numpy is imported.
    Every monic word led j is high + low, with high = row j plus the span
    of rows a..j-1 and low in the span of rows 0..a-1, tabled with q^a at
    most ``_BLOCK``.  Below lead a the table is the zero word alone, and
    each lead's words are row j plus the span of rows 0..j-1, one gather;
    that span grows to the table.  The span is closed under negation, so
    high + span = high - span and the least weight there is n minus the
    most coordinates that any low row shares with high.

    Lead j + 1 is weighed only when the caller asks for the next value,
    so a caller may stop at any lead.  The scan knows nothing of shifts:
    every value is exact for the rows X^j g of any g, and the last one is
    the least weight of their whole span.  Only a shift-closed span lets
    min_distance stop early by the zero-run argument.
    """
    best = sum(1 for c in g if c)
    yield best
    import numpy as np

    add_t, mul_t = st.field.np_tables()
    q, n = st.q, st.n
    rows = np.zeros((k, n), dtype=np.int16)
    for j in range(k):
        rows[j, j : j + len(g)] = g

    def extend(span, row):
        """Every vector of span plus every multiple of row."""
        return add_t[mul_t[:, row][:, None, :], span[None]].reshape(-1, n)

    a = 0
    while a < k - 1 and q ** (a + 1) <= _BLOCK:
        a += 1
    count_t = np.min_scalar_type(n)
    low = span = np.zeros((1, n), dtype=np.int16)
    for lead in range(1, k):
        span = extend(span, rows[lead - 1])
        if lead == a:
            low, span = span, span[:1]
        high = add_t[span, rows[lead]]
        # about _BLOCK codewords per comparison keeps peak memory bounded
        chunk = max(1, _BLOCK // len(low))
        for start in range(0, len(high), chunk):
            same = low[None] == high[start : start + chunk, None, :]
            best = min(best, n - int(same.sum(axis=2, dtype=count_t).max()))
        yield best


def distance_lower_bound(code: ConstaCode) -> int:
    """Consecutive-root bound from the defining set.

    Walking P_{n,lambda^t} in arithmetic-progression order, a cyclic run
    of L consecutive defining-set members forces distance >= L + 1.  A
    check-set member x sits at position x // r of that walk, so the bound
    is the largest cyclic gap between consecutive positions: n for a
    single member, n + 1 for the zero code.  P_{n,lambda^t} is not listed.
    """
    st = code.setting
    pos = [x // st.r for x in code.check.elems]
    if not pos:
        return st.n + 1
    return max((b - a) % st.n for a, b in zip(pos, pos[1:] + pos[:1])) or st.n


def code_report(code: ConstaCode, distance=None) -> dict:
    """JSON-ready summary of a code; distance entry is caller-supplied."""
    st = code.setting
    report = {
        **st.payload_fields(),
        "t": code.t,
        "check_set": list(code.check.elems),
        "dimension": code.dim,
        "check_poly": gf.poly_to_text(code.check_poly),
        "generator_poly": gf.poly_to_text(code.gen_poly),
    }
    if distance is not None:
        report["min_distance"] = "inf" if distance == INFINITY else int(distance)
    return report
