"""Constacyclic codes stored by check set.

A code setting is the triple (F_q, n, lambda) with gcd(n, q) = 1; the
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
from .arith import MAX_MODULUS, cosets_of, factorize
from .errors import Internal, NonUnit, NotInvariant, SettingMismatch, TooLarge
from .gf import FieldElement, FieldSpec, Poly

_ENUM_LIMIT = 1 << 25
_BLOCK = 1 << 16

INFINITY = math.inf


class CodeSetting:
    """The ambient data (q, n, lambda) with its derived constants.

    The index modulus nr is held to the 2^31 residue cap, checked
    before n is ever factored.
    """

    def __init__(self, field: FieldSpec, n: int, lam):
        if not isinstance(lam, FieldElement):
            lam = field.element(int(lam))
        if lam.field is not field:
            raise SettingMismatch("lambda belongs to a different field")
        if n < 1:
            raise ValueError(f"length must be positive, got {n}")
        if n % field.p == 0:
            raise ValueError(
                f"length {n} shares a factor with the characteristic {field.p}"
            )
        if lam.label == 0:
            raise ValueError("lambda must be a nonzero field element")
        self.field = field
        self.n = n
        self.lam = lam
        if self.nr > MAX_MODULUS:
            raise TooLarge(f"modulus n*r = {self.nr} exceeds the 2^31 cap")
        self._cosets: dict[int, object] = {}

    @property
    def q(self) -> int:
        return self.field.q

    @cached_property
    def r(self) -> int:
        return self.lam.order()

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
        return self.field.pow(self.lam.label, e % self.r)

    def unit_check(self, t: int) -> int:
        t %= self.nr
        if math.gcd(t, self.nr) != 1:
            raise NonUnit(f"{t} is not a unit mod {self.nr}")
        return t

    def p_set(self, t: int = 1) -> tuple[int, ...]:
        """P_{n,lambda^t}: residues mod nr congruent to t mod r."""
        t = self.unit_check(t)
        return tuple(range(t % self.r, self.nr, self.r))

    def cosets(self, t: int = 1):
        """q-cosets partitioning P_{n,lambda^t}, cached per exponent class."""
        t = self.unit_check(t)
        key = t % self.r
        part = self._cosets.get(key)
        if part is None:
            part = cosets_of(self.p_set(t), self.q, self.nr)
            self._cosets[key] = part
        return part

    def binomial(self, t: int = 1) -> Poly:
        """X**n - lambda**t."""
        return gf.poly_x_pow_minus(self.field, self.n, self.lam_power(t))

    def _key(self):
        return (self.field, self.n, self.lam.label)

    def __eq__(self, other) -> bool:
        return isinstance(other, CodeSetting) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        lam = gf.element_to_text(self.field, self.lam.label)
        return f"CodeSetting(q={self.q}, n={self.n}, lambda={lam})"


@lru_cache(maxsize=None)
def _setting_cached(field: FieldSpec, n: int, lam_label: int) -> CodeSetting:
    return CodeSetting(field, n, lam_label)


def make_setting(q: int, n: int, lam) -> CodeSetting:
    """Convenience constructor from the field order."""
    field = gf.field_for_order(q)
    if isinstance(lam, str):
        lam = gf.element_from_text(field, lam)
    elif isinstance(lam, FieldElement):
        lam = lam.label
    return _setting_cached(field, n, int(lam))


@dataclass(frozen=True, eq=False)
class IndexSet:
    """A q-closed subset of P_{n,lambda^t}, the check-set currency.

    Elements are sorted residues mod nr, all congruent to t mod r and
    closed under multiplication by q.  Input that is already strictly
    ascending inside [0, nr) is kept without sorting it again; the class
    and closure checks run on every input.  The closure check sorts the
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
        elems = tuple(self.elems)
        if not (
            elems
            and 0 <= elems[0]
            and elems[-1] < nr
            and all(map(operator.lt, elems, elems[1:]))
        ):
            elems = tuple(sorted({x % nr for x in elems}))
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

    def ambient(self) -> tuple[int, ...]:
        return self.setting.p_set(self.t)

    def complement(self) -> "IndexSet":
        rest = sorted(set(self.ambient()) - set(self.elems))
        return IndexSet(self.setting, self.t, tuple(rest))

    def scale(self, u: int) -> "IndexSet":
        st = self.setting
        u = st.unit_check(u)
        return IndexSet(
            st, (u * self.t) % st.nr, tuple((u * x) % st.nr for x in self.elems)
        )

    def negate(self) -> "IndexSet":
        return self.scale(self.setting.nr - 1 if self.setting.nr > 1 else 0)

    def union(self, other: "IndexSet") -> "IndexSet":
        self._same_ambient(other)
        return IndexSet(self.setting, self.t, self.elems + other.elems)

    def _same_ambient(self, other: "IndexSet") -> None:
        if self.setting != other.setting or self.t % self.setting.r != (
            other.t % other.setting.r
        ):
            raise SettingMismatch("index sets live in different algebras")

    def __len__(self) -> int:
        return len(self.elems)

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
        """(check_poly, gen_poly); only the smaller root set is expanded."""
        st = self.setting
        check, rest = self.check, self.check.complement()
        swap = len(rest) < len(check)
        small = gf.poly_from_root_set(st.tower, rest if swap else check)
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

    @property
    def scalars(self) -> tuple[int, ...]:
        return self.scalars_for(1)

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
    """The isometry of exponent t, with its permutation/scalar data."""
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
    return ConstaCode(code.check.complement().negate())


def min_distance(code: ConstaCode) -> float | int:
    """Exact minimum Hamming weight by message-space enumeration.

    Scans one representative per scalar class (messages whose leading
    nonzero coefficient is 1), which is exhaustive because scaling a
    codeword does not change its weight.  Over fields with numpy tables
    the scan is split: a table of every combination of the low rows
    X^j g, j < a, is built once (at most ``_BLOCK`` rows), and each monic
    combination of the rows above is compared with the whole table, so a
    codeword costs one comparison of n cells instead of a gather per row.
    """
    k = code.dim
    if k == 0:
        return INFINITY
    st = code.setting
    q, n = st.q, st.n
    if q**k > _ENUM_LIMIT:
        raise TooLarge(f"{q}^{k} codewords exceed the enumeration cap")
    g = code.gen_poly.coeffs
    gw = sum(1 for c in g if c)
    if k == 1:
        return gw
    if q <= gf._NP_TABLE_LIMIT:
        return _min_distance_np(st, g, k)
    # q above table range forces k <= 2 under the enumeration cap, so the
    # monic messages are (1,) and (a, 1) for a in F_q
    F = st.field
    best = gw
    for a in range(q):
        word = [0] * (len(g) + 1)
        for j, c in enumerate(g):
            word[j] = F.add(word[j], F.mul(a, c))
            word[j + 1] = F.add(word[j + 1], c)
        w = sum(1 for c in word if c)
        if w < best:
            best = w
    return best


def _min_distance_np(st: CodeSetting, g: tuple[int, ...], k: int) -> int:
    """Split enumeration: every codeword is high + low.

    low runs over the span of rows 0..a-1, tabled once, with q^a at most
    ``_BLOCK``; its nonzero rows are the messages led below a.  For each
    lead >= a, high runs over row lead plus the span of rows a..lead-1.
    The span is closed under negation, so high + span = high - span and
    the least weight there is n minus the most coordinates that any low
    row shares with high.
    """
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
    low = np.zeros((1, n), dtype=np.int16)
    for row in rows[:a]:
        low = extend(low, row)
    best = int(np.count_nonzero(low[1:], axis=1).min()) if a else n + 1
    # about _BLOCK codewords per comparison keeps peak memory bounded
    chunk = max(1, _BLOCK // len(low))
    count_t = np.min_scalar_type(n)
    span = low[:1]
    for row in rows[a:]:
        high = add_t[span, row]
        for start in range(0, len(high), chunk):
            same = low[None] == high[start : start + chunk, None, :]
            best = min(best, n - int(same.sum(axis=2, dtype=count_t).max()))
        span = extend(span, row)
    return best


def distance_lower_bound(code: ConstaCode) -> int:
    """Consecutive-root bound from the defining set.

    Walking P_{n,lambda^t} in arithmetic-progression order, a cyclic run
    of L consecutive defining-set members forces distance >= L + 1.
    """
    st = code.setting
    defining = set(code.check.complement().elems)
    t = code.t % st.r
    seq = [(t + st.r * i) % st.nr in defining for i in range(st.n)]
    if all(seq):
        return st.n + 1
    # longest cyclic run of True
    doubled = seq + seq
    best = run = 0
    for flag in doubled:
        run = run + 1 if flag else 0
        best = max(best, run)
    return min(best, st.n) + 1


def code_report(code: ConstaCode, distance=None) -> dict:
    """JSON-ready summary of a code; distance entry is caller-supplied."""
    st = code.setting
    report = {
        "q": st.q,
        "n": st.n,
        "r": st.r,
        "lambda": gf.element_to_text(st.field, st.lam.label),
        "t": code.t,
        "check_set": list(code.check.elems),
        "dimension": code.dim,
        "check_poly": gf.poly_to_text(code.check_poly),
        "generator_poly": gf.poly_to_text(code.gen_poly),
    }
    if distance is not None:
        report["min_distance"] = "inf" if distance == INFINITY else int(distance)
    return report
