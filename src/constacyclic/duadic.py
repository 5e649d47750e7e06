"""Duadic splittings of constacyclic index sets.

The distinguished subset P0 (residues divisible by the r-coprime part
of n), Type-I and Type-II splitting existence and construction,
certificate verification, odd-like companion codes, iso-orthogonality,
and the maximal iso-orthogonal dimension in closed form, level by level
of gcd(x, nr).

Constructions are deterministic: CRT components are the least residues
satisfying each case's order conditions, and P takes every other coset
along each multiplier cycle of q-cosets, walked from its least coset.
Existence verdicts depend only on (q, n, r); witnesses are produced for
exponent t = 1 and other exponents are reached by scaling with a unit
multiplier.

A splitting is plain data: its P and sP are tuples of residues, which
verify_splitting alone checks.  Splittings are built and checked on
P_{n,lambda^t} by index: a member x is t mod r, so i = x // r is exact
and runs over [0, n).  A construction labels every member P, sP or P0
in one bytearray(n) and reads P and sP out of it already sorted; the
checks hold each set as a bytearray(n) indicator, read for P and sP
as one strided slice of a bytearray(nr) keyed by residue, and from
n = 192 on compare the multiplier images a*X = Y as two strided
pullbacks of those indicators (see _set_checks).  Witnesses and
certificates are refused above MAX_WITNESS_LENGTH, before anything of
size n is allocated.  Each built splitting, Type-I or Type-II, is
verified once, in full, by self_checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress

from . import gf
from .arith import _mult_order, divisors, euler_phi, factorize, nu2
from .codes import CodeSetting, ConstaCode, IndexSet, _check_witness_length, make_setting
from .errors import Internal, NoSplitting, TooLarge
from .gf import Poly

# Index labels of a construction, one value each
_P, _SP, _P0 = 1, 2, 4
# bytes.translate tables keeping one label of every index
_ONLY = {bit: bytes(v & bit for v in range(256)) for bit in (_P, _SP)}
_TYPE1_REASON = "TypeI-even-quotient"
# n from which _set_checks compares multiplier images by pullbacks,
# and the indices each pullback covers at a time
_PULLBACK_MIN_N = 192
_PULLBACK_BLOCK = 1 << 16
# bytes of nr-long residue-keyed indicator _set_checks allows per
# listed member (see there)
_KEYED_BYTES_PER_MEMBER = 32


class SplittingKind(str, Enum):
    TYPE_I = "type-i"
    TYPE_II = "type-ii"


@dataclass(frozen=True)
class Splitting:
    """A multiplier splitting (s, P, sP) of P_{n,lambda^t}, as plain data.

    p and sp are tuples of residues mod nr, sorted in every splitting
    the library builds.  Nothing is checked on construction:
    verify_splitting is the one validator.  transcript is the passing
    verify_splitting result self_checked attached to a splitting the
    library built.  It takes no part in equality, and neither the
    constructor nor dataclasses.replace can set it, so a hand-made or
    edited splitting never carries one.
    """

    setting: CodeSetting
    t: int
    s: int
    p: tuple[int, ...]
    sp: tuple[int, ...]
    kind: SplittingKind
    transcript: VerifyResult | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def codes(self) -> tuple[ConstaCode, ConstaCode]:
        code = lambda elems: ConstaCode(IndexSet(self.setting, self.t, elems))
        return code(self.p), code(self.sp)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    skipped: bool = False


@dataclass(frozen=True)
class VerifyResult:
    checks: tuple[CheckEntry, ...]

    @property
    def first_failure(self) -> str | None:
        failed = (c.name for c in self.checks if not (c.passed or c.skipped))
        return next(failed, None)

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    def as_json(self) -> list[dict]:
        out = []
        for c in self.checks:
            entry = {"name": c.name, "pass": bool(c.passed)}
            if c.skipped:
                entry["skipped"] = True
            out.append(entry)
        return out


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: bool
    reason: str
    witness: Splitting | None = None

    @property
    def type1(self) -> bool:
        """Whether a Type-I splitting exists: exists_type1 of the setting."""
        return self.reason == _TYPE1_REASON


def p0_set(setting: CodeSetting, t: int = 1) -> IndexSet:
    """Members of P_{n,lambda^t} divisible by the r-coprime part of n."""
    t = setting.unit_check(t)
    return IndexSet(setting, t, tuple(_p0_range(setting, t)))


def _p0_range(setting: CodeSetting, t: int) -> range:
    """P0 in closed form: x = t mod r and x = 0 mod n_r_prime.

    The two moduli are coprime, so P0 is the single class c mod
    r * n_r_prime inside [0, nr), with n_r members.
    """
    r, npp = setting.r, setting.n_r_prime
    c = npp * ((t % r) * pow(npp, -1, r) % r)
    return range(c, setting.nr, r * npp)


def _listed_p0(setting: CodeSetting, t: int) -> list[int]:
    """P0 as a certificate lists it: empty when t is not a unit mod nr."""
    return list(_p0_range(setting, t)) if math.gcd(t, setting.nr) == 1 else []


def c0_check_poly(setting: CodeSetting, t: int = 1) -> Poly:
    """Closed form X**n_r - lambda**(t / n_r_prime mod r) for f_{P0}."""
    r = setting.r
    nbar = pow(setting.n_r_prime, -1, r)
    c = setting.lam_power(t * nbar)
    return gf.poly_x_pow_minus(setting.field, setting.n_r, c)


def exists_type1(setting: CodeSetting) -> bool:
    """Whether the quotient of 1 + r*Z_{n_r*r} by powers of q has even order."""
    m = setting.n_r * setting.r
    ordq = _mult_order(setting.q % m, m)
    if setting.n_r % ordq != 0:
        raise Internal("order of q does not divide the subgroup order")
    return (setting.n_r // ordq) % 2 == 0


def _is_square_mod(a: int, m: int) -> bool:
    """Whether a unit a is a square modulo an odd m.

    By the Chinese remainder theorem and Hensel's lemma this holds
    exactly when a is a quadratic residue mod every prime p dividing m,
    which Euler's criterion decides.
    """
    return all(pow(a, (p - 1) // 2, p) == 1 for p, _ in factorize(m))


def _exists_reason(setting: CodeSetting) -> str | None:
    if exists_type1(setting):
        return _TYPE1_REASON
    if setting.n_r % 2 == 0:
        return "n_r-even"
    if setting.n % 2 == 1 and _is_square_mod(setting.q, setting.n_r_prime):
        return "odd-square"
    return None


def exists_type2(setting: CodeSetting, *, with_witness: bool = True) -> ExistenceVerdict:
    """Existence verdict for Type-II splittings, with a certified witness.

    The witness is built from the reason decided: P takes every other
    coset along each s-cycle of the q-cosets outside P0, for the reason's
    multiplier s (on a Type-I setting, the Type-I one).  Its checks run
    once, through self_checked, whose transcript certificate() reuses.
    A witness over MAX_WITNESS_LENGTH raises TooLarge.
    """
    reason = _exists_reason(setting)
    if reason is None:
        return ExistenceVerdict(False, "none", None)
    if not with_witness:
        return ExistenceVerdict(True, reason, None)
    _check_witness_length(setting.n)
    if reason == _TYPE1_REASON:
        s = _type1_multiplier(setting)
    elif reason == "n_r-even":
        s = _compose_multiplier(setting, 1, _even_case_components(setting))
    else:
        s = _compose_multiplier(setting, 1, _odd_case_components(setting))
    witness = _every_other_coset(setting, s, SplittingKind.TYPE_II)
    return ExistenceVerdict(True, reason, self_checked(witness))


# ---------------------------------------------------------------------------
# constructions


def _compose_multiplier(setting: CodeSetting, r_side: int, odd_parts: dict[int, int]) -> int:
    """CRT-glue a multiplier: r_side on prime powers of n_r*r, s_i elsewhere.

    The result is the least residue mod nr that reduces to each
    component modulo its prime power w.
    """
    nr = setting.nr
    total = 0
    for p, e in factorize(nr):
        w = p**e
        part = r_side if setting.r % p == 0 else odd_parts[w]
        rest = nr // w
        total += part * rest * pow(rest, -1, w)
    return total % nr


def _q_two_part(q: int, m: int) -> list[int]:
    """The 2-power-order part of <q> mod m: b**i for i < 2**a, where
    2**a is the 2-part of the order of q and b = q**(order / 2**a)."""
    ordq = _mult_order(q, m)
    a = nu2(ordq)
    b = pow(q, ordq >> a, m)
    return [pow(b, i, m) for i in range(1 << a)]


def _even_case_components(setting: CodeSetting) -> dict[int, int]:
    """Least 2-power-order components at each prime power of n_r_prime.

    At w = p**v the component is the least odd power of b (see
    _q_two_part), or the unique element of order 2 when q has odd order.
    """
    out = {}
    for p, v in factorize(setting.n_r_prime):
        w = p**v
        out[w] = min(_q_two_part(setting.q, w)[1::2], default=w - 1)
    return out


def _odd_case_components(setting: CodeSetting) -> dict[int, int]:
    """Square roots of q with one extra factor of 2 in their order.

    At an odd prime power w = p**v the units form a cyclic group; let o
    be the order of q there.  For odd o, q**((o + 1)/2) is q's root of
    odd order and its negative, of order 2o, is the component.  For even
    o both roots +-x have order 2o, and the component is the lesser.
    Raises NoSplitting when q is not a square mod some w.
    """
    q = setting.q
    out = {}
    for p, v in factorize(setting.n_r_prime):
        w = p**v
        o = _mult_order(q % w, w)
        if o % 2:
            out[w] = w - pow(q, (o + 1) // 2, w)
            continue
        x = _sqrt_mod_prime_power(q, p, v)
        if x is None:
            raise NoSplitting(
                f"no admissible square root of q mod {w}; "
                "existence precondition violated"
            )
        out[w] = min(x, w - x)
    return out


def _sqrt_mod_prime_power(a: int, p: int, v: int) -> int | None:
    """Tonelli-Shanks in the cyclic group (Z/p**v)^*: a square root of
    the unit a modulo p**v (p odd), or None when there is none.

    The group has order p**(v-1) * (p - 1), whose 2-part is that of
    p - 1.  A unit is a square mod p**v exactly when it is one mod p, so
    a non-residue mod p generates the 2-part's powers here too.
    """
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    w = p**v
    e = nu2(p - 1)
    odd = euler_phi(w) >> e
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c = pow(z, odd, w)
    x = pow(a, (odd + 1) // 2, w)
    b = pow(a, odd, w)
    while b != 1:
        # least i with b**(2**i) = 1; then fold the matching power of c in
        i, b2 = 0, b
        while b2 != 1:
            b2 = b2 * b2 % w
            i += 1
        d = pow(c, 1 << (e - i - 1), w)
        x = x * d % w
        c = d * d % w
        b = b * c % w
        e = i
    return x


def construct_type1(setting: CodeSetting) -> Splitting:
    """Deterministic Type-I splitting, when one exists.

    Every check runs once, here, through self_checked; a failure raises
    Internal.  Raises TooLarge when n exceeds MAX_WITNESS_LENGTH.
    """
    _check_witness_length(setting.n)
    if not exists_type1(setting):
        raise NoSplitting("no Type-I splitting for this setting")
    s = _type1_multiplier(setting)
    return self_checked(_every_other_coset(setting, s, SplittingKind.TYPE_I))


def _type1_multiplier(setting: CodeSetting) -> int:
    """The least class of 1 + r*Z_{n_r*r} outside the powers of q whose
    square is a power of q, glued with 1 at the odd prime powers."""
    m = setting.n_r * setting.r
    q = setting.q
    qpow = {pow(q, i, m) for i in range(_mult_order(q, m))}
    s0 = None
    for x in range(1 % m, m, setting.r):
        if x not in qpow and (x * x) % m in qpow:
            s0 = x
            break
    if s0 is None:
        raise Internal("even quotient without an order-2 class")
    return _compose_multiplier(
        setting, s0, {p**v: 1 for p, v in factorize(setting.n_r_prime)}
    )


def _every_other_coset(setting, s, kind) -> Splitting:
    """P takes every other coset along each s-cycle, from its least coset.

    The walk labels P_{n,lambda} by index (see the module docstring); a
    Type-II walk starts with P0 labelled.  The least unlabelled index is
    the least residue of its q-coset, and that coset is the least of its
    s-cycle, because cosets and cycles are labelled whole.  The walk
    labels the q-orbit of each coset along the cycle P, sP, P, ... until
    s lands on a labelled index, which must be the P coset it started
    from, reached from an sP coset.  P and sP are read out of the labels
    in ascending order.
    """
    n, r, nr, q = setting.n, setting.r, setting.nr, setting.q
    lab = bytearray(n)
    if kind == SplittingKind.TYPE_II:
        p0 = _p0_range(setting, 1)
        lab[p0.start // r :: p0.step // r] = bytes([_P0]) * len(p0)
    i = lab.find(0)
    while i >= 0:
        y = 1 % r + i * r
        mark = _P
        while True:
            z = y
            while True:
                lab[z // r] = mark
                z = z * q % nr
                if z == y:
                    break
            y = y * s % nr
            if lab[y // r]:
                break
            mark = _SP if mark == _P else _P
        if lab[y // r] != _P or mark != _SP:
            label = "Type-I" if kind == SplittingKind.TYPE_I else "Type-II"
            raise Internal(f"{label} multiplier produced an odd orbit")
        i = lab.find(0, i + 1)
    members = range(1 % r, nr, r)
    p = tuple(compress(members, lab.translate(_ONLY[_P])))
    sp = tuple(compress(members, lab.translate(_ONLY[_SP])))
    return Splitting(setting, 1, s, p, sp, kind)


def construct_type2(setting: CodeSetting) -> Splitting:
    """Deterministic Type-II (even-like) splitting: exists_type2's witness.

    Raises TooLarge when n exceeds MAX_WITNESS_LENGTH, before anything
    else, and NoSplitting when no splitting exists.
    """
    _check_witness_length(setting.n)
    witness = exists_type2(setting).witness
    if witness is None:
        raise NoSplitting("no Type-II splitting for this setting")
    return witness


def self_checked(sp: Splitting) -> Splitting:
    """sp with its verify_splitting transcript attached; a built splitting
    that fails a check raises Internal naming the first failed check."""
    res = verify_splitting(sp)
    if not res.ok:
        raise Internal(f"built splitting failed check {res.first_failure}")
    object.__setattr__(sp, "transcript", res)
    return sp


# ---------------------------------------------------------------------------
# verification


def verify_splitting(sp: Splitting) -> VerifyResult:
    """Re-prove every splitting invariant, set-wise and polynomially.

    The set checks run first, then the factor-product identity, over
    the class P_{n,lambda^t} that the parts then tile.  That entry is
    recorded as skipped when a set check failed or the extension field
    it needs exceeds the size cap.  Every check runs, whatever
    transcript the splitting carries.  Raises TooLarge when n exceeds
    MAX_WITNESS_LENGTH.
    """
    return VerifyResult(tuple(_verify(sp)))


_FACTOR_CHECK = "factor-product-identity"


def _verify(sp: Splitting) -> list[CheckEntry]:
    _check_witness_length(sp.setting.n)
    checks = _set_checks(sp.setting, sp.t, sp.s, sp.p, sp.sp, sp.kind)
    return checks + [_factor_check(sp, all(c.passed for c in checks))]


def _set_checks(setting, t, s, p_elems, sp_elems, kind):
    """The set-level checks, as CheckEntry values in transcript order.

    A residue reduced mod nr lies in P_{n,lambda^t} exactly when it is
    congruent to t mod r.  Every set is held as a pair: a bytearray(n)
    indicator, 1 at index y // r for each member y of that class, and
    the set of its other members, which only a hostile certificate
    holds.  P and sP are their images under 1; each invariance check
    a*X = Y gives the boolean of the literal set comparison, in one of
    two ways.

    The pairs of P and sP are read by residue: one byte store
    full[x] = 1 per listed member into a bytearray(nr), which places a
    member x in [-nr, nr) at x mod nr; the class-h indicator is then
    the strided slice full[h::r], and the members all lie in the class
    when nothing else of full is set.  A member out of that range, not
    an int, or outside the class sends the set to the per-residue
    image, which builds the same pair with its other members.  The
    route is taken when nr <= _KEYED_BYTES_PER_MEMBER * len(X), 32
    bytes per member: less than the list already holds for each (an
    8-byte slot and a 28-byte int), so a short list over a huge
    modulus allocates nothing of size nr.

    When X and Y lie in class h = t mod r and a is a unit mod nr with
    a = 1 mod r, a acts on the indices as f(i) = (a*i + c) mod n, with
    c = h*(a - 1)/r.  So a*X = Y exactly when B_X[v*j mod n] equals
    B_Y[(u*j + c) mod n] for every j, for the indicators B and any
    u = a*v mod n with v a unit mod n.  (u, v) is the extended-Euclid
    pair of least |u| + |v| (_euclid_pair), and each side is one strided
    slice per wrap (_pullback): about |u| + |v| slice operations and
    O(n) bytes copied, where the per-residue image multiplies every
    member.  The sides are compared in blocks of _PULLBACK_BLOCK
    indices, so no copy of size n is made, and the first unequal block
    ends the comparison.  The pullbacks are taken from
    n = _PULLBACK_MIN_N = 192 on: the two ways broke even near n = 150,
    measured over 30 witnesses per length (2-core Xeon, Python 3.11).

    Otherwise, below that length, for a multiplier that is not a unit
    or not 1 mod r, or for a member outside the class, the image a*X is
    built residue by residue and its pair compared with that of Y.

    Disjointness and cover read the indicators of P, sP and (Type-II,
    t a unit) P0 as ints of one bit per index: the parts are disjoint
    when no two share a bit, and cover the class when their union has
    n bits set (none when t is not a unit).
    """
    n, nr, r, q = setting.n, setting.nr, setting.r, setting.q
    t %= nr
    s %= nr
    h = t % r
    unit = math.gcd(t, nr) == 1

    def image(a, elems, pure=False):
        """a*X mod nr as its class-h indicator and its other members.

        pure says X has no member outside class h: a multiplier that
        is 1 mod r then keeps every image in the class.
        """
        ind, other = bytearray(n), set()
        if pure and a % r == 1 % r:
            for x in elems:
                ind[a * x % nr // r] = 1
            return ind, other
        for x in elems:
            y = a * x % nr
            if y % r == h:
                ind[y // r] = 1
            else:
                other.add(y)
        return ind, other

    def indicator(elems):
        """image(1, elems), keyed by residue where the list allows it."""
        if nr <= _KEYED_BYTES_PER_MEMBER * len(elems):
            full = bytearray(nr)
            try:
                for x in elems:
                    full[x] = 1
            except (IndexError, TypeError):
                pass
            else:
                ind = full[h::r]
                full[h::r] = bytes(n)
                if full.find(1) < 0:
                    return ind, set()
        return image(1, elems)

    def maps(a, elems, X, Y):
        """Whether a*X = Y, for X = indicator(elems) and a pair Y."""
        if (n >= _PULLBACK_MIN_N and not X[1] and not Y[1]
                and a % r == 1 % r and math.gcd(a, nr) == 1):
            u, v = _euclid_pair(a, n)
            c = h * (a - 1) // r
            # blocks of j; both sides have period n, so a last block
            # running past n repeats entries already compared
            step = min(n, _PULLBACK_BLOCK)
            return all(
                _pullback(X[0], v, v * j, step) == _pullback(Y[0], u, u * j + c, step)
                for j in range(0, n, step)
            )
        return image(a, elems, not X[1]) == Y

    P = indicator(p_elems)
    SP = indicator(sp_elems)
    fp, fsp = P[1], SP[1]
    # one bit per index: the indicator's bytes read as binary digits
    digits = bytes.maketrans(b"\0\1", b"01")
    a, b = (int(X[0].translate(digits), 2) for X in (P, SP))
    c = 0
    if kind == SplittingKind.TYPE_II and unit:
        members = _p0_range(setting, t)
        p0 = bytearray(b"0") * n
        p0[members.start // r :: members.step // r] = b"1" * len(members)
        c = int(p0, 2)
    return [
        CheckEntry(name, passed)
        for name, passed in (
            ("t-unit", unit),
            ("s-in-multiplier-group", math.gcd(s, nr) == 1 and s % r == 1 % r),
            ("p-in-ambient", not fp and (unit or not a)),
            ("sp-in-ambient", not fsp and (unit or not b)),
            ("p-mu-q-invariant", maps(q, p_elems, P, P)),
            ("sp-mu-q-invariant", maps(q, sp_elems, SP, SP)),
            ("sp-equals-s-times-p", maps(s, p_elems, P, SP)),
            ("parts-disjoint", fp.isdisjoint(fsp) and not (a & b or a & c or b & c)),
            (
                "parts-cover",
                not fp and not fsp and (a | b | c).bit_count() == (n if unit else 0),
            ),
            ("s-squared-fixes-p", maps(s * s % nr, p_elems, P, P)),
        )
    ]


def _euclid_pair(a: int, n: int) -> tuple[int, int]:
    """(u, v) with u = a*v mod n, v a unit mod n, 0 < |u|, |v| <= n.

    a is a unit mod n.  The candidates are the nonzero remainders
    u = v*a - k*n of the extended Euclidean algorithm on (n, a mod n),
    with their cofactors v; the pair with least |u| + |v| whose v is a
    unit is taken.  (a mod n, 1) always qualifies; for n = 1, where
    a mod n = 0, n stands in for it.
    """
    r0, r1, v0, v1 = n, a % n or n, 0, 1
    best = (r1, v1)
    while r1:
        if r1 + abs(v1) < best[0] + abs(best[1]) and math.gcd(v1, n) == 1:
            best = (r1, v1)
        k = r0 // r1
        r0, r1, v0, v1 = r1, r0 - k * r1, v1, v0 - k * v1
    return best


def _pullback(ind, w: int, c: int, count: int) -> bytearray:
    """j -> ind[(w*j + c) mod n] for j < count, n = len(ind), 0 < |w| <= n.

    One strided slice per wrap of w*j + c round n, read backwards when
    w < 0: about |w| * count / n + 1 slice operations.
    """
    n = len(ind)
    out = bytearray(count)
    j, pos = 0, c % n
    while j < count:
        stop = pos + w * (count - j)
        part = ind[pos : stop if stop >= 0 else None : w]
        out[j : j + len(part)] = part
        j += len(part)
        pos = (pos + w * len(part)) % n
    return out


def _factor_check(sp: Splitting, set_ok: bool) -> CheckEntry:
    """The factor-product-identity entry: f_P * f_sP (* f_P0) = X^n - lambda^t.

    It runs only once every set check passed, t-unit among them.  Then
    P, sP and, for a Type-II splitting, P0 tile P_{n,lambda^t}, so the
    product of their check polynomials is that of the whole class.
    """
    if not set_ok:
        return CheckEntry(_FACTOR_CHECK, False, skipped=True)
    st = sp.setting
    try:
        tower = st.tower
    except TooLarge:
        return CheckEntry(_FACTOR_CHECK, True, skipped=True)
    whole = gf.poly_from_root_set(tower, st.p_set(sp.t))
    return CheckEntry(_FACTOR_CHECK, whole == st.binomial(sp.t))


# ---------------------------------------------------------------------------
# derived codes and orthogonality


def odd_like_pair(sp: Splitting) -> tuple[ConstaCode, ConstaCode]:
    """The complementary odd-like pair (P0 + P, P0 + sP) of a Type-II splitting."""
    if sp.kind != SplittingKind.TYPE_II:
        raise ValueError("odd-like companions require a Type-II splitting")
    st, t = sp.setting, sp.t
    p0 = tuple(_p0_range(st, t))
    c1 = ConstaCode(IndexSet(st, t, sp.p + p0))
    c2 = ConstaCode(IndexSet(st, t, sp.sp + p0))
    whole = set(st.p_set(t))
    union = set(c1.check.elems) | set(c2.check.elems)
    inter = set(c1.check.elems) & set(c2.check.elems)
    if union != whole or inter != set(p0):
        raise Internal("odd-like pair does not meet the sum/intersection contract")
    return c1, c2


def is_iso_orthogonal(code: ConstaCode, t: int) -> bool:
    """Whether the exponent-t isometry maps the code into its dual."""
    st = code.setting
    nr = st.nr
    mt = (-st.unit_check(t)) % nr
    if mt % st.r != 1 % st.r:
        return False
    p = set(code.check.elems)
    return not (p & {(mt * x) % nr for x in p})


def even_dual_is_odd(sp: Splitting) -> bool:
    """Duals of an even-like pair form an odd-like pair in the inverse algebra."""
    if sp.kind != SplittingKind.TYPE_II:
        raise ValueError("requires a Type-II splitting")
    st = sp.setting
    nr = st.nr
    if sp.t % nr != 1 % nr:
        raise ValueError("stated for exponent t = 1")
    ambient = set(st.p_set(1))
    neg = lambda xs: {(-x) % nr for x in xs}
    a = neg(ambient - set(sp.p))
    b = neg(ambient - set(sp.sp))
    amb_neg = set(st.p_set(-1))
    p0_neg = neg(_p0_range(st, 1))
    pair_ok = {(sp.s * x) % nr for x in a} == b
    return pair_ok and (a | b) == amb_neg and (a & b) == p0_neg


def max_iso_orthogonal_dim(setting: CodeSetting) -> int:
    """Largest dimension over all iso-orthogonal pairs, in closed form.

    For each multiplier s the compatible check sets factor over the
    s-cycles of q-cosets.  On a cycle of length L a compatible choice is
    disjoint from its shift by one and fixed by the shift by two, so it
    is every other coset when L is even and empty when L is odd.

    The cycles are counted by level.  A member x of P_{n,lambda} has
    gcd(x, nr) = d for a divisor d of n_r_prime; with M = nr/d, level d
    is a coset of the units 1 mod r in Z_M^*, with phi(M)/phi(r)
    members, on which q and s act by translation.  So every s-cycle on
    level d has the same length L_d(s), the order of s in Z_M^*/<q>, and
    the level gives half its members when L_d(s) is even.

    With o the odd part of |G_{n,r}| = phi(nr)/phi(r), the 2-Sylow
    component h = s**o has L_d(h) of the same parity as L_d(s) at every
    level, and L_d(h) is a power of 2: odd exactly when h mod M lies in
    the 2-power-order part of <q> mod M.  So s runs over those
    components alone, gathered in one pass over G_{n,r}; no q-coset is
    walked.  That pass is linear in n, so it raises TooLarge when n
    exceeds MAX_WITNESS_LENGTH.
    """
    _check_witness_length(setting.n)
    q, nr, r = setting.q, setting.nr, setting.r
    size = euler_phi(nr) // euler_phi(r)
    odd = size >> nu2(size)
    sylow = {
        pow(s, odd, nr) for s in range(1 % r, nr, r) if math.gcd(s, nr) == 1
    }
    levels = []
    for d in divisors(setting.n_r_prime):
        m = nr // d
        half = euler_phi(m) // euler_phi(r) // 2
        levels.append((m, set(_q_two_part(q, m)), half))
    return max(
        sum(half for m, q2, half in levels if h % m not in q2) for h in sylow
    )


# ---------------------------------------------------------------------------
# certificates


def certificate(sp: Splitting) -> dict:
    """JSON-ready splitting certificate with its verification transcript.

    A splitting the library built carries the transcript of its
    self-check, which is reused; any other splitting is verified here.
    P0 is listed as verify_certificate expects it: in closed form for a
    unit t, empty otherwise.
    """
    st = sp.setting
    result = sp.transcript if sp.transcript is not None else verify_splitting(sp)
    return {
        **st.payload_fields(),
        "t": sp.t,
        "s": sp.s,
        "kind": sp.kind.value,
        "P": list(sp.p),
        "sP": list(sp.sp),
        "P0": _listed_p0(st, sp.t),
        "checks": result.as_json(),
    }


def verify_certificate(cert: dict) -> tuple[VerifyResult, dict]:
    """Re-check a certificate dict; returns the verdict and a fresh transcript.

    Every check runs.  Raises ValueError when the certificate is not a
    dict, its P, sP or P0 entry is not a list, q, n, t, s or r or a
    residue in P, sP or P0 is anything but a JSON integer, lambda is
    a float or a boolean, or one of q, n, lambda, s, P and sP is
    missing; the message names the field.  Floats, booleans and
    strings are refused rather than converted; lambda is text or an
    integer.  Once those fields are checked, raises TooLarge when n
    exceeds MAX_WITNESS_LENGTH.
    """
    if not isinstance(cert, dict):
        raise ValueError("certificate must be a JSON object")
    for key in ("q", "n", "t", "s", "r"):
        if key in cert and type(cert[key]) is not int:
            raise ValueError(
                f"certificate field {key!r} is not an integer: {cert[key]!r}"
            )
    if isinstance(cert.get("lambda"), (bool, float)):
        raise ValueError(
            f"certificate field 'lambda' is not an integer: {cert['lambda']!r}"
        )
    for key in ("P", "sP", "P0"):
        if key in cert and not isinstance(cert[key], list):
            raise ValueError(f"certificate entry {key!r} must be a list")
        if not set(map(type, cert.get(key, ()))) <= {int}:
            raise ValueError(f"certificate entry {key!r} holds a non-integer")
    for key in ("q", "n", "lambda", "s", "P", "sP"):
        if key not in cert:
            raise ValueError(f"certificate field {key!r} is missing")
    try:
        setting = make_setting(cert["q"], cert["n"], cert["lambda"])
    except TypeError as exc:
        raise ValueError(f"certificate field is not a number: {exc}") from exc
    t = cert.get("t", 1)
    s = cert["s"]
    kind = SplittingKind(cert.get("kind", "type-ii"))
    sp = Splitting(setting, t, s, tuple(cert["P"]), tuple(cert["sP"]), kind)
    p0 = sorted(cert["P0"]) if "P0" in cert else None
    r = cert.get("r")
    checks = _verify(sp)  # one verification, not a nested verify_splitting
    if p0 is not None:
        checks.append(CheckEntry("p0-matches", p0 == _listed_p0(setting, t)))
    if r is not None:
        checks.append(CheckEntry("r-matches", r == setting.r))
    res = VerifyResult(tuple(checks))
    return res, {**cert, "checks": res.as_json()}
