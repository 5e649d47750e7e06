"""Duadic splittings of constacyclic index sets.

The distinguished subset P0 (residues divisible by the r-coprime part
of n), Type-I and Type-II splitting existence and construction,
certificate verification, odd-like companion codes, iso-orthogonality,
and the maximal iso-orthogonal dimension in closed form.

Constructions are deterministic: CRT components are the least residues
satisfying each case's order conditions, and P takes every other coset
along each multiplier cycle of q-cosets, walked from its least coset.
Existence verdicts depend only on (q, n, r); witnesses are produced for
exponent t = 1 and other exponents are reached by scaling with a unit
multiplier.

Splittings are built and checked on P_{n,lambda^t} by index: a member
x is t mod r, so i = x // r is exact and runs over [0, n).  One
bytearray(n) then labels every member P, sP or P0, and P and sP are
read out of it already sorted.  Witnesses and certificates are refused
above MAX_WITNESS_LENGTH, before anything of size n is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import compress

from . import gf
from .arith import _mult_order, factorize, nu2, orbits_on_cosets
from .codes import CodeSetting, ConstaCode, IndexSet, make_setting
from .errors import Internal, NonUnit, NoSplitting, TooLarge
from .gf import Poly

# Longest n for which a splitting is built or a certificate checked.
# Near the cap, split --q 2 --n 4194287 --lambda 1 takes 6.7 s and 363 MB
# peak RSS and its verify 3.1 s and 228 MB (2-core Xeon, Python 3.11);
# time and memory grow linearly in n.
MAX_WITNESS_LENGTH = 1 << 22

# Index labels: one value each while constructing, bits while checking.
_P, _SP, _P0 = 1, 2, 4
# bytes.translate tables keeping one label bit of every index
_ONLY = {bit: bytes(v & bit for v in range(256)) for bit in (_P, _SP)}


def _check_witness_length(n: int) -> None:
    if n > MAX_WITNESS_LENGTH:
        raise TooLarge(f"length {n} exceeds the 2^22 witness cap")


class SplittingKind(str, Enum):
    TYPE_I = "type-i"
    TYPE_II = "type-ii"


@dataclass(frozen=True)
class Splitting:
    """A certified multiplier splitting (s, P, sP) of P_{n,lambda^t}.

    set_checks is the set-check transcript construct_type2 made for
    this splitting.  It takes no part in equality, and neither the
    constructor nor dataclasses.replace can set it, so a hand-made or
    edited splitting never carries a transcript of other sets.
    """

    setting: CodeSetting
    t: int
    s: int
    p: IndexSet
    sp: IndexSet
    kind: SplittingKind
    set_checks: VerifyResult | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def codes(self) -> tuple[ConstaCode, ConstaCode]:
        return ConstaCode(self.p), ConstaCode(self.sp)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    skipped: bool = False


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    checks: tuple[CheckEntry, ...]
    first_failure: str | None = None

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


@lru_cache(maxsize=None)
def multiplier_group(setting: CodeSetting) -> tuple[int, ...]:
    """G_{n,r}: units mod nr congruent to 1 mod r, sorted ascending."""
    nr, r = setting.nr, setting.r
    return tuple(
        x for x in range(1 % r, nr, r) if math.gcd(x, nr) == 1
    )


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
        return "TypeI-even-quotient"
    if setting.n_r % 2 == 0:
        return "n_r-even"
    if setting.n % 2 == 1 and _is_square_mod(setting.q, setting.n_r_prime):
        return "odd-square"
    return None


def exists_type2(setting: CodeSetting, *, with_witness: bool = True) -> ExistenceVerdict:
    """Existence verdict for Type-II splittings, with a certified witness.

    The witness comes from construct_type2, which has already run the
    set checks once; it carries their transcript for certificate().
    """
    reason = _exists_reason(setting)
    if reason is None:
        return ExistenceVerdict(False, "none", None)
    if not with_witness:
        return ExistenceVerdict(True, reason, None)
    return ExistenceVerdict(True, reason, construct_type2(setting))


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


def _even_case_components(setting: CodeSetting) -> dict[int, int]:
    """Least 2-power-order components at each prime power of n_r_prime.

    At w = p**v the component is the unique element of order 2 when q
    has odd order mod w, and otherwise the least odd power of q whose
    order is a positive power of 2.
    """
    q = setting.q
    out = {}
    for p, v in factorize(setting.n_r_prime):
        w = p**v
        ordq = _mult_order(q % w, w)
        if ordq % 2 == 1:
            out[w] = w - 1
        else:
            a = nu2(ordq)
            base = pow(q, ordq >> a, w)
            cands = {pow(base, e, w) for e in range(1, 1 << a, 2)}
            out[w] = min(cands)
    return out


def _odd_case_components(setting: CodeSetting) -> dict[int, int]:
    """Square roots of q with one extra factor of 2 in their order.

    At an odd prime power w = p**v the unit q has either no square root
    or exactly the two roots +-x, found by Tonelli-Shanks mod p and
    Hensel lifting; the component is the least root whose order has
    2-adic valuation one more than that of q.
    """
    q = setting.q
    out = {}
    for p, v in factorize(setting.n_r_prime):
        w = p**v
        target = nu2(_mult_order(q % w, w)) + 1
        x = _sqrt_mod_prime_power(q, p, v)
        cands = [] if x is None else [
            y for y in {x, w - x} if nu2(_mult_order(y, w)) == target
        ]
        if not cands:
            raise NoSplitting(
                f"no admissible square root of q mod {w}; "
                "existence precondition violated"
            )
        out[w] = min(cands)
    return out


def _sqrt_mod_prime_power(a: int, p: int, v: int) -> int | None:
    """A square root of the unit a modulo p**v (p odd), or None."""
    x = _sqrt_mod_prime(a % p, p)
    if x is None:
        return None
    w = p
    for _ in range(v - 1):
        w *= p
        # Newton step: x**2 = a mod w/p lifts to x - (x**2 - a)/(2x) mod w.
        x = (x - (x * x - a) * pow(2 * x, -1, w)) % w
    return x


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """Tonelli-Shanks: a square root of the unit a modulo an odd prime p."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    e = nu2(p - 1)
    odd = (p - 1) >> e
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c = pow(z, odd, p)
    x = pow(a, (odd + 1) // 2, p)
    b = pow(a, odd, p)
    while b != 1:
        # least i with b**(2**i) = 1; then fold the matching power of c in
        i, b2 = 0, b
        while b2 != 1:
            b2 = b2 * b2 % p
            i += 1
        d = pow(c, 1 << (e - i - 1), p)
        x = x * d % p
        c = d * d % p
        b = b * c % p
        e = i
    return x


def construct_type1(setting: CodeSetting) -> Splitting:
    """Deterministic Type-I splitting, when one exists.

    Raises TooLarge when n exceeds MAX_WITNESS_LENGTH.
    """
    _check_witness_length(setting.n)
    if not exists_type1(setting):
        raise NoSplitting("no Type-I splitting for this setting")
    s = _type1_multiplier(setting)
    return _every_other_coset(setting, s, SplittingKind.TYPE_I)


def _type1_multiplier(setting: CodeSetting) -> int:
    """The least class of 1 + r*Z_{n_r*r} outside the powers of q whose
    square is a power of q, glued with 1 at the odd prime powers."""
    m = setting.n_r * setting.r
    q = setting.q
    qpow = set()
    x = 1 % m
    while x not in qpow:
        qpow.add(x)
        x = (x * q) % m
    s0 = None
    for x in range(1 % m, m, setting.r):
        if x not in qpow and (x * x) % m in qpow:
            s0 = x
            break
    if s0 is None:
        raise Internal("even quotient without an order-2 class")
    return _compose_multiplier(
        setting, s0, {w: 1 for w in _odd_prime_powers(setting)}
    )


def _odd_prime_powers(setting: CodeSetting) -> list[int]:
    return [p**v for p, v in factorize(setting.n_r_prime)]


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
    return Splitting(
        setting, 1, s, IndexSet(setting, 1, p), IndexSet(setting, 1, sp), kind
    )


def construct_type2(setting: CodeSetting) -> Splitting:
    """Deterministic Type-II (even-like) splitting, when one exists.

    P takes every other coset along each s-cycle of the q-cosets outside
    P0.  On a Type-I setting s is the Type-I multiplier, and P is the
    Type-I P without P0, which is a union of whole s-cycles.

    The set checks run once, here; a failure raises Internal.  The
    splitting carries their transcript as set_checks, so certificate()
    adds only the factor-product identity.  Raises TooLarge when n
    exceeds MAX_WITNESS_LENGTH.
    """
    _check_witness_length(setting.n)
    reason = _exists_reason(setting)
    if reason is None:
        raise NoSplitting("no Type-II splitting for this setting")
    if reason == "TypeI-even-quotient":
        s = _type1_multiplier(setting)
    elif reason == "n_r-even":
        s = _compose_multiplier(setting, 1, _even_case_components(setting))
    else:
        s = _compose_multiplier(setting, 1, _odd_case_components(setting))
    out = _every_other_coset(setting, s, SplittingKind.TYPE_II)
    res = verify_splitting(out, algebraic=False)
    if not res.ok:
        raise Internal(f"constructed splitting failed check {res.first_failure}")
    object.__setattr__(out, "set_checks", res)
    return out


# ---------------------------------------------------------------------------
# verification


def verify_splitting(sp: Splitting, algebraic="auto") -> VerifyResult:
    """Re-prove every splitting invariant, set-wise and polynomially.

    algebraic may be True (always multiply the factor polynomials),
    False (set checks only), or "auto" (multiply when the required
    extension field fits the size cap, otherwise record a skip).  Every
    check runs, whatever transcript the splitting carries.  Raises
    TooLarge when n exceeds MAX_WITNESS_LENGTH.
    """
    return _verify(
        sp.setting, sp.t, sp.s, sp.p.elems, sp.sp.elems, sp.kind, algebraic
    )


_FACTOR_CHECK = "factor-product-identity"


def _verify(setting, t, s, p_elems, sp_elems, kind, algebraic) -> VerifyResult:
    _check_witness_length(setting.n)
    checks, p, sps, p0 = _set_checks(setting, t, s, p_elems, sp_elems, kind)
    set_ok = all(c.passed for c in checks)
    checks.append(
        _factor_check(setting, t, p, sps, p0, kind, algebraic, set_ok)
    )
    return _transcript(checks)


def _set_checks(setting, t, s, p_elems, sp_elems, kind):
    """The set-level checks in transcript order, with P, sP and P0.

    A residue reduced mod nr lies in P_{n,lambda^t} exactly when it is
    congruent to t mod r.  Residues of that class are labelled by index
    in one bytearray(n), with bit _P for P, _SP for sP and, for a
    Type-II splitting with t a unit, _P0 for P0.  Residues of any other
    class, which only a hostile certificate holds, go to a side set per
    part.  An image a*X is built the same way, so each check compares
    labels and side sets and gives the boolean of the literal set
    comparison.  q is a unit mod nr, so q*X = X exactly when q*X lies in
    X; s need not be a unit, so sP = s*P and s^2*P = P are compared whole.
    """
    checks: list[CheckEntry] = []

    def add(name: str, passed: bool):
        checks.append(CheckEntry(name, passed))

    n, nr, r, q = setting.n, setting.nr, setting.r, setting.q
    t %= nr
    s %= nr
    h = t % r
    unit = math.gcd(t, nr) == 1
    lab = bytearray(n)

    def mark(elems, bit):
        """Label the class-h residues of elems; return the others, reduced."""
        other = set()
        for x in elems:
            x %= nr
            if x % r == h:
                lab[x // r] |= bit
            else:
                other.add(x)
        return other

    def image(a, elems, bit, foreign):
        """a*X mod nr as its labels of class h and its other residues.

        foreign holds the residues of X outside class h.  A multiplier
        that is 1 mod r keeps every residue in its class, so without
        foreign residues every image is labelled.
        """
        img, other = bytearray(n), set()
        if a % r == 1 % r and not foreign:
            for x in elems:
                img[a * x % nr // r] = bit
            return img, other
        for x in elems:
            y = a * x % nr
            if y % r == h:
                img[y // r] = bit
            else:
                other.add(y)
        return img, other

    p0 = _p0_range(setting, t) if unit else range(0)
    if kind == SplittingKind.TYPE_II and unit:
        lab[p0.start // r :: p0.step // r] = bytes([_P0]) * len(p0)
    fp = mark(p_elems, _P)
    fsp = mark(sp_elems, _SP)
    p_bits, sp_bits = lab.translate(_ONLY[_P]), lab.translate(_ONLY[_SP])

    add("t-unit", unit)
    add(
        "s-in-multiplier-group",
        math.gcd(s, nr) == 1 and s % r == 1 % r,
    )
    p_in = not fp and (unit or p_bits.count(0) == n)
    sp_in = not fsp and (unit or sp_bits.count(0) == n)
    add("p-in-ambient", p_in)
    add("sp-in-ambient", sp_in)
    add("p-mu-q-invariant", image(q, p_elems, _P, fp) == (p_bits, fp))
    add("sp-mu-q-invariant", image(q, sp_elems, _SP, fsp) == (sp_bits, fsp))
    add("sp-equals-s-times-p", image(s, p_elems, _SP, fp) == (sp_bits, fsp))
    two_parts = (_P | _SP, _P | _P0, _SP | _P0, _P | _SP | _P0)
    add(
        "parts-disjoint",
        fp.isdisjoint(fsp) and not any(map(lab.count, two_parts)),
    )
    add(
        "parts-cover",
        not fp and not fsp and lab.count(0) == (0 if unit else n),
    )
    add("s-squared-fixes-p", image(s * s % nr, p_elems, _P, fp) == (p_bits, fp))
    return checks, p_elems, sp_elems, p0


def _factor_check(setting, t, p, sps, p0, kind, algebraic, set_ok) -> CheckEntry:
    """The factor-product-identity entry: f_P * f_sP (* f_P0) = X^n - lambda^t."""
    if algebraic is False or not set_ok:
        return CheckEntry(_FACTOR_CHECK, set_ok, skipped=True)
    try:
        tower = setting.tower
    except TooLarge:
        if algebraic != "auto":
            raise
        return CheckEntry(_FACTOR_CHECK, True, skipped=True)
    prod = gf.poly_from_root_set(tower, p)
    prod = prod * gf.poly_from_root_set(tower, sps)
    if kind == SplittingKind.TYPE_II:
        prod = prod * gf.poly_from_root_set(tower, p0)
    return CheckEntry(_FACTOR_CHECK, prod == setting.binomial(t))


def _transcript(checks) -> VerifyResult:
    failed = [c.name for c in checks if not c.skipped and not c.passed]
    return VerifyResult(not failed, tuple(checks), failed[0] if failed else None)


# ---------------------------------------------------------------------------
# derived codes and orthogonality


def odd_like_pair(sp: Splitting) -> tuple[ConstaCode, ConstaCode]:
    """The complementary odd-like pair (P0 + P, P0 + sP) of a Type-II splitting."""
    if sp.kind != SplittingKind.TYPE_II:
        raise ValueError("odd-like companions require a Type-II splitting")
    p0 = p0_set(sp.setting, sp.t)
    c1 = ConstaCode(sp.p.union(p0))
    c2 = ConstaCode(sp.sp.union(p0))
    whole = set(sp.setting.p_set(sp.t))
    union = set(c1.check.elems) | set(c2.check.elems)
    inter = set(c1.check.elems) & set(c2.check.elems)
    if union != whole or inter != set(p0.elems):
        raise Internal("odd-like pair does not meet the sum/intersection contract")
    return c1, c2


def is_iso_orthogonal(code: ConstaCode, t: int) -> bool:
    """Whether the exponent-t isometry maps the code into its dual."""
    st = code.setting
    nr = st.nr
    t %= nr
    if math.gcd(t, nr) != 1:
        raise NonUnit(f"{t} is not a unit mod {nr}")
    mt = (-t) % nr
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
    p = set(sp.p.elems)
    spx = set(sp.sp.elems)
    neg = lambda xs: {(-x) % nr for x in xs}
    a = neg(ambient - p)
    b = neg(ambient - spx)
    amb_neg = set(st.p_set(-1 % nr if nr > 1 else 0))
    p0_neg = neg(set(p0_set(st, 1).elems))
    pair_ok = {(sp.s * x) % nr for x in a} == b
    return pair_ok and (a | b) == amb_neg and (a & b) == p0_neg


def max_iso_orthogonal_dim(setting: CodeSetting) -> int:
    """Largest dimension over all iso-orthogonal pairs, in closed form.

    For each multiplier s the compatible check sets factor over the
    s-cycles of q-cosets.  On a cycle of length L a compatible choice A
    is disjoint from its shift by one and fixed by the shift by two, so
    it is every other coset when L is even and empty when L is odd: a
    cycle of cosets of size c contributes c * L / 2 or nothing.
    """
    part = setting.cosets(1)
    best = 0
    for s in multiplier_group(setting):
        total = 0
        for cycle in orbits_on_cosets(part, s):
            if len(cycle) % 2 == 0:
                total += sum(map(len, cycle[0::2]))
        best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# certificates


def certificate(sp: Splitting, result: VerifyResult | None = None) -> dict:
    """JSON-ready splitting certificate with its verification transcript.

    A splitting from construct_type2 reuses the set checks it carries
    and only adds the factor-product identity (skipped, as in
    verify_splitting, when the tower exceeds the size cap).  Any other
    splitting is verified in full.
    """
    st = sp.setting
    p0 = p0_set(st, sp.t)
    if result is None and sp.set_checks is None:
        result = verify_splitting(sp)
    elif result is None:
        carried = sp.set_checks
        checks = [c for c in carried.checks if c.name != _FACTOR_CHECK]
        checks.append(
            _factor_check(st, sp.t, sp.p, sp.sp, p0, sp.kind, "auto", carried.ok)
        )
        result = _transcript(checks)
    return {
        "q": st.q,
        "n": st.n,
        "r": st.r,
        "lambda": gf.element_to_text(st.field, st.lam.label),
        "t": sp.t,
        "s": sp.s,
        "kind": sp.kind.value,
        "P": list(sp.p.elems),
        "sP": list(sp.sp.elems),
        "P0": list(p0.elems),
        "checks": result.as_json(),
    }


def verify_certificate(cert: dict, algebraic="auto") -> tuple[VerifyResult, dict]:
    """Re-check a certificate dict; returns the verdict and a fresh transcript.

    Every check runs.  Raises ValueError when the certificate is not a
    dict, its P, sP or P0 entry is not a list, q, n, t, s or r or a
    residue in P, sP or P0 is anything but a JSON integer, or lambda is
    a float or a boolean.  Floats, booleans and strings are refused
    rather than converted; lambda is text or an integer.  Once those
    types are checked, raises TooLarge when n exceeds MAX_WITNESS_LENGTH.
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
    try:
        setting = make_setting(cert["q"], cert["n"], cert["lambda"])
    except TypeError as exc:
        raise ValueError(f"certificate field is not a number: {exc}") from exc
    t = cert.get("t", 1)
    s = cert["s"]
    kind = SplittingKind(cert.get("kind", "type-ii"))
    p_elems = tuple(cert["P"])
    sp_elems = tuple(cert["sP"])
    p0 = sorted(cert["P0"]) if "P0" in cert else None
    r = cert.get("r")
    res = _verify(setting, t, s, p_elems, sp_elems, kind, algebraic)
    checks = list(res.checks)
    if p0 is not None:
        actual = list(p0_set(setting, t).elems) if math.gcd(t, setting.nr) == 1 else []
        checks.append(CheckEntry("p0-matches", p0 == actual))
    if r is not None:
        checks.append(CheckEntry("r-matches", r == setting.r))
    res = _transcript(checks)
    fresh = dict(cert)
    fresh["checks"] = res.as_json()
    return res, fresh
