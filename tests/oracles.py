"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's existence logic: they decide
splitting existence by enumerating subsets, decide distances by
enumerating codewords in plain Python, and so on.  Slow on purpose.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from constacyclic.duadic import multiplier_group


def coset_index(setting, elems) -> dict:
    """Each residue of a q-closed set mapped to its sorted q-coset,
    by multiplying by q until the walk returns."""
    nr, q = setting.nr, setting.q
    index = {}
    for x in sorted(elems):
        if x in index:
            continue
        orbit, y = [x], (x * q) % nr
        while y != x:
            orbit.append(y)
            y = (y * q) % nr
        coset = tuple(sorted(orbit))
        for y in coset:
            index[y] = coset
    return index


def rep_cycles(setting, s: int, index: dict) -> list:
    """Cycles of the multiplier s on the cosets as representative walks:
    each starts at its least unvisited representative and steps to the
    representative of s times the current one."""
    nr = setting.nr
    seen = set()
    cycles = []
    for rep in sorted({c[0] for c in index.values()}):
        walk = []
        while rep not in seen:
            seen.add(rep)
            walk.append(rep)
            rep = index[(s * rep) % nr][0]
        if walk:
            cycles.append(tuple(walk))
    return cycles


def pair_even_orbits(orbits):
    """Deal each cycle alternately to two halves of representatives,
    or None when some cycle has odd length."""
    first, second = [], []
    for orbit in orbits:
        if len(orbit) % 2 != 0:
            return None
        first.extend(orbit[0::2])
        second.extend(orbit[1::2])
    return tuple(sorted(first)), tuple(sorted(second))


def every_other_coset_reference(setting, s: int, ambient_elems):
    """The sorted P that takes the first half of the pairing of the
    s-cycles on the q-cosets of the ambient set, or None."""
    index = coset_index(setting, ambient_elems)
    pairing = pair_even_orbits(rep_cycles(setting, s, index))
    if pairing is None:
        return None
    return tuple(sorted(x for rep in pairing[0] for x in index[rep]))


def p0_filter(setting):
    """P0 for t = 1 by filtering P_{n,lambda} for multiples of n_r'."""
    return tuple(x for x in setting.p_set(1) if x % setting.n_r_prime == 0)


@lru_cache(maxsize=None)
def _cycle_has_half_cover(length: int) -> bool:
    """Does some subset A of a length-L cycle satisfy A + shift(A) = all,
    disjointly?  Checked against every one of the 2**L subsets."""
    full = (1 << length) - 1

    def shift(a: int) -> int:
        return ((a << 1) | (a >> (length - 1))) & full if length > 1 else a

    for a in range(1 << length):
        if a & shift(a):
            continue
        if (a | shift(a)) == full:
            return True
    return False


@lru_cache(maxsize=None)
def best_compatible_popcount(length: int) -> int:
    """Largest subset A of a length-L cycle that is disjoint from its
    shift by one and fixed by its shift by two, by trying all 2**L
    subsets.  Reference for the closed form in max_iso_orthogonal_dim."""
    full = (1 << length) - 1

    def rot(a: int, k: int) -> int:
        k %= length
        return ((a << k) | (a >> (length - k))) & full if k else a

    best = 0
    for a in range(1 << length):
        if a & rot(a, 1):
            continue
        if rot(a, 2) != a:
            continue
        best = max(best, bin(a).count("1"))
    return best


def max_iso_orthogonal_dim_exhaustive(setting) -> int:
    """Best total over multipliers s of the exhausted s-cycle
    contributions, each cycle of cosets of size c worth c times its best
    compatible popcount."""
    index = coset_index(setting, setting.p_set(1))
    best = 0
    for s in multiplier_group(setting):
        total = sum(
            len(index[orbit[0]]) * best_compatible_popcount(len(orbit))
            for orbit in rep_cycles(setting, s, index)
        )
        best = max(best, total)
    return best


def _splittable_by(setting, s: int, ambient_elems) -> bool:
    """Is there a q-closed P with P and sP disjointly covering the set?

    P must be a union of q-cosets and the multiplier permutes cosets
    within each of its cycles, so the cover condition restricts to one
    cycle at a time; every cycle is exhausted independently.
    """
    index = coset_index(setting, ambient_elems)
    return all(
        _cycle_has_half_cover(len(orbit))
        for orbit in rep_cycles(setting, s, index)
    )


def type2_exists_bruteforce(setting) -> bool:
    """Exhaustive search over multipliers s and q-closed sets P for a
    partition P0 | P | sP of the full index set."""
    p0 = set(p0_filter(setting))
    outside = tuple(x for x in setting.p_set(1) if x not in p0)
    return any(
        _splittable_by(setting, s, outside) for s in multiplier_group(setting)
    )


def type1_exists_bruteforce(setting) -> bool:
    """Same search without carving out P0: partition P | sP of everything."""
    ambient = setting.p_set(1)
    return any(
        _splittable_by(setting, s, ambient) for s in multiplier_group(setting)
    )


def min_distance_bruteforce(code) -> float:
    """Weight scan over every nonzero codeword, no scalar-class tricks."""
    if code.dim == 0:
        return float("inf")
    from constacyclic import spanning_words

    gens = [w.coords for w in spanning_words(code)]
    return min_weight_bruteforce(code.setting.field, gens)


def min_weight_bruteforce(F, gens) -> int:
    """Least weight of the words sum(c_j * gens[j]) over nonzero messages c."""
    n = len(gens[0])
    best = n + 1
    for coeffs in itertools.product(range(F.q), repeat=len(gens)):
        if not any(coeffs):
            continue
        acc = [0] * n
        for co, g in zip(coeffs, gens):
            if co:
                for i in range(n):
                    acc[i] = F.add(acc[i], F.mul(co, g[i]))
        w = sum(1 for c in acc if c)
        if w < best:
            best = w
    return best


def sweep_settings(max_q: int = 16, max_n: int = 30):
    """Every valid (q, n, canonical lambda of each order r) in the box."""
    import math

    from constacyclic import default_lambda, field_for_order, make_setting
    from constacyclic.arith import divisors

    out = []
    for q in range(2, max_q + 1):
        try:
            field = field_for_order(q)
        except ValueError:
            continue
        for r in divisors(q - 1):
            lam = default_lambda(field, r)
            for n in range(1, max_n + 1):
                if math.gcd(n, q) != 1:
                    continue
                out.append(make_setting(q, n, lam.label))
    return out


def set_check_reference(setting, t, s, p_elems, sp_elems, kind):
    """The splitting set checks written out literally, as (name, passed).

    Builds the whole ambient set P_{n,lambda^t} and P0 by filtering it,
    and compares every set directly.
    """
    import math

    from constacyclic import SplittingKind

    nr, r, q = setting.nr, setting.r, setting.q
    t %= nr
    s %= nr
    p = {x % nr for x in p_elems}
    sps = {x % nr for x in sp_elems}
    unit = math.gcd(t, nr) == 1
    ambient = set(setting.p_set(t)) if unit else set()
    p0 = {x for x in ambient if x % setting.n_r_prime == 0}
    out = [
        ("t-unit", unit),
        ("s-in-multiplier-group", math.gcd(s, nr) == 1 and s % r == 1 % r),
        ("p-in-ambient", p <= ambient),
        ("sp-in-ambient", sps <= ambient),
        ("p-mu-q-invariant", {(q * x) % nr for x in p} == p),
        ("sp-mu-q-invariant", {(q * x) % nr for x in sps} == sps),
        ("sp-equals-s-times-p", {(s * x) % nr for x in p} == sps),
    ]
    if kind == SplittingKind.TYPE_II:
        out.append(
            ("parts-disjoint", not (p & sps) and not (p0 & p) and not (p0 & sps))
        )
        out.append(("parts-cover", (p0 | p | sps) == ambient))
    else:
        out.append(("parts-disjoint", not (p & sps)))
        out.append(("parts-cover", (p | sps) == ambient))
    out.append(("s-squared-fixes-p", {(s * s * x) % nr for x in p} == p))
    return out


@lru_cache(maxsize=None)
def _squares_mod(m: int) -> frozenset:
    return frozenset((x * x) % m for x in range(m))


def is_square_mod_scan(a: int, m: int) -> bool:
    """Whether a is a square mod m, by squaring every residue."""
    return a % m in _squares_mod(m)


@lru_cache(maxsize=None)
def _admissible_root_scan(q_mod_w: int, w: int, p: int):
    from constacyclic.arith import _mult_order, nu2

    target = nu2(_mult_order(q_mod_w, w)) + 1
    cands = [
        x
        for x in range(1, w)
        if x % p != 0
        and (x * x) % w == q_mod_w
        and nu2(_mult_order(x, w)) == target
    ]
    return min(cands) if cands else None


def odd_case_components_scan(q: int, m: int):
    """Least square root of q mod each prime power w of m whose order has
    one more factor of 2 than q's, by scanning all of range(w); None when
    some w has no such root."""
    from constacyclic.arith import factorize

    out = {}
    for p, v in factorize(m):
        w = p**v
        x = _admissible_root_scan(q % w, w, p)
        if x is None:
            return None
        out[w] = x
    return out


def poly_from_root_set_reference(tower, root_exponents):
    """prod(X - theta**i) over the whole exponent set, expanded root by
    root in the extension and projected to F_q at the end, with no
    per-coset structure and no cache; None when a coefficient does not
    descend."""
    from constacyclic import Poly

    ext, nr = tower.ext, tower.nr
    elems = getattr(root_exponents, "elems", root_exponents)
    prod = [1]
    for i in sorted({x % nr for x in elems}):
        mr = ext.neg(tower.theta_pows[i])
        nxt = [0] * (len(prod) + 1)
        nxt[0] = ext.mul(mr, prod[0])
        for j in range(1, len(prod)):
            nxt[j] = ext.add(prod[j - 1], ext.mul(mr, prod[j]))
        nxt[len(prod)] = prod[-1]
        prod = nxt
    coeffs = [tower.project(c) for c in prod]
    if None in coeffs:
        return None
    return Poly(tower.base, tuple(coeffs))


def _int_poly_rem(a, b, p):
    """Remainder of a by the monic b over F_p, coefficients low-to-high."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            for j, bj in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * bj) % p
    return [c % p for c in a[:db]]


def least_irreducible_reference(p: int, m: int) -> tuple[int, ...]:
    """First monic degree-m polynomial over F_p, walking every candidate
    low-to-high (constant term 0 included), with no monic factor of
    degree 1..m//2, found by dividing by each one."""
    divisors = [
        cs + (1,)
        for d in range(1, m // 2 + 1)
        for cs in itertools.product(range(p), repeat=d)
    ]
    for cs in itertools.product(range(p), repeat=m):
        cand = cs + (1,)
        if all(any(_int_poly_rem(cand, f, p)) for f in divisors):
            return cand
    raise AssertionError(f"no irreducible of degree {m} over F_{p}")
