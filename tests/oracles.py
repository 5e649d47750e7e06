"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's existence logic: they decide
splitting existence by enumerating subsets, decide distances by
enumerating codewords in plain Python, and so on.  Slow on purpose.

Nothing here is imported from constacyclic.  A setting is read only for
its constants (q, n, r, nr, n_r_prime, lambda), its field's arithmetic
and its tower's tables; a code only for its generator coefficients and
dimension.  Words are plain tuples of field labels.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def p_set_reference(setting, t: int = 1) -> tuple:
    """P_{n,lambda^t} by filtering every residue mod nr for the class of
    t mod r; empty when t is not a unit mod nr."""
    nr, r = setting.nr, setting.r
    if math.gcd(t % nr, nr) != 1:
        return ()
    return tuple(x for x in range(nr) if x % r == t % r)


def multiplier_group_reference(setting) -> tuple:
    """G_{n,r}: every unit mod nr congruent to 1 mod r, by filtering."""
    nr, r = setting.nr, setting.r
    return tuple(
        x for x in range(nr) if math.gcd(x, nr) == 1 and x % r == 1 % r
    )


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


def p0_filter(setting, t: int = 1):
    """P0 by filtering P_{n,lambda^t} for multiples of n_r'; empty when t
    is not a unit."""
    return tuple(
        x for x in p_set_reference(setting, t) if x % setting.n_r_prime == 0
    )


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
    index = coset_index(setting, p_set_reference(setting))
    best = 0
    for s in multiplier_group_reference(setting):
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
    outside = tuple(x for x in p_set_reference(setting) if x not in p0)
    return any(
        _splittable_by(setting, s, outside)
        for s in multiplier_group_reference(setting)
    )


def type1_exists_bruteforce(setting) -> bool:
    """Same search without carving out P0: partition P | sP of everything."""
    ambient = p_set_reference(setting)
    return any(
        _splittable_by(setting, s, ambient)
        for s in multiplier_group_reference(setting)
    )


def weight(word) -> int:
    """Hamming weight: the number of nonzero coordinates."""
    return sum(1 for c in word if c)


def inner_product(F, a, b) -> int:
    """Euclidean inner product of two words, as a field label."""
    if len(a) != len(b):
        raise ValueError(f"words of lengths {len(a)} and {len(b)}")
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _power(F, a: int, e: int) -> int:
    """a**e by e multiplications."""
    out = 1
    for _ in range(e):
        out = F.mul(out, a)
    return out


def ring_mul(setting, t: int, a, b) -> tuple:
    """Product of two words in R_{n,lambda^t}: the schoolbook product,
    folded with X**n = lambda**t."""
    F, n = setting.field, setting.n
    lam_t = _power(F, setting.lam.label, t % setting.r)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = F.add(prod[i + j], F.mul(ai, bj))
    out = prod[:n]
    for i in range(n, 2 * n - 1):
        out[i - n] = F.add(out[i - n], F.mul(prod[i], lam_t))
    return tuple(out)


def spanning_words(code) -> list:
    """X**j * g for j < dim, padded to length n; a basis of the code."""
    n, g = code.setting.n, code.gen_poly.coeffs
    return [(0,) * j + g + (0,) * (n - j - len(g)) for j in range(code.dim)]


def contains(code, word) -> bool:
    """Membership: long division of the word by the generator leaves no
    remainder."""
    F, g = code.setting.field, code.gen_poly.coeffs
    if len(word) != code.setting.n:
        raise ValueError(f"word length {len(word)} != n = {code.setting.n}")
    rem = list(word)
    d = len(g) - 1
    lead_inv = F.inv(g[-1])
    for i in range(len(rem) - 1, d - 1, -1):
        c = F.mul(rem[i], lead_inv)
        if c:
            for j, gj in enumerate(g):
                rem[i - d + j] = F.sub(rem[i - d + j], F.mul(c, gj))
    return not any(rem)


def element_order(F, a: int) -> int:
    """Multiplicative order of the nonzero label a, by repeated products."""
    k, x = 1, a
    while x != 1:
        x = F.mul(x, a)
        k += 1
    return k


def min_distance_bruteforce(code) -> float:
    """Weight scan over every nonzero codeword, no scalar-class tricks."""
    if code.dim == 0:
        return float("inf")
    return min_weight_bruteforce(code.setting.field, spanning_words(code))


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


def set_check_reference(setting, t, s, p_elems, sp_elems, kind):
    """The splitting set checks written out literally, as (name, passed).

    Builds the whole ambient set P_{n,lambda^t} and P0 by filtering it,
    and compares every set directly.  kind is "type-i" or "type-ii".
    """
    nr, r, q = setting.nr, setting.r, setting.q
    t %= nr
    s %= nr
    p = {x % nr for x in p_elems}
    sps = {x % nr for x in sp_elems}
    unit = math.gcd(t, nr) == 1
    ambient = set(p_set_reference(setting, t))
    p0 = set(p0_filter(setting, t))
    out = [
        ("t-unit", unit),
        ("s-in-multiplier-group", math.gcd(s, nr) == 1 and s % r == 1 % r),
        ("p-in-ambient", p <= ambient),
        ("sp-in-ambient", sps <= ambient),
        ("p-mu-q-invariant", {(q * x) % nr for x in p} == p),
        ("sp-mu-q-invariant", {(q * x) % nr for x in sps} == sps),
        ("sp-equals-s-times-p", {(s * x) % nr for x in p} == sps),
    ]
    if kind == "type-ii":
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


def _order_scan(a: int, m: int) -> int:
    """Multiplicative order of the unit a mod m, by repeated products."""
    k, x = 1, a % m
    while x != 1 % m:
        x = x * a % m
        k += 1
    return k


def _twos(k: int) -> int:
    """The number of factors of 2 in k >= 1."""
    v = 0
    while k % 2 == 0:
        k //= 2
        v += 1
    return v


@lru_cache(maxsize=None)
def _admissible_root_scan(q_mod_w: int, w: int, p: int):
    target = _twos(_order_scan(q_mod_w, w)) + 1
    cands = [
        x
        for x in range(1, w)
        if x % p != 0
        and (x * x) % w == q_mod_w
        and _twos(_order_scan(x, w)) == target
    ]
    return min(cands) if cands else None


def _prime_power_parts(m: int) -> list:
    """(p, p**v) for each prime p dividing m, by trial division."""
    out, p = [], 2
    while p * p <= m:
        w = 1
        while m % p == 0:
            m //= p
            w *= p
        if w > 1:
            out.append((p, w))
        p += 1
    if m > 1:
        out.append((m, m))
    return out


def odd_case_components_scan(q: int, m: int):
    """Least square root of q mod each prime power w of m whose order has
    one more factor of 2 than q's, by scanning all of range(w); None when
    some w has no such root."""
    out = {}
    for p, w in _prime_power_parts(m):
        x = _admissible_root_scan(q % w, w, p)
        if x is None:
            return None
        out[w] = x
    return out


def poly_from_root_set_reference(tower, root_exponents):
    """prod(X - theta**i) over the whole exponent set, expanded root by
    root in the extension and projected to F_q at the end, with no
    per-coset structure and no cache, as F_q coefficients low-to-high;
    None when a coefficient does not descend."""
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
    coeffs = tuple(tower.project(c) for c in prod)
    return None if None in coeffs else coeffs


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


def grs_evaluation_check(plan, setting, z: int | None = None) -> bool:
    """Compare the extension-scalars code with the evaluation code.

    Enumerates the evaluation words of the monomials of degree below
    n'-1, verifies every one vanishes at the roots indexed by the
    complement of P, and checks the evaluation words already span the
    right dimension.  A wrong twist exponent z makes the root conditions
    fail, so this really exercises the construction.
    """
    tower = setting.tower
    assert tower.d == 2, "evaluation code must live in the quadratic extension"
    E, nr, n = tower.ext, setting.nr, plan.n
    z = plan.z if z is None else z
    rows = []
    for k in range(plan.n_prime - 1):
        step = (plan.r * z + 1 + plan.r * k) % nr
        rows.append([tower.theta_pows[(-j * step) % nr] for j in range(n)])
    defining = sorted(set(p_set_reference(setting)) - set(plan.p_elems))
    for row in rows:
        for x in defining:
            acc = 0
            for j, c in enumerate(row):
                acc = E.add(acc, E.mul(c, tower.theta_pows[(x * j) % nr]))
            if acc != 0:
                return False
    return _rank(E, rows) == len(plan.p_elems)


def _rank(E, rows: list) -> int:
    """Rank over the field E by Gauss-Jordan elimination, in place."""
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next(
            (i for i in range(rank, len(rows)) if rows[i][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = E.inv(rows[rank][col])
        rows[rank] = [E.mul(inv, c) for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [
                    E.sub(c, E.mul(f, rc)) for c, rc in zip(rows[i], rows[rank])
                ]
        rank += 1
        if rank == len(rows):
            break
    return rank
