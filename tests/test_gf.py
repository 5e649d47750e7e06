import hashlib
import itertools
import math
import random
import time

import pytest

from constacyclic import (
    Poly,
    construct_type2,
    element_from_text,
    element_to_text,
    gf,
    make_field,
    make_setting,
    p0_set,
    poly_from_root_set,
    poly_to_text,
)
from constacyclic.arith import _mult_order, divisors
from constacyclic.errors import (
    DivideByZero,
    Internal,
    NotInvariant,
    NotPrime,
    SettingMismatch,
    TooLarge,
)
from constacyclic.gf import poly_one, poly_x_pow_minus

from conftest import sweep_settings
from oracles import (
    _int_poly_rem,
    cosets,
    element_order,
    least_irreducible_reference,
    poly_add_reference,
    poly_eval,
    poly_from_root_set_reference,
)


def all_monic(field, degree):
    for cs in itertools.product(range(field.q), repeat=degree):
        yield Poly(field, cs + (1,))


def is_irreducible(poly):
    """Factor search up to half the degree; fine for desk degrees."""
    F = poly.field
    for d in range(1, poly.degree // 2 + 1):
        for cand in all_monic(F, d):
            if divmod(poly, cand)[1].is_zero:
                return False
    return poly.degree >= 1


class TestMakeField:
    def test_f4_modulus(self):
        F = make_field(2, 2)
        assert F.modulus == (1, 1, 1)

    def test_prime_field_convention(self):
        F = make_field(13, 1)
        assert F.modulus == (0, 1)
        assert F.q == 13

    def test_f25_least_irreducible(self):
        # oracle: scan monic quadratics low-to-high for the first with no root
        expected = None
        for c0, c1 in itertools.product(range(5), repeat=2):
            if all((x * x + c1 * x + c0) % 5 != 0 for x in range(5)):
                expected = (c0, c1, 1)
                break
        F = make_field(5, 2)
        assert F.modulus == expected

    def test_moduli_are_irreducible(self):
        # the modulus is a polynomial over the prime subfield
        for p, m in [(2, 4), (3, 3), (5, 2), (7, 2), (2, 6)]:
            F = make_field(p, m)
            assert is_irreducible(Poly(make_field(p, 1), F.modulus))

    def test_moduli_match_full_candidate_walk(self):
        """Every p**m <= 2**12 with m >= 2, against a walk that also tries
        the candidates with constant term 0."""
        checked = 0
        for p in range(2, 65):
            if any(p % d == 0 for d in range(2, p)):
                continue
            m = 2
            while p**m <= 1 << 12:
                assert make_field(p, m).modulus == least_irreducible_reference(p, m), (p, m)
                checked += 1
                m += 1
        assert checked == 40

    def test_large_moduli_pinned(self):
        # recorded before the search skipped constant term 0; the sweep
        # and big-field benchmark digests depend on these moduli
        pinned = {
            (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
            (2, 18): (1,) + (0,) * 14 + (1, 0, 0, 1),
            (2, 20): (1,) + (0,) * 16 + (1, 0, 0, 1),
            (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
            (7, 6): (1, 0, 0, 0, 1, 0, 1),
            (17, 4): (1, 0, 0, 3, 1),
        }
        for (p, m), modulus in pinned.items():
            assert make_field(p, m).modulus == modulus, (p, m)

    def test_moduli_digest_pinned(self):
        """Every modulus of degree >= 2 under the cap with p <= 1024, p
        ascending, then m; the digest was recorded before the candidate
        walk was shared between the sieve and the modulus search."""
        fields = []
        for p in range(2, 1025):
            if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
                continue
            m = 2
            while p**m <= 1 << 20:
                fields.append((p, m, make_field(p, m).modulus))
                m += 1
        assert len(fields) == 242
        digest = hashlib.sha256(repr(fields).encode()).hexdigest()
        assert digest == "0afea9c3a53bbf30538ae5cefd1e0872b001793788067c85189480b60a69c151"

    def test_sieve_shared_per_degree(self, monkeypatch):
        """GF(2^18) then GF(2^20), from an empty sieve cache: the second
        field walks only degrees the first did not (10 and 20)."""
        degrees = []
        pf_rem = gf._pf_rem

        def spy(a, b, p):
            degrees[-1].add(len(a) - 1)
            return pf_rem(a, b, p)

        monkeypatch.setattr(gf, "_pf_rem", spy)
        gf._irreducibles.cache_clear()
        try:
            for m in (18, 20):
                degrees.append(set())
                # bypass make_field's cache, keeping its instances as they are
                field = make_field.__wrapped__(2, m)
                assert field.modulus == make_field(2, m).modulus
        finally:
            gf._irreducibles.cache_clear()
        assert degrees == [set(range(2, 10)) | {18}, {10, 20}]

    def test_exhausted_walk_is_internal(self, monkeypatch):
        """An empty candidate walk is a library fault, not a StopIteration."""
        monkeypatch.setattr(gf, "_irreducible_walk", lambda p, d: iter(()))
        with pytest.raises(Internal, match="no irreducible of degree 3 over F_5"):
            make_field.__wrapped__(5, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(NotPrime):
            make_field(6, 1)
        with pytest.raises(TooLarge):
            make_field(2, 21)
        with pytest.raises(ValueError, match="extension degree must be positive"):
            make_field(5, 0)

    def test_cap_follows_the_field_size_cap(self, monkeypatch):
        """The degree cut-off is read from MAX_FIELD_SIZE, so a raised cap
        still refuses 2^25 before any modulus is searched for."""

        def no_walk(p, d):
            raise AssertionError("modulus search reached above the cap")

        monkeypatch.setattr(gf, "MAX_FIELD_SIZE", 1 << 24)
        monkeypatch.setattr(gf, "_irreducible_walk", no_walk)
        with pytest.raises(TooLarge, match="exceeds 2\\^24"):
            make_field.__wrapped__(2, 25)
        with pytest.raises(TooLarge, match="field size 33554432 exceeds 2\\^24"):
            gf.field_for_order(1 << 25)

    def test_cap_decided_from_degree(self):
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="13\\^4000000"):
            make_field(13, 4_000_000)
        assert time.perf_counter() - t0 < 0.5

    def test_instances_cached(self):
        """One instance per field: one call form, so one cache key."""
        assert make_field(3, 2) is make_field(3, 2)
        assert make_field(2, 2) is gf.field_for_order(4)
        with pytest.raises(TypeError):
            make_field(2)
        with pytest.raises(TypeError):
            make_field(p=2, m=2)

    def test_field_for_order_refuses_huge_q_unfactored(self, monkeypatch):
        from constacyclic import gf

        assert gf.field_for_order(1 << 20).q == 1 << 20

        def no_factoring(n):
            raise AssertionError(f"factorized {n}")

        monkeypatch.setattr(gf, "factorize", no_factoring)
        for q in [(1 << 20) + 1, 2305843009213693951]:
            with pytest.raises(TooLarge):
                gf.field_for_order(q)


class TestFieldArithmetic:
    @pytest.mark.parametrize(
        "p,m",
        [(2, 2), (3, 2), (13, 1), (5, 2), (2, 4), (3, 3), (5, 3), (17, 4), (3, 12)],
    )
    def test_axioms_sampled(self, p, m):
        F = make_field(p, m)
        rng = random.Random(p * 100 + m)

        def digits(x):
            return [x // p**i % p for i in range(m)]

        for _ in range(500):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == 0
            # the product of the digit polynomials, reduced by the modulus
            prod = [0] * (2 * m - 1)
            for i, ai in enumerate(digits(a)):
                for j, bj in enumerate(digits(b)):
                    prod[i + j] += ai * bj
            rem = _int_poly_rem(prod, F.modulus, p)
            assert F.mul(a, b) == sum(x * p**i for i, x in enumerate(rem))
        # every inverse in the small fields, a sample in the large ones
        units = range(1, F.q) if F.q <= 1024 else rng.sample(range(1, F.q), 500)
        for a in units:
            assert F.mul(a, F.inv(a)) == 1

    def test_order_of(self):
        F = make_field(13, 1)
        assert F.order_of(5) == 4
        assert F.order_of(1) == 1
        assert F.order_of(2) == 12
        with pytest.raises(DivideByZero):
            F.order_of(0)

    def test_inverse_of_zero(self):
        for F in [make_field(13, 1), make_field(2, 4), make_field(3, 2)]:
            with pytest.raises(DivideByZero):
                F.inv(0)

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 3)])
    def test_negative_power_over_extension(self, p, m):
        """a**-e is (a**-1)**e, and a**-e * a**e is 1."""
        F = make_field(p, m)
        for a in range(1, F.q):
            for e in range(1, 8):
                assert F.pow(a, -e) == F.pow(F.inv(a), e)
                assert F.mul(F.pow(a, -e), F.pow(a, e)) == 1

    def test_least_of_order_matches_element_order(self):
        """Every r | q - 1 for every q <= 256, against orders found by
        repeated products; primitive is the case r = q - 1."""
        for q in range(2, 257):
            try:
                F = gf.field_for_order(q)
            except ValueError:
                continue
            orders = [element_order(F, a) for a in range(1, q)]
            for r in divisors(q - 1):
                assert F.least_of_order(r) == orders.index(r) + 1, (q, r)
                for a, order in enumerate(orders, 1):
                    assert F.has_order(a, r) == (order == r), (q, r, a)
            assert F.primitive == orders.index(q - 1) + 1
            assert not F.has_order(0, q - 1)
            assert F.least_of_order(q) is None
            assert F.least_of_order(0) is None

    def test_order_q_minus_1_skips_lagrange(self, monkeypatch):
        """a**(q - 1) = 1 for every nonzero a, so has_order(a, q - 1)
        raises a only to the powers (q - 1)/ell."""
        F = make_field(2, 8)
        exponents = []
        pow_ = gf.FieldSpec.pow

        def counted(self, a, e):
            exponents.append(e)
            return pow_(self, a, e)

        monkeypatch.setattr(gf.FieldSpec, "pow", counted)
        assert F.has_order(F.primitive, 255)
        assert sorted(exponents) == [255 // 17, 255 // 5, 255 // 3]

    def test_order_found_once_per_label(self, monkeypatch):
        F = make_field(2, 8)
        calls = []
        pow_ = gf.FieldSpec.pow

        def counted(self, a, e):
            calls.append((a, e))
            return pow_(self, a, e)

        monkeypatch.setattr(gf.FieldSpec, "pow", counted)
        first = F.order_of(77)
        calls.clear()
        assert F.order_of(77) == first
        assert calls == []

    def test_coords_round_trip(self):
        F = make_field(3, 3)
        for a in range(F.q):
            assert F.from_coords(F.coords(a)) == a

    def test_tables_match_scalar_ops(self):
        full = [(2, 1), (2, 2), (5, 1), (3, 2), (2, 3), (2, 4), (3, 3), (7, 2), (5, 3)]
        for q_spec in full:
            F = make_field(*q_spec)
            add, mul = F.np_tables()
            assert add.shape == mul.shape == (F.q, F.q)
            for a in range(F.q):
                for b in range(F.q):
                    assert add[a, b] == F.add(a, b)
                    assert mul[a, b] == F.mul(a, b)
        for q_spec in [(2, 8), (7, 3), (2, 10)]:
            F = make_field(*q_spec)
            add, mul = F.np_tables()
            rng = random.Random(F.q)
            for _ in range(2000):
                a, b = rng.randrange(F.q), rng.randrange(F.q)
                assert add[a, b] == F.add(a, b)
                assert mul[a, b] == F.mul(a, b)

    def test_tables_refused_above_the_limit(self):
        F = make_field(2, 11)
        assert F.q > gf._NP_TABLE_LIMIT
        with pytest.raises(TooLarge, match="operation tables unsupported for field size 2048"):
            F.np_tables()


class TestPoly:
    def test_product_golden_f5(self):
        F = make_field(5, 1)
        f1 = Poly(F, (2, 0, 1))  # X^2 - 3
        f2 = Poly(F, (2, 1, 1))  # X^2 + X + 2
        f3 = Poly(F, (2, 4, 1))  # X^2 - X + 2
        assert f1 * f2 * f3 == poly_x_pow_minus(F, 6, 2)

    def test_one_is_identity(self):
        F = make_field(7, 1)
        f = Poly(F, (3, 0, 5, 1))
        assert f * poly_one(F) == f

    def test_mod_of_multiple_is_zero(self):
        F = make_field(5, 1)
        assert divmod(poly_x_pow_minus(F, 6, 2), Poly(F, (2, 1, 1)))[1].is_zero

    def test_divmod(self):
        F = make_field(3, 2)
        rng = random.Random(2)
        for _ in range(100):
            a = Poly(F, tuple(rng.randrange(9) for _ in range(rng.randrange(8))))
            b = Poly(F, tuple(rng.randrange(9) for _ in range(rng.randrange(1, 5))))
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert Poly(F, poly_add_reference(F, (q * b).coeffs, r.coeffs)) == a
            assert r.degree < b.degree

    def test_divide_by_zero(self):
        F = make_field(5, 1)
        with pytest.raises(DivideByZero):
            divmod(poly_one(F), Poly(F, ()))

    def test_product_across_fields(self):
        with pytest.raises(SettingMismatch, match="different fields"):
            Poly(make_field(5, 1), (1, 1)) * Poly(make_field(7, 1), (1, 1))

    def test_text_round_trip(self):
        F4 = make_field(2, 2)
        f = Poly(F4, (2, 0, 1, 3))
        assert poly_to_text(f) == "0 1, 0 0, 1 0, 1 1"
        assert [element_from_text(F4, c) for c in poly_to_text(f).split(", ")] == [
            2, 0, 1, 3
        ]
        F5 = make_field(5, 1)
        assert poly_to_text(Poly(F5, (2, 1, 1, 0))) == "2 1 1"
        assert element_from_text(F4, element_to_text(F4, 2)) == 2


class TestTower:
    def test_extension_degrees(self):
        assert make_setting(13, 14, 5).tower.d == 2
        assert make_setting(4, 21, 2).tower.d == 3
        assert make_setting(5, 6, 2).tower.d == 2

    def test_theta_invariants(self):
        for args in [(13, 14, 5), (4, 21, 2), (5, 6, 2), (3, 8, 2)]:
            st = make_setting(*args)
            tw = st.tower
            assert tw.ext.order_of(tw.theta) == st.nr
            assert tw.ext.pow(tw.theta, st.n) == tw.embed(st.lam)
            assert all(tw.theta_pows[j] == tw.ext.pow(tw.theta, j) for j in range(st.nr))

    def test_embed_is_a_homomorphism(self):
        st = make_setting(4, 21, 2)
        tw = st.tower
        F, E = tw.base, tw.ext
        for a in range(F.q):
            for b in range(F.q):
                assert tw.embed(F.mul(a, b)) == E.mul(tw.embed(a), tw.embed(b))
                assert tw.embed(F.add(a, b)) == E.add(tw.embed(a), tw.embed(b))

    def test_theta_matches_bruteforce_rule(self, sweep):
        """theta is the least-coordinate unit power zeta**k with (zeta**k)**n = lambda.

        The scan runs over every k < nr, as build_tower once did, for each
        sweep setting whose extension has at most 2**12 elements.
        """
        checked = 0
        for st in sweep:
            nr = st.nr
            d = _mult_order(st.q % nr, nr) if nr > 1 else 1
            if st.q**d > 1 << 12:
                continue
            tw = st.tower
            E = tw.ext
            zeta = E.pow(E.primitive, (E.q - 1) // nr)
            lam = tw.embed(st.lam)
            best = None
            for k in range(nr):
                zk = E.pow(zeta, k)
                if math.gcd(k, nr) == 1 and E.pow(zk, st.n) == lam:
                    if best is None or E.coords(zk) < E.coords(best):
                        best = zk
            assert tw.theta == best, st
            checked += 1
        assert checked > 300

    def test_theta_is_the_coords_minimum(self):
        """The digit-by-digit tie-break picks the unit that a min over
        coordinate tuples picks, for every tower under the cap with
        q <= 16, n <= 60, and at n = 8191 over GF(2)."""
        checked = 0
        for st in sweep_settings(16, 60) + [make_setting(2, 8191, 1)]:
            try:
                tw = st.tower
            except TooLarge:
                continue
            E, n, nr = tw.ext, st.n, st.nr
            pows = gf._root_powers(E, nr)
            lam = tw.embed(st.lam)
            units = [
                k for k in range(nr)
                if math.gcd(k, nr) == 1 and pows[k * n % nr] == lam
            ]
            assert tw.theta == pows[min(units, key=lambda k: E.coords(pows[k]))], st
            checked += 1
        assert checked > 600

    def test_embedding_matches_bruteforce_rule(self, sweep):
        """X maps to the least-coordinate root of the base modulus mu, found
        by evaluating mu at every extension element, and a label with
        coordinates c_i maps to sum c_i rho**i.

        Once per (base, extension) pair of the sweep with an extension
        base and at most 2**12 extension elements.
        """
        pairs = {}
        for st in sweep:
            nr = st.nr
            d = _mult_order(st.q % nr, nr) if nr > 1 else 1
            if st.field.m > 1 and d > 1 and st.q**d <= 1 << 12:
                pairs.setdefault((st.q, d), st)
        assert sorted(pairs) == [
            (4, 2), (4, 3), (4, 4), (4, 5), (4, 6), (8, 2), (8, 4),
            (9, 2), (9, 3), (16, 2), (16, 3),
        ]
        for st in pairs.values():
            tw = st.tower
            F, E = tw.base, tw.ext
            roots = [x for x in range(E.q) if poly_eval(E, F.modulus, x) == 0]
            rho = min(roots, key=E.coords)
            assert len(roots) == F.m and tw.embed(F.p) == rho, st
            for a in range(F.q):
                image = 0
                for i, c in enumerate(F.coords(a)):
                    image = E.add(image, E.mul(c, E.pow(rho, i)))
                assert tw.embed(a) == image, (st, a)

    @pytest.mark.parametrize("p, m", [(2, 8), (3, 4), (17, 2), (13, 1)])
    def test_powers_match_scalar_loop(self, p, m):
        """The table of z's powers, across the scalar prefix, the doubling
        rounds and the 4096-entry cap, against one multiply per entry."""
        F = make_field(p, m)
        for z in (F.primitive, F.q - 1):
            expected = [1]
            for _ in range(8192):
                expected.append(F.mul(expected[-1], z))
            for count in (1, 2, 15, 16, 17, 4096, 4097, 8193):
                assert gf._powers(F, z, count) == expected[:count], (p, m, z, count)

    @pytest.mark.parametrize(
        "args", [(256, 257, 1), (343, 344, 1), (289, 290, 26)],
        ids=["GF(2^16)", "GF(7^6)", "GF(17^4)"],
    )
    def test_big_field_roots_and_embedding(self, args):
        """The root search finds exactly the Frobenius orbit of rho, the
        image of X; the embedding adds and multiplies on sampled pairs."""
        tw = make_setting(*args).tower
        F, E = tw.base, tw.ext
        assert tw.d == 2 and F.m > 1
        rho = tw.embed(F.p)
        orbit = [rho]
        for _ in range(F.m - 1):
            orbit.append(E.pow(orbit[-1], F.p))
        roots = gf._base_modulus_roots(F, E)
        assert sorted(roots) == sorted(orbit) and len(set(orbit)) == F.m
        assert rho == min(roots, key=E.coords)
        assert all(poly_eval(E, F.modulus, x) == 0 for x in roots)
        rng = random.Random(41)
        for _ in range(500):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert tw.embed(F.mul(a, b)) == E.mul(tw.embed(a), tw.embed(b)), (args, a, b)
            assert tw.embed(F.add(a, b)) == E.add(tw.embed(a), tw.embed(b)), (args, a, b)

    def test_tower_tables_are_packed_products(self, monkeypatch):
        """The mds --q 289 tower (9,280 powers of zeta in GF(17^4)) builds
        its tables in packed products of at most 4096 entries and a few
        scalar multiplies, once the extension's primitive is known."""
        st = make_setting(289, 290, 26)
        expected = st.tower
        assert expected.ext.primitive and expected.nr == 9280
        sizes, muls = [], []
        poly_mul, mul = gf._poly_mul, gf.FieldSpec.mul

        def spy(F, a, b):
            sizes.append(max(len(a), len(b)))
            return poly_mul(F, a, b)

        def counted(self, a, b):
            muls.append(a)
            return mul(self, a, b)

        monkeypatch.setattr(gf, "_poly_mul", spy)
        monkeypatch.setattr(gf.FieldSpec, "mul", counted)
        tw = gf.build_tower(st)
        assert tw.theta_pows == expected.theta_pows
        assert tw._embed_table == expected._embed_table
        assert sizes and max(sizes) <= 4096
        assert len(muls) < 1000

    def test_theta_order_read_from_table(self, monkeypatch):
        """The tower's order check makes no has_order call: theta**nr and
        each theta**(nr/ell) come from theta_pows."""
        calls = []
        has_order = gf.FieldSpec.has_order

        def spy(self, a, r):
            calls.append((self, a, r))
            return has_order(self, a, r)

        for args in [(13, 14, 5), (4, 21, 2), (289, 290, 26), (5, 1, 1)]:
            st = make_setting(*args)
            expected = st.tower  # the extension's primitive is now known
            monkeypatch.setattr(gf.FieldSpec, "has_order", spy)
            assert gf.build_tower(st).theta_pows == expected.theta_pows
            monkeypatch.undo()
            assert calls == [], args

    @pytest.mark.parametrize("ell", [2, 7])
    def test_wrong_order_table_raises(self, monkeypatch, ell):
        """A table of zeta's powers whose entry at nr/ell is 1: zeta**ell
        in place of zeta, for the cyclic (13, 14, 1), where every unit k
        is admissible."""
        st = make_setting(13, 14, 1)
        st.tower
        powers = gf._powers

        def wrong(F, z, count):
            return powers(F, F.pow(z, ell) if count == st.nr else z, count)

        monkeypatch.setattr(gf, "_powers", wrong)
        with pytest.raises(Internal, match="chosen root of unity has the wrong order"):
            gf.build_tower(st)

    def test_project_inverts_embed(self):
        tw = make_setting(9, 8, 2).tower
        for a in range(tw.base.q):
            assert tw.project(tw.embed(a)) == a

    @pytest.mark.parametrize(
        "args", [(5, 6, 2), (9, 4, 1)], ids=["prime-base", "degree-1"]
    )
    def test_identity_embedding(self, args):
        tw = make_setting(*args).tower
        assert tw.base.m == 1 or tw.d == 1
        for a in range(tw.base.q):
            assert tw.embed(a) == a
        for x in range(tw.ext.q):
            assert tw.project(x) == (x if x < tw.base.q else None)


class TestPolyFromRootSet:
    def test_golden_f5(self):
        st = make_setting(5, 6, 2)
        f = poly_from_root_set(st.tower, (9, 21))
        assert poly_to_text(f) == "2 0 1"  # X^2 - 3

    def test_golden_f4(self):
        st = make_setting(4, 21, 2)
        f = poly_from_root_set(st.tower, (7, 28, 49))
        assert f == poly_x_pow_minus(st.field, 3, st.lam)

    def test_empty_set(self):
        st = make_setting(5, 6, 2)
        assert poly_from_root_set(st.tower, ()) == poly_one(st.field)

    def test_not_invariant(self):
        st = make_setting(5, 6, 2)
        with pytest.raises(NotInvariant):
            poly_from_root_set(st.tower, (1,))  # 5*1 = 5 missing
        with pytest.raises(NotInvariant):
            # the coset {1, 5} is closed; the walk from 9 leaves at 5*9 = 21
            poly_from_root_set(st.tower, (1, 5, 9))

    def test_complement_product_identity(self, tower_friendly):
        rng = random.Random(17)
        from conftest import random_invariant_set

        for st in rng.sample(tower_friendly, 25):
            s = random_invariant_set(rng, st)
            f = poly_from_root_set(st.tower, s)
            g = poly_from_root_set(st.tower, s.complement())
            assert f * g == st.binomial(1)
            assert f.degree == len(s.elems)

    def test_matches_whole_set_reference(self, tower_friendly):
        """The product of cached coset polynomials equals the whole-set
        expansion for a random q-closed set and its complement, every
        coset and the whole ambient set, at t = 1 and one other unit t."""
        from conftest import random_invariant_set

        rng = random.Random(29)
        for st in tower_friendly:
            tw = st.tower
            units = [t for t in range(2, st.nr) if math.gcd(t, st.nr) == 1]
            for t in [1] + rng.sample(units, min(1, len(units))):
                s = random_invariant_set(rng, st, t)
                cases = [s, s.complement(), st.p_set(t), *cosets(st, t)]
                for elems in cases:
                    expected = poly_from_root_set_reference(tw, elems)
                    got = poly_from_root_set(tw, elems).coeffs
                    assert got == expected, (st, t, elems)

    def test_cache_filled_from_sp_first(self):
        """A fresh tower asked for sP before P gives the reference polynomials."""
        for args in [(13, 14, 5), (4, 21, 2), (3, 13, 1), (9, 20, 2)]:
            st = make_setting(*args)
            tw = gf.build_tower(st)
            assert not tw._min_polys
            sp = construct_type2(st)
            parts = [sp.sp, sp.p, p0_set(st, sp.t)]
            polys = [poly_from_root_set(tw, part) for part in parts]
            for part, f in zip(parts, polys):
                assert f.coeffs == poly_from_root_set_reference(tw, part), (args, part)
            assert polys[0] * polys[1] * polys[2] == st.binomial(sp.t)

    def test_coset_polys_irreducible(self):
        for args in [(5, 6, 2), (13, 14, 5), (4, 21, 2), (2, 7, 1), (3, 10, 2)]:
            st = make_setting(*args)
            for coset in cosets(st):
                f = poly_from_root_set(st.tower, coset)
                if f.degree <= 6:
                    assert is_irreducible(f), (args, coset)
