import itertools
import math
import random

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
from constacyclic.arith import _mult_order
from constacyclic.errors import DivideByZero, NotInvariant, NotPrime, TooLarge
from constacyclic.gf import poly_one, poly_x_pow_minus

from oracles import least_irreducible_reference, poly_from_root_set_reference


def all_monic(field, degree):
    for cs in itertools.product(range(field.q), repeat=degree):
        yield Poly(field, cs + (1,))


def is_irreducible(poly):
    """Factor search up to half the degree; fine for desk degrees."""
    F = poly.field
    for d in range(1, poly.degree // 2 + 1):
        for cand in all_monic(F, d):
            if cand.divides(poly):
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

    def test_rejects_bad_input(self):
        with pytest.raises(NotPrime):
            make_field(6, 1)
        with pytest.raises(TooLarge):
            make_field(2, 21)

    def test_instances_cached(self):
        assert make_field(3, 2) is make_field(3, 2)

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
    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (13, 1), (5, 2), (2, 4)])
    def test_axioms_sampled(self, p, m):
        F = make_field(p, m)
        rng = random.Random(p * 100 + m)
        for _ in range(500):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == 0
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == 1

    def test_order_of(self):
        F = make_field(13, 1)
        assert F.order_of(5) == 4
        assert F.order_of(1) == 1
        assert F.order_of(2) == 12
        with pytest.raises(DivideByZero):
            F.order_of(0)

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
        assert (poly_x_pow_minus(F, 6, 2) % Poly(F, (2, 1, 1))).is_zero

    def test_divmod(self):
        F = make_field(3, 2)
        rng = random.Random(2)
        for _ in range(100):
            a = Poly(F, tuple(rng.randrange(9) for _ in range(rng.randrange(8))))
            b = Poly(F, tuple(rng.randrange(9) for _ in range(rng.randrange(1, 5))))
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_divide_by_zero(self):
        F = make_field(5, 1)
        with pytest.raises(DivideByZero):
            divmod(poly_one(F), Poly(F, ()))

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
            assert tw.ext.pow(tw.theta, st.n) == tw.embed(st.lam.label)

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
            lam = tw.embed(st.lam.label)
            best = None
            for k in range(nr):
                zk = E.pow(zeta, k)
                if math.gcd(k, nr) == 1 and E.pow(zk, st.n) == lam:
                    if best is None or E.coords(zk) < E.coords(best):
                        best = zk
            assert tw.theta == best, st
            checked += 1
        assert checked > 300

    def test_project_inverts_embed(self):
        tw = make_setting(9, 8, 2).tower
        for a in range(tw.base.q):
            assert tw.project(tw.embed(a)) == a


class TestPolyFromRootSet:
    def test_golden_f5(self):
        st = make_setting(5, 6, 2)
        f = poly_from_root_set(st.tower, (9, 21))
        assert poly_to_text(f) == "2 0 1"  # X^2 - 3

    def test_golden_f4(self):
        st = make_setting(4, 21, 2)
        f = poly_from_root_set(st.tower, (7, 28, 49))
        assert f == poly_x_pow_minus(st.field, 3, st.lam.label)

    def test_empty_set(self):
        st = make_setting(5, 6, 2)
        assert poly_from_root_set(st.tower, ()) == poly_one(st.field)

    def test_not_invariant(self):
        st = make_setting(5, 6, 2)
        with pytest.raises(NotInvariant):
            poly_from_root_set(st.tower, (1,))  # 5*1 = 5 missing

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
                cases = [s, s.complement(), st.p_set(t), *st.cosets(t).cosets]
                for elems in cases:
                    expected = poly_from_root_set_reference(tw, elems)
                    got = poly_from_root_set(tw, elems).coeffs
                    assert got == expected, (st, t, elems)

    def test_cache_filled_from_sp_first(self, monkeypatch):
        """A fresh tower asked for sP before P gives the reference polynomials."""
        monkeypatch.setattr(gf, "_TOWER_CACHE", {})
        for args in [(13, 14, 5), (4, 21, 2), (3, 13, 1), (9, 20, 2)]:
            st = make_setting(*args)
            tw = gf.build_tower(st)
            sp = construct_type2(st)
            parts = [sp.sp, sp.p, p0_set(st, sp.t)]
            polys = [poly_from_root_set(tw, part) for part in parts]
            for part, f in zip(parts, polys):
                assert f.coeffs == poly_from_root_set_reference(tw, part), (args, part)
            assert polys[0] * polys[1] * polys[2] == st.binomial(sp.t)

    def test_coset_polys_irreducible(self):
        for args in [(5, 6, 2), (13, 14, 5), (4, 21, 2), (2, 7, 1), (3, 10, 2)]:
            st = make_setting(*args)
            for coset in st.cosets(1).cosets:
                f = poly_from_root_set(st.tower, coset)
                if f.degree <= 6:
                    assert is_irreducible(f), (args, coset)
