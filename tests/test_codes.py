import itertools
import math
import random

import pytest

from constacyclic import (
    ConstaCode,
    IndexSet,
    Poly,
    annihilator,
    apply_isometry,
    distance_lower_bound,
    dual,
    isometry,
    make_setting,
    min_distance,
    poly_to_text,
)
from constacyclic.codes import INFINITY
from constacyclic.errors import NonUnit, NotInvariant, TooLarge

import oracles
from conftest import random_invariant_set


@pytest.fixture(scope="module")
def st5():
    return make_setting(5, 6, 2)


@pytest.fixture(scope="module")
def st13():
    return make_setting(13, 14, 5)


def all_codewords(code):
    st = code.setting
    gens = oracles.spanning_words(code)
    F = st.field
    for coeffs in itertools.product(range(st.q), repeat=len(gens)):
        acc = [0] * st.n
        for co, g in zip(coeffs, gens):
            if co:
                for i in range(st.n):
                    acc[i] = F.add(acc[i], F.mul(co, g[i]))
        yield tuple(acc)


class TestSettings:
    def test_derived_constants(self, st5, st13):
        assert (st5.r, st5.nr, st5.n_r, st5.n_r_prime) == (4, 24, 2, 3)
        assert (st13.r, st13.nr, st13.n_r, st13.n_r_prime) == (4, 56, 2, 7)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            make_setting(5, 10, 2)

    def test_rejects_zero_lambda(self):
        with pytest.raises(ValueError):
            make_setting(5, 6, 0)

    def test_modulus_cap_before_factoring(self, monkeypatch):
        from constacyclic import codes

        assert make_setting(3, 1 << 31, 1).nr == 1 << 31

        def no_factoring(n):
            raise AssertionError(f"factorized {n}")

        monkeypatch.setattr(codes, "factorize", no_factoring)
        # n*r just above 2^31 with r = 1 and r = 2, and a huge prime n
        for q, n, lam in [(3, 2147483659, 1), (5, 1073741827, 4), (3, 2**61 - 1, 1)]:
            with pytest.raises(TooLarge):
                make_setting(q, n, lam)

    def test_p_set(self, st5):
        assert st5.p_set(1) == (1, 5, 9, 13, 17, 21)
        assert st5.p_set(13) == (1, 5, 9, 13, 17, 21)
        assert st5.p_set(-1) == (3, 7, 11, 15, 19, 23)


class TestIndexSet:
    def test_validation(self, st5):
        with pytest.raises(ValueError):
            IndexSet(st5, 1, (2,))  # wrong congruence class
        with pytest.raises(NotInvariant):
            IndexSet(st5, 1, (1,))  # not closed under 5
        with pytest.raises(NonUnit):
            IndexSet(st5, 2, (2,))

    def test_scale_and_complement(self, st5):
        s = IndexSet(st5, 1, (9, 21))
        assert s.complement().elems == (1, 5, 13, 17)
        assert s.scale(13).elems == (9, 21)
        assert s.scale(13).t == 13
        assert s.negate().elems == (3, 15)
        assert s.negate().t == 23


class TestCodeConstruction:
    def test_dim_two_code(self, st5):
        code = ConstaCode(IndexSet(st5, 1, (1, 5)))
        assert code.dim == 2
        # which of the two quadratics shows up depends only on the fixed
        # theta; the product identity holds either way
        assert poly_to_text(code.check_poly) in {"2 1 1", "2 4 1"}
        assert code.check_poly * code.gen_poly == st5.binomial(1)

    def test_zero_code(self, st5):
        code = ConstaCode(IndexSet(st5, 1, ()))
        assert code.dim == 0
        assert code.gen_poly == st5.binomial(1)

    def test_whole_algebra(self, st5):
        code = ConstaCode(IndexSet(st5, 1, st5.p_set(1)))
        assert code.dim == st5.n
        assert poly_to_text(code.gen_poly) == "1"

    def test_polys_match_root_set_expansion(self, tower_friendly):
        """Whichever side is expanded, both polynomials equal their expansions."""
        from constacyclic import poly_from_root_set

        rng = random.Random(31)
        sides = set()
        for st in rng.sample(tower_friendly, 40):
            units = [u for u in range(1, st.nr) if math.gcd(u, st.nr) == 1] or [1]
            t = rng.choice(units)
            s = random_invariant_set(rng, st, t)
            for check in (s, s.complement()):
                code = ConstaCode(check)
                rest = check.complement()
                sides.add(len(check.elems) < len(rest.elems))
                assert code.check_poly == poly_from_root_set(st.tower, check)
                assert code.gen_poly == poly_from_root_set(st.tower, rest)
                assert code.check_poly * code.gen_poly == st.binomial(t)
        assert sides == {True, False}

    def test_lattice_inclusion(self, tower_friendly):
        rng = random.Random(23)
        for st in rng.sample(tower_friendly, 12):
            small = random_invariant_set(rng, st)
            extra = random_invariant_set(rng, st)
            big = small.union(extra)
            inner, outer = ConstaCode(small), ConstaCode(big)
            # code inclusion == generator divisibility, both directions
            assert outer.gen_poly.divides(inner.gen_poly)
            if set(big.elems) != set(small.elems):
                assert not inner.gen_poly.divides(outer.gen_poly)


class TestContains:
    """Membership by division in the oracles, on the library's codes."""

    def test_generator_and_zero(self, st5):
        code = ConstaCode(IndexSet(st5, 1, (1, 5)))
        g = oracles.spanning_words(code)[0]
        assert oracles.contains(code, g)
        assert oracles.contains(code, (0,) * 6)
        assert not oracles.contains(code, (1, 0, 0, 0, 0, 0))

    def test_shift_stays_inside(self, st5):
        code = ConstaCode(IndexSet(st5, 1, (1, 5)))
        g = oracles.spanning_words(code)[0]
        shifted = oracles.ring_mul(st5, 1, (0, 1, 0, 0, 0, 0), g)
        assert oracles.contains(code, shifted)

    def test_setting_mismatch(self, st5):
        code = ConstaCode(IndexSet(st5, 1, (1, 5)))
        with pytest.raises(ValueError):
            oracles.contains(code, (0,) * 14)


class TestIsometry:
    def test_identity(self, st5):
        iso = isometry(st5, 1)
        assert iso.perm == tuple(range(6))
        assert iso.scalars == (1,) * 6

    def test_minus_one_formula(self, st5):
        iso = isometry(st5, -1)
        a = (1, 2, 3, 4, 0, 1)
        # a0 + lam*a5 X + lam*a4 X^2 + ...
        expect = (1, 2 * 1 % 5, 2 * 0 % 5, 2 * 4 % 5, 2 * 3 % 5, 2 * 2 % 5)
        assert iso.apply_word(a) == expect

    def test_phi13_golden(self, st5):
        iso = isometry(st5, 13)
        image = iso.apply_word((2, 1, 1, 0, 0, 0))
        assert poly_to_text(Poly(st5.field, image)) == "2 4 1"

    def test_inverse_choice_irrelevant(self, st13):
        iso = isometry(st13, 29)
        tbar2 = iso.tbar + st13.nr
        perm2 = tuple((tbar2 * i) % st13.n for i in range(st13.n))
        qs2 = tuple((tbar2 * i) // st13.n for i in range(st13.n))
        scal2 = tuple(st13.lam_power(29 * qi) for qi in qs2)
        assert perm2 == iso.perm
        assert scal2 == iso.scalars

    def test_nonunit_rejected(self, st5):
        with pytest.raises(NonUnit):
            isometry(st5, 2)

    def test_algebra_isomorphism_sampled(self, tower_friendly):
        rng = random.Random(31)
        pool = [st for st in tower_friendly if st.n <= 18]
        for st in rng.sample(pool, 6):
            units = [t for t in range(1, st.nr) if math.gcd(t, st.nr) == 1]
            t = rng.choice(units)
            iso = isometry(st, t)
            for _ in range(50):
                a = tuple(rng.randrange(st.q) for _ in range(st.n))
                b = tuple(rng.randrange(st.q) for _ in range(st.n))
                left = iso.apply_word(oracles.ring_mul(st, 1, a, b))
                right = oracles.ring_mul(st, t, iso.apply_word(a), iso.apply_word(b))
                assert left == right
                add = tuple(st.field.add(x, y) for x, y in zip(a, b))
                assert iso.apply_word(add) == tuple(
                    st.field.add(x, y)
                    for x, y in zip(iso.apply_word(a), iso.apply_word(b))
                )

    def test_weight_preserved(self, st13):
        rng = random.Random(37)
        iso = isometry(st13, 29)
        for _ in range(100):
            a = tuple(rng.randrange(13) for _ in range(14))
            assert oracles.weight(iso.apply_word(a)) == oracles.weight(a)

    def test_monomial_map_is_the_substitution_map(self, tower_friendly):
        # oracle: substitute X -> X**tbar term by term and reduce with
        # X**n = lambda**t
        def substitute(st, t, coords):
            F = st.field
            tbar = pow(t, -1, st.nr)
            lam_t = st.lam_power(t)
            out = [0] * st.n
            for i, c in enumerate(coords):
                k, pos = divmod(tbar * i, st.n)
                out[pos] = F.add(out[pos], F.mul(c, F.pow(lam_t, k)))
            return tuple(out)

        rng = random.Random(53)
        for st in rng.sample([s for s in tower_friendly if s.n <= 16], 8):
            units = [t for t in range(1, st.nr) if math.gcd(t, st.nr) == 1]
            t = rng.choice(units)
            iso = isometry(st, t)
            for _ in range(20):
                a = tuple(rng.randrange(st.q) for _ in range(st.n))
                assert iso.apply_word(a) == substitute(st, t, a)


class TestApplyIsometry:
    def test_identity(self, st5):
        code = ConstaCode(IndexSet(st5, 1, (1, 5)))
        assert apply_isometry(isometry(st5, 1), code) == code

    def test_golden_multiplier_29(self, st13):
        code = ConstaCode(IndexSet(st13, 1, (25, 29, 33, 37, 41, 45)))
        image = apply_isometry(isometry(st13, 29), code)
        assert image.check.elems == (1, 5, 9, 13, 17, 53)

    def test_round_trip(self, st13):
        code = ConstaCode(IndexSet(st13, 1, (5, 9, 21, 49)))
        t = 29
        tbar = pow(t, -1, st13.nr)
        back = apply_isometry(
            isometry(st13, tbar), apply_isometry(isometry(st13, t), code)
        )
        assert back == code

    def test_check_set_image_matches_word_image(self, st5):
        # the monomial map of the words spans exactly the image code
        code = ConstaCode(IndexSet(st5, 1, (1, 5)))
        iso = isometry(st5, 13)
        image = apply_isometry(iso, code)
        for w in oracles.spanning_words(code):
            assert oracles.contains(image, iso.apply_word(w))


class TestAnnihilatorAndDual:
    def test_annihilator_golden(self, st5):
        code = ConstaCode(IndexSet(st5, 1, (9, 21)))
        ann = annihilator(code)
        assert ann.check.elems == (1, 5, 13, 17)
        assert annihilator(ann) == code

    def test_annihilator_products_vanish(self, st5):
        code = ConstaCode(IndexSet(st5, 1, (9, 21)))
        ann = annihilator(code)
        for a in oracles.spanning_words(code):
            for b in oracles.spanning_words(ann):
                assert oracles.ring_mul(st5, 1, a, b) == (0,) * 6

    def test_annihilator_of_zero(self, st5):
        zero = ConstaCode(IndexSet(st5, 1, ()))
        assert annihilator(zero).dim == st5.n

    def test_dual_golden(self, st5):
        code = ConstaCode(IndexSet(st5, 1, (9, 21)))
        d = dual(code)
        assert d.check.elems == (7, 11, 19, 23)
        assert d.t == 23
        assert code.dim + d.dim == st5.n

    def test_dual_extremes(self, st5):
        whole = ConstaCode(IndexSet(st5, 1, st5.p_set(1)))
        assert dual(whole).dim == 0
        zero = ConstaCode(IndexSet(st5, 1, ()))
        assert dual(zero).dim == st5.n

    def test_dual_all_pairs_orthogonal(self, st5):
        # exhaustive: 25 codewords against all 625 dual words
        code = ConstaCode(IndexSet(st5, 1, (9, 21)))
        d = dual(code)
        for a in all_codewords(code):
            for b in all_codewords(d):
                assert oracles.inner_product(st5.field, a, b) == 0

    def test_double_dual(self, tower_friendly):
        rng = random.Random(41)
        for st in rng.sample(tower_friendly, 10):
            code = ConstaCode(random_invariant_set(rng, st))
            assert dual(dual(code)) == code

    def test_self_orthogonality_characterization(self, sweep):
        # over every small setting, a nonzero code is orthogonal to itself
        # exactly when lambda is +-1 and the check set misses its negation
        checked = 0
        for st in sweep:
            if st.nr > 40 or len(st.cosets(1).cosets) > 10:
                continue
            try:
                st.tower
            except TooLarge:
                continue
            cosets = st.cosets(1).cosets
            for mask in range(1, 1 << len(cosets)):
                elems = tuple(
                    x
                    for i, coset in enumerate(cosets)
                    if mask >> i & 1
                    for x in coset
                )
                code = ConstaCode(IndexSet(st, 1, elems))
                p = set(elems)
                predicted = st.r <= 2 and not (p & {(-x) % st.nr for x in p})
                ws = oracles.spanning_words(code)
                actual = all(
                    oracles.inner_product(st.field, a, b) == 0
                    for a in ws
                    for b in ws
                )
                assert actual == predicted, (st, elems)
                checked += 1
        assert checked > 1000


class TestDistance:
    def test_golden_14_6_9(self, st13):
        code = ConstaCode(IndexSet(st13, 1, (25, 29, 33, 37, 41, 45)))
        assert min_distance(code) == 9

    def test_zero_code_infinite(self, st5):
        assert min_distance(ConstaCode(IndexSet(st5, 1, ()))) == INFINITY

    def test_monomial_weight(self, st5):
        assert oracles.weight((0, 0, 3, 0, 0, 0)) == 1

    def test_matches_bruteforce(self, tower_friendly):
        rng = random.Random(43)
        checked = 0
        for st in tower_friendly:
            if st.q > 9:
                continue
            code = ConstaCode(random_invariant_set(rng, st))
            if not 0 < code.dim or st.q**code.dim > 3000:
                continue
            assert min_distance(code) == oracles.min_distance_bruteforce(code)
            checked += 1
            if checked >= 25:
                break
        assert checked >= 10

    @pytest.mark.parametrize("block", [4, 16])
    def test_split_enumeration_matches_bruteforce(
        self, tower_friendly, monkeypatch, block
    ):
        """A small block leaves several high rows, in several chunks."""
        from constacyclic import codes

        monkeypatch.setattr(codes, "_BLOCK", block)
        rng = random.Random(47 + block)
        qs = (2, 3, 4, 5, 7, 8, 9)
        checked = dict.fromkeys(qs, 0)
        for st in tower_friendly:
            if st.q not in qs or checked[st.q] >= 4:
                continue
            code = ConstaCode(random_invariant_set(rng, st))
            k = code.dim
            # q^(k-1) > block puts the low table below k - 1 rows
            if k < 3 or st.q ** (k - 1) <= block or st.q**k > 3000:
                continue
            assert min_distance(code) == oracles.min_distance_bruteforce(code)
            checked[st.q] += 1
        assert all(checked.values()), checked

    @pytest.mark.parametrize("block", [4, 16])
    def test_split_enumeration_on_random_generators(self, monkeypatch, block):
        """Rows X^j g for a g that need not divide X^n - lambda.

        Their span is not closed under shifts, so a message the scan
        missed is not made up for by a shifted word of the same weight.
        """
        from constacyclic import codes

        monkeypatch.setattr(codes, "_BLOCK", block)
        rng = random.Random(53 + block)
        for q in (2, 3, 4, 5, 7, 8, 9):
            ks = [k for k in range(3, 11) if q ** (k - 1) > block and q**k <= 1000]
            for _ in range(3):
                k = rng.choice(ks)
                n = k + rng.randint(1, 8)
                while math.gcd(n, q) != 1:
                    n += 1
                st = make_setting(q, n, 1)
                inner = tuple(rng.randrange(q) for _ in range(n - k - 1))
                g = (rng.randrange(1, q), *inner, rng.randrange(1, q))
                rows = [(0,) * j + g + (0,) * (k - 1 - j) for j in range(k)]
                want = oracles.min_weight_bruteforce(st.field, rows)
                assert codes._min_distance_np(st, g, k) == want

    @pytest.mark.parametrize(
        "q, n, lam, check, d",
        [
            (13, 14, "5", (25, 29, 33, 37, 41, 45), 9),
            (7, 20, "6", (1, 3, 7, 9, 21, 23, 27, 29), 6),
            (3, 26, "2", (1, 3, 5, 9, 15, 19, 27, 29, 31, 35, 41, 45), 6),
            (4, 21, "1 0", (1, 2, 3, 4, 6, 7, 8, 11, 12, 16), 8),
            (16, 13, "0 1 0 1", (1, 7, 16, 22, 34, 37), 6),
            (9, 14, "0 1", (1, 5, 9, 13, 25, 45), 6),
            (5, 24, "2", (1, 5, 25, 29, 49, 53, 73, 77), 5),
        ],
    )
    def test_distance_workload_codes(self, q, n, lam, check, d):
        st = make_setting(q, n, lam)
        assert min_distance(ConstaCode(IndexSet(st, 1, check))) == d

    def test_too_large(self):
        st = make_setting(17, 18, 16)
        big = ConstaCode(IndexSet(st, 1, st.p_set(1)))
        with pytest.raises(TooLarge):
            min_distance(big)

    def test_lower_bound(self):
        st = make_setting(4, 21, 2)
        code = ConstaCode(
            IndexSet(st, 1, (22, 25, 31, 37, 43, 46, 55, 58, 61))
        )
        # defining set holds seven consecutive progression points
        assert distance_lower_bound(code) == 8
        assert min_distance(code) >= 8


class TestInnerProduct:
    def test_zero_partner(self, st5):
        a = (1, 2, 3, 4, 0, 1)
        assert oracles.inner_product(st5.field, a, (0,) * 6) == 0
        assert oracles.inner_product(st5.field, a, a) == (1 + 4 + 9 + 16 + 1) % 5

    def test_mismatch(self, st5):
        with pytest.raises(ValueError):
            oracles.inner_product(st5.field, (0,) * 6, (0,) * 14)
