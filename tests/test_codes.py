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
from constacyclic.errors import NonUnit, NotInvariant, SettingMismatch, TooLarge

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

    def test_lambda_is_a_label(self):
        st = make_setting(4, 5, "0 1")
        assert st is make_setting(4, 5, "0,1")
        assert st is make_setting(4, 5, 2)
        assert type(st.lam) is int and st.lam == 2
        # a float is refused, not truncated, as the text "5.9" is
        with pytest.raises(TypeError):
            make_setting(13, 14, 5.9)

    def test_float_q_and_n_refused(self):
        """A float q or n is refused and never cached: (13, 14.0, 5) once
        took the cache entry of (13, 14, 5), whose n then stayed 14.0."""
        from constacyclic import exists_type2, gf

        for q, n in [(13, 14.0), (13, 14.5), (13.0, 14)]:
            with pytest.raises(TypeError):
                make_setting(q, n, 5)
        with pytest.raises(TypeError):
            gf.field_for_order(13.0)
        st = make_setting(13, 14, 5)
        assert type(st.n) is int and type(st.nr) is int
        assert exists_type2(st).exists

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
        assert s.scale(-1).elems == (3, 15)
        assert s.scale(-1).t == 23

    def test_equal_sets_hash_alike(self, st13):
        """Exponents 1 and 5 agree mod r = 4: one set, one code."""
        P = (25, 29, 33, 37, 41, 45)
        a, b = IndexSet(st13, 1, P), IndexSet(st13, 5, P)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        ca, cb = ConstaCode(a), ConstaCode(b)
        assert ca == cb and hash(ca) == hash(cb) and len({ca, cb}) == 1


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

    def test_smaller_check_set_builds_no_complement(self, st5, monkeypatch):
        """The complement is built only when it is the side expanded."""
        built = []
        real = IndexSet.complement

        def spy(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(IndexSet, "complement", spy)
        small = ConstaCode(IndexSet(st5, 1, (1, 5)))
        assert small.check_poly * small.gen_poly == st5.binomial(1)
        assert built == []
        big = ConstaCode(IndexSet(st5, 1, (1, 5, 13, 17)))
        assert big.check_poly * big.gen_poly == st5.binomial(1)
        assert built == [big.check]

    def test_lattice_inclusion(self, tower_friendly):
        rng = random.Random(23)
        for st in rng.sample(tower_friendly, 12):
            small = random_invariant_set(rng, st)
            extra = random_invariant_set(rng, st)
            big = IndexSet(st, small.t, small.elems + extra.elems)
            inner, outer = ConstaCode(small), ConstaCode(big)
            # code inclusion == generator divisibility, both directions
            assert divmod(inner.gen_poly, outer.gen_poly)[1].is_zero
            if set(big.elems) != set(small.elems):
                assert not divmod(outer.gen_poly, inner.gen_poly)[1].is_zero


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
        assert iso.scalars_for(1) == (1,) * 6

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
        assert scal2 == iso.scalars_for(1)

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

    def test_refuses_a_code_of_another_setting(self, st5, st13):
        code = ConstaCode(IndexSet(st13, 1, (25, 29, 33, 37, 41, 45)))
        with pytest.raises(SettingMismatch, match="different settings"):
            apply_isometry(isometry(st5, 1), code)

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
        # exactly when lambda is +-1 and the check set misses its negation.
        # The spanning words X^i g (i < k) are shifts of g that do not wrap,
        # so the pair (i, j) has inner product sum_a g_a g_{a+|i-j|}: the k
        # lag correlations of g decide all k^2 pairs.
        checked = 0
        for st in sweep:
            cosets = oracles.cosets(st)
            if st.nr > 40 or len(cosets) > 10:
                continue
            try:
                st.tower
            except TooLarge:
                continue
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
                g = code.gen_poly.coeffs
                actual = all(
                    oracles.inner_product(st.field, g[: len(g) - lag], g[lag:]) == 0
                    for lag in range(code.dim)
                )
                assert actual == predicted, (st, elems)
                checked += 1
        assert checked > 1000


# (q, n, lambda, check set, d) of the seven `code --distance` benchmark ops
DISTANCE_WORKLOAD_CODES = [
    (13, 14, "5", (25, 29, 33, 37, 41, 45), 9),
    (7, 20, "6", (1, 3, 7, 9, 21, 23, 27, 29), 6),
    (3, 26, "2", (1, 3, 5, 9, 15, 19, 27, 29, 31, 35, 41, 45), 6),
    (4, 21, "1 0", (1, 2, 3, 4, 6, 7, 8, 11, 12, 16), 8),
    (16, 13, "0 1 0 1", (1, 7, 16, 22, 34, 37), 6),
    (9, 14, "0 1", (1, 5, 9, 13, 25, 45), 6),
    (5, 24, "2", (1, 5, 25, 29, 49, 53, 73, 77), 5),
]


@pytest.fixture
def scanned(monkeypatch):
    """The leads the distance scan weighs, one list per scan.

    The scan is a generator and weighs lead j + 1 only when asked for
    its next value, so the leads it yields are the leads it weighed.
    """
    from constacyclic import codes

    scan, leads = codes._min_distance_np, []

    def spy(st, g, k):
        leads.append([])
        for lead, best in enumerate(scan(st, g, k)):
            leads[-1].append(lead)
            yield best

    monkeypatch.setattr(codes, "_min_distance_np", spy)
    return leads


def shift_bound(n: int, k: int, d: int) -> int:
    """Highest lead a word of weight d needs: k - 1 - ceil((n - d)/d)."""
    return k - 1 - -(-(n - d) // d)


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
                assert list(codes._min_distance_np(st, g, k))[-1] == want

    @pytest.mark.parametrize("q, n, lam, check, d", DISTANCE_WORKLOAD_CODES)
    def test_distance_workload_codes(self, q, n, lam, check, d):
        st = make_setting(q, n, lam)
        assert min_distance(ConstaCode(IndexSet(st, 1, check))) == d

    @pytest.mark.parametrize("block", [4, 16])
    def test_cut_scan_matches_bruteforce(
        self, tower_friendly, monkeypatch, scanned, block
    ):
        """The cut scan stops both below the low table's lead a, while the
        table is still being built, and among the high leads."""
        from constacyclic import codes

        monkeypatch.setattr(codes, "_BLOCK", block)
        rng = random.Random(61 + block)
        qs = (2, 3, 4, 5, 7, 9)
        checked = dict.fromkeys(qs, 0)
        stops = set()
        for st in tower_friendly:
            if st.q not in qs or checked[st.q] >= 4:
                continue
            code = ConstaCode(random_invariant_set(rng, st))
            k = code.dim
            if k < 3 or st.q**k > 3000:
                continue
            assert min_distance(code) == oracles.min_distance_bruteforce(code)
            checked[st.q] += 1
            last = scanned[-1][-1]
            a = max(a for a in range(k) if st.q**a <= block)
            if last < k - 1:
                stops.add("low" if last < a else "high")
        assert all(checked.values()), checked
        assert stops == {"low", "high"}

    def test_cut_scan_edge_cases(self, scanned):
        """k = n stops after lead 0 (d = 1); a zero code scans nothing,
        next to a k >= 3 code of the same setting."""
        st = make_setting(2, 7, 1)
        whole = ConstaCode(IndexSet(st, 1, st.p_set(1)))
        assert whole.dim == 7
        assert min_distance(whole) == 1 == oracles.min_distance_bruteforce(whole)
        assert scanned == [[0]]
        assert min_distance(ConstaCode(IndexSet(st, 1, ()))) == INFINITY
        assert len(scanned) == 1
        code = ConstaCode(IndexSet(st, 1, (0, 1, 2, 4)))
        assert code.dim == 4
        assert min_distance(code) == oracles.min_distance_bruteforce(code) == 3
        assert len(scanned) == 2

    @pytest.mark.parametrize("q, n, lam, check, d", DISTANCE_WORKLOAD_CODES)
    def test_scan_stops_at_the_shift_bound(self, scanned, q, n, lam, check, d):
        """A minimum-weight word has a shift led at most shift_bound, so
        the scan never weighs a lead above it: GF(16) [13, 6, 6] weighs
        at most leads 0..3 of 0..5, and GF(5) [24, 8, 5] 0..3 of 0..7."""
        code = ConstaCode(IndexSet(make_setting(q, n, lam), 1, check))
        assert min_distance(code) == d
        [leads] = scanned
        assert leads == list(range(len(leads)))
        assert leads[-1] <= shift_bound(n, code.dim, d) < code.dim - 1

    def test_mds_q13_scan_stops_at_the_shift_bound(self, scanned):
        """Both even-like [14, 6, 9] codes of mds --q 13 stop by lead 4."""
        from constacyclic import grs_plan, grs_splitting

        for code in grs_splitting(grs_plan(13)).codes():
            assert min_distance(code) == 9
            assert scanned[-1][-1] <= shift_bound(14, code.dim, 9) == 4
        assert len(scanned) == 2

    def test_uncut_scan_weighs_every_lead(self):
        """Over a g that does not divide X^n - lambda the scan gives k
        running minima, never rising, the last the least weight."""
        from constacyclic import codes

        rng = random.Random(67)
        st = make_setting(3, 11, 1)
        k = 4
        g = (1, *(rng.randrange(3) for _ in range(6)), 2)
        rows = [(0,) * j + g + (0,) * (k - 1 - j) for j in range(k)]
        minima = list(codes._min_distance_np(st, g, k))
        assert len(minima) == k
        assert minima == sorted(minima, reverse=True)
        assert minima[-1] == oracles.min_weight_bruteforce(st.field, rows)

    @pytest.mark.parametrize("q, n, check", [(2, 7, (1, 2, 4)), (3, 13, (1, 3, 9))])
    def test_cap_is_exact(self, monkeypatch, q, n, check):
        """q^k at the cap enumerates and one past it is refused; for
        q = 2 the refusal comes from the bit-length test alone."""
        from constacyclic import codes

        code = ConstaCode(IndexSet(make_setting(q, n, 1), 1, check))
        cap = q**code.dim
        monkeypatch.setattr(codes, "_ENUM_LIMIT", cap)
        assert min_distance(code) == oracles.min_distance_bruteforce(code)
        monkeypatch.setattr(codes, "_ENUM_LIMIT", cap - 1)
        with pytest.raises(TooLarge, match=f"^{q}\\^3 codewords exceed the enumeration cap$"):
            min_distance(code)

    @pytest.mark.parametrize("t", [1, -1])
    def test_closed_form_at_k_le_2_matches_bruteforce(self, tower_friendly, t):
        """d = wt(g) for k <= 2: single cosets of size <= 2 and pairs of
        singleton cosets, against the scan of every nonzero codeword."""
        checks = []
        for st in tower_friendly:
            cosets = oracles.cosets(st, t)
            singles = [c for c in cosets if len(c) == 1]
            checks += [(st, c) for c in cosets if len(c) <= 2]
            checks += [(st, a + b) for a, b in itertools.combinations(singles, 2)]
        sample = random.Random(59 + t).sample(checks, 60)
        assert {len(c) for _, c in sample} == {1, 2}
        for st, elems in sample:
            code = ConstaCode(IndexSet(st, t, tuple(elems)))
            assert min_distance(code) == oracles.min_distance_bruteforce(code)

    @pytest.mark.parametrize(
        "q, n, lam",
        [(2048, 23, " ".join(["1"] + ["0"] * 10)), (1031, 10, "1")],
    )
    def test_above_table_range_matches_monic_scan(self, q, n, lam):
        """k = 2 over fields above 1024, where the closed form wt(g) is
        checked against every monic message, 1 and a + X, multiplied out
        by the schoolbook."""
        code = ConstaCode(IndexSet(make_setting(q, n, lam), 1, (1, 2)))
        assert code.dim == 2
        F, g = code.setting.field, code.gen_poly.coeffs
        messages = [(1,)] + [(a, 1) for a in range(q)]
        want = min(oracles.weight(oracles.poly_mul_reference(F, m, g)) for m in messages)
        assert min_distance(code) == want

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

    def test_lower_bound_of_zero_code(self, st5):
        """Every member of P is a root, so the run covers all n."""
        assert distance_lower_bound(ConstaCode(IndexSet(st5, 1, ()))) == 7

    def test_lower_bound_above_witness_cap(self):
        """The bound reads the check set's gaps and never lists P, so it
        is not refused where P would be too long to list."""
        from constacyclic.codes import MAX_WITNESS_LENGTH

        st = make_setting(2, 2 * MAX_WITNESS_LENGTH + 1, 1)
        assert distance_lower_bound(ConstaCode(IndexSet(st, 1, (0,)))) == st.n

    @pytest.mark.parametrize("t", [1, -1])
    def test_lower_bound_matches_reference(self, sweep_verdicts, t):
        """The witness pair of every sweep setting, and a random code."""
        rng = random.Random(71 + t)
        checked = 0
        for st, v in sweep_verdicts:
            found = [random_invariant_set(rng, st, t)]
            if v.exists and t == 1:
                found += [c.check for c in v.witness.codes()]
            for check in found:
                code = ConstaCode(check)
                assert distance_lower_bound(code) == (
                    oracles.consecutive_root_bound_reference(code)
                ), (st, check)
                checked += 1
        assert checked >= len(sweep_verdicts) > 500


class TestInnerProduct:
    def test_zero_partner(self, st5):
        a = (1, 2, 3, 4, 0, 1)
        assert oracles.inner_product(st5.field, a, (0,) * 6) == 0
        assert oracles.inner_product(st5.field, a, a) == (1 + 4 + 9 + 16 + 1) % 5

    def test_mismatch(self, st5):
        with pytest.raises(ValueError):
            oracles.inner_product(st5.field, (0,) * 6, (0,) * 14)
