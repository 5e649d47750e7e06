import dataclasses
import math
import random
from types import SimpleNamespace

import pytest

from constacyclic import (
    ConstaCode,
    IndexSet,
    Splitting,
    SplittingKind,
    c0_check_poly,
    certificate,
    construct_type1,
    construct_type2,
    dual,
    even_dual_is_odd,
    exists_type1,
    exists_type2,
    is_iso_orthogonal,
    make_setting,
    max_iso_orthogonal_dim,
    multiplier_group,
    odd_like_pair,
    p0_set,
    poly_from_root_set,
    poly_to_text,
    verify_certificate,
    verify_splitting,
)
from constacyclic.arith import euler_phi
from constacyclic.errors import Internal, NonUnit, NoSplitting, TooLarge

import oracles
from conftest import sweep_settings


@pytest.fixture(scope="module")
def st5():
    return make_setting(5, 6, 2)


@pytest.fixture(scope="module")
def st13():
    return make_setting(13, 14, 5)


@pytest.fixture(scope="module")
def st4():
    return make_setting(4, 21, 2)


def worked_splitting_len14(st13):
    p = (25, 29, 33, 37, 41, 45)
    sp = tuple(sorted((29 * x) % 56 for x in p))
    return Splitting(
        st13,
        1,
        29,
        IndexSet(st13, 1, p),
        IndexSet(st13, 1, sp),
        SplittingKind.TYPE_II,
    )


def worked_splitting_len21(st4):
    p = (1, 4, 10, 13, 16, 19, 34, 40, 52)
    sp = tuple(sorted((55 * x) % 63 for x in p))
    return Splitting(
        st4, 1, 55, IndexSet(st4, 1, p), IndexSet(st4, 1, sp), SplittingKind.TYPE_II
    )


class TestMultiplierGroup:
    def test_golden_sets(self, st5, st4):
        assert multiplier_group(st5) == (1, 5, 13, 17)
        assert 55 in multiplier_group(st4)

    def test_cyclic_case_is_unit_group(self):
        st = make_setting(2, 9, 1)
        units = tuple(x for x in range(9) if math.gcd(x, 9) == 1)
        assert multiplier_group(st) == units

    def test_cardinality(self, sweep):
        for st in sweep[::7]:
            g = multiplier_group(st)
            assert len(g) == st.n_r * euler_phi(st.n_r_prime)


class TestP0:
    def test_goldens(self, st5, st13, st4):
        assert p0_set(st13).elems == (21, 49)
        assert p0_set(st4).elems == (7, 28, 49)
        assert p0_set(st5).elems == (9, 21)

    def test_closed_form_matches_filter(self, sweep):
        for st in sweep:
            units = [t for t in range(st.nr) if math.gcd(t, st.nr) == 1]
            for t in units[:4]:
                want = tuple(x for x in st.p_set(t) if x % st.n_r_prime == 0)
                assert p0_set(st, t).elems == want, (st, t)

    def test_nonunit_exponent_refused(self, st5):
        with pytest.raises(NonUnit):
            p0_set(st5, 2)

    def test_cardinality_and_stability(self, sweep):
        rng = random.Random(3)
        for st in rng.sample(sweep, 60):
            p0 = p0_set(st)
            assert len(p0.elems) == st.n_r
            nr = st.nr
            for s in multiplier_group(st)[:6]:
                assert {(s * x) % nr for x in p0.elems} == set(p0.elems)


class TestC0Poly:
    def test_goldens(self, st5, st4):
        assert poly_to_text(c0_check_poly(st5)) == "2 0 1"
        f = c0_check_poly(st4)
        assert f.coeffs == (st4.lam.label, 0, 0, 1)

    def test_n_r_one_is_linear(self):
        st = make_setting(2, 7, 1)
        assert c0_check_poly(st).degree == 1

    def test_matches_root_product(self, tower_friendly):
        rng = random.Random(7)
        for st in rng.sample(tower_friendly, 20):
            assert c0_check_poly(st) == poly_from_root_set(
                st.tower, p0_set(st)
            )


class TestExistence:
    def test_type1_goldens(self, st13, st4):
        assert not exists_type1(st13)
        assert not exists_type1(st4)
        assert not exists_type1(make_setting(2, 7, 1))  # n_r = 1
        assert exists_type1(make_setting(3, 20, 2))

    def test_type2_goldens(self, st13, st4):
        v = exists_type2(st13)
        assert v.exists and v.reason == "n_r-even"
        v = exists_type2(st4)
        assert v.exists and v.reason == "odd-square"
        v = exists_type2(make_setting(2, 5, 1))
        assert not v.exists and v.reason == "none" and v.witness is None

    def test_witness_verified(self, st13):
        v = exists_type2(st13)
        assert verify_splitting(v.witness).ok

    def test_square_criterion_matches_per_prime_valuations(self, sweep):
        from constacyclic.arith import _mult_order, factorize, nu2
        from constacyclic.duadic import _is_square_mod

        for st in sweep:
            if st.n % 2 == 0:
                continue
            per_prime = all(
                p % 2 == 1
                and nu2(_mult_order(st.q % p, p)) < nu2(p - 1)
                for p, _ in factorize(st.n_r_prime)
            )
            assert _is_square_mod(st.q, st.n_r_prime) == per_prime, st

    def test_square_test_matches_scan(self):
        from constacyclic.duadic import _is_square_mod

        for q in range(2, 17):
            for m in range(1, 2001, 2):
                if math.gcd(q, m) == 1:
                    assert _is_square_mod(q, m) == oracles.is_square_mod_scan(
                        q, m
                    ), (q, m)

    def test_odd_components_match_scan(self):
        from constacyclic.duadic import _odd_case_components

        for q in range(2, 17):
            for m in range(1, 2001, 2):
                if math.gcd(q, m) != 1:
                    continue
                want = oracles.odd_case_components_scan(q, m)
                fake = SimpleNamespace(q=q, n_r_prime=m)
                if want is None:
                    with pytest.raises(NoSplitting):
                        _odd_case_components(fake)
                else:
                    assert _odd_case_components(fake) == want, (q, m)

    def test_reason_clauses_mutually_exclusive(self, sweep):
        for st in sweep:
            clause_even = st.n_r % 2 == 0
            clause_odd = st.n % 2 == 1
            assert not (clause_even and clause_odd)


class TestOracleAgreement:
    def test_type2_full_sweep(self, sweep):
        for st in sweep:
            got = exists_type2(st, with_witness=False).exists
            assert got == oracles.type2_exists_bruteforce(st), st

    def test_type1_full_sweep(self, sweep):
        for st in sweep:
            assert exists_type1(st) == oracles.type1_exists_bruteforce(st), st


class TestConstruction:
    def test_golden_ex1(self, st13):
        sp = construct_type2(st13)
        assert len(sp.p.elems) == 6
        assert verify_splitting(sp).ok
        assert verify_splitting(worked_splitting_len14(st13)).ok

    def test_golden_ex2(self, st4):
        sp = construct_type2(st4)
        assert len(sp.p.elems) == 9
        assert verify_splitting(sp).ok
        assert verify_splitting(worked_splitting_len21(st4)).ok

    def test_golden_small(self, st5):
        sp = construct_type2(st5)
        pair = {sp.p.elems, sp.sp.elems}
        assert (13, 17) in pair
        # the three factors multiply back to the binomial
        c1, c2 = sp.codes()
        prod = c0_check_poly(st5) * c1.check_poly * c2.check_poly
        assert prod == st5.binomial(1)

    def test_refuses_when_none(self):
        with pytest.raises(NoSplitting):
            construct_type2(make_setting(2, 5, 1))
        with pytest.raises(NoSplitting):
            construct_type1(make_setting(13, 14, 5))

    def test_type1_strip_path(self):
        st = make_setting(3, 20, 2)
        base = construct_type1(st)
        assert base.kind == SplittingKind.TYPE_I
        assert verify_splitting(base).ok
        assert len(base.p.elems) == st.n // 2
        sp = construct_type2(st)
        assert sp.s == base.s
        assert set(sp.p.elems) == set(base.p.elems) - set(p0_set(st).elems)
        assert verify_splitting(sp).ok

    def test_degenerate_empty_splitting(self):
        st = make_setting(4, 3, 2)  # whole index set is P0
        sp = construct_type2(st)
        assert sp.p.elems == ()
        assert verify_splitting(sp).ok

    def test_all_sweep_witnesses(self, sweep_verdicts):
        for st, v in sweep_verdicts:
            if not v.exists:
                continue
            w = v.witness
            assert len(w.p.elems) == len(w.sp.elems) == (st.n - st.n_r) // 2
            nr = st.nr
            assert {(w.s * w.s * x) % nr for x in w.p.elems} == set(w.p.elems)
            assert verify_splitting(w).ok


class TestVerify:
    def test_hand_made_overlap_fails(self, st13):
        p = IndexSet(st13, 1, (1, 5, 9, 13, 17, 53))
        bad = Splitting(st13, 1, 29, p, p, SplittingKind.TYPE_II)
        res = verify_splitting(bad)
        assert not res.ok
        assert res.first_failure == "sp-equals-s-times-p"

    def test_wrong_multiplier_fails(self, st13):
        sp = worked_splitting_len14(st13)
        bad = Splitting(st13, 1, 3, sp.p, sp.sp, SplittingKind.TYPE_II)
        assert not verify_splitting(bad).ok

    def test_transcript_names(self, st13):
        res = verify_splitting(worked_splitting_len14(st13))
        names = [c.name for c in res.checks]
        assert "parts-cover" in names and "factor-product-identity" in names

    def test_algebraic_skip_over_cap(self):
        st = make_setting(5, 22, 2)  # tower would need 5^10 elements
        sp = construct_type2(st)
        res = verify_splitting(sp, algebraic="auto")
        entry = {c.name: c for c in res.checks}["factor-product-identity"]
        assert res.ok and entry.skipped
        with pytest.raises(TooLarge):
            verify_splitting(sp, algebraic=True)


def _mutations(w):
    """Single-field edits of a witness, as _verify argument tuples."""
    st, t, s, kind = w.setting, w.t, w.s, w.kind
    p, sp = w.p.elems, w.sp.elems
    nr = st.nr
    flipped = (
        SplittingKind.TYPE_I if kind == SplittingKind.TYPE_II
        else SplittingKind.TYPE_II
    )
    out = [
        (t, s, p, sp, kind),
        (t, s, p, sp, flipped),
        (t, s, sp, p, kind),
        (t, s + 1, p, sp, kind),
    ]
    if p:
        out.append((t, s, p[1:], sp, kind))
    rest = sorted(set(st.p_set(t)) - set(p))
    if rest:
        out.append((t, s, p + (rest[0],), sp, kind))
    if st.r > 1:
        foreign = (t + 1) % nr
        out.append((t, s, p + (foreign,), sp, kind))
        out.append((t, s, p, sp + (foreign,), kind))
        # a whole q-coset of another class in P, with its s-image in sP
        coset, y = [foreign], st.q * foreign % nr
        while y != foreign:
            coset.append(y)
            y = st.q * y % nr
        out.append(
            (t, s, p + tuple(coset), sp + tuple(s * x % nr for x in coset), kind)
        )
    if nr > 1:
        out.append((0, s, p, sp, kind))
    return out


def _count_set_checks(monkeypatch) -> list:
    """Record one entry per run of the splitting set checks."""
    from constacyclic import duadic

    calls = []
    real = duadic._set_checks

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(duadic, "_set_checks", counted)
    return calls


@pytest.fixture(scope="module")
def sweep60_witnesses():
    """Type-II witnesses for every setting with q <= 16, n <= 60."""
    out = []
    for st in sweep_settings(16, 60):
        v = exists_type2(st)
        if v.exists:
            out.append(v.witness)
    return out


class TestVerifyOnce:
    def test_set_checks_match_reference(self, sweep60_witnesses):
        from constacyclic.duadic import _verify

        assert len(sweep60_witnesses) > 500
        for w in sweep60_witnesses:
            for t, s, p, sp, kind in _mutations(w):
                want = oracles.set_check_reference(w.setting, t, s, p, sp, kind)
                want.append(
                    ("factor-product-identity", all(ok for _, ok in want))
                )
                res = _verify(w.setting, t, s, p, sp, kind, algebraic=False)
                got = [(c.name, c.passed) for c in res.checks]
                assert got == want, (w.setting, t, s, kind)
                assert res.checks[-1].skipped

    def test_witness_carries_its_set_checks(self, sweep60_witnesses):
        for w in sweep60_witnesses:
            assert w.set_checks == verify_splitting(w, algebraic=False)

    def test_certificate_reuse_matches_full_verification(self, tower_friendly):
        for st in tower_friendly:
            w = exists_type2(st).witness
            if w is None:
                continue
            assert w.set_checks is not None
            assert certificate(w) == certificate(w, verify_splitting(w)), st

    def test_certificate_reuse_records_skip_over_cap(self):
        st = make_setting(5, 22, 2)  # tower would need 5^10 elements
        w = construct_type2(st)
        assert certificate(w) == certificate(w, verify_splitting(w))
        assert certificate(w)["checks"][-1] == {
            "name": "factor-product-identity", "pass": True, "skipped": True
        }

    def test_edited_witness_is_verified_again(self, st13):
        w = construct_type2(st13)
        bad = dataclasses.replace(w, s=w.s + 1)
        assert bad.set_checks is None
        cert = certificate(bad)
        assert not verify_certificate(cert)[0].ok
        assert {"name": "s-in-multiplier-group", "pass": False} in cert["checks"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["split", "--q", "13", "--n", "14", "--lambda", "5"],
            ["split", "--q", "4", "--n", "21", "--lambda", "0 1"],
            ["split", "--q", "3", "--n", "20", "--lambda", "2"],
            ["exists", "--q", "5", "--n", "6", "--lambda", "2"],
        ],
    )
    def test_split_runs_set_checks_once(self, argv, monkeypatch, capsys):
        from constacyclic.cli import main

        calls = _count_set_checks(monkeypatch)
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == [1]


class TestEveryOtherCoset:
    """P against a representative walk and pairing written in the oracles."""

    def test_type2_p_matches_reference(self, sweep60_witnesses):
        for w in sweep60_witnesses:
            st = w.setting
            p0 = set(oracles.p0_filter(st))
            outside = [x for x in st.p_set(1) if x not in p0]
            want = oracles.every_other_coset_reference(st, w.s, outside)
            assert w.p.elems == want, st
            assert set(w.sp.elems) == {(w.s * x) % st.nr for x in want}, st

    def test_type1_p_matches_reference(self):
        checked = 0
        for st in sweep_settings(16, 60):
            if not exists_type1(st):
                continue
            w = construct_type1(st)
            want = oracles.every_other_coset_reference(st, w.s, st.p_set(1))
            assert w.p.elems == want, st
            checked += 1
        assert checked == 184

    def test_odd_cycle_raises_internal(self, st13):
        from constacyclic.duadic import _every_other_coset

        # the identity fixes every coset, so every cycle has length one
        for kind, label in [
            (SplittingKind.TYPE_I, "Type-I"),
            (SplittingKind.TYPE_II, "Type-II"),
        ]:
            with pytest.raises(
                Internal, match=f"^{label} multiplier produced an odd orbit$"
            ):
                _every_other_coset(st13, 1, kind)

    def test_cycle_closing_on_an_sp_coset_raises_internal(self, st13):
        from constacyclic.duadic import _every_other_coset

        # 30 is not a unit mod 56: its walk reaches an sP coset and then
        # lands on a labelled sP coset instead of its starting P coset
        with pytest.raises(
            Internal, match="^Type-II multiplier produced an odd orbit$"
        ):
            _every_other_coset(st13, 30, SplittingKind.TYPE_II)


# One Type-II setting per existence reason with n in 10^3..10^4.
LARGER_N = [
    pytest.param(4, 1001, "0 1", "odd-square", id="odd-square-q4-n1001"),
    pytest.param(5, 1002, 2, "n_r-even", id="n_r-even-q5-n1002"),
    pytest.param(7, 1000, 3, "TypeI-even-quotient", id="type1-q7-n1000"),
]


class TestLargerN:
    """The index-label walk and set checks against the oracles at n >= 1000."""

    @pytest.mark.parametrize("q,n,lam,reason", LARGER_N)
    def test_p_matches_reference(self, q, n, lam, reason):
        st = make_setting(q, n, lam)
        v = exists_type2(st)
        assert v.reason == reason
        w = v.witness
        p0 = set(oracles.p0_filter(st))
        outside = [x for x in st.p_set(1) if x not in p0]
        want = oracles.every_other_coset_reference(st, w.s, outside)
        assert w.p.elems == want
        assert set(w.sp.elems) == {(w.s * x) % st.nr for x in want}
        if reason == "TypeI-even-quotient":
            w1 = construct_type1(st)
            assert w1.p.elems == oracles.every_other_coset_reference(
                st, w1.s, st.p_set(1)
            )

    @pytest.mark.parametrize("q,n,lam,reason", LARGER_N)
    def test_set_checks_match_reference(self, q, n, lam, reason):
        from constacyclic.duadic import _verify

        w = exists_type2(make_setting(q, n, lam)).witness
        for t, s, p, sp, kind in _mutations(w):
            want = oracles.set_check_reference(w.setting, t, s, p, sp, kind)
            res = _verify(w.setting, t, s, p, sp, kind, algebraic=False)
            assert [(c.name, c.passed) for c in res.checks[:-1]] == want, (
                t, s, kind, len(p), len(sp)
            )


class TestWitnessCap:
    def test_cap_is_inclusive(self, monkeypatch, st13):
        from constacyclic import duadic

        st1 = make_setting(3, 20, 2)
        monkeypatch.setattr(duadic, "MAX_WITNESS_LENGTH", 14)
        w = construct_type2(st13)
        cert = certificate(w)
        assert verify_certificate(cert)[0].ok
        with pytest.raises(TooLarge):
            construct_type1(st1)
        monkeypatch.setattr(duadic, "MAX_WITNESS_LENGTH", 20)
        assert construct_type1(st1).kind == SplittingKind.TYPE_I
        monkeypatch.setattr(duadic, "MAX_WITNESS_LENGTH", 13)
        with pytest.raises(TooLarge):
            construct_type2(st13)
        with pytest.raises(TooLarge):
            exists_type2(st13)
        with pytest.raises(TooLarge):
            verify_certificate(cert)
        with pytest.raises(TooLarge):
            verify_splitting(w)
        # types are checked first; the verdict alone needs no witness
        with pytest.raises(ValueError, match="not an integer"):
            verify_certificate({**cert, "s": 1.5})
        assert exists_type2(st13, with_witness=False).exists

    def test_cli_refuses_over_the_cap(self, monkeypatch, capsys):
        """split refuses; exists prints the verdict alone, exit 0 when true
        and 1 when false, with the payload of a false verdict unchanged."""
        import json

        from constacyclic import duadic
        from constacyclic.cli import main

        argv = ["--q", "13", "--n", "14", "--lambda", "5"]
        no_splitting = ["exists", "--q", "2", "--n", "15", "--lambda", "1"]
        assert main(["exists", *argv]) == 0
        within = json.loads(capsys.readouterr().out)
        assert main(no_splitting) == 1
        false_within = capsys.readouterr().out
        monkeypatch.setattr(duadic, "MAX_WITNESS_LENGTH", 13)
        assert main(["split", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")
        assert main(["exists", *argv]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        del within["witness"]
        within["witness_skipped"] = "length 14 exceeds the 2^22 witness cap"
        assert json.loads(out.out) == within
        assert list(json.loads(out.out)) == list(within)
        assert main(no_splitting) == 1
        assert capsys.readouterr().out == false_within
        assert main(["atlas", "--max-q", "13", "--max-n", "20"]) == 0
        assert capsys.readouterr().out.count("\n") > 0


class TestOddLike:
    def test_golden_pair(self, st5):
        sp = construct_type2(st5)
        c1, c2 = odd_like_pair(sp)
        texts = {poly_to_text(c1.check_poly), poly_to_text(c2.check_poly)}
        f0 = c0_check_poly(st5)
        want = {
            poly_to_text(f0 * code.check_poly) for code in sp.codes()
        }
        assert texts == want

    def test_dimensions(self, sweep_verdicts):
        rng = random.Random(11)
        pairs = [(st, v) for st, v in sweep_verdicts if v.exists]
        for st, v in rng.sample(pairs, 40):
            c1, c2 = odd_like_pair(v.witness)
            assert c1.dim == c2.dim == st.n_r + (st.n - st.n_r) // 2
            inter = set(c1.check.elems) & set(c2.check.elems)
            assert inter == set(p0_set(st).elems)

    def test_requires_type_two(self):
        st = make_setting(3, 20, 2)
        with pytest.raises(ValueError):
            odd_like_pair(construct_type1(st))


class TestIsoOrthogonal:
    def test_both_members_with_negated_multiplier(self, sweep_verdicts):
        rng = random.Random(13)
        pairs = [(st, v) for st, v in sweep_verdicts if v.exists]
        for st, v in rng.sample(pairs, 40):
            t = -v.witness.s % st.nr
            assert is_iso_orthogonal(ConstaCode(v.witness.p), t)
            assert is_iso_orthogonal(ConstaCode(v.witness.sp), t)

    def test_whole_algebra_never(self, st5):
        whole = ConstaCode(IndexSet(st5, 1, st5.p_set(1)))
        for t in range(st5.nr):
            if math.gcd(t, st5.nr) == 1:
                assert not is_iso_orthogonal(whole, t)

    def test_cyclic_self_orthogonal_case(self):
        st = make_setting(3, 13, 1)
        code = ConstaCode(IndexSet(st, 1, (1, 3, 9)))
        assert is_iso_orthogonal(code, 1)
        # and the isometry at t=1 is the identity, so the code really is
        # self-orthogonal
        ws = oracles.spanning_words(code)
        assert all(oracles.inner_product(st.field, a, b) == 0 for a in ws for b in ws)

    def test_set_condition_matches_algebra(self, tower_friendly):
        from conftest import random_invariant_set

        rng = random.Random(17)
        pool = [st for st in tower_friendly if st.n <= 16]
        checked = 0
        for st in rng.sample(pool, 12):
            code = ConstaCode(random_invariant_set(rng, st))
            units = [t for t in range(1, st.nr) if math.gcd(t, st.nr) == 1]
            t = rng.choice(units)
            verdict = is_iso_orthogonal(code, t)
            if (-t) % st.r != 1 % st.r:
                assert not verdict
                continue
            from constacyclic import apply_isometry, isometry

            image = apply_isometry(isometry(st, t), code)
            dual_code = dual(code)
            subset = set(image.check.elems) <= set(dual_code.check.elems)
            assert verdict == subset
            checked += 1
        assert checked

    def test_nonunit(self, st5):
        with pytest.raises(NonUnit):
            is_iso_orthogonal(ConstaCode(IndexSet(st5, 1, ())), 2)


class TestEvenDualIsOdd:
    def test_goldens(self, st5, st13, st4):
        assert even_dual_is_odd(construct_type2(st5))
        assert even_dual_is_odd(worked_splitting_len14(st13))
        assert even_dual_is_odd(worked_splitting_len21(st4))

    def test_whole_sweep(self, sweep_verdicts):
        for st, v in sweep_verdicts:
            if v.exists:
                assert even_dual_is_odd(v.witness), st


class TestMaxIsoOrthogonalDim:
    def test_golden_ex1(self, st13):
        assert max_iso_orthogonal_dim(st13) == 6

    def test_type1_setting_reaches_half(self):
        st = make_setting(3, 20, 2)
        assert max_iso_orthogonal_dim(st) == 10

    def test_search_only_setting(self):
        assert max_iso_orthogonal_dim(make_setting(2, 5, 1)) == 0

    def test_matches_type2_dimension(self, sweep60_witnesses):
        checked = set()
        for w in sweep60_witnesses:
            st = w.setting
            if exists_type1(st):
                continue
            assert max_iso_orthogonal_dim(st) == (st.n - st.n_r) // 2, st
            checked.add((st.q, st.n, st.r))
        # Type-II-only settings with more than 22 cosets
        assert {(16, 45, 1), (16, 51, 1), (16, 51, 5)} <= checked

    def test_cycle_closed_form_matches_exhaustion(self):
        for length in range(1, 21):
            closed = length // 2 if length % 2 == 0 else 0
            assert oracles.best_compatible_popcount(length) == closed, length

    def test_matches_exhaustive_reference(self, sweep):
        for st in sweep:
            assert max_iso_orthogonal_dim(st) == (
                oracles.max_iso_orthogonal_dim_exhaustive(st)
            ), st


class TestCertificates:
    def test_round_trip(self, st4):
        sp = construct_type2(st4)
        cert = certificate(sp)
        res, fresh = verify_certificate(cert)
        assert res.ok
        assert fresh["checks"]

    def test_round_trip_across_sweep(self, sweep_verdicts):
        for st, v in sweep_verdicts:
            if not v.exists:
                continue
            res, _ = verify_certificate(certificate(v.witness))
            assert res.ok, (st, res.first_failure)

    def test_tampered_fails(self, st13):
        cert = certificate(worked_splitting_len14(st13))
        cert["P"] = cert["P"][:-1] + [1]
        res, _ = verify_certificate(cert)
        assert not res.ok

    def test_verify_runs_every_check(self, st13, monkeypatch):
        calls = _count_set_checks(monkeypatch)
        res, _ = verify_certificate(certificate(construct_type2(st13)))
        assert res.ok and calls == [1, 1]

    def test_wrong_p0_detected(self, st13):
        cert = certificate(worked_splitting_len14(st13))
        cert["P0"] = [1, 13]
        res, _ = verify_certificate(cert)
        assert not res.ok and res.first_failure == "p0-matches"
