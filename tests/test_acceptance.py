"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Each criterion asserts its stated tolerance (exact values throughout)
and its stated runtime budget.
"""

import math
import random
import time

import pytest

from constacyclic import (
    ConstaCode,
    IndexSet,
    Splitting,
    SplittingKind,
    annihilator,
    apply_isometry,
    dual,
    even_dual_is_odd,
    exists_type1,
    exists_type2,
    grs_plan,
    grs_splitting,
    isometry,
    make_setting,
    max_iso_orthogonal_dim,
    min_distance,
    orbits_on_cosets,
    p0_set,
    poly_to_text,
    verify_splitting,
)
import oracles
from conftest import random_invariant_set


def report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {verdict} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_small_worked_example():
    t0 = time.time()
    st = make_setting(5, 6, 2)
    factors = {
        poly_to_text(ConstaCode(IndexSet(st, 1, coset)).check_poly)
        for coset in st.cosets(1).cosets
    }
    ok = factors == {"2 0 1", "2 1 1", "2 4 1"}  # X^2-3, X^2+X+2, X^2-X+2
    ok &= p0_set(st).elems == (9, 21)
    plus = next(
        ConstaCode(IndexSet(st, 1, c))
        for c in st.cosets(1).cosets
        if poly_to_text(ConstaCode(IndexSet(st, 1, c)).check_poly) == "2 1 1"
    )
    image = apply_isometry(isometry(st, 13), plus)
    ok &= poly_to_text(image.check_poly) == "2 4 1"
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"q=5 factor set, P0 and the exponent-13 swap ({elapsed:.2f}s)")


def test_criterion_02_worked_example_len14():
    t0 = time.time()
    st = make_setting(13, 14, 5)
    part = st.cosets(1)
    expected_cosets = {
        (21, 49),
        (1, 13),
        (5, 9),
        (17, 53),
        (25, 45),
        (29, 41),
        (33, 37),
    }
    ok = set(part.cosets) == expected_cosets
    orbits = orbits_on_cosets(part, 29)
    ok &= set(orbits) == {
        ((21, 49),),
        ((1, 13), (29, 41)),
        ((5, 9), (33, 37)),
        ((17, 53), (25, 45)),
    }
    p = (25, 29, 33, 37, 41, 45)
    sp = Splitting(
        st,
        1,
        29,
        IndexSet(st, 1, p),
        IndexSet(st, 1, tuple(sorted(29 * x % 56 for x in p))),
        SplittingKind.TYPE_II,
    )
    ok &= verify_splitting(sp).ok
    c1, c2 = sp.codes()
    d1, d2 = min_distance(c1), min_distance(c2)
    ok &= (c1.dim, c2.dim, d1, d2) == (6, 6, 9, 9)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(2, ok, f"[14,6,9] pair over F_13 fully reproduced ({elapsed:.1f}s)")


def test_criterion_03_worked_example_len21():
    t0 = time.time()
    st = make_setting(4, 21, 2)
    expected_cosets = {
        (7, 28, 49),
        (1, 4, 16),
        (10, 34, 40),
        (13, 19, 52),
        (22, 25, 37),
        (31, 55, 61),
        (43, 46, 58),
    }
    ok = set(st.cosets(1).cosets) == expected_cosets
    verdict = exists_type2(st, with_witness=False)
    ok &= verdict.exists and verdict.reason == "odd-square"
    p = (1, 4, 10, 13, 16, 19, 34, 40, 52)
    sp = Splitting(
        st,
        1,
        55,
        IndexSet(st, 1, p),
        IndexSet(st, 1, tuple(sorted(55 * x % 63 for x in p))),
        SplittingKind.TYPE_II,
    )
    ok &= verify_splitting(sp).ok
    d = min_distance(ConstaCode(sp.p))
    ok &= d >= 8
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(3, ok, f"[21,9,d>=8] pair over F_4, exact d={d} ({elapsed:.1f}s)")


def test_criterion_04_mds_pairs():
    t0 = time.time()
    ok = True
    for q in (5, 13):
        plan = grs_plan(q)
        sp = grs_splitting(plan)
        want = (q + 1, (q - 1) // 2, (q + 5) // 2)
        for c in sp.codes():
            n, k, d = got = (c.setting.n, c.dim, min_distance(c))
            ok &= got == want
            ok &= d == n - k + 1  # meets the Singleton bound
        ok &= oracles.grs_evaluation_check(plan, sp.setting)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(4, ok, f"[q+1,(q-1)/2,(q+5)/2] MDS pairs and GRS oracle ({elapsed:.1f}s)")


def test_criterion_05_type2_oracle_equivalence(sweep):
    t0 = time.time()
    disagreements = [
        st
        for st in sweep
        if exists_type2(st, with_witness=False).exists
        != oracles.type2_exists_bruteforce(st)
    ]
    elapsed = time.time() - t0
    ok = not disagreements and elapsed < 600.0
    report(
        5,
        ok,
        f"Type-II existence vs exhaustive search on {len(sweep)} settings "
        f"({elapsed:.1f}s)",
    )


def test_criterion_06_type1_oracle_equivalence(sweep):
    t0 = time.time()
    disagreements = [
        st
        for st in sweep
        if exists_type1(st) != oracles.type1_exists_bruteforce(st)
    ]
    elapsed = time.time() - t0
    ok = not disagreements
    report(
        6,
        ok,
        f"Type-I existence vs exhaustive search on {len(sweep)} settings "
        f"({elapsed:.1f}s)",
    )


def test_criterion_07_duality_suite(tower_friendly):
    rng = random.Random(2024)
    failures = 0
    for i in range(200):
        st = tower_friendly[rng.randrange(len(tower_friendly))]
        code = ConstaCode(random_invariant_set(rng, st))
        d = dual(code)
        if code.dim + d.dim != st.n:
            failures += 1
            continue
        expected = tuple(
            sorted((-x) % st.nr for x in set(st.p_set(1)) - set(code.check.elems))
        )
        if d.check.elems != expected:
            failures += 1
            continue
        if annihilator(annihilator(code)) != code:
            failures += 1
            continue
        cross_ok = all(
            oracles.inner_product(st.field, a, b) == 0
            for a in oracles.spanning_words(code)
            for b in oracles.spanning_words(d)
        )
        if not cross_ok:
            failures += 1
    report(7, failures == 0, "duality properties on 200 random codes")


def test_criterion_08_even_duals_are_odd(sweep_verdicts):
    failures = [
        st for st, v in sweep_verdicts if v.exists and not even_dual_is_odd(v.witness)
    ]
    total = sum(1 for _, v in sweep_verdicts if v.exists)
    report(8, not failures, f"dual pairs odd-like for all {total} sweep splittings")


def test_criterion_09_maximal_iso_orthogonal(sweep_verdicts):
    checked = 0
    failures = []
    for st, v in sweep_verdicts:
        if not v.exists or exists_type1(st):
            continue
        if max_iso_orthogonal_dim(st) != (st.n - st.n_r) // 2:
            failures.append(st)
        checked += 1
    report(
        9,
        not failures and checked > 0,
        f"maximal iso-orthogonal dimension matches on {checked} settings",
    )


def test_criterion_10_isometry_suite(tower_friendly):
    rng = random.Random(77)
    pool = [st for st in tower_friendly if st.n <= 20]
    failures = 0
    samples = 0
    while samples < 50:
        st = pool[rng.randrange(len(pool))]
        units = [t for t in range(1, st.nr) if math.gcd(t, st.nr) == 1]
        t = rng.choice(units)
        iso = isometry(st, t)
        samples += 1
        for _ in range(200):
            a = tuple(rng.randrange(st.q) for _ in range(st.n))
            b = tuple(rng.randrange(st.q) for _ in range(st.n))
            if oracles.weight(iso.apply_word(a)) != oracles.weight(a):
                failures += 1
                break
            left = iso.apply_word(oracles.ring_mul(st, 1, a, b))
            right = oracles.ring_mul(st, t, iso.apply_word(a), iso.apply_word(b))
            if left != right:
                failures += 1
                break
        check = random_invariant_set(rng, st)
        image = apply_isometry(isometry(st, t), ConstaCode(check))
        expected = tuple(sorted((t * x) % st.nr for x in check.elems))
        if image.check.elems != expected:
            failures += 1
    report(
        10,
        failures == 0,
        "isometries weight-preserving, multiplicative, check-set equivariant "
        "on 50 samples",
    )
