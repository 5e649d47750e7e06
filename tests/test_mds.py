import dataclasses

import pytest

from constacyclic import (
    ConstaCode,
    IndexSet,
    c0_check_poly,
    default_lambda,
    distance_lower_bound,
    field_for_order,
    grs_plan,
    grs_splitting,
    make_setting,
    mds_report,
    min_distance,
    poly_to_text,
    verify_splitting,
)
from constacyclic.errors import BadLambda, BadQ, Internal, TooLarge
from constacyclic.gf import poly_x_pow_minus

import oracles


def singleton(code) -> int:
    """The Singleton bound n - k + 1 that an MDS code meets."""
    return code.setting.n - code.dim + 1


class TestPlan:
    def test_golden_q13(self):
        plan = grs_plan(13)
        assert (plan.n, plan.r, plan.r_prime, plan.n_prime, plan.s) == (
            14,
            4,
            3,
            7,
            29,
        )
        assert plan.p_elems == tuple(1 + 4 * i for i in range(6, 12))
        assert plan.p0 == (21, 49)

    def test_golden_q5(self):
        plan = grs_plan(5)
        assert (plan.n, plan.r, plan.r_prime, plan.n_prime, plan.s) == (
            6,
            4,
            1,
            3,
            13,
        )
        assert plan.p_elems == (13, 17)
        assert plan.p0 == (9, 21)

    def test_rejects_q7(self):
        with pytest.raises(BadQ):
            grs_plan(7)

    def test_rejects_non_prime_power(self):
        with pytest.raises(BadQ):
            grs_plan(15)

    @pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29])
    def test_invariants(self, q):
        plan = grs_plan(q)
        nr = plan.n * plan.r
        assert plan.r_prime % 2 == 1
        assert len(plan.p_elems) == plan.n_prime - 1
        assert {(q * x) % nr for x in plan.p_elems} == set(plan.p_elems)


class TestPair:
    def test_default_lambda_matches_worked_values(self):
        assert default_lambda(field_for_order(13), 4).label == 5
        assert default_lambda(field_for_order(5), 4).label == 2

    @pytest.mark.parametrize("q, r", [(13, 5), (13, 0), (16, 2), (1048573, 5)])
    def test_default_lambda_refuses_order_not_dividing(self, q, r):
        """Refused without a label scan, even over the largest prime field."""
        with pytest.raises(BadLambda, match=f"^no element of order {r} in GF\\({q}\\)$"):
            default_lambda(field_for_order(q), r)

    def test_q13_parameters(self):
        c1, c2 = grs_splitting(grs_plan(13)).codes()
        assert c1.dim == c2.dim == 6
        assert min_distance(c1) == min_distance(c2) == 9 == singleton(c1)

    def test_q5_parameters(self):
        c1, c2 = grs_splitting(grs_plan(5)).codes()
        assert c1.dim == c2.dim == 2
        assert min_distance(c1) == min_distance(c2) == 5 == singleton(c1)
        assert oracles.min_distance_bruteforce(c1) == 5

    def test_splitting_certified(self):
        for q in (5, 9, 13, 17, 25, 29):
            sp = grs_splitting(grs_plan(q))
            assert verify_splitting(sp).ok

    def test_splitting_carries_its_transcript(self):
        for q in (5, 9, 13, 17):
            sp = grs_splitting(grs_plan(q))
            assert sp.transcript == verify_splitting(sp), q

    def test_failed_self_check_raises_internal(self):
        # s = 1 maps P onto itself, so sP = P overlaps it
        plan = dataclasses.replace(grs_plan(13), s=1)
        with pytest.raises(
            Internal, match="^built splitting failed check parts-disjoint$"
        ):
            grs_splitting(plan)

    def test_bad_lambda_rejected(self):
        with pytest.raises(BadLambda):
            grs_splitting(grs_plan(13), 12)  # order 2, need order 4
        # a label is refused before its order is asked: 25 = 12 mod 13
        with pytest.raises(ValueError, match="^label 25 out of range for GF"):
            grs_splitting(grs_plan(13), 25)

    def test_small_instance_reproduces_the_factorization(self):
        plan = grs_plan(5)
        sp = grs_splitting(plan)
        st = sp.setting
        c1, c2 = sp.codes()
        factors = {
            poly_to_text(c0_check_poly(st)),
            poly_to_text(c1.check_poly),
            poly_to_text(c2.check_poly),
        }
        assert factors == {"2 0 1", "2 1 1", "2 4 1"}
        prod = c0_check_poly(st) * c1.check_poly * c2.check_poly
        assert prod == poly_x_pow_minus(st.field, 6, 2)

    @pytest.mark.parametrize("q", [17, 25, 29])
    def test_large_q_certified_bound(self, q):
        # exhaustion is out of reach, but the consecutive-root bound
        # already certifies the Singleton distance
        plan = grs_plan(q)
        c1, c2 = grs_splitting(plan).codes()
        expected = (q + 5) // 2
        assert distance_lower_bound(c1) == expected
        assert distance_lower_bound(c2) == expected
        with pytest.raises(TooLarge):
            min_distance(c1)


class TestOracle:
    """The GRS evaluation-code oracle on the plan's splitting."""

    @pytest.mark.parametrize("q", [5, 13])
    def test_true_on_worked_sizes(self, q):
        plan = grs_plan(q)
        assert oracles.grs_evaluation_check(plan, grs_splitting(plan).setting)

    @pytest.mark.parametrize("q", [5, 13])
    def test_perturbed_twist_fails(self, q):
        plan = grs_plan(q)
        setting = grs_splitting(plan).setting
        assert not oracles.grs_evaluation_check(plan, setting, z=plan.z + 1)


class TestIsMds:
    """Distances against the Singleton bound n - k + 1."""

    def test_worked_f4_code_is_not_mds(self):
        st = make_setting(4, 21, 2)
        code = ConstaCode(
            IndexSet(st, 1, (1, 4, 10, 13, 16, 19, 34, 40, 52))
        )
        # exact distance 8 from exhaustive search, Singleton needs 13
        assert min_distance(code) == 8 < singleton(code) == 13

    def test_zero_code_not_mds(self):
        st = make_setting(5, 6, 2)
        zero = ConstaCode(IndexSet(st, 1, ()))
        assert oracles.min_distance_bruteforce(zero) == float("inf")
        assert min_distance(zero) != singleton(zero)

    def test_whole_algebra_is_mds(self):
        st = make_setting(5, 6, 2)
        whole = ConstaCode(IndexSet(st, 1, st.p_set(1)))
        assert oracles.min_distance_bruteforce(whole) == 1 == singleton(whole)
        assert min_distance(whole) == 1


class TestReport:
    def test_q5_report(self):
        report = mds_report(5)
        assert report["d_found"] == 5
        assert report["mds"] is True
        assert report["d_expected"] == 5
        assert len(report["codes"]) == 2

    def test_q17_report_uses_bound(self):
        report = mds_report(17)
        assert report["mds"] is None
        assert report["d_lower_bound"] == 11
        assert "d_found" not in report
