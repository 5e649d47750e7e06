"""Even-like duadic pairs of length q+1 that are MDS alternant codes.

When the 2-part of q-1 is at least 4, length n = q+1 with r equal to
that 2-part admits an explicit even-like splitting whose codes are
subfield images of generalized Reed-Solomon codes over F_{q^2} and meet
the Singleton bound with parameters [q+1, (q-1)/2, (q+5)/2].

This module builds the plan, the verified splitting and the CLI report.
The evaluation-code check that compares the construction with the GRS
codes over F_{q^2} is a test oracle and lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import codes, duadic, gf
from .arith import nu2
from .codes import CodeSetting, IndexSet, make_setting
from .duadic import Splitting, SplittingKind
from .errors import BadLambda, BadQ, Internal, TooLarge
from .gf import FieldElement, FieldSpec


@dataclass(frozen=True)
class GrsPlan:
    """Index-level data of the construction: everything before field choice."""

    q: int
    n: int
    n_prime: int
    r: int
    r_prime: int
    s: int
    z: int
    p_elems: tuple[int, ...]
    p0: tuple[int, int]


def grs_plan(q: int) -> GrsPlan:
    """Derive the splitting data for a prime power q with nu2(q-1) >= 2."""
    try:
        gf.field_for_order(q)
    except ValueError as exc:
        raise BadQ(str(exc)) from None
    if q < 5 or nu2(q - 1) < 2:
        raise BadQ(f"need the 2-part of q-1 to be at least 4, got q={q}")
    n = q + 1
    n_prime = n // 2
    r = 1 << nu2(q - 1)
    r_prime = (q - 1) // r
    s = 1 + r * n_prime
    nr = n * r
    lo = (n_prime + r_prime) // 2
    hi = (3 * n_prime + r_prime) // 2
    z = lo + 1
    p_elems = tuple((1 + r * i) % nr for i in range(lo + 1, hi))
    p0 = ((1 + r * lo) % nr, (1 + r * hi) % nr)
    if r_prime % 2 != 1 or len(p_elems) != n_prime - 1:
        raise Internal("derived plan violates its own cardinality facts")
    if {(q * x) % nr for x in p_elems} != set(p_elems):
        raise Internal("derived check set is not closed under q")
    return GrsPlan(q, n, n_prime, r, r_prime, s, z, p_elems, p0)


def default_lambda(field: FieldSpec, r: int) -> FieldElement:
    """Least-label element of multiplicative order r."""
    for a in range(1, field.q):
        if field.order_of(a) == r:
            return field.element(a)
    raise BadLambda(f"no element of order {r} in {field!r}")


def _resolve(plan: GrsPlan, lam) -> CodeSetting:
    field = gf.field_for_order(plan.q)
    if lam is None:
        lam = default_lambda(field, plan.r)
    elif not isinstance(lam, FieldElement):
        lam = field.element(int(lam))
    if field.order_of(lam.label) != plan.r:
        raise BadLambda(
            f"lambda must have order {plan.r}, got order {field.order_of(lam.label)}"
        )
    return make_setting(plan.q, plan.n, lam.label)


def grs_splitting(plan: GrsPlan, lam=None) -> Splitting:
    """The plan as a verified Type-II splitting over the chosen field."""
    setting = _resolve(plan, lam)
    nr = setting.nr
    p_idx = IndexSet(setting, 1, plan.p_elems)
    sp_idx = IndexSet(setting, 1, tuple((plan.s * x) % nr for x in plan.p_elems))
    sp = Splitting(setting, 1, plan.s, p_idx, sp_idx, SplittingKind.TYPE_II)
    res = duadic.verify_splitting(sp)
    if not res.ok:
        raise Internal(f"planned splitting failed check {res.first_failure}")
    return sp


def mds_report(q: int, lam=None) -> dict:
    """CLI payload: the pair's reports plus the distance/MDS verdict.

    The exact distance is enumerated when the message space fits the
    cap; otherwise the consecutive-root lower bound is certified and the
    MDS flag is left undecided.
    """
    plan = grs_plan(q)
    sp = grs_splitting(plan, lam)
    c1, c2 = sp.codes()
    d_expected = (q + 5) // 2
    out = {
        "q": q,
        "n": plan.n,
        "lambda": gf.element_to_text(
            sp.setting.field, sp.setting.lam.label
        ),
        "s": plan.s,
        "d_expected": d_expected,
    }
    try:
        d1 = codes.min_distance(c1)
        d2 = codes.min_distance(c2)
        out["d_found"] = int(d1)
        out["mds"] = bool(
            d1 == plan.n - c1.dim + 1 and d2 == plan.n - c2.dim + 1
        )
        out["codes"] = [codes.code_report(c1, d1), codes.code_report(c2, d2)]
    except TooLarge:
        bound = min(
            codes.distance_lower_bound(c1), codes.distance_lower_bound(c2)
        )
        out["d_lower_bound"] = bound
        out["mds"] = None
        out["codes"] = [codes.code_report(c1), codes.code_report(c2)]
    return out
