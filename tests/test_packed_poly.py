"""Packed polynomial products and quotients against the schoolbook.

Poly.__mul__ and Poly.__divmod__ pack the base-p coordinates of every
coefficient into slots of one int (see the gf module docstring); the
references in oracles.py are the plain coefficient loops.  The fields
stress each part of the packing: the prime fields GF(2) and GF(13),
GF(1048573) with the widest slots, characteristic-2 extensions up to
degree 20, and odd extensions of degree 2 and 12.  Operands filled with
q - 1, whose coordinates are all p - 1, drive the middle slots of a
product to the bound its slot width is chosen for.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from constacyclic import Poly, gf, make_field, make_setting, poly_from_root_set
from constacyclic.errors import DivideByZero

from oracles import poly_add_reference, poly_divmod_reference, poly_mul_reference

FIELDS = [
    (2, 1), (13, 1), (1048573, 1),
    (2, 4), (2, 10), (2, 20),
    (3, 2), (17, 2), (3, 12),
]
MAX_LEN = 40
SETTINGS = settings(
    max_examples=300,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def coefficients(q):
    label = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    return st.one_of(
        st.lists(label, max_size=MAX_LEN).map(tuple),
        st.integers(0, MAX_LEN).map(lambda k: (q - 1,) * k),
    )


@st.composite
def operands(draw):
    F = make_field(*draw(st.sampled_from(FIELDS)))
    return F, Poly(F, draw(coefficients(F.q))), Poly(F, draw(coefficients(F.q)))


def check_product(F, a, b):
    assert (a * b).coeffs == poly_mul_reference(F, a.coeffs, b.coeffs)


def check_quotient(F, a, b):
    if b.is_zero:
        with pytest.raises(DivideByZero):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert (q.coeffs, r.coeffs) == poly_divmod_reference(F, a.coeffs, b.coeffs)
    qb = poly_mul_reference(F, q.coeffs, b.coeffs)
    assert Poly(F, poly_add_reference(F, qb, r.coeffs)) == a
    assert r.degree < b.degree


@SETTINGS
@given(operands())
def test_product_matches_schoolbook(ops):
    check_product(*ops)


@SETTINGS
@given(operands())
def test_quotient_matches_schoolbook(ops):
    check_quotient(*ops)


@pytest.mark.parametrize("p, m", FIELDS)
def test_edge_shapes(p, m):
    """Zero and constant operands, a non-monic divisor, a divisor longer
    than the dividend, and dividends X^n - c by a short and a long divisor."""
    F = make_field(p, m)
    top = F.q - 1
    zero, const = Poly(F, ()), Poly(F, (top,))
    long = Poly(F, tuple(i % F.q for i in range(1, 30)))
    short = Poly(F, (1, top, top))
    binomial = gf.poly_x_pow_minus(F, 60, top)
    # a 132-term quotient, 8 Newton rounds, and a remainder of up to 69 terms
    long_binomial = gf.poly_x_pow_minus(F, 200, top)
    wide = Poly(F, tuple((5 * i + 2) % F.q for i in range(69)) + (top,))
    for a, b in [
        (zero, long), (long, zero), (zero, zero), (const, long), (const, const),
        (long, short), (short, long), (binomial, short), (binomial, const),
        (long_binomial, wide),
    ]:
        check_product(F, a, b)
        check_quotient(F, a, b)


def test_coset_polynomial_divides_its_binomial():
    """X^8191 - 1 over GF(2) by the coset polynomial of {2^i mod 8191}:
    an 8,179-term quotient, and no remainder."""
    st = make_setting(2, 8191, 1)
    b = poly_from_root_set(st.tower, [1 << i for i in range(13)])
    a = gf.poly_x_pow_minus(st.field, 8191, 1)
    q, r = divmod(a, b)
    assert r.is_zero
    assert (q.coeffs, ()) == poly_divmod_reference(st.field, a.coeffs, b.coeffs)


@pytest.mark.parametrize("p, m", FIELDS)
def test_wider_slots_agree(monkeypatch, p, m):
    """Slots wider than needed, 16 bytes included, change no result."""
    F = make_field(p, m)
    a = Poly(F, tuple((F.q - 1 - 7 * i) % F.q for i in range(25)))
    b = Poly(F, tuple((3 + 11 * i) % F.q for i in range(9)) + (F.q - 1,))
    want_product = a * b
    want_quotient = divmod(a, b)
    for wb in (8, 16):
        monkeypatch.setattr(gf, "_slot_bytes", lambda F, terms: wb)
        assert a * b == want_product
        assert divmod(a, b) == want_quotient


@pytest.mark.parametrize("wb", [1, 2, 16])
def test_gf2_packs_one_slot_per_coefficient(wb):
    """GF(2) packs like every other prime field, one slot per coefficient."""
    F = make_field(2, 1)
    assert gf._pack(F, (1,) * 100, wb).bit_length() <= 8 * 100 * wb
