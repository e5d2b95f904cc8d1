from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from griess_forge.exact import CycNum, zeta, sqrt3, cyc, coeff_str, rational_str


def test_primitive_cube_roots_sum_to_minus_one():
    assert zeta(3, 1) + zeta(3, 2) == -1


def test_sqrt3_squares_to_three():
    s = zeta(12, 1) + zeta(12, 11)
    assert s == sqrt3()
    assert s * s == 3


def test_i_squares_to_minus_one():
    i = zeta(4, 1)
    assert i * i == -1


def test_zeta12_sixth_power():
    assert zeta(12, 1) ** 6 == -1


def test_cube_root_identity():
    z3 = zeta(3, 1)
    assert (1 + z3) * (-z3) == 1


def test_conjugation():
    z3 = zeta(3, 1)
    assert z3.conjugate() == zeta(3, 2)
    x = CycNum(1, 2, Fraction(3, 7), -1)
    assert x.conjugate().conjugate() == x


def test_bad_level_rejected():
    with pytest.raises(ValueError):
        zeta(5, 1)


def test_division():
    x = CycNum(1, 1, 0, 0)
    assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CycNum().inverse()


def test_mixed_arithmetic_with_fractions():
    z = zeta(12)
    assert Fraction(1, 2) * z + z * Fraction(1, 2) == z
    assert (1 + z) - z == 1
    assert Fraction(3, 4) / CycNum(2) == Fraction(3, 8)
    assert cyc(Fraction(2, 3)).rational_part() == Fraction(2, 3)


def test_serialization():
    assert rational_str(Fraction(-3, 7)) == "-3/7"
    assert coeff_str(CycNum(1, 0, Fraction(1, 2), 0)) == "1 + 1/2*z^2"
    assert coeff_str(CycNum()) == "0"


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
cycnums = st.builds(CycNum, small_rationals, small_rationals,
                    small_rationals, small_rationals)


@given(cycnums, cycnums, cycnums)
def test_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == 1


@given(cycnums, cycnums)
def test_conjugation_is_ring_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(small_rationals, small_rationals)
def test_real_subfield_fixed_by_conjugation(p, q):
    # conjugation fixes the real subfield Q(sqrt(3)) pointwise
    x = CycNum(p) + cyc(q) * sqrt3()
    assert x.conjugate() == x
    y = x * x.conjugate()
    assert y == y.conjugate()
    assert y == x * x


def _galois(x, k):
    """The field map z -> z^k, written out on the powers of z."""
    out = [Fraction(0)] * 4
    for j, q in enumerate(x.co):
        for t, m in enumerate(zeta(12, j * k).co):
            out[t] += q * m
    return CycNum(*out)


def _galois_inverse(x):
    """x^-1 as the product of the other three Galois conjugates over the norm."""
    prod = _galois(x, 5) * _galois(x, 7) * _galois(x, 11)
    return prod * (1 / (x * prod).rational_part())


wide_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=40)


@settings(max_examples=300)
@given(st.builds(CycNum, wide_rationals, wide_rationals, wide_rationals,
                 wide_rationals))
def test_inverse_equals_the_galois_conjugate_quotient(x):
    # CycNum.inverse takes the conjugate product over Z[z] (_zcofactor)
    if x:
        inv = x.inverse()
        assert type(inv) is CycNum
        assert inv.co == _galois_inverse(x).co


def _written_out_product(a, b):
    """CycNum.__mul__ as it was written out before it called _zmul: the
    rational fast paths and p0..p6 reduced by z^4 = z^2 - 1, z^6 = -1."""
    zero = (Fraction(0),) * 4
    if not a[1] and not a[2] and not a[3]:
        s = a[0]
        return (s * b[0], s * b[1], s * b[2], s * b[3]) if s else zero
    if not b[1] and not b[2] and not b[3]:
        s = b[0]
        return (s * a[0], s * a[1], s * a[2], s * a[3]) if s else zero
    p0 = a[0] * b[0]
    p1 = a[0] * b[1] + a[1] * b[0]
    p2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0]
    p3 = a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0]
    p4 = a[1] * b[3] + a[2] * b[2] + a[3] * b[1]
    p5 = a[2] * b[3] + a[3] * b[2]
    p6 = a[3] * b[3]
    return (p0 - p4 - p6, p1 - p5, p2 + p4, p3 + p5)


factors = st.one_of(
    cycnums,
    st.builds(CycNum, small_rationals),                # rational, zero included
    st.just(CycNum()),
    st.builds(zeta, st.just(12), st.integers(0, 11)),  # roots of unity
)


@settings(max_examples=300)
@given(factors, factors, small_rationals)
def test_mul_matches_the_written_out_product(a, b, q):
    for x, y in ((a, b), (a, cyc(q)), (cyc(q), b)):
        got = (x * y).co
        assert got == _written_out_product(x.co, y.co)
        assert all(type(t) is Fraction for t in got)
    assert (a * q).co == (q * a).co == _written_out_product(a.co, cyc(q).co)
