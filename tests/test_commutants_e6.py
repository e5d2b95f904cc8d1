from fractions import Fraction

import pytest

from griess_forge.commutants import (
    node_case, g2a_table, g3a_table, tilde_v_pair,
    orthogonal_complement_virasoro, weight2_dimension_census, span_closure,
)
from griess_forge.exact import zeta
from griess_forge.linalg import row_span_coords
from griess_forge.w2 import virasoro_check

F = Fraction


@pytest.fixture(scope="module")
def case_1a():
    return node_case("1A")


@pytest.fixture(scope="module")
def case_2a():
    return node_case("2A")


@pytest.fixture(scope="module")
def case_3a():
    return node_case("3A")


def test_census(case_1a, case_2a, case_3a):
    assert weight2_dimension_census(case_1a) == (1, 1)
    assert weight2_dimension_census(case_2a) == (3, 3)
    assert weight2_dimension_census(case_3a) == (5, 5)


def test_2a_matches_reference_table(case_2a):
    fd = case_2a.fd
    ref = g2a_table()
    assert fd.names == ref.names
    assert fd.mult == ref.mult
    assert fd.gram == ref.gram
    assert fd.check_invariance() == []
    fd.check_embedding()


def test_2a_frame_charges(case_2a):
    assert case_2a.frame_charges == [F(1, 2), F(5, 4)]


def test_3a_matches_reference_table(case_3a):
    fd = case_3a.fd
    ref = g3a_table()
    assert fd.names == ref.names
    assert fd.mult == ref.mult
    assert fd.gram == ref.gram
    assert fd.check_invariance() == []
    fd.check_embedding()


def test_3a_frame_charges(case_3a):
    assert case_3a.frame_charges == [F(4, 5)] * 3


def test_1a_griess_is_tilde_omega(case_1a):
    fd = case_1a.fd
    assert fd.dim == 1
    ok, c = fd.is_virasoro(fd.element("w1"))
    assert ok and c == F(6, 7)


def test_tilde_v_values(case_1a, case_2a, case_3a):
    for case, want in ((case_1a, F(3, 7)), (case_2a, F(1, 49)),
                       (case_3a, F(3, 196))):
        v, vp = tilde_v_pair(case)
        alg = case.alg
        ok, c = virasoro_check(alg, v)
        assert ok and c == F(6, 7)
        got = alg.form(v, vp)
        assert got == want, (case.node, got)


def test_1a_pair_is_equal(case_1a):
    v, vp = tilde_v_pair(case_1a)
    assert v == vp


def test_2a_pair_coefficients(case_2a):
    v, vp = tilde_v_pair(case_2a)
    fd = case_2a.fd
    want_v = fd.embedding[0].scale(F(2, 7)) + fd.embedding[1].scale(F(4, 7)) \
        + fd.embedding[2].scale(F(1, 14))
    want_vp = fd.embedding[0].scale(F(2, 7)) + fd.embedding[1].scale(F(4, 7)) \
        + fd.embedding[2].scale(-F(1, 14))
    assert v == want_v
    assert vp == want_vp


def test_3a_pair_coefficients(case_3a):
    v, vp = tilde_v_pair(case_3a)
    fd = case_3a.fd
    z = zeta(3)
    ws = fd.embedding[0] + fd.embedding[1] + fd.embedding[2]
    want_vp = ws.scale(F(5, 14)) + fd.embedding[3].scale(z * F(1, 14)) \
        + fd.embedding[4].scale(z * z * F(1, 14))
    assert vp == want_vp


def test_rho_orientation(case_3a):
    # the character multiplies X1 by the primitive cube root, X2 by its square
    x1 = case_3a.xs[0]
    z = zeta(3)
    assert case_3a.rho.apply(x1) == x1.scale(z)


def test_rho_2a_involution(case_2a):
    x = case_2a.xs[0]
    assert case_2a.rho.apply(x) == x.scale(F(-1))
    twice = case_2a.rho.power(2)
    assert twice.apply(x) == x


def test_orthogonal_complement(case_2a):
    fd = case_2a.fd
    u = orthogonal_complement_virasoro(case_2a)
    ok, c = fd.is_virasoro(u)
    assert ok and c == F(25, 28)
    v, _ = tilde_v_pair(case_2a)
    v_fd = fd.combo(w1=F(2, 7), w2=F(4, 7), X=F(1, 14))
    assert fd.form_vec(v_fd, u) == 0
    total = [a + b for a, b in zip(v_fd, u)]
    assert total == fd.combo(w1=1, w2=1)


def test_2a_generated_by_pair(case_2a):
    v, vp = tilde_v_pair(case_2a)
    closed = span_closure(case_2a.alg.product, case_2a.alg.signed_coords, [v, vp])
    assert len(closed) == 3


def test_3a_not_generated_by_pair(case_3a):
    v, vp = tilde_v_pair(case_3a)
    closed = span_closure(case_3a.alg.product, case_3a.alg.signed_coords, [v, vp])
    assert len(closed) == 3      # the diagram-symmetry fixed subalgebra
    # the fixed subalgebra is spanned by w1+w2+w3, X1, X2
    alg = case_3a.alg
    fd = case_3a.fd
    from griess_forge.linalg import row_span_coords
    rows = [alg.signed_coords(e) for e in closed]
    ws = fd.embedding[0] + fd.embedding[1] + fd.embedding[2]
    for e in (ws, fd.embedding[3], fd.embedding[4]):
        assert row_span_coords(rows, alg.signed_coords(e)) is not None


def test_commutant_closure_is_exact(case_1a, case_2a, case_3a):
    # the kernel of the frame complement on the even weight-two space is
    # exactly the even part of the node algebra: no extra elements
    from griess_forge.commutants import commutant_kernel_dimension
    for case, dim, charge in ((case_1a, 1, F(36, 7)), (case_2a, 3, F(17, 4)),
                              (case_3a, 4, F(18, 5))):
        kdim, c = commutant_kernel_dimension(case)
        assert kdim == dim
        assert c == charge


def test_coordinates_match_row_span_coords(case_3a):
    fd, alg = case_3a.fd, case_3a.alg
    v, vp = tilde_v_pair(case_3a)
    elems = [v, vp] + [case_3a.rho.apply(e) for e in fd.embedding]
    rows = [alg.signed_coords(e) for e in fd.embedding]
    assert fd.coordinates(elems) == [row_span_coords(rows, alg.signed_coords(e))
                                     for e in elems]


def test_coordinates_name_an_element_outside_the_span(case_2a):
    fd = case_2a.fd
    with pytest.raises(ValueError, match="element 1 is not in the span"):
        fd.coordinates([fd.embedding[0], case_2a.alg.basis_element(0)])


def test_rational_coordinates_are_fractions_in_a_cyclotomic_batch(case_3a):
    # v' is cyclotomic, so the batch is solved over Z[z]; v's coordinates
    # stay Fractions and sigma_v runs in rational arithmetic
    v, vp = tilde_v_pair(case_3a)
    vc, vpc = case_3a.fd.coordinates([v, vp])
    assert all(type(c) is Fraction for c in vc)
    assert any(type(c) is not Fraction for c in vpc)
