from fractions import Fraction
from types import SimpleNamespace

import pytest

from griess_forge.commutants import (
    node_case, g2a_table, g3a_table, tilde_v_pair,
    orthogonal_complement_virasoro, weight2_dimension_census, span_closure,
)
from griess_forge.exact import zeta
from griess_forge.involutions import W2Space, ad_matrix
from griess_forge.linalg import kernel, rank, row_span_coords
from griess_forge.w2 import W2Element, conformal_vector, virasoro_check

F = Fraction


def embedding_mismatches(fd):
    """The basis pairs (a, b), by name, whose embedded product or form
    differs from the structure constants; empty when they all agree."""
    alg, emb = fd.space, fd.embedding
    bad = []
    for i in range(fd.dim):
        for j in range(i, fd.dim):
            want = W2Element()
            for k, c in enumerate(fd.mult[i][j]):
                if c:
                    want = want + emb[k].scale(c)
            if (alg.product(emb[i], emb[j]) != want
                    or alg.form(emb[i], emb[j]) != fd.gram[i][j]):
                bad.append((fd.names[i], fd.names[j]))
    return bad


def commutant_kernel_dimension(case):
    """Dimension of ker ad(omega - sum of frame vectors) on the ambient space.

    The complement of the frame inside the full conformal vector is itself
    a Virasoro vector; the weight-two part of its commutant is exactly the
    kernel of its adjoint action (the form is positive definite and the
    eigenvalues are nonnegative).  Equality with the span dimension shows
    the frame-plus-coset-sum basis is the whole commutant, not just a
    subalgebra of it.
    """
    alg = case.alg
    comp = conformal_vector(alg)
    for w in case.frame:
        comp = comp - w
    ok, c = virasoro_check(alg, comp)
    if not ok:
        raise AssertionError("frame complement is not a Virasoro vector")
    sp = W2Space(alg)
    ker = kernel(ad_matrix(sp, sp.element_vec(comp)))
    # the even projections of the commutant basis must fill the kernel
    # (for odd marks the coset sums pair off under the lattice involution,
    # so only their symmetric combinations live in the even space)
    rows = []
    for e in case.fd.embedding:
        even = (e + e.theta()).scale(F(1, 2))
        if even != W2Element():
            rows.append(sp.element_vec(even))
    if rank(rows) != len(ker):
        raise AssertionError("even commutant dimension %d, kernel dimension %d"
                             % (rank(rows), len(ker)))
    coords = row_span_coords(rows, ker)
    if None in coords:
        raise AssertionError("kernel vector %d escapes the commutant basis"
                             % coords.index(None))
    return len(ker), c


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


def test_census_records_a_short_commutant():
    # a 3A algebra one basis element short is a recorded mismatch
    stub = SimpleNamespace(node="3A", mark=3, frame=[None] * 3,
                           fd=SimpleNamespace(dim=4))
    assert weight2_dimension_census(stub) == (5, 4)


def test_2a_matches_reference_table(case_2a):
    fd = case_2a.fd
    ref = g2a_table()
    assert fd.names == ref.names
    assert fd.mult == ref.mult
    assert fd.gram == ref.gram
    assert fd.check_invariance() == []
    assert embedding_mismatches(fd) == []


def test_2a_frame_charges(case_2a):
    gram = case_2a.fd.gram
    assert [2 * gram[s][s] for s in range(2)] == [F(1, 2), F(5, 4)]


def test_3a_matches_reference_table(case_3a):
    fd = case_3a.fd
    ref = g3a_table()
    assert fd.names == ref.names
    assert fd.mult == ref.mult
    assert fd.gram == ref.gram
    assert fd.check_invariance() == []
    assert embedding_mismatches(fd) == []


def test_3a_frame_charges(case_3a):
    gram = case_3a.fd.gram
    assert [2 * gram[s][s] for s in range(3)] == [F(4, 5)] * 3


def test_1a_griess_is_tilde_omega(case_1a):
    fd = case_1a.fd
    assert fd.dim == 1
    ok, c = virasoro_check(fd, fd.element("w1"))
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
    twice = case_2a.rho.with_weights([2 * w for w in case_2a.rho.weights])
    assert twice.apply(x) == x


def test_orthogonal_complement(case_2a):
    fd = case_2a.fd
    u = orthogonal_complement_virasoro(case_2a)
    ok, c = virasoro_check(fd, u)
    assert ok and c == F(25, 28)
    v, _ = tilde_v_pair(case_2a)
    v_fd = fd.combo(w1=F(2, 7), w2=F(4, 7), X=F(1, 14))
    assert fd.form_vec(v_fd, u) == 0
    total = [a + b for a, b in zip(v_fd, u)]
    assert total == fd.combo(w1=1, w2=1)


def test_virasoro_check_answers_alike_in_three_representations(case_2a):
    # one element, as a W2Element of the lattice algebra, in class
    # coordinates of its W2Space and in coordinates of the node algebra
    fd, alg = case_2a.fd, case_2a.alg
    space = W2Space(alg)
    v, _vp = tilde_v_pair(case_2a)
    cases = [(fd.embedding[fd.index("w1")], (True, F(1, 2))),
             (fd.embedding[fd.index("w2")], (True, F(5, 4))),
             (fd.embedding[fd.index("X")], (False, F(80))),
             (v, (True, F(6, 7))),
             (W2Element(), (False, F(0)))]
    for elem, want in cases:
        coords, = fd.coordinates([elem])
        assert virasoro_check(alg, elem) == want
        assert virasoro_check(space, space.element_vec(elem)) == want
        assert virasoro_check(fd, coords) == want


def test_2a_generated_by_pair(case_2a):
    v, vp = tilde_v_pair(case_2a)
    closed = span_closure(case_2a.alg, [v, vp])
    assert len(closed) == 3


def test_3a_not_generated_by_pair(case_3a):
    v, vp = tilde_v_pair(case_3a)
    closed = span_closure(case_3a.alg, [v, vp])
    assert len(closed) == 3      # the diagram-symmetry fixed subalgebra
    # the fixed subalgebra is spanned by w1+w2+w3, X1, X2
    alg = case_3a.alg
    fd = case_3a.fd
    rows = [alg.signed_coords(e) for e in closed]
    ws = fd.embedding[0] + fd.embedding[1] + fd.embedding[2]
    for e in (ws, fd.embedding[3], fd.embedding[4]):
        assert row_span_coords(rows, [alg.signed_coords(e)]) != [None]


def test_commutant_closure_is_exact(case_1a, case_2a, case_3a):
    # the kernel of the frame complement on the even weight-two space is
    # exactly the even part of the node algebra: no extra elements
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
    one_by_one = [row_span_coords(rows, [alg.signed_coords(e)])[0] for e in elems]
    assert fd.coordinates(elems) == one_by_one


def test_coordinates_of_no_elements_are_empty(case_2a):
    assert case_2a.fd.coordinates([]) == []


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
