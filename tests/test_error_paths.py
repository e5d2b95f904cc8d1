import warnings
from fractions import Fraction

import pytest

from griess_forge.commutants import (_frame, u3a_table, fd_from_elements, e8_side)
from griess_forge.involutions import (tau_involution, sigma_involution,
                                      group_closure, ad_spectrum)
from griess_forge.lattices import (build_root_lattice, Sublattice, cosets,
                                   quotient_structure, short_vectors,
                                   isometry_test, affine_e6, node_sublattice)
from griess_forge.linalg import identity, solve
from griess_forge.w2 import W2Algebra, coset_sum

F = Fraction


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve([[F(1), F(0)], [F(0), F(1)]], [F(1)])


def test_tau_rejects_wrong_charge():
    fd = u3a_table()
    with pytest.raises(ValueError):
        tau_involution(fd, fd.element("w1"))    # charge 4/5, not 1/2


def test_sigma_rejects_wrong_m_and_charge():
    fd = u3a_table()
    with pytest.raises(ValueError, match="sigma_c67 .* central charge 6/7"):
        sigma_involution(fd, fd.element("w1"))      # charge 4/5, not 6/7


def test_ad_spectrum_needs_virasoro():
    fd = u3a_table()
    with pytest.raises(ValueError):
        ad_spectrum(fd, fd.element("Xp"))


def test_not_closed_span_reports_pair():
    side = e8_side()
    alg = side.alg
    # the Ising vector alone does close (it is idempotent), but together
    # with the charge-4/5 frame vector the span of the two is not closed
    with pytest.raises(ValueError):
        fd_from_elements(alg, [side.ehat, side.omega_q], ["e", "wq"])


def test_frame_names_a_component_that_is_not_virasoro():
    # the A2 roots with the Coxeter number of A3 give no Virasoro vector
    alg = W2Algebra(build_root_lattice("A", 2, scale=2))
    _vectors, charges = _frame(alg, [([[1, 0], [0, 1]], "A", 2)])
    assert charges == [F(4, 5)]
    with pytest.raises(AssertionError, match=r"frame member 2 \(A3\)"):
        _frame(alg, [([[1, 0], [0, 1]], "A", 2), ([[1, 0], [0, 1]], "A", 3)])


def test_dependent_elements_rejected():
    side = e8_side()
    with pytest.raises(ValueError):
        fd_from_elements(side.alg, [side.ehat, side.ehat.scale(F(2))], ["a", "b"])


def test_cosets_need_full_rank():
    a2 = build_root_lattice("A", 2)
    sub = Sublattice(a2, [[1, 0]])
    with pytest.raises(ValueError):
        quotient_structure(sub)
    with pytest.raises(ValueError):
        cosets(sub)


def test_odd_norm_in_even_lattice_is_empty():
    a2 = build_root_lattice("A", 2)
    assert short_vectors(a2, 3) == []
    assert short_vectors(a2, 0) == []


def test_isometry_rank_mismatch():
    with pytest.raises(ValueError):
        isometry_test(build_root_lattice("A", 2), build_root_lattice("A", 3))


def test_empty_coset_warns():
    alg = W2Algebra(build_root_lattice("A", 2, scale=2))
    aff_sub = Sublattice(alg.lattice, [[1, 0], [0, 1]])
    moduli, classify = quotient_structure(aff_sub)
    # trivial quotient: the only class is (); ask for a fictitious one
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        out = coset_sum(alg, lambda v: ("nothing",), ("missing",))
    assert out.is_zero()
    assert any("no norm-4" in str(x.message) for x in w)


def test_group_closure_identity():
    n, elems = group_closure([identity(3)])
    assert n == 1


def test_group_closure_cap():
    # an infinite-order rational matrix blows past any cap
    m = [[F(1), F(1)], [F(0), F(1)]]
    with pytest.raises(ValueError):
        group_closure([m], cap=16)


def test_nine_cosets_of_3a_sublattice():
    side = e8_side()
    sub = Sublattice(side.e8, side.ltilde_rows("3A"))
    reps, moduli, classify = cosets(sub)
    assert len(reps) == 9
    assert sorted(moduli) == [3, 3]


def test_mark_one_nodes_all_give_e6():
    aff = affine_e6()
    for node in (0, 1, 5):
        sub, mark, comps = node_sublattice(aff, node)
        assert mark == 1 and comps == [("E", 6)]
    for node in (2, 4, 6):
        sub, mark, comps = node_sublattice(aff, node)
        assert mark == 2 and comps == [("A", 1), ("A", 5)]


def test_w2_tracks_translation_residue():
    alg = W2Algebra(build_root_lattice("A", 2, scale=2))
    beta = alg.vectors4[0]
    nb = tuple(-t for t in beta)
    from griess_forge.w2 import W2Element, conformal_vector
    a = W2Element(exps={beta: F(1)})
    b = W2Element(exps={nb: F(1)})
    prod = alg.product(a, b)
    assert prod.d2    # the antisymmetric residue is tracked
    # and the reversed order flips its sign while the even part agrees
    rev = alg.product(b, a)
    assert rev.heis == prod.heis
    assert rev.d2 == {k: -v for k, v in prod.d2.items()}
    # the conformal vector acts as 2 on the d2 sector as well
    w = conformal_vector(alg)
    d = W2Element(d2={0: F(1)})
    assert alg.product(w, d) == d.scale(F(2))
    assert alg.product(d, d).is_zero()
