from fractions import Fraction

import pytest

from griess_forge.commutants import e8_side
from griess_forge.involutions import (W2Space, ad_spectrum, ad_matrix,
                                      tau_involution, map_order)
from griess_forge.linalg import identity

F = Fraction


@pytest.mark.slow
def test_ising_spectrum_on_even_weight_two():
    side = e8_side()
    sp = W2Space(side.alg)
    ec = sp.element_vec(side.ehat)
    eig = ad_spectrum(sp, ec)
    assert set(eig) <= {F(2), F(0), F(1, 2), F(1, 16)}
    assert sum(len(b) for b in eig.values()) == 156
    assert len(eig[F(2)]) == 1
    # no 1/16 sector on the theta-even space: tau is the identity here
    assert F(1, 16) not in eig
    t = tau_involution(sp, ec)
    assert t == identity(156)
    assert map_order(t) == 1


@pytest.mark.slow
def test_deflated_ising_eigenbases_are_the_full_shift_kernels():
    # ad_spectrum takes each kernel on the quotient the earlier candidates
    # leave (156, then 36, 36 and 1 dimensions); each lifted eigenbasis
    # spans the kernel of A - lambda on the whole 156-dim space
    from griess_forge.linalg import kernel, rank
    side = e8_side()
    sp = W2Space(side.alg)
    ec = sp.element_vec(side.ehat)
    mat = ad_matrix(sp, ec)
    eig = ad_spectrum(sp, ec)
    assert {lam: len(b) for lam, b in eig.items()} == {F(0): 120, F(1, 2): 35, F(2): 1}
    for lam in (F(0), F(1, 16), F(1, 2), F(2)):
        full = kernel([[x - lam if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(mat)])
        basis = eig.get(lam, [])
        assert len(basis) == len(full)
        assert not full or rank(basis) == rank(basis + full) == len(full)


@pytest.mark.slow
def test_commutant_of_frame_vector_dimension():
    from griess_forge.linalg import kernel
    side = e8_side()
    sp = W2Space(side.alg)
    wq = sp.element_vec(side.omega_q)
    ker = kernel(ad_matrix(sp, wq))
    assert len(ker) == 60
    # the distinguished 6/7 vector lies in the commutant and its adjoint
    # action there is parity-even (the weight-two sigma is the identity)
    from griess_forge.involutions import restrict_map
    from griess_forge.minimal import highest_weight, all_labels
    adv = ad_matrix(sp, sp.element_vec(side.omega_e6))
    advk = restrict_map(sp, adv, ker)
    cands = sorted({F(2)} | {highest_weight(4, r, s) for r, s in all_labels(4)})
    total = 0
    found = {}
    n = len(ker)
    for lam in cands:
        kb = kernel([[advk[i][j] - (lam if i == j else 0) for j in range(n)]
                     for i in range(n)])
        if kb:
            found[lam] = len(kb)
            total += len(kb)
    assert total == 60
    assert set(found) == {F(2), F(0), F(5, 7)}
