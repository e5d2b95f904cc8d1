from fractions import Fraction

import pytest

from griess_forge.commutants import (
    e8_side, vnx_griess, u3a_griess, u3a_table, u6a_table, nine_orbit_algebra,
)
from griess_forge.linalg import row_span_coords
from griess_forge.w2 import virasoro_check, CosetCharacter

F = Fraction


@pytest.fixture(scope="module")
def side():
    return e8_side()


def test_frame_vectors(side):
    for v, want in ((side.ehat, F(1, 2)), (side.omega_q, F(4, 5)),
                    (side.omega_e6, F(6, 7))):
        ok, c = virasoro_check(side.alg, v)
        assert ok and c == want
    assert side.alg.form(side.omega_q, side.omega_e6) == 0
    assert side.alg.product(side.omega_q, side.omega_e6).is_zero()


def test_vnx_1a_is_the_dihedral_table(side):
    fd, _side, (sub, moduli, classify, classes, charges) = vnx_griess("1A")
    assert fd.dim == 4
    assert charges == [F(4, 5), F(6, 7)]
    ref = u3a_table()
    assert fd.mult == ref.mult
    assert fd.gram == ref.gram
    fd.check_invariance()


def test_vnx_2a_is_the_order6_table(side):
    fd, _side, (sub, moduli, classify, classes, charges) = vnx_griess("2A")
    assert fd.dim == 8
    assert moduli == (6,)
    assert sorted(charges) == [F(2, 5), F(1, 2)] or charges == [F(4, 5), F(1, 2), F(5, 4)]
    ref = u6a_table()
    # frame order differs: here (4/5, 1/2, 5/4), reference (1/2, 4/5, 5/4)
    perm = {"w1": "w2", "w2": "w1", "w3": "w3",
            "X1": "X1", "X2": "X2", "X3": "X3", "X4": "X4", "X5": "X5"}
    inv = {v: k for k, v in perm.items()}
    for a in fd.names:
        for b in fd.names:
            mine = fd.mult[fd.index(a)][fd.index(b)]
            want_row = ref.mult[ref.index(perm[a])][ref.index(perm[b])]
            translated = [F(0)] * 8
            for k, c in enumerate(want_row):
                if c:
                    translated[fd.index(inv[ref.names[k]])] = c
            assert mine == translated, (a, b)
            assert (fd.gram[fd.index(a)][fd.index(b)]
                    == ref.gram[ref.index(perm[a])][ref.index(perm[b])])


def test_special_vector_is_the_table_ising(side):
    # ehat decomposes over the order-6 algebra exactly as the reference
    # Ising expression (all five coset sums with coefficient 1/32)
    fd, _side, _data = vnx_griess("2A")
    rows = [side.alg.signed_coords(e) for e in fd.embedding]
    c = row_span_coords(rows, side.alg.signed_coords(side.ehat))
    assert c == [F(5, 32), F(1, 8), F(1, 4),
                 F(1, 32), F(1, 32), F(1, 32), F(1, 32), F(1, 32)]


def test_tilde_v_in_2a_side(side):
    fd, _side, _data = vnx_griess("2A")
    rows = [side.alg.signed_coords(e) for e in fd.embedding]
    c = row_span_coords(rows, side.alg.signed_coords(side.omega_e6))
    # (2/7) w_{1/2} + (4/7) w_{5/4} + (1/14) X3: the node table embedded
    assert c == [F(0), F(2, 7), F(4, 7), F(0), F(0), F(1, 14), F(0), F(0)]


def test_u3a_orbit_mode_matches_table(side):
    fd = u3a_griess("e8_orbit")
    ref = u3a_table()
    assert fd.mult == ref.mult and fd.gram == ref.gram
    # the recovered frame vectors are the two distinguished tilde vectors
    assert fd.embedding[0] == side.omega_q
    assert fd.embedding[1] == side.omega_e6


def test_u3a_table_mode():
    fd = u3a_griess("table")
    assert fd.dim == 4
    with pytest.raises(ValueError):
        u3a_griess("nonsense")


def test_nine_orbit_dimension(side):
    fd12, _side, (chi1, chi2), orbit = nine_orbit_algebra()
    assert fd12.dim == 12
    assert len(orbit) == 9
    assert chi1.order() == 3 and chi2.order() == 3


def test_2a_coset_class_sizes(side):
    # root counts per congruence class: 38 + 36 + 45 + 40 + 45 + 36 = 240
    fd, _side, (sub, moduli, classify, classes, charges) = vnx_griess("2A")
    counts = {}
    for v in side.alg.vectors4:
        counts[classify(v)] = counts.get(classify(v), 0) + 1
    assert counts[(0,)] == 38
    assert counts[(3,)] == 40
    assert {counts[(1,)], counts[(5,)]} == {36}
    assert {counts[(2,)], counts[(4,)]} == {45}


def test_orbit_inner_products_on_order6_algebra(side):
    # <e^i, e^j> depends only on the circular distance: 5/2^10 at distance
    # one, 13/2^10 at distance two, 1/32 at distance three; the frame
    # charge-1/2 vector pairs with every e^i in 1/32
    fd, _side, (sub, moduli, classify, classes, charges) = vnx_griess("2A")
    alg = side.alg
    chi = CosetCharacter(alg, sub.basis)
    assert chi.order() == 6
    es = []
    cur = side.ehat
    for j in range(6):
        es.append(cur)
        cur = chi.apply(cur)
    want = {1: F(5, 1024), 2: F(13, 1024), 3: F(1, 32)}
    for i in range(6):
        for j in range(i + 1, 6):
            d = min((i - j) % 6, (j - i) % 6)
            assert alg.form(es[i], es[j]) == want[d], (i, j)
    w_half = fd.embedding[1]    # the charge-1/2 frame vector
    for e in es:
        assert alg.form(w_half, e) == F(1, 32)


def test_two_ising_vectors_generate_dihedral_algebra(side):
    # the span closure of a single twisted pair is already the whole
    # four-dimensional algebra
    from griess_forge.commutants import span_closure
    rows = [list(r) for r in side.q_sub.basis] + \
        [list(r) for r in side.e6_sub.basis]
    eta = side.character(rows, orders=3)
    closed = span_closure(side.alg.product, side.alg.signed_coords,
                          [side.ehat, eta.apply(side.ehat)])
    assert len(closed) == 4


def test_tau_orders_on_order6_algebra(side):
    # the tau of the special vector has order 2 on the eight-dimensional
    # algebra, and the product with its twist has order 3 at weight two
    from griess_forge.involutions import tau_involution, map_order
    from griess_forge.linalg import mat_mul
    fd, _side, (sub, moduli, classify, classes, charges) = vnx_griess("2A")
    alg = side.alg
    rows = [alg.signed_coords(e) for e in fd.embedding]
    chi = CosetCharacter(alg, sub.basis)
    e0 = row_span_coords(rows, alg.signed_coords(side.ehat))
    e1 = row_span_coords(rows, alg.signed_coords(chi.apply(side.ehat)))
    t0 = tau_involution(fd, e0)
    t1 = tau_involution(fd, e1)
    assert map_order(t0) == 2
    assert map_order(mat_mul(t0, t1)) == 3


def test_six_vector_tau_shadow(side):
    # at weight two the six twisted Ising vectors give only three distinct
    # taus: antipodal pairs agree (their product with the half-charge frame
    # tau, the identity here, is forced), and distinct taus have product
    # order 3; the dihedral shadow is the symmetric group on three letters
    from griess_forge.involutions import (transposition_scan, tau_involution,
                                          map_order, group_closure)
    from griess_forge.linalg import mat_eq, mat_mul, identity
    fd, _side, (sub, moduli, classify, classes, charges) = vnx_griess("2A")
    alg = side.alg
    rows = [alg.signed_coords(e) for e in fd.embedding]
    chi = CosetCharacter(alg, sub.basis)
    es, cur = [], side.ehat
    for _ in range(6):
        es.append(row_span_coords(rows, alg.signed_coords(cur)))
        cur = chi.apply(cur)
    orders, violations, maps = transposition_scan(fd, es, "tau_ising")
    assert violations == []
    for i in range(6):
        for j in range(6):
            want = 1 if (i - j) % 3 == 0 else 3
            assert orders[i][j] == want
    for i in range(3):
        assert mat_eq(maps[i], maps[i + 3])
    t_half = tau_involution(fd, fd.element("w2"))
    assert mat_eq(t_half, identity(8))
    n, _elems = group_closure(maps[:2])
    assert n == 6
