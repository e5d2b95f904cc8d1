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
    ok, c = virasoro_check(side.alg, side.ehat)
    assert ok and c == F(1, 2)
    assert side.alg.form(side.omega_q, side.omega_e6) == 0
    assert side.alg.product(side.omega_q, side.omega_e6).is_zero()
    # the 1A frame is the A2 + E6 split: omega_Q, then the E6 of the
    # punctured diagram, whose charges the checked table gives
    fd, _side, _chi = vnx_griess("1A")
    assert fd.embedding[1] == side.omega_e6
    charges = [2 * fd.gram[s][s] for s in range(2)]
    assert charges == [F(4, 5), F(6, 7)]
    assert all(fd.is_virasoro(fd.element(w)) == (True, c)
               for w, c in zip(("w1", "w2"), charges))


def test_vnx_takes_omega_q_from_the_side_and_checks_the_frame_on_its_table(
        side, monkeypatch):
    from griess_forge import w2

    def unexpected(alg, w):
        raise AssertionError("lattice-level virasoro_check")

    monkeypatch.setattr(w2, "virasoro_check", unexpected)
    fd, _side, _chi = vnx_griess("2A")
    assert fd.embedding[0] is side.omega_q
    assert [2 * fd.gram[s][s] for s in range(3)] == [F(4, 5), F(1, 2), F(5, 4)]


def test_vnx_1a_is_the_dihedral_table(side):
    fd, _side, _chi = vnx_griess("1A")
    assert fd.dim == 4
    assert [2 * fd.gram[s][s] for s in range(2)] == [F(4, 5), F(6, 7)]
    ref = u3a_table()
    assert fd.mult == ref.mult
    assert fd.gram == ref.gram
    assert fd.check_invariance() == []


def test_vnx_2a_is_the_order6_table(side):
    fd, _side, chi = vnx_griess("2A")
    assert fd.dim == 8
    assert chi.moduli == (6,)
    charges = [2 * fd.gram[s][s] for s in range(3)]
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
    fd, dim = u3a_griess()
    ref = u3a_table()
    assert dim == 4
    assert fd.mult == ref.mult and fd.gram == ref.gram
    assert all(type(c) is F for row in fd.mult for cell in row for c in cell)
    # the orbit is closed in coordinates over the 3A commutant, and the
    # recovered frame vectors are the two distinguished tilde vectors
    fd12 = nine_orbit_algebra()[0]
    assert fd.space is fd12
    assert fd.embedding[:2] == fd12.coordinates([side.omega_q, side.omega_e6])


def _eta(side):
    """The character of E8/(Q + E6) that is zeta_3 on simple root 6, as in
    u3a_griess; which class the default character labels 1 depends on the
    Smith transform."""
    rows = [list(r) for r in side.q_sub.basis] + [list(r) for r in side.e6_sub.basis]
    chi = CosetCharacter(side.alg, rows)
    return chi if chi.exponent_of(tuple(int(i == 6) for i in range(8))) == 1 else chi.power(2)


def reference_u3a_orbit(side):
    """The orbit-basis construction: close span{e, eta e, eta^2 e} and take
    the Fourier sums of the three orbit vectors over Q(z)."""
    from griess_forge.commutants import span_closure, fd_from_elements
    from griess_forge.exact import zeta
    alg = side.alg
    eta = _eta(side)
    e0 = side.ehat
    e1 = eta.apply(e0)
    e2 = eta.power(2).apply(e0)
    assert len(span_closure(alg, [e0, e1, e2])) == 4
    z, z2, third = zeta(3), zeta(3, 2), F(32, 3)
    xp = (e0 + e1.scale(z2) + e2.scale(z)).scale(third)
    xm = (e0 + e1.scale(z) + e2.scale(z2)).scale(third)
    s = e0 + e1 + e2
    pp = alg.product(xp, xm)
    det = F(15, 32) * 252 - F(21, 16) * 135
    w1 = (s.scale(F(252)) - pp.scale(F(21, 16))).scale(1 / det)
    w2 = (pp.scale(F(15, 32)) - s.scale(F(135))).scale(1 / det)
    if alg.product(xp, xp) != xm.scale(F(20)):
        xp, xm = xm, xp
    return fd_from_elements(alg, [w1, w2, xp, xm], ["w1", "w2", "Xp", "Xm"])


def test_u3a_orbit_equals_the_orbit_basis_construction(side):
    from griess_forge.exact import zeta
    fd, _dim = u3a_griess()
    ref = reference_u3a_orbit(side)
    assert fd.names == ref.names
    assert fd.mult == ref.mult and fd.gram == ref.gram
    assert len(fd.embedding) == len(ref.embedding) == 4
    assert fd.space.coordinates(ref.embedding) == fd.embedding
    # X+ and X- are the zeta_3 and zeta_3^2 eigenvectors of eta
    eta = _eta(side)
    xp, xm = ref.embedding[2], ref.embedding[3]
    assert eta.apply(xp) == xp.scale(zeta(3))
    assert eta.apply(xm) == xm.scale(zeta(3, 2))


def test_orbit_and_its_fourier_sums_span_the_same_space(side):
    from griess_forge.exact import zeta
    from griess_forge.linalg import rank
    alg = side.alg
    eta = _eta(side)
    e = side.ehat
    orbit = [e, eta.apply(e), eta.power(2).apply(e)]
    fourier = [orbit[0] + orbit[1].scale(z) + orbit[2].scale(z * z)
               for z in (zeta(3, 0), zeta(3), zeta(3, 2))]
    for vecs in (orbit, fourier, orbit + fourier):
        assert rank([alg.signed_coords(x) for x in vecs]) == 3


def test_nine_orbit_dimension(side):
    fd12, dim, chi, orbit = nine_orbit_algebra()
    assert fd12.dim == 12 and dim == 12
    assert len(orbit) == 9
    assert chi.moduli == (3, 3)
    assert chi.with_weights((1, 0)).order() == 3
    assert chi.with_weights((0, 1)).order() == 3


def test_2a_coset_class_sizes(side):
    # root counts per congruence class: 38 + 36 + 45 + 40 + 45 + 36 = 240
    _fd, _side, chi = vnx_griess("2A")
    counts = {}
    for v in side.alg.vectors4:
        counts[chi.classify(v)] = counts.get(chi.classify(v), 0) + 1
    assert counts[(0,)] == 38
    assert counts[(3,)] == 40
    assert {counts[(1,)], counts[(5,)]} == {36}
    assert {counts[(2,)], counts[(4,)]} == {45}


def test_orbit_inner_products_on_order6_algebra(side):
    # <e^i, e^j> depends only on the circular distance: 5/2^10 at distance
    # one, 13/2^10 at distance two, 1/32 at distance three; the frame
    # charge-1/2 vector pairs with every e^i in 1/32
    fd, _side, chi = vnx_griess("2A")
    alg = side.alg
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
    eta = CosetCharacter(side.alg, rows)
    closed = span_closure(side.alg, [side.ehat, eta.apply(side.ehat)])
    assert len(closed) == 4


def test_tau_orders_on_order6_algebra(side):
    # the tau of the special vector has order 2 on the eight-dimensional
    # algebra, and the product with its twist has order 3 at weight two
    from griess_forge.involutions import tau_involution, map_order
    from griess_forge.linalg import mat_mul
    fd, _side, chi = vnx_griess("2A")
    alg = side.alg
    rows = [alg.signed_coords(e) for e in fd.embedding]
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
    from griess_forge.linalg import mat_mul, identity
    fd, _side, chi = vnx_griess("2A")
    alg = side.alg
    rows = [alg.signed_coords(e) for e in fd.embedding]
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
        assert maps[i] == maps[i + 3]
    t_half = tau_involution(fd, fd.element("w2"))
    assert t_half == identity(8)
    n, _elems = group_closure(maps[:2])
    assert n == 6


# -- the root-basis E8 side against the glued-basis construction it replaced

def test_e8_side_shares_the_root_algebra(side):
    from griess_forge.lattices import affine_e6
    from griess_forge.w2 import root_algebra
    assert side.alg is root_algebra("E", 8)
    assert side.e6_sub.gram() == affine_e6().lattice.gram
    assert side.q_sub.rank == 2
    assert all(side.e8.dot(q, e) == 0
               for q in side.q_sub.basis for e in side.e6_sub.basis)


class _GluedE8Side:
    """The E8 side as it was built before, in the basis of E8 glued from
    four A2 blocks along the tetracode: Q is the first A2 block, E6 its
    annihilator, and the affine E6 node roots are carried over by an
    isometry from affine_e6's E6."""

    def __init__(self):
        from griess_forge.commutants import _frame_vectors
        from griess_forge.gluing import block_root, e8_glue
        from griess_forge.lattices import affine_e6, annihilator, isometry_test
        from griess_forge.w2 import W2Algebra, tilde_omega
        self.glue = e8_glue()
        e8 = self.glue.lattice
        self.e8 = e8
        self.alg = W2Algebra(e8.scaled(2))
        space = self.glue.ambient
        q_rows_third = [block_root(space, 0, 0), block_root(space, 0, 1)]
        self.q_sub = self.glue.sublattice_in_basis(q_rows_third)
        self.e6_sub = annihilator(e8, self.q_sub)
        assert self.e6_sub.rank == 6
        aff = affine_e6()
        t = isometry_test(self.e6_sub.as_lattice(), aff.lattice)
        assert t is not None
        self._node_images = {}
        for j in range(7):
            root = aff.node_root(j)
            img = [0] * 8
            for k, c in enumerate(root):
                if c:
                    for tcol, tv in enumerate(t[k]):
                        if tv:
                            for a, b in enumerate(self.e6_sub.basis[tcol]):
                                img[a] += c * tv * b
            self._node_images[j] = tuple(img)
        self.ehat = tilde_omega(self.alg, self.alg.vectors4, 30)
        self.omega_q, self.omega_e6 = _frame_vectors(
            self.alg, [(self.q_sub.basis, "A", 2), (self.e6_sub.basis, "E", 6)])

    def node_image(self, j):
        return self._node_images[j]


def test_vnx_griess_matches_the_glued_basis_construction(monkeypatch):
    from itertools import product
    from griess_forge import commutants
    root = {node: vnx_griess(node)[0] for node in ("1A", "2A", "3A")}
    glued_side = _GluedE8Side()
    monkeypatch.setattr(commutants, "e8_side", lambda: glued_side)
    glued = {node: vnx_griess(node)[0] for node in ("1A", "2A", "3A")}
    for node in ("1A", "2A"):
        assert glued[node].names == root[node].names
        assert glued[node].mult == root[node].mult
        assert glued[node].gram == root[node].gram
    # at 3A the eight X classes of (Z/3)^2 may be labelled differently: the
    # tables agree once the labels are moved by some g in GL2(F3)
    a, b = root["3A"], glued["3A"]
    assert a.names == b.names
    frame = [n for n in a.names if not n.startswith("X")]
    found = []
    for g in product(range(3), repeat=4):
        if (g[0] * g[3] - g[1] * g[2]) % 3 == 0:
            continue
        perm = [b.index(n) for n in frame]
        for n in a.names[len(frame):]:
            x, y = int(n[1]), int(n[2])
            perm.append(b.index("X%d%d" % ((g[0] * x + g[1] * y) % 3,
                                            (g[2] * x + g[3] * y) % 3)))
        if (all(b.gram[perm[i]][perm[j]] == a.gram[i][j]
                for i in range(a.dim) for j in range(a.dim))
                and all(b.mult[perm[i]][perm[j]][perm[k]] == a.mult[i][j][k]
                        for i in range(a.dim) for j in range(a.dim)
                        for k in range(a.dim))):
            found.append(g)
    # g and -g: X_c and X_-c play the same part in the table
    assert len(found) == 2
    assert found[1] == tuple(-t % 3 for t in found[0])
