from fractions import Fraction

import pytest

from griess_forge.commutants import (
    node_case, tilde_v_pair, u3a_table, vnx_griess, nine_orbit_algebra, e8_side,
)
from griess_forge.exact import zeta
from griess_forge.involutions import (
    ad_spectrum, ad_matrix, tau_involution, sigma_involution, is_automorphism,
    map_order, transposition_scan, group_closure, restrict_map, eigenspace_rows,
)
from griess_forge.linalg import (identity, inverse, mat_mul, mat_vec, mat_eq,
                                 row_span_coords, kernel)
from griess_forge.w2 import CosetCharacter, W2Element

F = Fraction


@pytest.fixture(scope="module")
def case2():
    return node_case("2A")


@pytest.fixture(scope="module")
def case3():
    return node_case("3A")


def fd_coords(case, w2elem):
    alg = case.alg
    rows = [alg.signed_coords(e) for e in case.fd.embedding]
    c = row_span_coords(rows, alg.signed_coords(w2elem))
    assert c is not None
    return c


def test_ad_spectrum_w1_on_2a(case2):
    fd = case2.fd
    eig = ad_spectrum(fd, fd.element("w1"))
    assert {k: len(v) for k, v in eig.items()} == {F(2): 1, F(0): 1, F(1, 2): 1}
    # the 1/2-eigenvector is the X direction
    vec = eig[F(1, 2)][0]
    assert vec[fd.index("X")] != 0


def test_eigenvalue_two_space_is_the_vector(case3):
    fd = case3.fd
    v, _ = tilde_v_pair(case3)
    vc = fd_coords(case3, v)
    eig = ad_spectrum(fd, vc)
    assert len(eig[F(2)]) == 1
    line = eig[F(2)][0]
    ratio = None
    for a, b in zip(line, vc):
        if bool(a) != bool(b):
            assert False, "eigenline is not spanned by v"
        if a:
            r = a / b
            assert ratio is None or r == ratio
            ratio = r


def test_tau_on_u3a_table():
    fd = u3a_table()
    e0 = fd.combo(w1=F(5, 32), w2=F(7, 16), Xp=F(1, 32), Xm=F(1, 32))
    ok, c = fd.is_virasoro(e0)
    assert ok and c == F(1, 2)
    t = tau_involution(fd, e0)
    assert mat_vec(t, fd.element("w1")) == fd.element("w1")
    assert mat_vec(t, fd.element("w2")) == fd.element("w2")
    assert mat_vec(t, fd.element("Xp")) == fd.element("Xm")
    assert mat_vec(t, fd.element("Xm")) == fd.element("Xp")
    assert mat_vec(t, e0) == e0
    assert map_order(t) == 2


def test_tau_pair_order_three_on_u3a_table():
    fd = u3a_table()
    z = zeta(3)
    taus = []
    for i in range(3):
        zi = z ** i
        e = [F(5, 32), F(7, 16), zi * F(1, 32), zi.conjugate() * F(1, 32)]
        ok, c = fd.is_virasoro(e)
        assert ok and c == F(1, 2)
        taus.append(tau_involution(fd, e))
    assert map_order(mat_mul(taus[0], taus[1])) == 3
    assert map_order(mat_mul(taus[1], taus[2])) == 3
    n, _ = group_closure(taus[:2])
    assert n == 6    # the symmetric group on the three Ising vectors


def test_sigma_swaps_x_on_3a(case3):
    fd = case3.fd
    v, vp = tilde_v_pair(case3)
    vc = fd_coords(case3, v)
    s = sigma_involution(fd, vc, 4)
    assert mat_vec(s, fd.element("X1")) == fd.element("X2")
    assert mat_vec(s, fd.element("X2")) == fd.element("X1")
    assert mat_vec(s, vc) == vc
    # sigma_v(v') is again a c = 6/7 Virasoro vector
    vpc = fd_coords(case3, vp)
    image = mat_vec(s, vpc)
    ok, c = fd.is_virasoro(image)
    assert ok and c == F(6, 7)


def test_sigma_orders_per_node(case2, case3):
    # 1A: v = v', the product is trivially the identity
    case1 = node_case("1A")
    v1, vp1 = tilde_v_pair(case1)
    assert v1 == vp1
    # 2A: both sigmas restrict to the identity on the three-dimensional
    # algebra (its sectors are [2], [0], [5/7], all parity-even), so the
    # weight-two restricted product has order 1; the node order 2 is the
    # order of the coset character, not of this restriction
    fd2 = case2.fd
    v2, vp2 = tilde_v_pair(case2)
    s1 = sigma_involution(fd2, fd_coords(case2, v2), 4)
    s2 = sigma_involution(fd2, fd_coords(case2, vp2), 4)
    assert mat_eq(s1, identity(3)) and mat_eq(s2, identity(3))
    assert map_order(mat_mul(s1, s2)) == 1
    # 3A: the product has order 3 on the five-dimensional algebra
    fd3 = case3.fd
    v3, vp3 = tilde_v_pair(case3)
    t1 = sigma_involution(fd3, fd_coords(case3, v3), 4)
    t2 = sigma_involution(fd3, fd_coords(case3, vp3), 4)
    assert map_order(mat_mul(t1, t2)) == 3
    n, _ = group_closure([t1, t2])
    assert n == 6


def rho_matrix(case):
    """The node coset character restricted to the node Griess algebra."""
    cols = [fd_coords(case, case.rho.apply(e)) for e in case.fd.embedding]
    n = case.fd.dim
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def test_node_character_orders(case2, case3):
    # the node coset character restricted to the Griess algebra has order
    # equal to the node mark: the weight-two shadow of the node symmetry
    for case, want in ((node_case("1A"), 1), (case2, 2), (case3, 3)):
        mat = rho_matrix(case)
        assert is_automorphism(case.fd, mat)
        assert map_order(mat) == want


def test_sigma_product_is_rho_inverse_squared(case2, case3):
    # On the full signed weight-two space of V_{sqrt2 E6} (99 dims), with
    # v = omega/7 + sum(e^beta)/14, ad(v) is annihilated by x(x-5/7)(x-2)
    # on the theta-even basis and by (x-1/7)(x-8/7) on the theta-odd one
    # (b(-2) and e^beta - e^-beta).  The odd vectors lie in the parity-odd
    # sector of weight 1/7 (8/7 is its first descendant level), so sigma_v
    # acts as theta, and sigma_v sigma_{rho v} = theta rho theta rho^-1 =
    # rho^-2 on each node algebra.
    alg = case2.alg
    v, _ = tilde_v_pair(case2)

    def annihilates(roots, x):
        for r in roots:
            x = alg.product(v, x) - x.scale(r)
        return x.is_zero()

    even = [alg.basis_element(k) for k in range(alg.dim)]
    odd = [W2Element(d2={i: F(1)}) for i in range(alg.rank)]
    odd += [W2Element(exps={b: F(1), tuple(-t for t in b): F(-1)})
            for b in alg.classes]
    assert len(even) + len(odd) == alg.signed_dim() == 99
    assert all(annihilates((F(0), F(5, 7), F(2)), x) for x in even)
    assert all(annihilates((F(1, 7), F(8, 7)), x) for x in odd)
    for case in (node_case("1A"), case2, case3):
        v, vp = tilde_v_pair(case)
        s1 = sigma_involution(case.fd, fd_coords(case, v), 4)
        s2 = sigma_involution(case.fd, fd_coords(case, vp), 4)
        rho_inv = inverse(rho_matrix(case))
        assert mat_eq(mat_mul(s1, s2), mat_mul(rho_inv, rho_inv))


def test_is_automorphism_counterexample(case2):
    fd = case2.fd
    bad = identity(3)
    bad[0][2] = F(1)   # a transvection is not an automorphism here
    assert not is_automorphism(fd, bad)


def test_identity_is_automorphism(case2):
    assert is_automorphism(case2.fd, identity(3))


def test_map_order_cap():
    m = [[F(1), F(1)], [F(0), F(1)]]
    with pytest.raises(ValueError):
        map_order(m, cap=10)


def test_restrict_identity(case3):
    rows = [case3.fd.element("X1"), case3.fd.element("X2")]
    r = restrict_map(case3.fd, identity(5), rows)
    assert mat_eq(r, identity(2))


def test_restrict_rho_to_griess(case3):
    # the order-3 character scales X1 by zeta and X2 by its square
    fd = case3.fd
    mat = rho_matrix(case3)
    sub = [fd.element("X1"), fd.element("X2")]
    r = restrict_map(fd, mat, sub)
    z = zeta(3)
    assert r[0][0] == z and r[1][1] == z * z
    assert r[0][1] == 0 and r[1][0] == 0
    assert map_order(mat) == 3


def test_singleton_scan(case3):
    fd = case3.fd
    v, _ = tilde_v_pair(case3)
    orders, violations, maps = transposition_scan(
        fd, [fd_coords(case3, v)], "sigma_c67")
    assert orders == [[1]] or orders == [[2]]
    assert violations == []


# ---------------------------------------------------------------------------
# the E8-side involution suite

@pytest.fixture(scope="module")
def orbit_data():
    return nine_orbit_algebra()


def test_nine_orbit_tau_scan(orbit_data):
    fd12, side, (chi1, chi2), orbit = orbit_data
    orders, violations, maps = transposition_scan(fd12, orbit, "tau_ising")
    assert violations == []
    for i in range(9):
        assert orders[i][i] == 1 or orders[i][i] == 2
        for j in range(9):
            if i != j:
                assert orders[i][j] == 3
                assert orders[i][j] <= 6   # Sakuma bound


def test_nine_orbit_group_closure(orbit_data):
    fd12, side, chars, orbit = orbit_data
    maps = [tau_involution(fd12, orbit[k]) for k in (0, 1, 3)]
    n, elems = group_closure(maps)
    assert 18 % n == 0
    assert n == 18   # the restriction is faithful on the twelve-dim algebra


def test_psi_restriction_is_sigma(orbit_data):
    # restricting tau of any Ising vector of one eta-orbit to the
    # commutant slice gives the sigma of that orbit's derived vector
    fd12, side, (chi1, chi2), orbit = orbit_data
    alg = side.alg
    rows = [alg.signed_coords(e) for e in fd12.embedding]

    def coords(w2e):
        c = row_span_coords(rows, alg.signed_coords(w2e))
        assert c is not None
        return c

    wq = coords(side.omega_q)
    eig = ad_spectrum(fd12, wq, candidates=None)
    ker5 = eigenspace_rows(eig, [F(0)])
    assert len(ker5) == 5
    # identify eta = the character trivial on the E6 annihilator of Q
    e6vec = side.e6_sub.basis[0]
    base = CosetCharacter(alg, side.ltilde_rows("3A"))
    eta = None
    rho1 = None
    for a in range(3):
        for b in range(3):
            chi = base.with_weights((a, b))
            if (a, b) == (0, 0):
                continue
            trivial = all(chi.exponent_of(v) == 0 for v in side.e6_sub.basis)
            if trivial and eta is None:
                eta = chi
            if not trivial and rho1 is None:
                rho1 = chi
    assert eta is not None and rho1 is not None
    # the eta-orbit of rho1(ehat) is one 3A dihedral copy
    e = rho1.apply(side.ehat)
    es = [e, eta.apply(e), eta.power(2).apply(e)]
    total = es[0] + es[1] + es[2]
    derived = (total - side.omega_q.scale(F(15, 32))).scale(F(16, 21))
    from griess_forge.w2 import virasoro_check
    ok, c = virasoro_check(alg, derived)
    assert ok and c == F(6, 7)
    sig = sigma_involution(
        _Restricted(fd12, ker5), restrict_vec(fd12, ker5, coords(derived)), 4)
    for ei in es:
        t = tau_involution(fd12, coords(ei))
        r = restrict_map(fd12, t, ker5)
        assert mat_eq(r, sig)


def restrict_vec(fd, rows, vec):
    c = row_span_coords(rows, vec)
    assert c is not None
    return c


class _Restricted:
    """A product-closed subspace of an FDAlgebra, as its own space."""

    def __init__(self, fd, rows):
        self.fd = fd
        self.rows = rows
        self.dim = len(rows)

    def _up(self, u):
        out = [F(0)] * self.fd.dim
        for c, row in zip(u, self.rows):
            if c:
                for i, x in enumerate(row):
                    if x:
                        out[i] = out[i] + c * x
        return out

    def product_vec(self, u, v):
        p = self.fd.product_vec(self._up(u), self._up(v))
        c = row_span_coords(self.rows, p)
        if c is None:
            raise ValueError("subspace is not product-closed")
        return c

    def form_vec(self, u, v):
        return self.fd.form_vec(self._up(u), self._up(v))

    def is_virasoro(self, u):
        return self.fd.is_virasoro(self._up(u))


def test_derived_sigma_scan_on_slice(orbit_data):
    # the three derived c=6/7 vectors (one per eta-orbit) have pairwise
    # sigma-orders at most 3 on the commutant slice
    fd12, side, (chi1, chi2), orbit = orbit_data
    alg = side.alg
    rows = [alg.signed_coords(e) for e in fd12.embedding]

    def coords(w2e):
        c = row_span_coords(rows, alg.signed_coords(w2e))
        assert c is not None
        return c

    wq = coords(side.omega_q)
    eig = ad_spectrum(fd12, wq)
    ker5 = eigenspace_rows(eig, [F(0)])
    base = CosetCharacter(alg, side.ltilde_rows("3A"))
    eta = None
    for a in range(3):
        for b in range(3):
            chi = base.with_weights((a, b))
            if (a, b) != (0, 0) and all(chi.exponent_of(v) == 0
                                        for v in side.e6_sub.basis):
                eta = chi
                break
        if eta:
            break
    reps = [base.power(0)]  # identity twist
    # coset representatives of <eta> in the character group
    seen = {(0, 0), eta.weights, tuple((2 * w) % 3 for w in eta.weights)}
    for a in range(3):
        for b in range(3):
            if (a, b) not in seen:
                chi = base.with_weights((a, b))
                reps.append(chi)
                for k in (0, 1, 2):
                    seen.add(tuple((w + k * e) % 3
                                   for w, e in zip((a, b), eta.weights)))
    assert len(reps) == 3
    space = _Restricted(fd12, ker5)
    derived_vecs = []
    for chi in reps:
        e = chi.apply(side.ehat)
        es = [e, eta.apply(e), eta.power(2).apply(e)]
        total = es[0] + es[1] + es[2]
        derived = (total - side.omega_q.scale(F(15, 32))).scale(F(16, 21))
        derived_vecs.append(restrict_vec(fd12, ker5, coords(derived)))
    orders, violations, maps = transposition_scan(space, derived_vecs, "sigma_c67")
    assert violations == []
    for i in range(3):
        for j in range(3):
            if i != j:
                assert orders[i][j] <= 3
