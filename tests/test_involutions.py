from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from griess_forge.commutants import (
    node_case, tilde_v_pair, u3a_table, nine_orbit_algebra, e8_side,
    fd_from_elements,
)
from griess_forge import involutions
from griess_forge.exact import CycNum, _ZRow, zeta
from griess_forge.involutions import (
    ad_spectrum, ad_matrix, eigenspaces, tau_involution, sigma_involution,
    is_automorphism, map_order, transposition_scan, group_closure, restrict_map,
    eigenspace_rows,
)
from griess_forge.linalg import (det, identity, inverse, mat_mul, mat_vec, rank,
                                 row_span_coords, kernel, solve_matrix, transpose)
from griess_forge.w2 import W2Element, virasoro_check

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
    c, = row_span_coords(rows, [alg.signed_coords(w2elem)])
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
    ok, c = virasoro_check(fd, e0)
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
        ok, c = virasoro_check(fd, e)
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
    s = sigma_involution(fd, vc)
    assert mat_vec(s, fd.element("X1")) == fd.element("X2")
    assert mat_vec(s, fd.element("X2")) == fd.element("X1")
    assert mat_vec(s, vc) == vc
    # sigma_v(v') is again a c = 6/7 Virasoro vector
    vpc = fd_coords(case3, vp)
    image = mat_vec(s, vpc)
    ok, c = virasoro_check(fd, image)
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
    s1 = sigma_involution(fd2, fd_coords(case2, v2))
    s2 = sigma_involution(fd2, fd_coords(case2, vp2))
    assert s1 == identity(3) and s2 == identity(3)
    assert map_order(mat_mul(s1, s2)) == 1
    # 3A: the product has order 3 on the five-dimensional algebra
    fd3 = case3.fd
    v3, vp3 = tilde_v_pair(case3)
    t1 = sigma_involution(fd3, fd_coords(case3, v3))
    t2 = sigma_involution(fd3, fd_coords(case3, vp3))
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
        return x == W2Element()

    even = [alg.basis_element(k) for k in range(alg.dim)]
    odd = [W2Element(d2={i: F(1)}) for i in range(alg.rank)]
    odd += [W2Element(exps={b: F(1), tuple(-t for t in b): F(-1)})
            for b in alg.classes]
    assert len(even) + len(odd) == len(alg.signed_coords(W2Element())) == 99
    assert all(annihilates((F(0), F(5, 7), F(2)), x) for x in even)
    assert all(annihilates((F(1, 7), F(8, 7)), x) for x in odd)
    for case in (node_case("1A"), case2, case3):
        v, vp = tilde_v_pair(case)
        s1 = sigma_involution(case.fd, fd_coords(case, v))
        s2 = sigma_involution(case.fd, fd_coords(case, vp))
        rho_inv = inverse(rho_matrix(case))
        assert mat_mul(s1, s2) == mat_mul(rho_inv, rho_inv)


def test_is_automorphism_counterexample(case2):
    fd = case2.fd
    bad = identity(3)
    bad[0][2] = F(1)   # a transvection is not an automorphism here
    assert not is_automorphism(fd, bad)


def test_identity_is_automorphism(case2):
    assert is_automorphism(case2.fd, identity(3))


def reference_is_automorphism(space, mat):
    """is_automorphism as it was when it took the products and forms of
    unit vectors in place of reading mult and gram."""
    n = space.dim
    cols = [_ZRow([mat[i][j] for i in range(n)]) for j in range(n)]
    basis = [_ZRow(row) for row in identity(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    images = transpose(mat_mul(mat, transpose(
        [space.product_vec(basis[i], basis[j]) for i, j in pairs])))
    for (i, j), lhs in zip(pairs, images):
        if lhs != space.product_vec(cols[i], cols[j]):
            return False
        if space.form_vec(cols[i], cols[j]) != space.form_vec(basis[i], basis[j]):
            return False
    return True


def test_is_automorphism_matches_the_unit_vector_reference(case2):
    # the sigma, rho and tau maps that report-all --skip-slow checks, and
    # two maps that are not automorphisms: 2 I and a transvection
    from griess_forge.suites import nine_orbit_scan, rho_orders
    maps = []
    for node in ("1A", "2A", "3A"):
        case = node_case(node)
        for x in case.fd.coordinates(list(tilde_v_pair(case))):
            maps.append((case.fd, sigma_involution(case.fd, x)))
        maps.append((case.fd, rho_orders(node)[0]))
    fd12, _dim, _orders, _violations, taus = nine_orbit_scan()
    maps += [(fd12, t) for t in taus]
    bad = identity(3)
    bad[0][2] = F(1)
    maps += [(case2.fd, [[2 * x for x in row] for row in identity(3)]),
             (case2.fd, bad)]
    got = [is_automorphism(fd, m) for fd, m in maps]
    assert got == [reference_is_automorphism(fd, m) for fd, m in maps]
    assert got == [True] * (len(maps) - 2) + [False, False]


def test_map_order_cap():
    m = [[F(1), F(1)], [F(0), F(1)]]
    with pytest.raises(ValueError):
        map_order(m, cap=10)


def test_restrict_identity(case3):
    rows = [case3.fd.element("X1"), case3.fd.element("X2")]
    r = restrict_map(case3.fd, identity(5), rows)
    assert r == identity(2)


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


def test_scan_names_the_map_that_is_not_an_automorphism(case3, monkeypatch):
    # -sigma is not an automorphism
    fd = case3.fd
    vc = fd_coords(case3, tilde_v_pair(case3)[0])
    signed = involutions._signed_map
    monkeypatch.setattr(involutions, "_signed_map", lambda eigen, minus: [
        [-x for x in row] for row in signed(eigen, minus)])
    with pytest.raises(AssertionError, match="sigma_c67 map of vector 0"):
        transposition_scan(fd, [vc], "sigma_c67")


def test_scan_rejects_an_unknown_kind(case3):
    with pytest.raises(ValueError, match="kind must be"):
        transposition_scan(case3.fd, [], "tau_c45")


def test_each_map_checks_virasoro_and_automorphism_once(case2, monkeypatch):
    # the constructor checks the vector once and the map not at all; the
    # suite checks each sigma map and the character once
    from griess_forge.suites import run_suite
    calls = {"virasoro_check": 0, "is_automorphism": 0}
    virasoro, automorphism = involutions.virasoro_check, involutions.is_automorphism

    def counted_virasoro(alg, v):
        calls["virasoro_check"] += 1
        return virasoro(alg, v)

    def counted_automorphism(space, mat):
        calls["is_automorphism"] += 1
        return automorphism(space, mat)

    monkeypatch.setattr(involutions, "virasoro_check", counted_virasoro)
    monkeypatch.setattr(involutions, "is_automorphism", counted_automorphism)
    fd = case2.fd
    vc = fd_coords(case2, tilde_v_pair(case2)[0])
    sigma_involution(fd, vc)
    assert calls == {"virasoro_check": 1, "is_automorphism": 0}
    calls["is_automorphism"] = 0
    rep = run_suite("involutions-2A")
    assert all(c.status == "pass" for c in rep.checks)
    assert calls["is_automorphism"] == 3


# ---------------------------------------------------------------------------
# the E8-side involution suite

@pytest.fixture(scope="module")
def orbit_data():
    return nine_orbit_algebra()


def test_nine_orbit_tau_scan(orbit_data):
    fd12, _dim, _chi, orbit = orbit_data
    orders, violations, maps = transposition_scan(fd12, orbit, "tau_ising")
    assert violations == []
    for i in range(9):
        assert orders[i][i] == 1 or orders[i][i] == 2
        for j in range(9):
            if i != j:
                assert orders[i][j] == 3
                assert orders[i][j] <= 6   # Sakuma bound


def test_nine_orbit_group_closure(orbit_data):
    fd12, _dim, chars, orbit = orbit_data
    maps = [tau_involution(fd12, orbit[k]) for k in (0, 1, 3)]
    n, elems = group_closure(maps)
    assert 18 % n == 0
    assert n == 18   # the restriction is faithful on the twelve-dim algebra


@pytest.fixture(scope="module")
def eta_reps(orbit_data):
    """eta, the nonzero character of the 3A quotient that is trivial on E6,
    and one representative per coset of <eta> among the nine characters,
    the trivial one first."""
    _fd12, _dim, chi3a, _orbit = orbit_data
    weights = [(a, b) for a in range(3) for b in range(3)]
    eta = next(chi for chi in map(chi3a.with_weights, weights[1:])
               if all(chi.exponent_of(v) == 0 for v in e8_side().e6_sub.basis))
    reps, seen = [], set()
    for w in weights:
        if w not in seen:
            reps.append(chi3a.with_weights(w))
            seen.update(tuple((x + k * e) % 3 for x, e in zip(w, eta.weights))
                        for k in range(3))
    assert len(reps) == 3
    return eta, reps


@pytest.fixture(scope="module")
def c67_slice(orbit_data):
    """ker ad(omega_Q) in the 3A commutant, the slice where the derived
    c = 6/7 vectors live: its rows over fd12 and its own FDAlgebra."""
    fd12 = orbit_data[0]
    wq, = fd12.coordinates([e8_side().omega_q])
    ker5 = eigenspace_rows(ad_spectrum(fd12, wq), [F(0)])
    assert len(ker5) == 5
    return ker5, fd_from_elements(fd12, ker5, ["k%d" % i for i in range(1, 6)])


def _eta_orbit(eta, chi):
    """The eta-orbit of chi(ehat) and its derived c = 6/7 vector."""
    side = e8_side()
    e = chi.apply(side.ehat)
    es = [e, eta.apply(e), eta.power(2).apply(e)]
    total = es[0] + es[1] + es[2]
    return es, (total - side.omega_q.scale(F(15, 32))).scale(F(16, 21))


def test_psi_restriction_is_sigma(orbit_data, eta_reps, c67_slice):
    # restricting tau of any Ising vector of one eta-orbit to the
    # commutant slice gives the sigma of that orbit's derived vector
    fd12 = orbit_data[0]
    eta, reps = eta_reps
    ker5, slice5 = c67_slice
    # the eta-orbit of rho1(ehat) is one 3A dihedral copy
    es, derived = _eta_orbit(eta, reps[1])
    ok, c = virasoro_check(e8_side().alg, derived)
    assert ok and c == F(6, 7)
    sig = sigma_involution(slice5, slice5.coordinates(fd12.coordinates([derived]))[0])
    for ei in fd12.coordinates(es):
        r = restrict_map(fd12, tau_involution(fd12, ei), ker5)
        assert r == sig


def test_derived_sigma_scan_on_slice(orbit_data, eta_reps, c67_slice):
    # the three derived c=6/7 vectors (one per eta-orbit) have pairwise
    # sigma-orders exactly 3 on the commutant slice, and their sigmas
    # generate S3
    fd12 = orbit_data[0]
    eta, reps = eta_reps
    _ker5, slice5 = c67_slice
    derived = [_eta_orbit(eta, chi)[1] for chi in reps]
    vecs = slice5.coordinates(fd12.coordinates(derived))
    orders, violations, maps = transposition_scan(slice5, vecs, "sigma_c67")
    assert violations == []
    for i in range(3):
        for j in range(3):
            if i != j:
                assert orders[i][j] == 3
    n, _elems = group_closure(maps)
    assert n == 6


# -- restrict_map and eigenspaces against the dense loops they replaced ---------------

def ref_mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x and y), F(0)) for row in a]


def ref_restrict_map(mat, rows):
    """Two dense images per row and a dense back-check over every column."""
    k = len(rows)
    n = len(rows[0])
    a = [[rows[i][t] for i in range(k)] for t in range(n)]
    rhs = [[None] * k for _ in range(n)]
    for j in range(k):
        img = ref_mat_vec(mat, rows[j])
        for t in range(n):
            rhs[t][j] = img[t]
    x = solve_matrix(a, rhs)
    if x is None:
        raise ValueError("map does not preserve the subspace")
    for j in range(k):
        img = ref_mat_vec(mat, rows[j])
        back = [sum((x[i][j] * rows[i][t] for i in range(k)
                     if x[i][j] and rows[i][t]), F(0)) for t in range(n)]
        if back != list(img):
            raise ValueError("map does not preserve the subspace")
    return [[x[i][j] for j in range(k)] for i in range(k)]


def ref_eigen(mat, candidates):
    """eigenspaces' loop with the full shifted matrix rebuilt per candidate."""
    n = len(mat)
    eigen = {}
    total = 0
    for lam in candidates:
        shifted = [[mat[i][j] - (lam if i == j else 0) for j in range(n)]
                   for i in range(n)]
        basis = kernel(shifted)
        if basis:
            eigen[lam] = basis
            total += len(basis)
    if total != n:
        raise ValueError("adjoint action is not semisimple over the candidate "
                         "list: eigenspaces fill %d of %d" % (total, n))
    return eigen


def assert_matches_ref(mat, candidates):
    """eigenspaces against ref_eigen: the same weights, dimensions and
    spans (each basis is independent, and with the reference one it has
    no greater rank), or, where ref_eigen raises, eigenspaces that fill
    less than the space, by as many dimensions as ref_eigen names.
    Returns them."""
    got = eigenspaces(mat, candidates)
    n = len(mat)
    total = sum(map(len, got.values()))
    try:
        want = ref_eigen(mat, candidates)
    except ValueError as exc:
        assert total < n
        assert str(exc).endswith("eigenspaces fill %d of %d" % (total, n))
        return got
    assert {lam: len(b) for lam, b in got.items()} == \
        {lam: len(b) for lam, b in want.items()}
    for lam, basis in got.items():
        assert rank(basis) == rank(basis + want[lam]) == len(basis)
    return got


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


_WEIGHTS = [F(0), F(2), F(1, 2), F(1, 16), F(-3)]
_rational = st.one_of(st.just(0), st.integers(-3, 3),
                      st.fractions(min_value=-5, max_value=5, max_denominator=12))
_entry = st.one_of(_rational, _rational.map(CycNum),
                   st.builds(CycNum, _rational, _rational, _rational, _rational))


@st.composite
def eigenbases(draw, jordan=False):
    """(mat, P, weights): mat = P J P^-1 with J upper bidiagonal, its
    diagonal the weights drawn from _WEIGHTS, over ints and Q or over Q(z);
    P has many zero entries.  Without jordan J is diagonal and P's columns
    are eigenvectors of mat; with it J may have Jordan blocks, a 1 above the
    diagonal joining two equal weights."""
    n = draw(st.integers(1, 5 if jordan else 4))
    entry = draw(st.sampled_from([_rational, _entry]))
    p = draw(st.lists(st.lists(st.one_of(st.just(0), entry), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(det(p) != 0)
    weights = draw(st.lists(st.sampled_from(_WEIGHTS), min_size=n, max_size=n))
    d = [[weights[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if jordan:
        for i in range(n - 1):
            if weights[i] == weights[i + 1] and draw(st.booleans()):
                d[i][i + 1] = 1
    return mat_mul(mat_mul(p, d), inverse(p)), p, weights


@settings(max_examples=200, deadline=None)
@given(st.one_of(eigenbases(), eigenbases(jordan=True)), st.data())
def test_ad_spectrum_matches_the_full_shift(mpw, data):
    mat, p, weights = mpw
    # the candidates sometimes miss a weight, and a Jordan block leaves the
    # eigenspaces short of the space, where ref_eigen raises
    candidates = data.draw(st.lists(st.sampled_from(_WEIGHTS), unique=True,
                                    min_size=1))
    if data.draw(st.booleans()):
        candidates = sorted(candidates)
    got = assert_matches_ref(mat, candidates)
    n = len(mat)
    diagonal = [[weights[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if set(weights) <= set(candidates) and \
            mat_mul(mat_mul(inverse(p), mat), p) == diagonal:
        assert sorted(got) == sorted(set(weights))


def ref_signed_map(p, weights, minus):
    """The dense product P D P^-1, D the sign of each column's weight."""
    n = len(p)
    pinv = inverse(p)
    return [[sum((p[i][t] * (-1 if weights[t] in minus else 1) * pinv[t][j]
                  for t in range(n)), F(0)) for j in range(n)] for i in range(n)]


@settings(max_examples=120, deadline=None)
@given(eigenbases(), st.data())
def test_signed_map_matches_the_dense_product(mpw, data):
    mat, p, weights = mpw
    minus = set(data.draw(st.lists(st.sampled_from(_WEIGHTS))))
    if data.draw(st.booleans()):
        eigen = eigenspaces(mat, _WEIGHTS)
    else:
        # the columns of P, an eigenbasis that kernel need not return
        eigen = {}
        for t, lam in enumerate(weights):
            eigen.setdefault(lam, []).append([row[t] for row in p])
    assert involutions._signed_map(eigen, minus) == ref_signed_map(p, weights, minus)


class _Doubling:
    """A 3-dim stand-in for an algebra whose product doubles its first
    operand and whose form is 1/4, so every nonzero vector passes the
    Virasoro check with central charge 1/2."""
    dim = 3
    product = staticmethod(lambda u, v: [2 * x for x in u])
    form = staticmethod(lambda u, v: F(1, 4))
    signed_coords = staticmethod(list)


def test_ad_spectrum_on_jordan_blocks_reports_the_filled_dimension(monkeypatch):
    # a 2 x 2 Jordan block at 0 next to the weight 1/2, over Q and Q(z):
    # the 0-space is a line, so eigenspaces returns 2 of 3 dimensions and
    # ad_spectrum, which needs them all, raises
    z = zeta(12)
    for p in ([[1, 2, 0], [0, 1, 3], [1, 0, 1]], [[1, z, 0], [0, 1, 3], [z, 0, 1]]):
        j = [[0, 1, 0], [0, 0, 0], [0, 0, F(1, 2)]]
        mat = mat_mul(mat_mul(p, j), inverse(p))
        got = assert_matches_ref(mat, _WEIGHTS)
        assert {lam: len(b) for lam, b in got.items()} == {F(0): 1, F(1, 2): 1}
        monkeypatch.setattr(involutions, "ad_matrix", lambda space, v: mat)
        assert _outcome(ad_spectrum, _Doubling(), [F(1), F(0), F(0)]) == (
            "ValueError: adjoint action is not semisimple over the "
            "candidate list: eigenspaces fill 2 of 3")


def test_ad_spectrum_stops_once_the_space_is_filled(monkeypatch):
    # after the eigenspaces fill the space no candidate costs an elimination:
    # diag(0, 0, 1/2) takes one kernel at 0 and one at 1/2, none at 2; a
    # Jordan block at 1/2 leaves a 1 x 1 quotient for the candidate 2
    calls = []

    def counted(a):
        calls.append(len(a))
        return kernel(a)

    monkeypatch.setattr(involutions, "kernel", counted)
    for mat, candidates, sizes in (
            ([[0, 0, 0], [0, 0, 0], [0, 0, F(1, 2)]], [F(0), F(1, 2), F(2)], [3, 1]),
            ([[F(1, 2), 0], [0, F(1, 2)]], [F(1, 2), F(0), F(2)], [2]),
            ([[F(1, 2), 1], [0, F(1, 2)]], [F(0), F(1, 2), F(2)], [2, 2, 1])):
        calls.clear()
        assert_matches_ref(mat, candidates)
        assert calls == sizes


def test_ad_spectrum_rejects_repeated_candidates():
    with pytest.raises(ValueError, match="distinct"):
        eigenspaces([[F(0)]], [F(0), F(1, 2), F(0)])


def test_ad_matrix_on_a_w2_space_matches_the_product_columns(case2):
    # the W2Space path converts v once; the generic path goes through
    # product_vec for every basis vector
    sp = involutions.W2Space(case2.alg)
    v = sp.element_vec(tilde_v_pair(case2)[0])
    n = sp.dim
    cols = [sp.product_vec(v, [F(int(i == j)) for i in range(n)]) for j in range(n)]
    want = [[cols[j][i] for j in range(n)] for i in range(n)]
    got = ad_matrix(sp, v)
    assert got == want and repr(got) == repr(want)


@settings(max_examples=120, deadline=None)
@given(eigenbases(), st.data())
def test_restrict_map_matches_the_dense_check_on_eigenvector_spans(mpw, data):
    mat, p, weights = mpw
    n = len(mat)
    # the span of some eigenvectors, spanned again by mixed rows
    cols = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    k = len(cols)
    vecs = [[p[t][c] for t in range(n)] for c in cols]
    q = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                           min_size=k, max_size=k))
    assume(det(q) != 0)
    rows = mat_mul(q, vecs)
    got = restrict_map(None, mat, rows)
    assert got == ref_restrict_map(mat, rows)
    # the restricted map has the chosen eigenvalues
    assert sorted(eigenspaces(got, _WEIGHTS)) == \
        sorted(set(weights[c] for c in cols))


@settings(max_examples=120, deadline=None)
@given(eigenbases(), st.data())
def test_restrict_map_matches_the_dense_check_on_random_rows(mpw, data):
    mat, _p, _weights = mpw
    n = len(mat)
    k = data.draw(st.integers(1, n))
    rows = data.draw(st.lists(st.lists(st.one_of(st.just(F(0)), st.integers(-2, 2)),
                                       min_size=n, max_size=n),
                              min_size=k, max_size=k))
    assume(any(any(r) for r in rows))
    assert _outcome(restrict_map, None, mat, rows) == _outcome(ref_restrict_map, mat, rows)


def test_restrict_map_rejects_a_subspace_the_map_moves(monkeypatch):
    swap = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    # the swap moves e0 to e1, outside the line through e0
    with pytest.raises(ValueError, match="map does not preserve the subspace"):
        restrict_map(None, swap, [[F(1), F(0), F(0)]])
    assert restrict_map(None, swap, [[F(1), F(1), F(0)]]) == [[F(1)]]
    # a wrong solution from the solver is caught by the exact back-check
    monkeypatch.setattr(involutions, "row_span_coords",
                        lambda rows, vectors: [[F(2)] * len(rows)] * len(vectors))
    with pytest.raises(ValueError, match="map does not preserve the subspace"):
        restrict_map(None, swap, [[F(1), F(1), F(0)]])
