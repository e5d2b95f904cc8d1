import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from griess_forge.exact import CycNum, zeta
from griess_forge.lattices import (_COXETER, build_root_lattice, affine_e6,
                                   node_sublattice, punctured_components)
from griess_forge.w2 import (
    W2Algebra, W2Element, conformal_vector, tilde_omega, virasoro_check,
    coset_sum, sub_conformal_vector, CosetCharacter,
)

F = Fraction


def algebra(kind, n):
    return W2Algebra(build_root_lattice(kind, n, scale=2))


def full_roots(alg):
    return alg.vectors4


def test_dimensions():
    a2 = algebra("A", 2)
    assert a2.dim == 3 + 3
    # rank(rank+1)/2 Heisenberg pairs plus one class per +- pair of scaled roots
    e6 = algebra("E", 6)
    assert len(e6.vectors4) == 72
    assert e6.dim == 21 + 36
    e8 = algebra("E", 8)
    assert len(e8.vectors4) == 240
    assert e8.dim == 36 + 120


def test_rejects_unscaled_lattice():
    with pytest.raises(ValueError):
        W2Algebra(build_root_lattice("A", 2))


def test_conformal_vector_acts_as_two():
    for alg in (algebra("A", 1), algebra("A", 2), algebra("D", 4)):
        w = conformal_vector(alg)
        for k in range(alg.dim):
            b = alg.basis_element(k)
            assert alg.product(w, b) == b.scale(F(2))
            assert alg.product(b, w) == b.scale(F(2))
        assert alg.form(w, w) == F(alg.rank, 2)
        ok, c = virasoro_check(alg, w)
        assert ok and c == alg.rank


def test_conformal_vector_matches_root_sum():
    for kind, n in (("A", 2), ("D", 4), ("E", 6)):
        alg = algebra(kind, n)
        h = alg.lattice.coxeter
        assert conformal_vector(alg) == sub_conformal_vector(alg, full_roots(alg), h)


@pytest.mark.parametrize("kind,n,charge", [
    ("A", 1, F(1, 2)), ("A", 2, F(4, 5)), ("A", 5, F(5, 4)),
    ("D", 4, F(1)), ("E", 6, F(6, 7)), ("E", 8, F(1, 2)),
])
def test_tilde_omega_central_charges(kind, n, charge):
    alg = algebra(kind, n)
    w = tilde_omega(alg, full_roots(alg), alg.lattice.coxeter)
    ok, c = virasoro_check(alg, w)
    assert ok
    assert c == charge


def test_e7_central_charge():
    alg = algebra("E", 7)
    w = tilde_omega(alg, full_roots(alg), alg.lattice.coxeter)
    ok, c = virasoro_check(alg, w)
    assert ok and c == F(7, 10)


def test_zero_element_not_virasoro():
    alg = algebra("A", 2)
    ok, c = virasoro_check(alg, W2Element())
    assert not ok and c == 0


def test_special_ising_vector_in_e8():
    alg = algebra("E", 8)
    e = tilde_omega(alg, full_roots(alg), 30)
    # coefficients 1/16 on the conformal vector and 1/32 on each exponential
    assert alg.product(e, e) == e.scale(F(2))
    assert alg.form(e, e) == F(1, 4)
    w = conformal_vector(alg)
    assert alg.product(w, e) == e.scale(F(2))
    diff = e - w.scale(F(1, 16))
    assert all(v == F(1, 32) for v in diff.exps.values())
    assert not diff.heis


def test_orthogonal_virasoro_sum():
    # disjoint-support tilde vectors inside sqrt(2)E8: the A2 x E6 pair
    alg = algebra("E", 8)
    from griess_forge.lattices import Sublattice, annihilator
    e6rows = [[1 if j == i else 0 for j in range(8)] for i in range(6)]
    q = annihilator(alg.lattice, Sublattice(alg.lattice, e6rows))
    wq = tilde_omega(alg, alg.scaled_roots(q.basis), 3)
    we6 = tilde_omega(alg, alg.scaled_roots(e6rows), 12)
    assert alg.form(wq, we6) == 0
    assert alg.product(wq, we6).is_zero()
    both = wq + we6
    ok, c = virasoro_check(alg, both)
    assert ok and c == F(4, 5) + F(6, 7)


def test_product_commutes_on_theta_even_basis():
    alg = algebra("A", 2)
    for i in range(alg.dim):
        for j in range(alg.dim):
            a, b = alg.basis_element(i), alg.basis_element(j)
            assert alg.product(a, b) == alg.product(b, a)


def test_form_invariance_on_basis_triples():
    alg = algebra("A", 2)
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                a, b, c = (alg.basis_element(t) for t in (i, j, k))
                assert alg.form(alg.product(a, b), c) == alg.form(b, alg.product(a, c))


def test_theta_fixes_even_basis():
    alg = algebra("A", 2)
    for k in range(alg.dim):
        b = alg.basis_element(k)
        assert b.theta() == b
        assert b.is_theta_even()


def random_even_element(alg, rng, terms=4):
    coords = [F(0)] * alg.dim
    for _ in range(terms):
        coords[rng.randrange(alg.dim)] += F(rng.randint(-3, 3), rng.randint(1, 4))
    return alg.from_class_coords(coords)


def test_norton_inequality_sampled():
    alg = algebra("A", 2)
    rng = random.Random(7)
    for _ in range(120):
        a = random_even_element(alg, rng)
        b = random_even_element(alg, rng)
        lhs = alg.form(alg.product(a, a), alg.product(b, b))
        mid = alg.form(alg.product(a, b), alg.product(a, b))
        assert lhs >= mid >= 0


def test_coset_sum_2a_node_in_e6():
    alg = algebra("E", 6)
    aff = affine_e6()
    sub, m, comps = node_sublattice(aff, 2)
    assert m == 2
    from griess_forge.lattices import quotient_structure, Sublattice
    moduli, classify = quotient_structure(Sublattice(alg.lattice, sub.basis))
    x = coset_sum(alg, classify, (1,))
    assert len(x.exps) == 40           # 72 - 32 roots of A1 + A5
    assert alg.form(x, x) == 40
    assert x.is_theta_even()


# -- the integer product kernel against the pairwise Fraction/CycNum product

_HALF = F(1, 2)


def _acc(d, k, v):
    if not v:
        return
    w = d.get(k)
    if w is None:
        d[k] = v
    else:
        w = w + v
        if w:
            d[k] = w
        else:
            del d[k]


def reference_product(alg, a, b):
    """The product as the pairwise scan over Fraction and CycNum
    coefficients, term by term from the case table in the w2 docstring."""
    g = alg.lattice.gram
    rank = alg.rank

    def gvec(v):
        return tuple(sum(g[i][j] * v[j] for j in range(rank)) for i in range(rank))

    out_h, out_e, out_d = {}, {}, {}
    ah, bh = a.heis, b.heis
    ae, be = a.exps, b.exps
    ad2, bd2 = a.d2, b.d2
    for dd, hh in ((ad2, bh), (bd2, ah)):
        for i, x in dd.items():
            for (k, l), y in hh.items():
                s = 2 * x * y
                _acc(out_d, l, g[i][k] * s)
                _acc(out_d, k, g[i][l] * s)
    for dd, ee in ((ad2, be), (bd2, ae)):
        for i, x in dd.items():
            for gamma, y in ee.items():
                _acc(out_e, gamma, -gvec(gamma)[i] * (x * y))
    for (i, j), x in ah.items():
        for (k, l), y in bh.items():
            s = x * y
            _acc(out_h, (j, l) if j <= l else (l, j), g[i][k] * s)
            _acc(out_h, (j, k) if j <= k else (k, j), g[i][l] * s)
            _acc(out_h, (i, l) if i <= l else (l, i), g[j][k] * s)
            _acc(out_h, (i, k) if i <= k else (k, i), g[j][l] * s)
    for (i, j), x in ah.items():
        for beta, y in be.items():
            gb = gvec(beta)
            _acc(out_e, beta, gb[i] * gb[j] * x * y)
    for (k, l), y in bh.items():
        for beta, x in ae.items():
            gb = gvec(beta)
            _acc(out_e, beta, gb[k] * gb[l] * x * y)
    for beta, x in ae.items():
        gb = gvec(beta)
        for gamma, y in be.items():
            p = sum(gb[i] * gamma[i] for i in range(rank))
            if p == -2:
                _acc(out_e, tuple(beta[i] + gamma[i] for i in range(rank)), x * y)
            elif p == -4:
                assert gamma == tuple(-t for t in beta)
                s = _HALF * x * y
                for i in range(rank):
                    if beta[i]:
                        _acc(out_d, i, s * beta[i])
                        for j in range(i, rank):
                            if beta[j]:
                                _acc(out_h, (i, j),
                                     s * beta[i] * beta[j] * (2 if i != j else 1))
    return W2Element(out_h, out_e, out_d)


_ALGEBRAS = {}


def small_algebra(name):
    if name not in _ALGEBRAS:
        _ALGEBRAS[name] = algebra(name[0], int(name[1:]))
    return _ALGEBRAS[name]


_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
coefficients = st.one_of(
    st.integers(-3, 3),
    _fractions,
    st.builds(CycNum, _fractions, _fractions, _fractions, _fractions),
    st.builds(CycNum, _fractions),                          # rational CycNum
    st.builds(lambda k, c: zeta(12, k) * c, st.integers(0, 11), _fractions),
)


@st.composite
def elements(draw, alg):
    """A sparse element: Heisenberg pairs, exponentials (some with their
    negative, some alone) and a b(-2) part."""
    heis = draw(st.dictionaries(st.sampled_from(alg.heis_pairs), coefficients,
                                max_size=6))
    exps = {}
    for beta in draw(st.lists(st.sampled_from(alg.vectors4), max_size=16)):
        exps[beta] = draw(coefficients)
        if draw(st.booleans()):
            exps[tuple(-t for t in beta)] = draw(coefficients)
    d2 = draw(st.dictionaries(st.integers(0, alg.rank - 1), coefficients,
                              max_size=3))
    return W2Element(heis, exps, d2)


def fresh(x):
    """A copy of x that has not been converted to Z[z] yet."""
    return W2Element(x.heis, x.exps, x.d2)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["A2", "D4", "E6"]))
def test_product_matches_pairwise_reference(data, name):
    alg = small_algebra(name)
    a = data.draw(elements(alg))
    b = data.draw(elements(alg))
    want = reference_product(alg, a, b)
    assert alg.product(a, b) == want
    # each operand now keeps its Z[z] form in alg; a kept form on either
    # side, or on both, gives the same product
    assert a._z[0] is alg and b._z[0] is alg
    assert alg.product(a, fresh(b)) == want == alg.product(fresh(a), b)
    assert alg.product(a, b) == want


def test_product_matches_reference_on_the_3a_orbit():
    # chi e . chi^2 e for the special Ising vector e of sqrt(2)E8 and the
    # order-3 character of E8/(A2 + E6): two full elements over Q(z12)
    from griess_forge.commutants import e8_side
    side = e8_side()
    alg = side.alg
    rows = [list(r) for r in side.q_sub.basis] + [list(r) for r in side.e6_sub.basis]
    chi = CosetCharacter(alg, rows)
    e1 = chi.apply(side.ehat)
    e2 = chi.power(2).apply(side.ehat)
    assert len(e1.exps) == len(e2.exps) == 240
    assert alg.product(e1, e2) == reference_product(alg, e1, e2)


def test_product_rejects_keys_outside_the_norm4_vectors():
    alg = small_algebra("A2")
    good = alg.basis_element(alg.dim - 1)
    bad = W2Element(exps={(2, 0): F(1)})
    with pytest.raises(ValueError, match=r"\(2, 0\)"):
        alg.product(bad, good)
    with pytest.raises(ValueError, match=r"\(2, 0\)"):
        alg.product(good, bad)


def test_a_scaled_element_is_scaled_again_in_another_algebra():
    # the kept Z[z] form belongs to one algebra; another checks the keys anew
    a2, d4 = small_algebra("A2"), small_algebra("D4")
    x = a2.basis_element(a2.dim - 1)
    a2.form(x, x)
    assert x._z[0] is a2
    with pytest.raises(ValueError, match="not a norm-4 vector"):
        d4.product(x, d4.basis_element(d4.dim - 1))


# -- the integer form against the pairwise Fraction/CycNum form

def reference_form(alg, a, b):
    """The form as the pairwise scan over Fraction and CycNum coefficients,
    term by term from the w2 docstring."""
    g = alg.lattice.gram
    tot = F(0)
    for (i, j), x in a.heis.items():
        for (k, l), y in b.heis.items():
            tot += (g[i][k] * g[j][l] + g[i][l] * g[j][k]) * (x * y)
    for beta, x in a.exps.items():
        y = b.exps.get(tuple(-t for t in beta))
        if y:
            tot += x * y
    for i, x in a.d2.items():
        for j, y in b.d2.items():
            tot += 2 * g[i][j] * (x * y)
    return tot


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["A2", "D4", "E6"]))
def test_form_matches_pairwise_reference(data, name):
    alg = small_algebra(name)
    a = data.draw(elements(alg))
    b = data.draw(elements(alg))
    want = reference_form(alg, a, b)
    assert alg.form(a, b) == want
    assert alg.form(a, fresh(b)) == want == alg.form(fresh(a), b)
    assert alg.form(a, b) == want
    # a second conversion returns the kept form itself
    z = alg._zform(a)
    assert alg._zform(a) is z


def test_form_matches_reference_on_the_3a_orbit():
    from griess_forge.commutants import e8_side
    side = e8_side()
    alg = side.alg
    rows = [list(r) for r in side.q_sub.basis] + [list(r) for r in side.e6_sub.basis]
    chi = CosetCharacter(alg, rows)
    e1 = chi.apply(side.ehat)
    e2 = chi.power(2).apply(side.ehat)
    for a, b in ((e1, e2), (e1, e1), (e2, side.ehat)):
        want = reference_form(alg, a, b)
        assert alg.form(a, b) == want
        # both operands now keep their Z[z] forms
        assert a._z[0] is alg and b._z[0] is alg
        assert alg.form(a, b) == want


# -- the index neighbour table against brute-force pairings

@pytest.mark.parametrize("kind,n", [("D", 4), ("E", 8)])
def test_neighbour_table_matches_brute_force_pairings(kind, n):
    alg = algebra(kind, n)
    g, vecs = alg.lattice.gram, alg.vectors4
    rows = alg._neighbours()
    assert len(rows) == len(vecs)

    def pair(u, v):
        return sum(u[i] * g[i][j] * v[j] for i in range(n) for j in range(n))

    for i, beta in enumerate(vecs):
        assert vecs[i ^ 1] == tuple(-t for t in beta)
        gammas, keys = rows[i]
        assert len(gammas) == len(keys)
        assert set(gammas) == {j for j, gamma in enumerate(vecs)
                               if pair(beta, gamma) == -2}
        for j, k in zip(gammas, keys):
            assert pair(beta, vecs[j]) == -2
            assert vecs[k] == tuple(b + c for b, c in zip(beta, vecs[j]))
        if i & 1:
            even_gammas, even_keys = rows[i ^ 1]
            assert gammas == tuple(j ^ 1 for j in even_gammas)
            assert keys == tuple(k ^ 1 for k in even_keys)


def test_class_coords_rejects_theta_odd_elements():
    alg = small_algebra("D4")
    beta = alg.classes[0]
    neg = tuple(-t for t in beta)
    even = W2Element({(0, 1): F(1)}, {beta: F(2), neg: F(2)})
    assert alg.class_coords(even)[alg.heis_index[(0, 1)]] == 1
    for odd in (W2Element(exps={beta: F(1)}),
                W2Element(exps={beta: F(1), neg: F(-1)}),
                W2Element(exps={beta: F(2), neg: F(3)}),
                W2Element(exps={beta: F(1), neg: F(1)}, d2={0: F(1)}),
                W2Element({(0, 0): F(1)}, d2={2: F(1, 2)})):
        with pytest.raises(ValueError, match="not theta-even"):
            alg.class_coords(odd)
    with pytest.raises(ValueError, match="not a norm-4 vector"):
        alg.class_coords(W2Element(exps={(9, 0, 0, 0): F(1)}))


@st.composite
def even_elements(draw, alg):
    """A sparse theta-even element, from class coordinates."""
    coords = draw(st.lists(st.one_of(st.just(0), st.just(0), coefficients),
                           min_size=alg.dim, max_size=alg.dim))
    return alg.from_class_coords(coords)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["A2", "D4", "E6"]))
def test_product_coords_match_class_coords_of_the_product(data, name):
    alg = small_algebra(name)
    a = data.draw(even_elements(alg))
    b = data.draw(even_elements(alg))
    want = alg.class_coords(alg.product(a, b))
    got = alg.product_coords(a, b)
    # equal values of equal types: a Fraction where the entry is rational
    assert got == want
    assert repr(got) == repr(want)
    assert alg.product_coords(fresh(a), fresh(b)) == want


def test_product_coords_reject_a_theta_odd_operand():
    alg = small_algebra("D4")
    w = conformal_vector(alg)       # acts as 2, so w . x is odd with x
    beta = alg.classes[0]
    neg = tuple(-t for t in beta)
    for odd in (W2Element(exps={beta: F(1)}),
                W2Element(exps={beta: zeta(3), neg: F(1)}),
                W2Element({(0, 1): F(1)}, d2={2: F(1, 2)})):
        for a, b in ((odd, w), (w, odd)):
            with pytest.raises(ValueError, match="not theta-even"):
                alg.product_coords(a, b)
            with pytest.raises(ValueError, match="not theta-even"):
                alg.class_coords(alg.product(a, b))


# -- the coset character against zeta^k(beta) times each coefficient

@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 4, 6, 12]))
def test_character_apply_matches_value_times_coefficient(data, m):
    alg = small_algebra("D4")
    rows = [[m if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    chi = CosetCharacter(alg, rows).power(data.draw(st.integers(1, m)))
    x = data.draw(elements(alg))
    y = chi.apply(x)
    assert y.heis == x.heis and y.d2 == x.d2
    assert y.exps == {beta: v if chi.value(beta) == 1 else chi.value(beta) * v
                      for beta, v in x.exps.items()}


def test_character_apply_rejects_levels_outside_twelve():
    alg = small_algebra("D4")
    rows = [[5 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    chi = CosetCharacter(alg, rows)
    assert chi.apply(W2Element({(0, 0): F(1)})) == W2Element({(0, 0): F(1)})
    with pytest.raises(ValueError, match="must divide 12"):
        chi.apply(alg.basis_element(alg.dim - 1))


# -- the integer root sum against the Fraction accumulation it replaced

def reference_sub_conformal_vector(alg, roots, coxeter):
    c = F(1, 8 * coxeter)
    heis = {}
    for beta in roots:
        for i in range(alg.rank):
            bi = beta[i]
            if not bi:
                continue
            for j in range(i, alg.rank):
                bj = beta[j]
                if bj:
                    _acc(heis, (i, j), c * bi * bj * (2 if i != j else 1))
    return W2Element(heis)


@pytest.fixture(scope="module")
def e6_components():
    """(algebra, [(scaled roots, h)]) for every component of every punctured
    affine E6 diagram."""
    alg = algebra("E", 6)
    aff = affine_e6()
    comps = [(alg.scaled_roots([list(aff.node_root(j)) for j in nodes]),
              _COXETER[kind](n))
             for i in range(7) for nodes, kind, n in punctured_components(i)]
    return alg, comps


def test_sub_conformal_vector_matches_reference_on_node_components(e6_components):
    alg, comps = e6_components
    for roots, h in comps:
        assert (sub_conformal_vector(alg, roots, h)
                == reference_sub_conformal_vector(alg, roots, h))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sub_conformal_vector_matches_reference_on_root_subsets(e6_components, data):
    # subsets of a component's roots, where sums can cancel to zero
    alg, comps = e6_components
    roots, _h = data.draw(st.sampled_from(comps))
    subset = data.draw(st.lists(st.sampled_from(roots), max_size=12))
    h = data.draw(st.integers(1, 30))
    assert (sub_conformal_vector(alg, subset, h)
            == reference_sub_conformal_vector(alg, subset, h))
