"""The Hermite-form paths of the integer-lattice layer against the procedures
they replaced: annihilators through the Smith row transform, prime-modulus
pivot kernels, mod-3 elimination for code ranks, unimodular inverses over
Q, root types read off the legs of a star, and Smith forms and
determinants with row and column operations of their own.  Each reference
below is a copy of the replaced code; results must be equal by ==, but for
the sign that int_det drops and the Smith transforms, which may differ.
"""

import random
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from griess_forge import linalg as la
from griess_forge.codes import TernaryCode
from griess_forge.commutants import e8_side
from griess_forge.intmat import (hnf, int_det, int_identity, int_inverse_unimodular,
                                 int_matmul, left_kernel, snf_with_transform)
from griess_forge.lattices import (AffineE6, Sublattice, _classify_component,
                                   _diagram_edges, affine_e6, annihilator,
                                   build_root_lattice, kernel_sublattice,
                                   node_sublattice, quotient_structure)


# -- references -------------------------------------------------------------------

def ref_annihilator(ambient, sub):
    pairing = int_matmul(ambient.gram, [list(col) for col in zip(*sub.basis)])
    diag, u, _v = snf_with_transform([list(row) for row in
                                      [[pairing[i][j] for j in range(len(sub.basis))]
                                       for i in range(ambient.rank)]])
    r = len(diag)
    rows = [u[i] for i in range(r, ambient.rank)]
    return Sublattice(ambient, hnf(rows)) if rows else Sublattice(ambient, [])


def ref_kernel_sublattice(ambient_basis_rows, values, modulus):
    rows = list(ambient_basis_rows)
    vals = [v % modulus for v in values]
    out = []
    pivot = None
    for i, v in enumerate(vals):
        if v % modulus:
            pivot = i
            break
    if pivot is None:
        return hnf(rows)
    inv = pow(vals[pivot], -1, modulus)
    for i, row in enumerate(rows):
        if i == pivot:
            continue
        if vals[i]:
            q = (vals[i] * inv) % modulus
            out.append([x - q * y for x, y in zip(row, rows[pivot])])
        else:
            out.append(list(row))
    out.append([modulus * x for x in rows[pivot]])
    return hnf(out)


def ref_dimension(code):
    rows = [list(g) for g in code.generators]
    k = 0
    for c in range(code.length):
        p = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, len(rows)):
            f = rows[i][c] * rows[k][c]
            rows[i] = [(x - f * y) % 3 for x, y in zip(rows[i], rows[k])]
        k += 1
    return k


def ref_inverse_unimodular(a):
    out = []
    for row in la.inverse(a):
        irow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular over the integers")
            irow.append(x.numerator)
        out.append(irow)
    return out


def ref_classify(nodes, edges):
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    degs = sorted(len(adj[v]) for v in nodes)
    n = len(nodes)
    if degs[-1] <= 2:
        return ("A", n)
    if degs[-1] == 3:
        center = next(v for v in nodes if len(adj[v]) == 3)
        legs = []
        for s in adj[center]:
            ln = 1
            prev, cur = center, s
            while True:
                nxt = [w for w in adj[cur] if w != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                ln += 1
            legs.append(ln)
        legs.sort()
        if legs[0] == 1 and legs[1] == 1:
            return ("D", n)
        if legs == [1, 2, 2]:
            return ("E", 6)
        if legs == [1, 2, 3]:
            return ("E", 7)
        if legs == [1, 2, 4]:
            return ("E", 8)
    raise ValueError("component is not of type ADE")


def ref_snf_with_transform(a):
    """Smith normal form D = U A V; returns (invariant factors, U, V).

    U (rows x rows) and V (cols x cols) are unimodular.  The invariant
    factors are positive and in divisibility order; rank-deficient input
    simply yields fewer of them.
    """
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = int_identity(rows)
    v = int_identity(cols)

    def swap_rows(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in m:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        """row_dst -= q * row_src"""
        if q:
            m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        """col_dst -= q * col_src"""
        if q:
            for row in m:
                row[dst] -= q * row[src]
            for row in v:
                row[dst] -= q * row[src]

    t = 0
    while t < min(rows, cols):
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                while m[i][t]:
                    add_row(t, i, m[i][t] // m[t][t])
                    if m[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                while m[t][j]:
                    add_col(t, j, m[t][j] // m[t][t])
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % m[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, -1)  # row_t += row_bad, reintroduces column work
        t += 1

    for i in range(t):
        if m[i][i] < 0:
            for j in range(cols):
                m[i][j] = -m[i][j]
            # flipping row i of D corresponds to flipping row i of U
            u[i] = [-x for x in u[i]]
    diag = [m[i][i] for i in range(t) if m[i][i]]
    return diag, u, v


def ref_int_det(a):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def in_span(basis, x):
    """Whether x is an integer combination of full-rank square HNF rows."""
    x = list(x)
    for j, row in enumerate(basis):
        if x[j] % row[j]:
            return False
        q = x[j] // row[j]
        x = [a - q * b for a, b in zip(x, row)]
    return not any(x)


# -- root types -------------------------------------------------------------------

ADE = ([("A", n) for n in range(1, 12)] + [("D", n) for n in range(3, 12)]
       + [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("kind,n", ADE)
def test_classify_reads_every_ade_diagram_as_before(kind, n):
    nodes, edges = set(range(n)), _diagram_edges(kind, n)
    want = ("A", 3) if (kind, n) == ("D", 3) else (kind, n)
    assert _classify_component(nodes, edges) == ref_classify(nodes, edges) == want
    # the labels need not be 0..n-1
    shifted = [(a + 10, b + 10) for a, b in edges]
    assert _classify_component({v + 10 for v in nodes}, shifted) == want


@pytest.mark.parametrize("nodes,edges", [
    ({0, 1, 2}, [(0, 1), (1, 2), (2, 0)]),                # affine A2
    (set(range(7)), AffineE6.AFFINE_EDGES),               # affine E6
    (set(range(5)), [(0, 1), (0, 2), (0, 3), (0, 4)]),    # affine D4
    # indefinite, with determinant 9 = n + 1 as for A8
    (set(range(8)), [(0, 7), (2, 4), (2, 7), (4, 5), (3, 6), (1, 6), (1, 3),
                     (4, 7), (3, 5)]),
])
def test_classify_rejects_non_ade_diagrams(nodes, edges):
    with pytest.raises(ValueError, match="not of type ADE"):
        _classify_component(nodes, edges)


# -- kernels ----------------------------------------------------------------------

@pytest.mark.parametrize("modulus", [4, 6, 9])
@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                  [[2, 1, 0], [0, 1, 1], [1, 0, 3]]])
def test_kernel_sublattice_composite_modulus_against_a_box(rows, modulus):
    values = [2, 3 % modulus, modulus - 2]
    kern = kernel_sublattice(rows, values, modulus)
    assert len(kern) == 3
    for c in product(range(-modulus, modulus + 1), repeat=3):
        x = int_matmul([list(c)], rows)[0]
        want = sum(a * v for a, v in zip(c, values)) % modulus == 0
        assert in_span(kern, x) == want


rows_and_values = st.lists(st.tuples(st.lists(st.integers(-4, 4), min_size=3,
                                              max_size=3), st.integers(-9, 9)),
                           min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(rows_and_values, st.sampled_from([2, 3, 5, 7]))
@example([([1, 0, 0], 0), ([0, 1, 0], 0)], 3)
def test_kernel_sublattice_matches_the_pivot_version(pairs, modulus):
    rows, values = [list(r) for r, _ in pairs], [v for _, v in pairs]
    assert (kernel_sublattice(rows, values, modulus)
            == ref_kernel_sublattice(rows, values, modulus))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([("A", 2), ("A", 4), ("D", 4), ("E", 6), ("E", 8)]),
       st.data())
def test_annihilator_matches_the_smith_version(kind_n, data):
    amb = build_root_lattice(*kind_n)
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=amb.rank,
                                       max_size=amb.rank), max_size=amb.rank))
    sub = Sublattice(amb, hnf(rows))
    assert annihilator(amb, sub).basis == ref_annihilator(amb, sub).basis


def test_annihilator_of_the_empty_sublattice_is_everything():
    e6 = build_root_lattice("E", 6)
    assert annihilator(e6, Sublattice(e6, [])).basis == int_identity(6)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 4), st.data())
def test_left_kernel_is_the_integer_kernel(m, n, data):
    p = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                           min_size=m, max_size=m))
    kern = left_kernel(p)
    assert all(not any(int_matmul([x], p)[0]) for x in kern)
    assert len(kern) == m - (la.rank(p) if m and n else 0)
    if m:
        # the same lattice as the Smith row transform's kernel rows
        diag, u, _v = snf_with_transform(p)
        assert hnf(kern) == hnf(u[len(diag):])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_int_matmul_matches_the_dense_product(m, k, n, data):
    def matrix(rows, cols):
        row = st.lists(st.sampled_from([0, 0, -2, -1, 1, 3]) | st.integers(-9, 9),
                       min_size=cols, max_size=cols)
        return st.lists(st.just([0] * cols) | row, min_size=rows, max_size=rows)

    a, b = data.draw(matrix(m, k)), data.draw(matrix(k, n))
    bt = list(zip(*b))
    dense = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
    assert int_matmul(a, b) == dense


# -- code ranks -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_dimension_matches_mod3_elimination(length, data):
    gens = data.draw(st.lists(st.lists(st.integers(-1, 2), min_size=length,
                                       max_size=length), max_size=7))
    code = TernaryCode(length, gens)
    assert code.dimension() == ref_dimension(code)


# -- unimodular inverses ----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.data())
def test_inverse_unimodular_matches_the_rational_inverse(n, data):
    a = int_identity(n)
    steps = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.integers(-3, 3)), max_size=12))
    for i, j, q in steps:
        if i == j:
            a[i] = [-x for x in a[i]]
        else:
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    assert int_inverse_unimodular(a) == ref_inverse_unimodular(a)


@pytest.mark.parametrize("a", [[[2, 0], [0, 1]], [[1, 1], [-1, 1]],
                               [[1, 2], [2, 4]], [[0, 0], [0, 0]]])
def test_inverse_unimodular_rejects_non_unimodular(a):
    with pytest.raises(ValueError, match="not unimodular"):
        int_inverse_unimodular(a)


# -- Smith forms and determinants -------------------------------------------------

def _matrices(rows, cols):
    """Integer matrices of the shape, with zero rows, zero columns and rank
    deficiency: a rank-k product x y, then zeroed rows and columns."""
    return st.integers(1, min(rows, cols)).flatmap(lambda k: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k),
                 min_size=rows, max_size=rows),
        st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
                 min_size=k, max_size=k),
        st.sets(st.integers(0, rows - 1)), st.sets(st.integers(0, cols - 1)),
    )).map(lambda t: [[0 if i in t[2] or j in t[3] else x for j, x in enumerate(row)]
                      for i, row in enumerate(int_matmul(t[0], t[1]))])


def check_smith(a):
    diag, u, v = snf_with_transform(a)
    assert diag == ref_snf_with_transform(a)[0]
    rows, cols = len(a), len(a[0]) if a else 0
    want = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
            for i in range(rows)]
    assert int_matmul(int_matmul(u, a), v) == want
    assert abs(ref_int_det(u)) == 1 and abs(ref_int_det(v)) == 1
    return diag


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda r: st.integers(1, 5).flatmap(
    lambda c: _matrices(r, c))))
def test_smith_form_matches_the_elimination_version(a):
    check_smith(a)


@pytest.mark.parametrize("a,diag", [
    ([[2, 0], [0, 3]], [1, 6]),          # 2 does not divide 3: columns merge
    ([[0, 0, 0], [0, 0, 0]], []),
    ([[0]], []),
    ([], []),
    ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
])
def test_smith_form_explicit_cases(a, diag):
    assert check_smith(a) == diag


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: _matrices(n, n) if n else st.just([])))
@example([])
@example([[0, 0], [0, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 1], [1, 0]])
def test_int_det_is_the_absolute_elimination_determinant(a):
    assert int_det(a) == abs(ref_int_det(a))


def _quotients():
    aff = affine_e6()
    side = e8_side()
    for i in range(7):
        yield node_sublattice(aff, i)[0]
        yield Sublattice(side.e8, list(side.q_sub.basis)
                         + [side.node_image(j) for j in range(7) if j != i])


@pytest.mark.parametrize("sub", list(_quotients()),
                         ids=["%s-node%d" % (s, i) for i in range(7) for s in ("E6", "E8")])
def test_quotient_structure_is_a_group_isomorphism(sub):
    """A check that holds for every choice of coset labels."""
    moduli, classify = quotient_structure(sub)
    assert prod(moduli) == sub.index()
    zero = tuple(0 for _ in moduli)
    assert all(classify(row) == zero for row in sub.basis)
    rng = random.Random(len(moduli) * 7 + sub.index())
    n = sub.ambient.rank
    seen = set()
    for _ in range(200):
        x, y = ([rng.randint(-6, 6) for _ in range(n)] for _ in range(2))
        s = classify([a + b for a, b in zip(x, y)])
        assert s == tuple((a + b) % m for a, b, m in zip(classify(x), classify(y), moduli))
        seen.add(classify(x))
    assert len(seen) == prod(moduli)
