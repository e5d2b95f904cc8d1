"""The Hermite-form paths of the integer-lattice layer against the procedures
they replaced: annihilators through the Smith row transform, prime-modulus
pivot kernels, mod-3 elimination for code ranks, unimodular inverses over
Q, and root types read off the legs of a star.  Each reference below is a
copy of the replaced code; results must be equal by ==.
"""

from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from griess_forge import linalg as la
from griess_forge.codes import TernaryCode
from griess_forge.intmat import (hnf, int_identity, int_inverse_unimodular,
                                 int_matmul, left_kernel, snf_with_transform)
from griess_forge.lattices import (AffineE6, Sublattice, _classify_component,
                                   _diagram_edges, annihilator,
                                   build_root_lattice, kernel_sublattice)


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
