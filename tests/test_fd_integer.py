"""The integer Z[z12] paths of the finite-dimensional layer against field
arithmetic: mat_mul, map_order and group_closure on maps, FDAlgebra
products, forms and invariance check, and the pivot columns span_closure
keeps.  Each reference below is the Fraction/CycNum loop the integer path
replaced; results must be equal by ==, so a rational entry may come back
as a Fraction or a rational CycNum.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from griess_forge import linalg as la
from griess_forge.commutants import (FDAlgebra, g2a_table, g3a_table, u3a_table,
                                     u6a_table)
from griess_forge.exact import CycNum, _ZRow, zeta
from griess_forge.involutions import group_closure, map_order

F = Fraction


# -- references -------------------------------------------------------------------

def ref_mat_mul(a, b):
    bt = list(zip(*b))
    out = []
    for row in a:
        out.append([sum((x * y for x, y in zip(row, col) if x and y), F(0))
                    for col in bt])
    return out


def ref_map_order(mat, cap=24):
    n = len(mat)
    ident = la.identity(n)
    power = mat
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = ref_mat_mul(power, mat)
    raise ValueError("order exceeds cap %d" % cap)


def ref_group_closure(generators, cap=10000):
    def freeze(m):
        return tuple(tuple(x for x in row) for row in m)

    gens = [freeze(g) for g in generators]
    n = len(generators[0])
    ident = freeze(la.identity(n))
    seen = {ident}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                prod = freeze(ref_mat_mul([list(r) for r in a], [list(r) for r in g]))
                if prod not in seen:
                    seen.add(prod)
                    ordered.append(prod)
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise ValueError("group closure exceeded cap %d" % cap)
        frontier = nxt
    return len(ordered), [[list(r) for r in m] for m in ordered]


def ref_product_vec(fd, u, v):
    out = [F(0)] * fd.dim
    for i, x in enumerate(u):
        if not x:
            continue
        for j, y in enumerate(v):
            if not y:
                continue
            s = x * y
            row = fd.mult[i][j]
            for k, c in enumerate(row):
                if c:
                    out[k] = out[k] + s * c
    return out


def ref_form_vec(fd, u, v):
    tot = F(0)
    for i, x in enumerate(u):
        if not x:
            continue
        for j, y in enumerate(v):
            if y and fd.gram[i][j]:
                tot = tot + fd.gram[i][j] * (x * y)
    return tot


def ref_check_invariance(fd):
    violations = []
    for i in range(fd.dim):
        for j in range(fd.dim):
            pij = fd.mult[i][j]
            for k in range(fd.dim):
                lhs = sum((pij[t] * fd.gram[t][k] for t in range(fd.dim)
                           if pij[t] and fd.gram[t][k]), F(0))
                pik = fd.mult[i][k]
                rhs = sum((fd.gram[j][t] * pik[t] for t in range(fd.dim)
                           if pik[t] and fd.gram[j][t]), F(0))
                if lhs != rhs:
                    violations.append((fd.names[i], fd.names[j], fd.names[k]))
    return violations


def ref_rank(rows):
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


# -- strategies -------------------------------------------------------------------

_rational = st.one_of(st.just(F(0)), st.integers(-3, 3).map(F),
                      st.fractions(min_value=-5, max_value=5, max_denominator=12))
_unit = st.integers(0, 11).map(lambda k: zeta(12, k))
_cyclotomic = st.one_of(
    _rational,
    _rational.map(CycNum),                                   # rational CycNum
    st.tuples(_unit, _rational).map(lambda t: t[0] * t[1]),  # root of unity times q
    st.builds(CycNum, _rational, _rational, _rational, _rational),
)


@st.composite
def matrices(draw, entry, rows, cols):
    a = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [F(0)] * cols
    return a


@st.composite
def products(draw):
    entry = draw(st.sampled_from([_rational, _cyclotomic]))
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(matrices(entry, m, k)), draw(matrices(entry, k, n))


@st.composite
def finite_order_maps(draw, n):
    """P M P^-1 for a monomial M whose entries are roots of unity (so M has
    finite order) and an invertible P over Q or Q(z)."""
    cyc = draw(st.booleans())
    perm = draw(st.permutations(range(n)))
    units = [zeta(12, draw(st.integers(0, 11))) if cyc else F(draw(st.sampled_from([1, -1])))
             for _ in range(n)]
    mono = [[units[i] if perm[i] == j else F(0) for j in range(n)] for i in range(n)]
    entry = _cyclotomic if cyc else _rational
    p = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(la.det(p) != 0)
    return ref_mat_mul(ref_mat_mul(p, mono), la.inverse(p))


# -- maps -----------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(products())
def test_mat_mul_matches_field_product(ab):
    a, b = ab
    assert la.mat_mul(a, b) == ref_mat_mul(a, b)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(finite_order_maps))
def test_map_order_matches_reference_on_finite_order_maps(mat):
    assert _outcome(map_order, mat, 12) == _outcome(ref_map_order, mat, 12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: matrices(_cyclotomic, n, n)))
def test_map_order_matches_reference_on_random_maps(mat):
    assert _outcome(map_order, mat, 6) == _outcome(ref_map_order, mat, 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(finite_order_maps(n), min_size=1, max_size=2)))
def test_group_closure_matches_reference(gens):
    assert _outcome(group_closure, gens, 60) == _outcome(ref_group_closure, gens, 60)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda n: st.lists(matrices(_cyclotomic, n, n), min_size=1, max_size=2)))
def test_group_closure_matches_reference_on_random_maps(gens):
    assert _outcome(group_closure, gens, 8) == _outcome(ref_group_closure, gens, 8)


def test_group_closure_with_a_nilpotent_generator():
    # N^2 = N^3 = 0: the zero matrix must be met once, whatever its scale
    gens = [[[F(0), F(1, 2)], [F(0), F(0)]]]
    assert group_closure(gens, 10) == ref_group_closure(gens, 10)
    assert group_closure(gens, 10)[0] == 3


# -- FDAlgebra products and forms ----------------------------------------------------

_TABLES = [g2a_table(), g3a_table(), u3a_table(), u6a_table()]


def _check_products(fd, vecs):
    for u in vecs:
        for v in vecs:
            want = ref_product_vec(fd, u, v)
            assert fd.product_vec(u, v) == want
            assert fd.product_vec(_ZRow(u), _ZRow(v)) == want
            assert fd.form_vec(u, v) == ref_form_vec(fd, u, v)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_TABLES))).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(
        st.lists(_cyclotomic, min_size=_TABLES[t].dim, max_size=_TABLES[t].dim),
        min_size=1, max_size=3))))
def test_fd_products_match_reference_on_tables(data):
    t, vecs = data
    _check_products(_TABLES[t], vecs + [[F(0)] * _TABLES[t].dim])


@st.composite
def symmetric_tables(draw):
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([_rational, _cyclotomic]))
    mult = [[None] * n for _ in range(n)]
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mult[i][j] = mult[j][i] = draw(st.lists(entry, min_size=n, max_size=n))
            gram[i][j] = gram[j][i] = draw(entry)
    vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3))
    return FDAlgebra(["b%d" % k for k in range(n)], mult, gram), vecs


@settings(max_examples=80, deadline=None)
@given(symmetric_tables())
def test_fd_products_match_reference_on_random_tables(data):
    fd, vecs = data
    _check_products(fd, vecs)


@st.composite
def invariant_tables(draw):
    """An algebra whose form is invariant: <a_i.a_j, a_k> is a totally
    symmetric tensor T and the products are solved from T over an
    invertible symmetric gram."""
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([_rational, _cyclotomic]))
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(entry)
    assume(la.det(gram) != 0)
    tensor = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                tensor[i, j, k] = draw(entry)
    ginv = la.inverse(gram)
    mult = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = [tensor[tuple(sorted((i, j, k)))] for k in range(n)]
            mult[i][j] = mult[j][i] = ref_mat_mul([t], ginv)[0]
    return FDAlgebra(["b%d" % k for k in range(n)], mult, gram)


@st.composite
def perturbed(draw, tables):
    """A table from the strategy, maybe with one product (a.b = b.a) changed
    in one coordinate."""
    fd = draw(tables)
    if draw(st.booleans()):
        n = fd.dim
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        row = list(fd.mult[i][j])
        row[k] += draw(st.sampled_from([F(1), F(-1, 3), zeta(12)]))
        mult = [list(r) for r in fd.mult]
        mult[i][j] = mult[j][i] = row
        fd = FDAlgebra(fd.names, mult, fd.gram)
    return fd


@settings(max_examples=80, deadline=None)
@given(perturbed(st.one_of(invariant_tables(), st.sampled_from(_TABLES),
                           symmetric_tables().map(lambda data: data[0]))))
def test_check_invariance_matches_reference(fd):
    assert fd.check_invariance() == ref_check_invariance(fd)


# -- span growth as pivot columns -----------------------------------------------------

@st.composite
def vector_sequences(draw):
    n = draw(st.integers(1, 5))
    entry = draw(st.sampled_from([_rational, _cyclotomic]))
    vecs = []
    for _ in range(draw(st.integers(1, 7))):
        if vecs and draw(st.booleans()):
            # a combination of earlier vectors, so dependent ones occur
            picks = draw(st.lists(st.tuples(st.integers(0, len(vecs) - 1), entry),
                                  min_size=1, max_size=3))
            v = [F(0)] * n
            for k, c in picks:
                v = [x + c * y for x, y in zip(v, vecs[k])]
            vecs.append(v)
        else:
            vecs.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return vecs


@settings(max_examples=150, deadline=None)
@given(vector_sequences())
def test_incremental_span_matches_rank(vecs):
    # span_closure keeps the candidates that are pivot columns: index k is
    # a pivot exactly when the rank grows at k
    assert la.pivots(la.transpose(vecs)) == [k for k in range(len(vecs))
                   if ref_rank(vecs[:k + 1]) > ref_rank(vecs[:k])]

