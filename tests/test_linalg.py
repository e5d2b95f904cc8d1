from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from griess_forge.exact import CycNum, zeta
from griess_forge import linalg as la
from griess_forge.intmat import (hnf, snf_with_transform, int_matmul, int_det,
                                 int_positive_definite)
from griess_forge.lattices import IntegralLattice


F = Fraction


def _col(v):
    """A vector as a one-column matrix."""
    return [[t] for t in v]


def test_solve_identity():
    a = la.identity(3)
    b = [F(1), F(-2), F(7, 3)]
    assert la.solve_matrix(a, _col(b)) == _col(b)


def test_solve_inconsistent():
    a = [[F(1), F(1)], [F(1), F(1)]]
    assert la.solve_matrix(a, _col([F(0), F(1)])) is None


def test_kernel_of_difference_row():
    k = la.kernel([[F(1), F(-1)]])
    assert len(k) == 1
    v = k[0]
    assert v[0] == v[1] != 0


def test_mat_mul_on_empty_shapes():
    # 0 x k and k x 0 operands: a matrix with no rows is [], and one with
    # no columns is a list of empty rows
    assert la.mat_mul([], [[1, 2]]) == []
    assert la.mat_mul([[1], [2]], [[]]) == [[], []]
    assert la.mat_mul([[1, F(1, 2)]], [[], []]) == [[]]
    assert la.mat_mul([[], []], []) == [[], []]
    assert la.mat_mul([], []) == []
    assert la.mat_mul([[zeta(12)], [1]], [[]]) == [[], []]


def test_pivots_and_rank():
    a = [[0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 5]]
    assert la.pivots(a) == [1, 3] == ref_rref(a, 4)[1]
    assert la.rank(a) == 2
    assert la.pivots([[0, 0]]) == []
    # every column a pivot column, also of a tall matrix
    assert la.pivots([[2, 1], [1, 1], [3, 2]]) == [0, 1]
    assert la.pivots([]) == [] and la.rank([]) == 0
    z = zeta(12)
    assert la.pivots([[z, z * z], [1, z]]) == [0]


def test_solve_over_cyclotomic():
    z = zeta(3)
    a = [[z, CycNum(1)], [CycNum(0), z * z]]
    x = la.solve_matrix(a, _col([CycNum(1), CycNum(1)]))
    assert x is not None
    assert la.mat_mul(a, x) == _col([CycNum(1), CycNum(1)])


def test_inverse_and_det():
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = la.inverse(a)
    assert la.mat_mul(a, inv) == la.identity(2)
    assert la.det(a) == 1


def test_inverse_rejects_singular_and_non_square_matrices():
    z = zeta(12)
    for a in ([[F(1), F(2)], [F(2), F(4)]], [[z, z * z], [1, z]], [[0, 0], [0, z]]):
        with pytest.raises(ValueError, match="matrix is singular"):
            la.inverse(a)
    for a in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="matrix is not square"):
            la.inverse(a)


def _non_square(x):
    """A wide, a tall and a ragged matrix with entries built from x."""
    return ([[2 * x, x, 0 * x], [x, 2 * x, 0 * x]],
            [[x, 2 * x], [3 * x, 4 * x], [5 * x, 6 * x]], [[2 * x, x], [x]])


@pytest.mark.parametrize("x", [1, F(1, 2), zeta(12)], ids=["Z", "Q", "Q(z)"])
def test_square_routines_reject_non_square_matrices(x):
    routines = [la.det, la.is_positive_definite]
    if x == 1:
        routines += [int_det, int_positive_definite]
    for f in routines:
        for a in _non_square(x):
            with pytest.raises(ValueError, match="matrix is not square"):
                f(a)


def test_solution_substitutes_back():
    a = [[F(2), F(0), F(1)], [F(0), F(1), F(1)]]
    b = [F(3), F(2)]
    x = la.solve_matrix(a, _col(b))
    assert la.mat_mul(a, x) == _col(b)


def test_row_span_coords():
    rows = [[F(1), F(0), F(1)], [F(0), F(2), F(0)]]
    c, = la.row_span_coords(rows, [[F(1), F(4), F(1)]])
    assert c == [F(1), F(2)]
    assert la.row_span_coords(rows, [[F(0), F(0), F(1)]]) == [None]


def test_row_span_coords_of_a_mixed_batch():
    # one elimination serves the batch: the outside vector is None, and
    # the inside one keeps its coordinates wherever it stands
    rows = [[F(1), F(0), F(1)], [F(0), F(2), zeta(12)]]
    inside = [F(2), F(6), 2 + 3 * zeta(12)]
    assert la.row_span_coords(rows, [inside, [F(0), F(0), F(1)]]) == [[2, 3], None]
    assert la.row_span_coords(rows, [[F(0), F(0), F(1)], inside]) == [None, [2, 3]]


def test_row_span_coords_of_empty_batches_and_spans():
    rows = [[F(1), F(0)], [F(0), F(2)]]
    assert la.row_span_coords(rows, []) == []
    assert la.row_span_coords([], []) == []
    # over no rows only a zero vector has coordinates, the empty ones
    assert la.row_span_coords([], [[F(0), F(0)], [F(0), F(1)]]) == [[], None]


def test_hnf_basis():
    rows = [[2, 0], [0, 2], [1, 1]]
    basis = hnf(rows)
    assert len(basis) == 2
    assert abs(int_det(basis)) == 2  # index-2 sublattice of Z^2


def test_snf_transform_identity():
    a = [[2, 4], [6, 8]]
    diag, u, v = snf_with_transform(a)
    d = int_matmul(int_matmul(u, a), v)
    assert [d[i][i] for i in range(len(diag))] == diag
    assert abs(int_det(u)) == 1 and abs(int_det(v)) == 1
    assert diag == [2, 4] or diag[0] * diag[1] == 8 and diag[1] % diag[0] == 0


@given(st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_snf_random(a):
    diag, u, v = snf_with_transform(a)
    d = int_matmul(int_matmul(u, a), v)
    n = len(diag)
    for i in range(3):
        for j in range(3):
            if i == j and i < n:
                assert d[i][j] == diag[i]
            else:
                assert d[i][j] == 0
    for i in range(n - 1):
        assert diag[i + 1] % diag[i] == 0
    assert abs(int_det(u)) == 1 and abs(int_det(v)) == 1


# -- the elimination core against a plain field Gauss-Jordan ------------------

def ref_rref(a, ncols):
    """Field Gauss-Jordan on a copy of a: (rref, pivot columns, det factor).

    The factor is the product of the pivots met and of -1 per swap, which
    is the determinant when a is square and of full rank.
    """
    a = [row[:] for row in a]
    piv, d, r = [], F(1), 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            d = -d
        d = d * a[r][c]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return a, piv, d


def ref_kernel(a):
    n = len(a[0])
    red, piv, _ = ref_rref(a, n)
    basis = []
    for fc in (c for c in range(n) if c not in piv):
        v = [F(0)] * n
        v[fc] = F(1)
        for i, c in enumerate(piv):
            v[c] = -red[i][fc]
        basis.append(v)
    return basis


def ref_solve_matrix(a, rhs):
    n = len(a[0])
    red, piv, _ = ref_rref([r + s for r, s in zip(a, rhs)], n)
    if any(any(row[n:]) for row in red[len(piv):]):
        return None
    x = [[F(0)] * len(rhs[0]) for _ in range(n)]
    for i, c in enumerate(piv):
        x[c] = red[i][n:]
    return x


def ref_det(a):
    _, piv, d = ref_rref(a, len(a))
    return d if len(piv) == len(a) else 0


def ref_inverse(a):
    n = len(a)
    red, piv, _ = ref_rref([r + e for r, e in zip(a, la.identity(n))], n)
    return [row[n:] for row in red] if len(piv) == n else None


_rational = st.one_of(st.just(F(0)), st.integers(-3, 3).map(F),
                      st.fractions(min_value=-5, max_value=5, max_denominator=12))
_cyclotomic = st.one_of(_rational, st.builds(CycNum, _rational, _rational,
                                             _rational, _rational))


@st.composite
def matrices(draw, entry, max_rows=7, max_cols=7, square=False):
    """Random m x n matrices: wide and tall, with a dependent row, a zero
    row or a zero column mixed in."""
    m = draw(st.integers(1, max_rows))
    n = m if square else draw(st.integers(1, max_cols))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        c, d = draw(entry), draw(entry)
        a[i] = [c * x + d * y for x, y in zip(a[j], a[k])]
    if draw(st.booleans()):
        a[draw(st.integers(0, m - 1))] = [F(0)] * n
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = F(0)
    return a


def _check_against_reference(a, rhs):
    assert la.kernel(a) == ref_kernel(a)
    piv = ref_rref(a, len(a[0]))[1]
    assert la.pivots(a) == piv and la.rank(a) == len(piv)
    assert la.solve_matrix(a, rhs) == ref_solve_matrix(a, rhs)


@settings(max_examples=150, deadline=None)
@given(matrices(_rational), st.data())
def test_core_matches_field_elimination_over_q(a, data):
    rhs = data.draw(st.lists(st.lists(_rational, min_size=2, max_size=2),
                             min_size=len(a), max_size=len(a)))
    _check_against_reference(a, rhs)
    ints = [[x.numerator for x in row] for row in a]
    assert la.kernel(ints) == ref_kernel([[F(x) for x in row] for row in ints])


@settings(max_examples=60, deadline=None)
@given(matrices(_cyclotomic, max_rows=4, max_cols=4), st.data())
def test_core_matches_field_elimination_over_qz(a, data):
    rhs = data.draw(st.lists(st.lists(_cyclotomic, min_size=2, max_size=2),
                             min_size=len(a), max_size=len(a)))
    _check_against_reference(a, rhs)


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(_rational, square=True),
                 matrices(_cyclotomic, max_rows=4, square=True)))
def test_inverse_and_det_match_field_elimination(a):
    assert la.det(a) == ref_det(a)
    want = ref_inverse(a)
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            la.inverse(a)
    else:
        assert la.inverse(a) == want


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(_rational), matrices(_cyclotomic, max_rows=4, max_cols=4)),
       st.data())
def test_inconsistent_system_has_no_solution(a, data):
    # a zero row with a nonzero right-hand side cannot be satisfied
    i = data.draw(st.integers(0, len(a) - 1))
    a[i] = [F(0)] * len(a[0])
    rhs = [[F(0)] for _ in a]
    rhs[i] = [data.draw(st.sampled_from([F(1), F(-2, 3), zeta(12)]))]
    assert ref_solve_matrix(a, rhs) is None
    assert la.solve_matrix(a, rhs) is None
    # the same system as a row span: the transposed rows of a miss rhs
    assert la.row_span_coords(la.transpose(a), [[r[0] for r in rhs]]) == [None]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([_rational, _cyclotomic]), st.data())
def test_row_span_coords_of_mixed_batches_match_one_solve_each(entry, data):
    # rows with a dependent one, so some coordinates are free, and vectors
    # inside their span (combinations of the rows) and mostly outside it
    rows = data.draw(matrices(entry, max_rows=4, max_cols=5))
    cs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    rows.append([sum((c * r[j] for c, r in zip(cs, rows)), F(0))
                 for j in range(len(rows[0]))])
    vectors = []
    for inside in data.draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        cs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        vectors.append([sum((c * r[j] for c, r in zip(cs, rows)), F(0))
                        for j in range(len(rows[0]))] if inside else
                       data.draw(st.lists(entry, min_size=len(rows[0]),
                                          max_size=len(rows[0]))))
    want = [ref_solve_matrix(la.transpose(rows), [[t] for t in v]) for v in vectors]
    assert la.row_span_coords(rows, vectors) == [
        None if x is None else [t for t, in x] for x in want]


def test_det_over_cyclotomic_field():
    z = zeta(12)
    a = [[z, F(1), F(0)], [F(2), z * z, F(1, 3)], [F(0), F(5), z ** 3]]
    assert la.det(a) == ref_det(a)
    assert la.det([[z, z], [z, z]]) == 0


_irrational = st.builds(lambda q, k: q * zeta(12, k),
                        st.fractions(min_value=-5, max_value=5,
                                     max_denominator=6).filter(bool),
                        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 10, 11]))


@settings(max_examples=80, deadline=None)
@given(matrices(_rational, max_rows=5, square=True), _irrational, st.data())
def test_a_last_irrational_row_gives_the_reference_answer(a, z, data):
    # the rows before it convert as rational; the whole matrix then goes
    # over Z[z], and det's log holds the scales of that pass only
    n = len(a)
    a[-1][data.draw(st.integers(0, n - 1))] = z
    assert la.pivots(a) == ref_rref(a, n)[1]
    assert la.kernel(a) == ref_kernel(a)
    assert la.det(a) == ref_det(a)
    rhs = data.draw(st.lists(st.lists(_rational, min_size=2, max_size=2),
                             min_size=n, max_size=n))
    assert la.solve_matrix(a, rhs) == ref_solve_matrix(a, rhs)
    # an irrational entry in the last row of the right-hand side only
    a[-1] = [F(x.co[0]) if isinstance(x, CycNum) else x for x in a[-1]]
    rhs[-1][0] = z
    assert la.solve_matrix(a, rhs) == ref_solve_matrix(a, rhs)


# -- positive definiteness against the Fraction LDL^T loop it replaced ----------

def ref_is_positive_definite(gram):
    """The pivots of symmetric elimination over Q (rationals only)."""
    n = len(gram)

    def conv(x):
        return x.rational_part() if hasattr(x, "rational_part") else F(x)

    a = [[conv(x) for x in row] for row in gram]
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                return False
    for i in range(n):
        if a[i][i] <= 0:
            return False
        inv = 1 / a[i][i]
        for j in range(i + 1, n):
            f = a[i][j] * inv
            if f:
                for k in range(i + 1, n):
                    a[j][k] -= f * a[i][k]
    return True


_positive = st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12)


@st.composite
def square_forms(draw, entry=_rational, positive=_positive, max_n=6):
    """B B^T plus a diagonal that is positive, zero or of any sign, so the
    sample holds positive definite, singular and indefinite matrices;
    sometimes one entry breaks the symmetry."""
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(0, n))
    b = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                      min_size=n, max_size=n))
    diag = draw(st.sampled_from([positive, st.just(F(0)), entry]))
    d = draw(st.lists(diag, min_size=n, max_size=n))
    a = [[sum((x * y for x, y in zip(b[i], b[j])), F(0)) + (d[i] if i == j else 0)
          for j in range(n)] for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        a[i][j] += draw(entry.filter(bool))
    return a


@settings(max_examples=200, deadline=None)
@given(square_forms(), st.data())
def test_is_positive_definite_matches_ldl_reference(a, data):
    # some entries as rational CycNums, which both read as Fractions
    a = [[CycNum(x) if data.draw(st.booleans()) else x for x in row] for row in a]
    assert la.is_positive_definite(a) == ref_is_positive_definite(a)


@settings(max_examples=200, deadline=None)
@given(square_forms(entry=st.integers(-3, 3).map(F),
                    positive=st.integers(1, 5).map(F)))
def test_integral_lattice_accepts_exactly_the_positive_definite_grams(a):
    a = [[int(x) for x in row] for row in a]
    if any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)):
        with pytest.raises(ValueError, match="not symmetric"):
            IntegralLattice(a)
    elif ref_is_positive_definite(a):
        assert IntegralLattice(a).rank == len(a)
    else:
        with pytest.raises(ValueError, match="not positive definite"):
            IntegralLattice(a)


def test_is_positive_definite_cases():
    z = zeta(12)
    assert la.is_positive_definite([[F(2), F(-1)], [F(-1), F(2)]])
    assert la.is_positive_definite([])
    assert not la.is_positive_definite([[F(1), F(1)], [F(1), F(1)]])    # singular
    assert not la.is_positive_definite([[F(1), F(2)], [F(2), F(1)]])    # indefinite
    assert not la.is_positive_definite([[F(2), F(1)], [F(0), F(2)]])    # not symmetric
    assert la.is_positive_definite([[CycNum(F(1, 2)), F(0)], [F(0), F(3, 7)]])
    with pytest.raises(ValueError, match="not rational"):
        la.is_positive_definite([[F(2), z], [z.conjugate(), F(2)]])


# -- mat_vec over the support of the vector ------------------------------------------

def ref_mat_vec(a, v):
    """The dense loop mat_vec replaced: every column, zeros skipped."""
    return [sum((x * y for x, y in zip(row, v) if x and y), F(0)) for row in a]


_int_entry = st.integers(-3, 3)
_mixed = st.one_of(_int_entry, _rational, _cyclotomic)


@st.composite
def sparse_products(draw):
    """(a, v) over ints, Q or Q(z) (ints mixed in), each entry zero about
    half the time, with a zero row of a or a zero v now and then."""
    entry = draw(st.sampled_from([_int_entry, _rational, _mixed]))
    sparse = st.one_of(st.just(0), entry)
    a = draw(matrices(sparse))
    v = draw(st.lists(sparse, min_size=len(a[0]), max_size=len(a[0])))
    if draw(st.booleans()):
        v = [0 * x for x in v]
    return a, v


@settings(max_examples=200, deadline=None)
@given(sparse_products())
def test_mat_vec_matches_the_dense_loop(av):
    a, v = av
    out = la.mat_vec(a, v)
    # the same terms in the same order: equal values of equal types
    assert out == ref_mat_vec(a, v)
    assert repr(out) == repr(ref_mat_vec(a, v))


# -- mat_mul over Z against the dense loop ----------------------------------------

def ref_mat_mul(a, b):
    """The dense loop: each entry summed over the whole inner index."""
    n = len(b[0]) if b else 0
    return [[sum((row[j] * b[j][k] for j in range(len(b))), F(0))
             for k in range(n)] for row in a]


@st.composite
def products(draw):
    """(a, b) of shapes m x k and k x n, 0 to 4 each, with int, Fraction
    and rational CycNum entries mixed (now and then a Q(z) entry), about
    half of them zero.  A matrix with no rows is []."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    entry = draw(st.sampled_from([
        st.one_of(_int_entry, _rational, _rational.map(CycNum)),
        st.one_of(_int_entry, _rational, _cyclotomic)]))
    sparse = st.one_of(st.just(0), entry)
    a = [[draw(sparse) for _ in range(k)] for _ in range(m)]
    b = [[draw(sparse) for _ in range(n)] for _ in range(k)]
    return a, b


@settings(max_examples=200, deadline=None)
@given(products())
def test_mat_mul_matches_the_dense_loop(ab):
    a, b = ab
    out = la.mat_mul(a, b)
    assert out == ref_mat_mul(a, b)
    if all(not isinstance(x, CycNum) or x.is_rational() for x in
           [x for row in a + b for x in row]):
        # the rational product gives a Fraction for every entry
        assert all(type(x) is F for row in out for x in row)
