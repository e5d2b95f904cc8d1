"""Dense exact linear algebra over Q or Q(z).

Matrices are lists of rows; entries are int, Fraction or CycNum, mixed
freely (the operators promote).

Every elimination over Q or Q(z) in the package (pivots and rank,
kernel, solve_matrix, row_span_coords and inverse, det) runs through one
fraction-free core: ``_echelon`` eliminates forward and returns the pivot
columns, which ``pivots`` hands out, and ``_reduce`` clears above the
pivots where a basis or solution is asked for.  One solve, ``_solve``,
eliminates [A | RHS] once and reads each right-hand column off the
reduced rows, or None for a column that is nonzero past the pivots;
``solve_matrix`` wants every column, ``row_span_coords`` takes them one
by one, and ``inverse`` solves against the identity.  ``kernel`` reads
its basis, the one that is the identity on the free columns, off the
integer rows ``_reduce`` leaves: one Fraction (minus the entry over the
pivot) for each nonzero entry of a pivot row at a free column.
Each row is scaled by the lcm of its denominators into integers: plain
ints when every entry is rational, and elements of Z[z] (4-tuples in the
basis 1, z, z^2, z^3, reduced by z^4 = z^2 - 1) otherwise.  Rows are read
in one pass, each entry once with ``as_integer_ratio``; the first
irrational CycNum switches the whole matrix to Z[z] rows.  A step clears
column c of row i against the pivot row r by cross-multiplication,
p * row_i - f * row_r, and then divides row_i by the gcd of its integer
coefficients (Bareiss, Math. Comp. 22, 1968, with the row content in
place of the fixed divisor).  A forward step over Z computes only the
columns past c: row i is zero before c and becomes zero at c.  Over Z[z]
a pivot row is first multiplied by the other three Galois conjugates of
its pivot, so every pivot is a rational integer and a step scales rows
by integers only.  Only at the end is each pivot row divided by its
pivot.  ``mat_mul`` makes the same split: a product of two rational
matrices is summed in plain ints over one scale per matrix, others over
Z[z].  The Z[z] row format and its helpers (``_cyc_row``, ``_zmul``)
live in ``exact``, which owns the format for this module and for the
weight-two product in ``w2``.

Each integer row stays a nonzero multiple of the row that field
Gauss-Jordan elimination with the same pivots would hold, so the result
is the reduced row echelon form.  That form is unique, so kernel bases,
solutions and inverses do not depend on which pivot rows are chosen.
All arithmetic is exact: Python ints, Fraction and CycNum, with no
floating-point, modular or probabilistic step.
"""

from fractions import Fraction
from math import gcd, lcm

from .exact import CycNum, _cyc_content, _cyc_row, _zcofactor, _zdiv, _zmul
from .intmat import _square, int_positive_definite

__all__ = [
    "identity", "transpose", "mat_mul", "mat_vec", "solve_matrix",
    "pivots", "kernel", "rank", "inverse", "det", "row_span_coords",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


def identity(n):
    return [[_F1 if i == j else _F0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """The product a b, formed over Z with one scale per matrix when both
    are rational and over Z[z] otherwise.  A matrix with no rows is [], one
    with no columns a list of empty rows."""
    x, y = _zmat(a, _int_row), _zmat(b, _int_row)
    if x is None or y is None:
        return _zmat_entries(*_zmat_mul(_zmat(a), _zmat(b)))
    (a, sa), (b, sb) = x, y
    s = sa * sb
    num, den = s.denominator, s.numerator
    n = len(b[0]) if b else 0
    # the nonzero entries of each row of b, by column
    b = [[(k, v) for k, v in enumerate(row) if v] for row in b]
    out = []
    for row in a:
        acc = [0] * n
        for u, brow in zip(row, b):
            if u:
                for k, v in brow:
                    acc[k] += u * v
        out.append([Fraction(t * num, den) if t else _F0 for t in acc])
    return out


def mat_vec(a, v):
    """The product a v, each entry summed over the support of v."""
    support = [(j, y) for j, y in enumerate(v) if y]
    return [sum((row[j] * y for j, y in support if row[j]), _F0) for row in a]


# -- integer matrices -------------------------------------------------------------
#
# A matrix over Q(z) is held as (rows, s): Z[z] rows (entries 0 or a nonzero
# 4-tuple) whose coefficients have gcd 1, and one positive rational s, the
# matrix being rows / s (the zero matrix has s = 1).  That pair is unique for
# each matrix, so equal matrices have equal pairs and the pair can serve as
# a dictionary key.

def _zmat(a, conv=_cyc_row):
    """(rows, s) for the matrix a: its entries times s, over Z[z], content 1
    (over Z with conv = _int_row, and then None unless a is rational)."""
    n = len(a[0]) if a else 0
    out = conv([x for row in a for x in row])
    if out is None:
        return None
    ints, s = out
    return [ints[i * n:(i + 1) * n] for i in range(len(a))], s


def _zmat_mul(x, y):
    """The product of two matrices held as (rows, s) pairs, as such a pair."""
    (a, sa), (b, sb) = x, y
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [None] * n
        for u, brow in zip(row, b):
            if u:
                for k, v in enumerate(brow):
                    if v:
                        p = _zmul(u, v)
                        w = acc[k]
                        acc[k] = p if w is None else (w[0] + p[0], w[1] + p[1],
                                                      w[2] + p[2], w[3] + p[3])
        out.append([w if w and (w[0] or w[1] or w[2] or w[3]) else 0
                    for w in acc])
    g = gcd(*[t for row in out for w in row if w for t in w])
    if not g:
        return out, _F1     # the zero matrix, whose scale is 1 as in _zmat
    if g > 1:
        out = [[tuple(t // g for t in w) if w else 0 for w in row] for row in out]
    return out, sa * sb / g


def _zmat_identity(n):
    return [[(1, 0, 0, 0) if i == j else 0 for j in range(n)] for i in range(n)], _F1


def _zmat_entries(rows, s):
    """The matrix rows / s, with Fraction or CycNum entries."""
    return [[_zdiv(x, s) if x else _F0 for x in row] for row in rows]


# -- integer rows ---------------------------------------------------------------
#
# A row over Z is a list of ints.  A row over Z[z] is a list whose entries
# are 0 or a nonzero 4-tuple of ints (a, b, c, d) = a + bz + cz^2 + dz^3.

def _int_row(row):
    """(ints, s): the rational row times s, as integers with gcd 1, each
    entry read once; None when an entry is an irrational CycNum."""
    try:
        nd = [x.as_integer_ratio() for x in row]
    except ValueError:
        return None
    d = lcm(*[q for _, q in nd])
    ints = [p * (d // q) for p, q in nd]
    g = gcd(*ints)
    if g > 1:
        return [x // g for x in ints], Fraction(d, g)
    return ints, Fraction(d)


def _rationalize(row, c, log):
    """Multiply a Z[z] row by the conjugates of its entry at c (z -> z^5,
    z^7, z^11), which makes that entry its norm, a rational integer."""
    e = row[c]
    if not (e[1] or e[2] or e[3]):
        return row
    q = _zcofactor(e)
    out, g = _cyc_content([_zmul(x, q) if x else 0 for x in row])
    if log is not None:
        log.append(CycNum(*q) / g)
    return out


def _int_step(row, p, f, prow, log, k=0):
    """p * row - f * prow over Z, divided by its content.  With k > 0 the
    row is zero before column k - 1 and the step clears it there: prow
    holds the pivot row's entries from column k, only those columns are
    computed, and k zeros are put in front."""
    g = gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    if k:
        row = row[k:]
    if p == 1:
        out = [x - f * y if y else x for x, y in zip(row, prow)]
    else:
        out = [p * x - f * y for x, y in zip(row, prow)]
    g = gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    if log is not None:
        log.append(Fraction(p, g or 1))
    return [0] * k + out if k else out


def _cyc_step(row, p, f, prow, log):
    """p * row - f * prow over Z[z] (p a rational integer), divided by its
    content."""
    g = gcd(p, *f)
    if g > 1:
        p //= g
        f = tuple(t // g for t in f)
    out = []
    for x, y in zip(row, prow):
        if y:
            w = _zmul(f, y)
            if x:
                w = (p * x[0] - w[0], p * x[1] - w[1],
                     p * x[2] - w[2], p * x[3] - w[3])
            else:
                w = (-w[0], -w[1], -w[2], -w[3])
            out.append(w if w[0] or w[1] or w[2] or w[3] else 0)
        elif x and p != 1:
            out.append((p * x[0], p * x[1], p * x[2], p * x[3]))
        else:
            out.append(x)
    out, g = _cyc_content(out)
    if log is not None:
        log.append(Fraction(p, g))
    return out


def _echelon(rows, ncols, cyc, log=None):
    """Fraction-free forward elimination of integer rows, in place.

    Pivots are sought in the first ncols columns; further columns (a
    right-hand side) ride along.  The pivot row is the sparsest row with
    a nonzero entry in the column, and the entries below each pivot are
    cleared, which leaves row echelon form.  Returns the pivot columns.
    When log is a list, every factor by which a row is scaled is appended
    to it, and -1 for every swap, so that det can undo them.
    """
    step = _cyc_step if cyc else _int_step
    m = len(rows)
    piv = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        i = None
        for k in range(r, m):
            if rows[k][c]:
                blank = rows[k].count(0)
                if i is None or blank > most:
                    i, most = k, blank
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            if log is not None:
                log.append(-1)
        if cyc:
            rows[r] = _rationalize(rows[r], c, log)
            prow, p, tail = rows[r], rows[r][c][0], ()
        else:
            # the rows below are zero before c and are cleared at c, so
            # the integer step computes only the columns past c
            prow, p, tail = rows[r][c + 1:], rows[r][c], (c + 1,)
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = step(rows[i], p, f, prow, log, *tail)
        piv.append(c)
        r += 1
    return piv


def _reduce(rows, piv, cyc):
    """Clear the entries above the pivots of an echelon form, in place,
    leaving each pivot row a multiple of its row in the reduced form."""
    step = _cyc_step if cyc else _int_step
    for r in range(len(piv) - 1, 0, -1):
        c = piv[r]
        prow = rows[r]
        p = _pivot(prow, c, cyc)
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i] = step(rows[i], p, f, prow, None)


def _pivot(row, c, cyc):
    return row[c][0] if cyc else row[c]


def _prepare(a, rhs=None, log=None):
    """Integer rows of [a | rhs] and whether they are over Z[z]: rational
    rows until an irrational CycNum turns up, and then Z[z] rows for the
    whole matrix.  With a log, each row's scale is appended to it."""
    if rhs is not None:
        a = [list(row) + list(r) for row, r in zip(a, rhs)]
    for conv, cyc in ((_int_row, False), (_cyc_row, True)):
        rows = []
        if log is not None:
            log.clear()
        for row in a:
            out = conv(row)
            if out is None:
                break
            rows.append(out[0])
            if log is not None:
                log.append(out[1])
        else:
            return rows, cyc


def _solve(a, rhs):
    """For each column b of RHS, the solution x of A x = b whose free
    variables are zero, or None when b is not in the column space of A.
    One elimination of [A | RHS] serves every column."""
    n = len(a[0]) if a else 0
    rows, cyc = _prepare(a, rhs)
    piv = _echelon(rows, n, cyc)
    # every row past the pivots is zero on the left, so a column that is
    # nonzero there has no solution
    bad = {j for row in rows[len(piv):] for j, y in enumerate(row[n:]) if y}
    _reduce(rows, piv, cyc)
    cols = [[_F0] * n for _ in (rhs[0] if rhs else ())]
    div = _zdiv if cyc else Fraction
    for row, c in zip(rows, piv):
        p = _pivot(row, c, cyc)
        for x, y in zip(cols, row[n:]):
            if y:
                x[c] = div(y, p)
    return [None if j in bad else x for j, x in enumerate(cols)]


def solve_matrix(a, rhs):
    """One exact solution X of A X = RHS, or None if inconsistent.

    A is m x n, RHS is m x k; free variables are set to zero.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("shape mismatch: %d equations, %d right-hand rows"
                         % (m, len(rhs)))
    if any(len(row) != n for row in a):
        raise ValueError("ragged coefficient matrix")
    cols = _solve(a, rhs)
    if None in cols:
        return None
    return transpose(cols) if cols else [[] for _ in range(n)]


def pivots(a):
    """The pivot columns of A in increasing order: the columns that are
    not combinations of the columns before them."""
    rows, cyc = _prepare(a)
    return _echelon(rows, len(a[0]) if a else 0, cyc)


def kernel(a):
    """Basis of the right kernel of A, as a list of vectors: the one that is
    the identity on the free columns of the reduced row echelon form, which
    are the last nonzero positions of its vectors.  Each entry is read off
    the integer rows _reduce leaves: minus the row's entry at the free
    column over its pivot."""
    n = len(a[0]) if a else 0
    rows, cyc = _prepare(a)
    piv = _echelon(rows, n, cyc)
    if len(piv) == n:
        return []
    _reduce(rows, piv, cyc)
    piv_set = set(piv)
    free = [c for c in range(n) if c not in piv_set]
    basis = [[_F0] * n for _ in free]
    div = _zdiv if cyc else Fraction
    for row, c in zip(rows, piv):
        p = -_pivot(row, c, cyc)
        for v, fc in zip(basis, free):
            x = row[fc]
            if x:
                v[c] = div(x, p)
    for v, fc in zip(basis, free):
        v[fc] = _F1
    return basis


def rank(a):
    return len(pivots(a))


def inverse(a):
    x = solve_matrix(a, identity(_square(a)))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def det(a):
    n = _square(a)
    log = []
    rows, cyc = _prepare(a, log=log)
    if len(_echelon(rows, n, cyc, log)) != n:
        return _F0
    # the product of the integer pivots is det(a) times every logged factor
    d = _F1
    for i, row in enumerate(rows):
        d *= _pivot(row, i, cyc)
    for s in log:
        d /= s
    return d


def is_positive_definite(gram):
    """Exact test by the leading principal minors (rationals only).

    A symmetric matrix times the lcm of its denominators is an integer
    matrix with the same answer; intmat's Bareiss pass decides that one.
    """
    def conv(x):
        return x.rational_part() if hasattr(x, "rational_part") else Fraction(x)

    n = _square(gram)
    a = [[conv(x) for x in row] for row in gram]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        return False
    d = lcm(*[x.denominator for row in a for x in row])
    return int_positive_definite([[x.numerator * (d // x.denominator) for x in row]
                                  for row in a])


def row_span_coords(rows, vectors):
    """The coordinates c of each vector v over the given rows, with
    sum(c_i * rows_i) = v, or None for a vector outside their span; one
    elimination serves the whole batch."""
    if not rows or not vectors:
        return [None if any(v) else [] for v in vectors]
    return _solve(transpose(rows), transpose(vectors))
