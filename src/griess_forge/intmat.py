"""Integer matrix utilities on one elimination, the Hermite normal form.

Rows are Python lists of ints.  Sizes stay at most ~30 x 30, so the
classic elimination with exact integer arithmetic is fine.  Products sum
each entry over the nonzero entries of the left factor's row, as the
glued lattices' bases and block Grams are mostly zeros.  Smith forms,
determinants, left kernels and unimodular inverses are all read off
``hnf``, the transforms off the Hermite form of [P | I] (Cohen, A Course
in Computational Algebraic Number Theory, 2.4); the one other pass is the
Sylvester test of ``int_positive_definite``.  Nothing here needs the
rational ``linalg``.
"""

from math import prod

__all__ = ["hnf", "snf_with_transform", "int_matmul", "int_matvec",
           "int_identity", "int_det", "int_positive_definite",
           "int_inverse_unimodular", "left_kernel"]


def int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_matmul(a, b):
    """The product a b, each entry summed over the nonzero entries of a's row."""
    bt = list(zip(*b))
    out = []
    for row in a:
        nz = [(k, x) for k, x in enumerate(row) if x]
        out.append([sum(x * col[k] for k, x in nz) for col in bt])
    return out


def int_matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def int_det(a):
    """|det a|, the product of the pivots of hnf(a); the sign is not kept.

    It is 0 when hnf(a) has fewer rows than a, and 1 for a 0 x 0 matrix.
    """
    h = hnf(a)
    return prod(row[i] for i, row in enumerate(h)) if len(h) == len(a) else 0


def int_positive_definite(a):
    """Whether the symmetric integer matrix a is positive definite.

    One fraction-free (Bareiss) pass without row swaps: its k-th pivot is
    the k-th leading principal minor, so a is positive definite exactly
    when every pivot is positive (Sylvester's criterion).  The pass stops
    at the first pivot that is not.
    """
    m = [list(row) for row in a]
    prev = 1
    while m:
        top = m[0]
        p = top[0]
        if p <= 0:
            return False
        m = [[(x * p - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in m[1:]]
        prev = p
    return True


def hnf(rows):
    """Row-style Hermite normal form basis of the row span.

    Returns linearly independent rows (zero rows dropped) in echelon shape
    with positive pivots and entries above each pivot reduced modulo it.
    """
    m = [row[:] for row in rows if any(row)]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, len(m)) if m[i][c]]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(m[i][c]))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if r < len(m) and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
    return [row for row in m[:r] if any(row)]


def snf_with_transform(a):
    """Smith normal form D = U A V; returns (invariant factors, U, V).

    U (rows x rows) and V (cols x cols) are unimodular.  Row and column
    Hermite forms alternate until no off-diagonal entry is left (Kannan and
    Bachem, SIAM J. Comput. 8, 1979); a pivot that does not divide the next
    one gets the next column added to its own, and the loop goes on.  The
    invariant factors are positive and in divisibility order; rank-deficient
    input simply yields fewer of them.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    u, v = int_identity(rows), int_identity(cols)
    m = [list(row) for row in a]
    if not any(map(any, m)):
        return [], u, v
    while True:
        m, t = _hnf_augmented(m)
        u = int_matmul(t, u)
        mt, t = _hnf_augmented([list(col) for col in zip(*m)])
        m = [list(col) for col in zip(*mt)]
        v = int_matmul(v, [list(col) for col in zip(*t)])
        if any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
            continue
        diag = [m[i][i] for i in range(min(rows, cols)) if m[i][i]]
        k = next((k for k in range(len(diag) - 1) if diag[k + 1] % diag[k]), None)
        if k is None:
            return diag, u, v
        for row in m + v:
            row[k] += row[k + 1]


def _hnf_augmented(a):
    """hnf([a | I]) as (U a, U): U is unimodular, as no row of [a | I] is lost."""
    n = len(a[0]) if a else 0
    h = hnf([list(row) + e for row, e in zip(a, int_identity(len(a)))])
    return [row[:n] for row in h], [row[n:] for row in h]


def left_kernel(p):
    """A basis of {x : x p = 0}: the rows of U whose row of U p is zero."""
    left, right = _hnf_augmented(p)
    return [u for h, u in zip(left, right) if not any(h)]


def int_inverse_unimodular(a):
    """Inverse of a unimodular integer matrix: hnf([a | I]) is then [I | a^-1]."""
    left, right = _hnf_augmented(a)
    if left != int_identity(len(a)):
        raise ValueError("matrix is not unimodular over the integers")
    return right
