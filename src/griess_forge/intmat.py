"""Integer matrix utilities: Hermite and Smith normal forms.

Rows are Python lists of ints.  Sizes stay at most ~30 x 30, so the
classic elimination algorithms with exact integer arithmetic are fine.
Products sum each entry over the nonzero entries of the left factor's
row, as the glued lattices' bases and block Grams are mostly zeros.
Left kernels and unimodular inverses are read off one Hermite form, that
of [P | I] (Cohen, A Course in Computational Algebraic Number Theory,
2.4), so this module needs nothing from the rational ``linalg``.
"""

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
