"""Miyamoto involutions as exact linear maps, and their group data.

A map is a square matrix over Q or Q(z) whose columns are the images of
the basis of a finite-dimensional algebra (or of the theta-even basis of
a weight-two algebra, through the adapter).  tau-involutions negate the
1/16 eigenspace of the adjoint action of a central-charge-1/2 Virasoro
vector; sigma-involutions of sigma-type vectors negate the parity-odd
sectors.  Eigenspaces are found by kernel computations over the closed
candidate weight list of the matching unitary series, and every
constructed involution can be pushed through the full automorphism check.

Orders, pairwise scans and group closures run over Z[z12] integers in the
format of ``exact``: each map is converted once to (rows, s), its entries
times one positive rational s as Z[z] 4-tuples with coefficient gcd 1.
Powers and products are integer matrix products divided by their content,
so every pair is again unique for its matrix: the identity test is a
comparison with the identity pair, and the pairs themselves are the keys
of the group closure.  Only matrices that are returned are converted back.
is_automorphism scales each column of its map once for all the products
it takes.
"""

from fractions import Fraction

from .exact import _ZRow
from .linalg import (identity, mat_mul, mat_vec, kernel, inverse, solve_matrix,
                     transpose, _zmat, _zmat_entries, _zmat_identity, _zmat_mul)
from .minimal import charge_to_m, highest_weight, all_labels, sigma_type_set

F = Fraction

__all__ = [
    "W2Space", "ad_matrix", "ad_spectrum", "tau_involution", "sigma_involution",
    "is_automorphism", "map_order", "transposition_scan", "group_closure",
    "restrict_map", "eigenspace_rows",
]


class W2Space:
    """Adapter exposing a W2Algebra through the FDAlgebra protocol."""

    def __init__(self, alg):
        self.alg = alg
        self.dim = alg.dim
        self.names = ["b%d" % k for k in range(alg.dim)]

    def product_vec(self, u, v):
        a = self.alg.from_class_coords(u)
        b = self.alg.from_class_coords(v)
        return self.alg.class_coords(self.alg.product(a, b))

    def form_vec(self, u, v):
        a = self.alg.from_class_coords(u)
        b = self.alg.from_class_coords(v)
        return self.alg.form(a, b)

    def is_virasoro(self, u):
        from .w2 import virasoro_check
        ok, c = virasoro_check(self.alg, self.alg.from_class_coords(u))
        return ok, c

    def element_vec(self, w2elem):
        return self.alg.class_coords(w2elem)


def ad_matrix(space, v):
    """Matrix of the adjoint action x -> v . x; columns are basis images."""
    cols = []
    for j in range(space.dim):
        e = [F(0)] * space.dim
        e[j] = F(1)
        cols.append(space.product_vec(v, e))
    return [[cols[j][i] for j in range(space.dim)] for i in range(space.dim)]


def ad_spectrum(space, v, candidates=None):
    """Eigenspace decomposition of ad(v) over the closed candidate list.

    v must be a simple Virasoro vector of unitary central charge; the
    candidates default to {2} union the weights of the matching series.
    Raises if the eigenspaces do not fill the space (reporting the
    residual dimension), or if the eigenvalue-2 space is not the line
    through v itself.
    """
    ok, c = space.is_virasoro(v)
    if not ok:
        raise ValueError("ad_spectrum needs a Virasoro vector")
    check_two = False
    if candidates is None:
        m = charge_to_m(c)
        if m is None:
            raise ValueError("central charge %s is not in the unitary series" % (c,))
        hset = {highest_weight(m, r, s) for r, s in all_labels(m)}
        candidates = sorted({F(2)} | hset)
        check_two = F(2) not in hset
    mat = ad_matrix(space, v)
    eigen = {}
    total = 0
    n = space.dim
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
    if check_two and F(2) in eigen and len(eigen[F(2)]) != 1:
        raise ValueError("eigenvalue-2 space has dimension %d"
                         % len(eigen[F(2)]))
    return eigen


def eigenspace_rows(eigen, values):
    rows = []
    for lam in values:
        rows.extend(eigen.get(lam, []))
    return rows


def _signed_map(space, eigen, minus_values):
    n = space.dim
    cols = []
    signs = []
    for lam, basis in sorted(eigen.items()):
        s = -1 if lam in minus_values else 1
        for b in basis:
            cols.append(b)
            signs.append(s)
    bmat = [[cols[j][i] for j in range(n)] for i in range(n)]
    binv = inverse(bmat)
    scaled = [[signs[i] * binv[i][j] for j in range(n)] for i in range(n)]
    return mat_mul(bmat, scaled)


def tau_involution(space, e, verify=True):
    """The involution negating the 1/16 sector of an Ising vector."""
    ok, c = space.is_virasoro(e)
    if not ok or c != F(1, 2):
        raise ValueError("tau needs a central charge 1/2 Virasoro vector")
    eigen = ad_spectrum(space, e)
    allowed = {F(2), F(0), F(1, 2), F(1, 16)}
    if not set(eigen) <= allowed:
        raise ValueError("adjoint spectrum %s is not of Ising type"
                         % sorted(eigen))
    mat = _signed_map(space, eigen, {F(1, 16)})
    if verify and not is_automorphism(space, mat):
        raise AssertionError("tau map failed the automorphism check")
    return mat


def sigma_involution(space, v, m, verify=True):
    """The parity involution of a sigma-type Virasoro vector (m = 1 or 4)."""
    ok, c = space.is_virasoro(v)
    if not ok:
        raise ValueError("sigma needs a Virasoro vector")
    if m == 1:
        if c != F(1, 2):
            raise ValueError("m = 1 sigma needs central charge 1/2")
        minus = {F(1, 2)}
    elif m == 4:
        if c != F(6, 7):
            raise ValueError("m = 4 sigma needs central charge 6/7")
        minus = {F(5), F(12, 7), F(1, 7)}
    else:
        raise ValueError("sigma is implemented for m in {1, 4}")
    eigen = ad_spectrum(space, v)
    allowed = {F(2)} | sigma_type_set(m)
    if not set(eigen) <= allowed:
        raise ValueError("vector is not of sigma type: spectrum %s"
                         % sorted(eigen))
    mat = _signed_map(space, eigen, minus)
    if verify and not is_automorphism(space, mat):
        raise AssertionError("sigma map failed the automorphism check")
    return mat


def is_automorphism(space, mat):
    """f(a.b) = f(a).f(b) and <fa, fb> = <a, b> on all basis pairs."""
    n = space.dim
    # each column and basis vector is converted to Z[z] once, not per product
    cols = [_ZRow([mat[i][j] for i in range(n)]) for j in range(n)]
    basis = [_ZRow(row) for row in identity(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    # f(e_i . e_j) for every pair, as the columns of one product
    images = transpose(mat_mul(mat, transpose(
        [space.product_vec(basis[i], basis[j]) for i, j in pairs])))
    for (i, j), lhs in zip(pairs, images):
        if lhs != space.product_vec(cols[i], cols[j]):
            return False
        if space.form_vec(cols[i], cols[j]) != space.form_vec(basis[i], basis[j]):
            return False
    return True


def _order(zm, cap):
    """Least k <= cap with zm^k = 1, for a map held as a (rows, scale) pair."""
    ident = _zmat_identity(len(zm[0]))
    power = zm
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = _zmat_mul(power, zm)
    raise ValueError("order exceeds cap %d" % cap)


def map_order(mat, cap=24):
    """Least k <= cap with mat^k = 1."""
    return _order(_zmat(mat), cap)


def transposition_scan(space, vectors, kind, cap=24):
    """Pairwise orders of the involutions attached to the given vectors.

    kind 'tau_ising' builds tau maps and flags orders above 6; kind
    'sigma_c67' builds m = 4 sigma maps and flags orders above 3.
    Returns (orders, violations, maps) with orders[i][j] the order of
    map_i . map_j.
    """
    if kind == "tau_ising":
        maps = [tau_involution(space, v) for v in vectors]
        bound = 6
    elif kind == "sigma_c67":
        maps = [sigma_involution(space, v, 4) for v in vectors]
        bound = 3
    else:
        raise ValueError("kind must be tau_ising or sigma_c67")
    zmaps = [_zmat(m) for m in maps]
    k = len(maps)
    orders = [[None] * k for _ in range(k)]
    violations = []
    for i in range(k):
        for j in range(k):
            o = _order(_zmat_mul(zmaps[i], zmaps[j]), cap)
            orders[i][j] = o
            if i != j and o > bound:
                violations.append((i, j, o))
    return orders, violations, maps


def group_closure(generators, cap=10000):
    """Closure of the generators under composition, by exact matrix equality.

    Elements are held as (Z[z] rows, scale) pairs, which are unique per
    matrix, so their frozen form is the key of the seen set.
    """
    def freeze(zm):
        return tuple(map(tuple, zm[0])), zm[1]

    gens = [_zmat(g) for g in generators]
    ident = _zmat_identity(len(generators[0]))
    seen = {freeze(ident)}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                prod = _zmat_mul(a, g)
                key = freeze(prod)
                if key not in seen:
                    seen.add(key)
                    ordered.append(prod)
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise ValueError("group closure exceeded cap %d" % cap)
        frontier = nxt
    return len(ordered), [_zmat_entries(*m) for m in ordered]


def restrict_map(space, mat, rows):
    """Matrix of the map on the subspace spanned by the given rows.

    The rows are coordinate vectors; raises if the map does not preserve
    their span.
    """
    k = len(rows)
    n = len(rows[0])
    a = [[rows[i][t] for i in range(k)] for t in range(n)]
    rhs = [[None] * k for _ in range(n)]
    for j in range(k):
        img = mat_vec(mat, rows[j])
        for t in range(n):
            rhs[t][j] = img[t]
    x = solve_matrix(a, rhs)
    if x is None:
        raise ValueError("map does not preserve the subspace")
    # verify exactly (solve_matrix zero-fills free variables)
    for j in range(k):
        img = mat_vec(mat, rows[j])
        back = [sum((x[i][j] * rows[i][t] for i in range(k)
                     if x[i][j] and rows[i][t]), F(0)) for t in range(n)]
        if back != list(img):
            raise ValueError("map does not preserve the subspace")
    return [[x[i][j] for j in range(k)] for i in range(k)]
