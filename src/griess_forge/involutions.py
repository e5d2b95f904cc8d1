"""Miyamoto involutions as exact linear maps, and their group data.

A map is a square matrix over Q or Q(z) whose columns are the images of
the basis of a finite-dimensional algebra (or of the theta-even basis of
a weight-two algebra, through the adapter W2Space, which answers an
FDAlgebra's product, form and signed_coords).  tau-involutions negate
the 1/16 eigenspace of the adjoint action of a central-charge-1/2
Virasoro vector; sigma-involutions of c = 6/7 sigma-type vectors negate
the parity-odd sectors.  One table, _KINDS, gives each kind its central
charge, its allowed and negated weights and its scan bound, and
tau_involution, sigma_involution and transposition_scan all read it.

Each check runs once per map.  The constructor checks that the vector is
Virasoro of the kind's charge (one w2.virasoro_check call) and that its
spectrum lies in the allowed weights; it does not check the map it
returns.  The automorphism check runs in the caller that uses the map:
transposition_scan checks every map it builds, and the involutions suites
record the check as a report entry, so a map that is not an automorphism
is a failed check there, not an exception.  Eigenspaces are found by
kernel computations over the closed candidate weight list of the
matching unitary series.

Orders, pairwise scans and group closures run over Z[z12] integers in the
format of ``exact``: each map is converted once to (rows, s), its entries
times one positive rational s as Z[z] 4-tuples with coefficient gcd 1.
Powers and products are integer matrix products divided by their content,
so every pair is again unique for its matrix: the identity test is a
comparison with the identity pair, and the pairs themselves are the keys
of the group closure.  Only matrices that are returned are converted back.
is_automorphism compares with the algebra's own mult and gram tables and
scales each column of its map once for all the products it takes.

The adjoint matrices of a weight-two space are mostly zeros, and so are
the coordinate rows of its subspaces.  restrict_map takes each row's image
once, with mat_vec summing over the support of the row, reads the images'
coordinates over the rows off one linalg.row_span_coords batch and checks
them exactly by one integer product (linalg.mat_mul) against the images.

eigenspaces deflates.  After the kernel of S = A - l for a candidate l, it
goes on with the matrix Abar = R A[:, P] of A on im S, where R is the
reduced row echelon form of S and P its pivot columns: with C = S[:, P],
A C = C Abar, and every eigenvector of A for another weight m lies in
im S = im C, so ker(A - m) = C ker(Abar - m) whether or not A is
semisimple.  On the 156-dim space the spectrum of e-hat takes one kernel
of rank 36 and kernels of size 36, 36 and 1 where it took four of size
156.  A lifted eigenspace is kept in the basis the deflation finds; the
maps B D B^-1 do not depend on it.  eigenspaces does not ask that the
eigenspaces fill the space; _spectrum, which the involutions and
ad_spectrum read, raises when they do not.
"""

from fractions import Fraction

from .exact import _ZRow
from .linalg import (identity, mat_mul, mat_vec, kernel, inverse,
                     row_span_coords, transpose, _zmat, _zmat_entries,
                     _zmat_identity, _zmat_mul)
from .minimal import charge_to_m, highest_weight, all_labels, sigma_type_set
from .w2 import virasoro_check

F = Fraction

__all__ = [
    "W2Space", "ad_matrix", "ad_spectrum", "series_weights", "eigenspaces",
    "tau_involution", "sigma_involution", "is_automorphism", "map_order",
    "transposition_scan", "group_closure", "restrict_map",
]

# kind: (central charge, allowed weights, negated weights, scan bound)
_KINDS = {
    "tau_ising": (F(1, 2), {F(2), F(0), F(1, 2), F(1, 16)}, {F(1, 16)}, 6),
    "sigma_c67": (F(6, 7), {F(2)} | sigma_type_set(4),
                  {F(5), F(12, 7), F(1, 7)}, 3),
}


class W2Space:
    """Adapter exposing a W2Algebra through the FDAlgebra protocol."""

    def __init__(self, alg):
        self.alg = alg
        self.dim = alg.dim

    # a repeated operand, as in v.v, is converted once
    def product_vec(self, u, v):
        alg = self.alg
        a = alg.from_class_coords(u)
        return alg.product_coords(a, a if v is u else alg.from_class_coords(v))

    def form_vec(self, u, v):
        alg = self.alg
        a = alg.from_class_coords(u)
        return alg.form(a, a if v is u else alg.from_class_coords(v))

    # the protocol of w2.virasoro_check, as on an FDAlgebra
    product = product_vec
    form = form_vec
    signed_coords = staticmethod(list)

    def element_vec(self, w2elem):
        return self.alg.class_coords(w2elem)


def ad_matrix(space, v):
    """Matrix of the adjoint action x -> v . x; columns are basis images.

    On a W2Space v becomes one weight-two element, which keeps its Z[z]
    form for all the columns, and each column is its product with a basis
    element, written in class coordinates from the integer product.
    """
    if isinstance(space, W2Space):
        alg = space.alg
        a = alg.from_class_coords(v)
        cols = [alg.product_coords(a, alg.basis_element(j)) for j in range(space.dim)]
    else:
        cols = [space.product_vec(v, e) for e in identity(space.dim)]
    return transpose(cols)


def ad_spectrum(space, v):
    """Eigenspace decomposition of ad(v) over the closed candidate list.

    v must be a simple Virasoro vector of unitary central charge; the
    candidates are {2} union the weights of the matching series.  Raises
    if the eigenspaces do not fill the space (reporting the residual
    dimension), or if the eigenvalue-2 space is not the line through v.
    """
    ok, c = virasoro_check(space, v)
    if not ok:
        raise ValueError("ad_spectrum needs a Virasoro vector")
    return _spectrum(space, v, c)


def series_weights(c):
    """The highest weights of the unitary minimal series of central charge c."""
    m = charge_to_m(c)
    if m is None:
        raise ValueError("central charge %s is not in the unitary series" % (c,))
    return {highest_weight(m, r, s) for r, s in all_labels(m)}


def _spectrum(space, v, c):
    """ad_spectrum for a vector already known to be Virasoro of charge c;
    raises unless the eigenspaces fill the space."""
    hset = series_weights(c)
    eigen = eigenspaces(ad_matrix(space, v), sorted({F(2)} | hset))
    filled = sum(map(len, eigen.values()))
    if filled != space.dim:
        raise ValueError("adjoint action is not semisimple over the candidate "
                         "list: eigenspaces fill %d of %d" % (filled, space.dim))
    if F(2) not in hset and F(2) in eigen and len(eigen[F(2)]) != 1:
        raise ValueError("eigenvalue-2 space has dimension %d"
                         % len(eigen[F(2)]))
    return eigen


def eigenspaces(mat, candidates):
    """{weight: basis of the kernel of mat - weight} over the distinct
    candidates with a nonzero kernel.  The eigenspaces need not fill the
    space; _spectrum checks that they do.

    Each candidate's kernel is taken on the quotient left by the earlier
    ones.  For A, a candidate l and S = A - l with reduced row echelon form
    R, pivot columns P and C = S[:, P], S = C R and A C = C Abar with
    Abar = R A[:, P], and C has full column rank.  Every eigenvector of A
    for m != l lies in im S = im C, so ker(A - m) = C ker(Abar - m), with
    no semisimplicity assumed; the loop goes on with Abar, of size rank S,
    and composes the C's into the lift to the space.  R and P are read off
    the kernel basis, which is the identity on the free columns.  A lifted
    eigenspace is kept in the basis C ker(Abar - m) gives.
    """
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate weights must be distinct")
    lift = None         # the space itself until the first deflation
    eigen = {}
    for lam in candidates:
        r = len(mat)
        shifted = [row[:] for row in mat]
        for i in range(r):
            shifted[i][i] -= lam
        basis = kernel(shifted)
        if not basis:
            continue
        eigen[lam] = basis if lift is None else mat_mul(basis, transpose(lift))
        if len(basis) == r:
            break       # the rest of the space is this eigenspace
        # R, P and C from the kernel basis: the entry of basis vector j at
        # pivot column p is minus the entry of R's row p at free column j
        free = {max(i for i, x in enumerate(b) if x): b for b in basis}
        piv = [i for i in range(r) if i not in free]
        red = [[F(1) if i == p else (-free[i][p] if i in free else F(0))
                for i in range(r)] for p in piv]
        cmat = [[row[p] for p in piv] for row in shifted]
        mat = mat_mul(red, [[row[p] for p in piv] for row in mat])
        lift = cmat if lift is None else mat_mul(lift, cmat)
    return eigen


def _signed_map(eigen, minus_values):
    """B D B^-1, with B the eigenbasis as columns and D the sign of each
    column's weight: -1 on minus_values, 1 elsewhere."""
    cols, signs = [], []
    for lam, basis in sorted(eigen.items()):
        cols.extend(basis)
        signs.extend([-1 if lam in minus_values else 1] * len(basis))
    bmat = transpose(cols)
    return mat_mul(bmat, [[s * x for x in row] for s, row in zip(signs, inverse(bmat))])


def tau_involution(space, e):
    """The involution negating the 1/16 sector of an Ising vector."""
    return _sector_involution(space, e, "tau_ising")


def sigma_involution(space, v):
    """The parity involution of a c = 6/7 sigma-type Virasoro vector."""
    return _sector_involution(space, v, "sigma_c67")


def _sector_involution(space, v, kind):
    """The map negating the kind's sectors of ad(v).  Raises unless v is
    Virasoro of the kind's charge with its spectrum in the allowed weights;
    the map is not checked to be an automorphism here."""
    charge, allowed, minus, _bound = _KINDS[kind]
    ok, c = virasoro_check(space, v)
    if not ok or c != charge:
        raise ValueError("%s needs a Virasoro vector of central charge %s"
                         % (kind, charge))
    eigen = _spectrum(space, v, c)
    if not set(eigen) <= allowed:
        raise ValueError("adjoint spectrum %s is not of %s type"
                         % (sorted(eigen), kind))
    return _signed_map(eigen, minus)


def is_automorphism(space, mat):
    """f(a.b) = f(a).f(b) and <fa, fb> = <a, b> on all basis pairs, against
    the structure constants space.mult and the form space.gram."""
    n = space.dim
    # each column is converted to Z[z] once, not per product
    cols = [_ZRow([mat[i][j] for i in range(n)]) for j in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    # f(e_i . e_j) for every pair, as the columns of one product
    images = transpose(mat_mul(mat, transpose([space.mult[i][j] for i, j in pairs])))
    for (i, j), lhs in zip(pairs, images):
        if lhs != space.product_vec(cols[i], cols[j]):
            return False
        if space.form_vec(cols[i], cols[j]) != space.gram[i][j]:
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


def transposition_scan(space, vectors, kind):
    """Pairwise orders of the involutions attached to the given vectors.

    kind 'tau_ising' builds tau maps and flags orders above 6; kind
    'sigma_c67' builds sigma maps and flags orders above 3.  Each map is
    checked once to be an automorphism; a failure raises AssertionError
    naming the kind and the vector's index.  Returns (orders, violations,
    maps) with orders[i][j] the order of map_i . map_j.
    """
    if kind not in _KINDS:
        raise ValueError("kind must be tau_ising or sigma_c67")
    bound = _KINDS[kind][3]
    maps = [_sector_involution(space, v, kind) for v in vectors]
    for i, mat in enumerate(maps):
        if not is_automorphism(space, mat):
            raise AssertionError("%s map of vector %d failed the automorphism "
                                 "check" % (kind, i))
    zmaps = [_zmat(m) for m in maps]
    k = len(maps)
    orders = [[None] * k for _ in range(k)]
    violations = []
    for i in range(k):
        for j in range(k):
            o = _order(_zmat_mul(zmaps[i], zmaps[j]), 24)
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
    their span.  Each row's image serves both the solve and an exact
    back-check, one integer product of the solution with the rows.
    """
    imgs = [mat_vec(mat, row) for row in rows]
    coords = row_span_coords(rows, imgs)
    # an image outside the span already gives None; the back-check is an
    # independent exact re-check of the coordinates the solve returns
    if None in coords or mat_mul(coords, rows) != imgs:
        raise ValueError("map does not preserve the subspace")
    return transpose(coords)
