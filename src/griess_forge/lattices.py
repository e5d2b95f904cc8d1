"""Positive definite integral lattices, root systems, and exact enumeration.

A lattice is its integer Gram matrix; vectors are integer coordinate
tuples in the lattice basis.  Short vectors come from Fincke-Pohst
enumeration on a basis reduced by exact integral LLL (Cohen, Alg. 2.6.7),
with the quadratic completion read off the LLL's leading minors and
Gram-Schmidt integers, so the vector lists are provably complete; each
(Gram, norm) is enumerated once per process.  Isometries are found by a
forward-checking search over images of basis vectors among short vectors
of the right norm; exact LLL is the one reduction it uses, on the target's
basis.

The affine E6 diagram is walked in one place, punctured_components: it
gives each component of the diagram with a node deleted, its root type
read off the definiteness and determinant of its Cartan matrix, and the
order that the commutant frames of ``commutants`` follow.  Coxeter
numbers come from one lookup, _COXETER.  Kernels, ranks, inverses,
determinants and the Smith forms behind quotients all go through
``intmat``'s one Hermite form; nothing here uses the rational ``linalg``.
"""

from functools import cache
from math import gcd, lcm
from operator import mul

from .intmat import (hnf, snf_with_transform, int_matmul, int_matvec, int_det,
                     int_positive_definite, int_inverse_unimodular, left_kernel)

__all__ = [
    "IntegralLattice", "Sublattice", "build_root_lattice", "direct_sum",
    "affine_e6", "punctured_components", "node_sublattice", "lll_reduce",
    "short_vectors", "isometry_test", "annihilator", "quotient_structure",
    "cosets", "kernel_sublattice",
]


class IntegralLattice:
    """A free Z-module with a symmetric positive definite integer Gram matrix."""

    __slots__ = ("rank", "gram", "name", "coxeter")

    def __init__(self, gram, name=None, coxeter=None):
        self.gram = [list(map(int, row)) for row in gram]
        self.rank = len(self.gram)
        self.name = name
        self.coxeter = coxeter
        if any(len(row) != self.rank for row in self.gram):
            raise ValueError("Gram matrix is not square")
        if self.gram != [list(col) for col in zip(*self.gram)]:
            raise ValueError("Gram matrix is not symmetric")
        if not int_positive_definite(self.gram):
            raise ValueError("Gram matrix is not positive definite")

    def dot(self, v, w):
        g = self.gram
        return sum(v[i] * sum(g[i][j] * w[j] for j in range(self.rank) if w[j])
                   for i in range(self.rank) if v[i])

    def norm(self, v):
        return self.dot(v, v)

    def det(self):
        return int_det(self.gram)

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def scaled(self, c):
        return IntegralLattice([[c * x for x in row] for row in self.gram],
                               name=self.name and "sqrt(%d)%s" % (c, self.name),
                               coxeter=self.coxeter)

    def __repr__(self):
        return "IntegralLattice(%s, rank=%d)" % (self.name or "?", self.rank)


class Sublattice:
    """A sublattice given by basis rows in the coordinates of an ambient lattice."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, basis_rows):
        self.ambient = ambient
        self.basis = [list(map(int, row)) for row in basis_rows]
        if len(hnf(self.basis)) != len(self.basis):
            raise ValueError("sublattice basis rows are linearly dependent")

    @property
    def rank(self):
        return len(self.basis)

    def gram(self):
        g = self.ambient.gram
        return int_matmul(int_matmul(self.basis, g),
                          [list(col) for col in zip(*self.basis)])

    def as_lattice(self):
        return IntegralLattice(self.gram())

    def index(self):
        """[ambient : self] for full-rank sublattices."""
        if self.rank != self.ambient.rank:
            raise ValueError("index needs a full-rank sublattice")
        return int_det(self.basis)


# ---------------------------------------------------------------------------
# root lattices

# Coxeter number h of A_n, D_n, E_n: _COXETER[kind](n)
_COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
            "E": {6: 12, 7: 18, 8: 30}.__getitem__}

# Dynkin diagram edges on nodes 0..n-1.  E6 follows the chain a1-a2-a3-a4-a5
# with a6 attached to the middle node a3; E7, E8 extend the chain.
def _diagram_edges(kind, n):
    if kind == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        if n < 3:
            raise ValueError("D_n needs n >= 3")
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if kind == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        edges = [(i, i + 1) for i in range(4)]  # chain a1..a5 -> nodes 0..4
        edges.append((2, 5))                    # a6 on the branch node a3
        if n >= 7:
            edges.append((4, 6))
        if n == 8:
            edges.append((6, 7))
        return edges
    raise ValueError("unknown root lattice kind %r" % (kind,))


def _gram_from_edges(n, edges):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def build_root_lattice(kind, n, scale=1):
    """Simply laced root lattice A_n, D_n or E_n from its simple-root Gram.

    scale=2 doubles the Gram matrix (the sqrt(2)-rescaled lattice, whose
    minimal vectors have norm 4).  The Coxeter number rides along as
    metadata; the root list is recovered by short-vector enumeration.
    """
    if scale not in (1, 2):
        raise ValueError("scale must be 1 or 2")
    g = _gram_from_edges(n, _diagram_edges(kind, n))
    lat = IntegralLattice(g, name="%s%d" % (kind, n), coxeter=_COXETER[kind](n))
    if scale == 2:
        lat = lat.scaled(2)
    return lat


def direct_sum(*lattices):
    n = sum(l.rank for l in lattices)
    g, off = [], 0
    for l in lattices:
        g += [[0] * off + row + [0] * (n - off - l.rank) for row in l.gram]
        off += l.rank
    name = "+".join(l.name or "?" for l in lattices)
    return IntegralLattice(g, name=name)


# ---------------------------------------------------------------------------
# the affine E6 diagram

class AffineE6:
    """E6 with its affine diagram data.

    Nodes 0..6 are a0..a6: a1-a2-a3-a4-a5 is the long chain, a6 hangs off
    the branch node a3 and the affine node a0 attaches to a6.  The marks
    m_i satisfy -a0 = sum_{i>=1} m_i a_i with m0 = 1.
    """

    MARKS = (1, 1, 2, 3, 2, 1, 2)   # keyed to a0..a6
    AFFINE_EDGES = [(a + 1, b + 1) for a, b in _diagram_edges("E", 6)] + [(6, 0)]

    def __init__(self):
        self.lattice = build_root_lattice("E", 6)
        # a0 in simple-root coordinates (a1..a6 are the standard basis)
        self.alpha0 = tuple(-m for m in self.MARKS[1:])

    def node_root(self, i):
        if i == 0:
            return self.alpha0
        v = [0] * 6
        v[i - 1] = 1
        return tuple(v)

    def mark(self, i):
        return self.MARKS[i]


def affine_e6():
    return AffineE6()


def _classify_component(nodes, edges):
    """Root type (kind, n) of a connected simply laced diagram: it is ADE
    exactly when its Cartan matrix is positive definite, and then the
    determinant, n + 1 for A_n, 4 for D_n (D3 reads as A3) and 9 - n for
    E_n, fixes the type (Conway-Sloane, SPLAG ch. 4)."""
    label = {v: k for k, v in enumerate(sorted(nodes))}
    n = len(label)
    cartan = _gram_from_edges(n, [(label[a], label[b]) for a, b in edges])
    if int_positive_definite(cartan):
        det = int_det(cartan)
        if det == n + 1:
            return ("A", n)
        if det == 4:
            return ("D", n)
        if det == 9 - n and n in (6, 7, 8):
            return ("E", n)
    raise ValueError("component is not of type ADE")


def punctured_components(i):
    """The connected components of the affine E6 diagram with node i
    deleted, as (sorted nodes, kind, n), with (kind, n) the root type.

    Components are found in node order and then sorted stably by size,
    which fixes the order of the commutant frame vectors built on them.
    """
    if i not in range(7):
        raise ValueError("affine E6 node index must be 0..6")
    edges = [(a, b) for a, b in AffineE6.AFFINE_EDGES if i not in (a, b)]
    comps = []
    seen = set()
    for v in range(7):
        if v == i or v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            w = stack.pop()
            if w in comp:
                continue
            comp.add(w)
            stack.extend(b if a == w else a for a, b in edges if w in (a, b))
        seen |= comp
        kind, n = _classify_component(comp, [e for e in edges if e[0] in comp])
        comps.append((sorted(comp), kind, n))
    comps.sort(key=lambda t: len(t[0]))
    return comps


def node_sublattice(aff, i):
    """Delete node i from the affine E6 diagram.

    Returns (Sublattice L_i, index m_i, component type list); L_i is
    generated by the other six node roots and E6/L_i is cyclic of order
    m_i, generated by the class of the deleted node's root.  The types
    (kind, n) are sorted by (n, kind).
    """
    types = sorted(((kind, n) for _nodes, kind, n in punctured_components(i)),
                   key=lambda t: (t[1], t[0]))
    sub = Sublattice(aff.lattice, [aff.node_root(j) for j in range(7) if j != i])
    return sub, aff.mark(i), types


# ---------------------------------------------------------------------------
# exact integral LLL and short vector enumeration (Fincke-Pohst)

def lll_reduce(gram):
    """Exact integral LLL reduction of a positive definite Gram matrix.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7,
    with delta = 99/100 and integers only.  Returns (g, u, d, lam):

    - g = U G U^T, the reduced Gram, with U unimodular;
    - d[i], the determinant of the leading i x i block of g (d[0] = 1);
    - lam[k][j] = d[j + 1] mu_kj for j < k, the integral Gram-Schmidt
      coefficients (mu_kj = <b_k, b_j*> / <b_j*, b_j*>).

    The result is size reduced, 2 |lam[k][j]| <= d[j + 1], and meets
    Lovasz's condition 100 d[k + 1] d[k - 1] >= 99 d[k]^2 - 100 lam[k][k - 1]^2.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            s = g[k][j]
            for i in range(j):
                s = (d[i + 1] * s - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = s
            elif s <= 0:
                raise ValueError("Gram matrix is not positive definite")
            else:
                d[k + 1] = s

    def reduce(k, l):
        # b_k -= q b_l with q the integer nearest to mu_kl
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)
        u[k] = [a - q * b for a, b in zip(u[k], u[l])]
        gk, gl = g[k], g[l]
        for i in range(n):
            gk[i] -= q * gl[i]
        for row in g:
            row[k] -= q * row[l]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        # exchange b_{k-1} and b_k; only d[k] and the lam of columns k-1, k move
        u[k - 1], u[k] = u[k], u[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = b

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce(k, k - 1)
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return g, u, d, lam


def _completion(d, lam):
    """The quadratic completion of an LLL Gram, in integers.

    With B_i = d[i+1]/d[i] and mu_ji = lam[j][i]/d[i+1], the norm of x is
    sum_i B_i (x_i + sum_{j>i} mu_ji x_j)^2.  Returns (D, C, M): M is the
    least common denominator of every B_i and mu_ji, D_i = M B_i and
    C[i][j] = M mu_ji for j > i (0 otherwise), so that
    M^3 norm(x) = sum_i D_i (M x_i + sum_{j>i} C[i][j] x_j)^2.
    """
    n = len(d) - 1
    m = 1
    for i in range(n):
        m = lcm(m, d[i] // gcd(d[i + 1], d[i]))
        for j in range(i + 1, n):
            m = lcm(m, d[i + 1] // gcd(lam[j][i], d[i + 1]))
    dd = [m * d[i + 1] // d[i] for i in range(n)]
    cc = [[m * lam[j][i] // d[i + 1] if j > i else 0 for j in range(n)]
          for i in range(n)]
    return dd, cc, m


def short_vectors(lat, target_norm):
    """All lattice vectors of exactly the given positive norm.

    Output is deterministic: +-pairs adjacent (v before -v), pairs ordered
    lexicographically by their canonical representative.  The basis is
    first reduced by exact integral LLL (lll_reduce); the quadratic
    completion is read off its leading minors and Gram-Schmidt integers
    over one common denominator, and the Fincke-Pohst coordinate scan
    works entirely in integers, so nothing is missed and no floats enter.

    Each (Gram, norm) is enumerated once per process; every call returns
    a fresh list of the shared tuples, which the caller may mutate.
    """
    if target_norm <= 0 or lat.rank == 0:
        return []
    return list(_short_vectors(tuple(map(tuple, lat.gram)), target_norm))


@cache
def _short_vectors(gram, target_norm):
    n = len(gram)
    _g, u2, minors, lam = lll_reduce(gram)
    d, c, m = _completion(minors, lam)
    # remaining budgets carry the M^3 scaling; all integers below
    reps = []
    x = [0] * n
    m2 = m * m

    def descend(i, rem, zero_above):
        # rem = M^3 * remaining norm budget for levels 0..i
        ci = c[i]
        u = 0
        for j in range(i + 1, n):
            if x[j]:
                u += ci[j] * x[j]
        di = d[i]
        base = (-u) // m  # floor of the real center -u/M
        starts = ((base, -1), (base + 1, 1))
        for start, step in starts:
            xi = start
            while True:
                if zero_above and xi < 0:
                    break
                t = di * (m * xi + u) ** 2
                if t > rem:
                    break
                x[i] = xi
                if i == 0:
                    if t == rem:
                        reps.append(tuple(x))
                else:
                    descend(i - 1, rem - t, zero_above and xi == 0)
                xi += step
            x[i] = 0

    descend(n - 1, target_norm * m2 * m, True)
    canon = []
    for xv in reps:
        v = tuple(sum(xv[i] * u2[i][j] for i in range(n)) for j in range(n))
        canon.append(max(v, tuple(-t for t in v)))
    out = []
    for rep in sorted(canon):
        out.append(rep)
        out.append(tuple(-t for t in rep))
    return tuple(out)


# ---------------------------------------------------------------------------
# quotients, cosets, annihilators

def quotient_structure(sub):
    """Structure of ambient/sub for a full-rank sublattice.

    Returns (invariants, classify) where invariants is the tuple of
    elementary divisors > 1 and classify maps an ambient coordinate vector
    to its class tuple.
    """
    amb = sub.ambient
    if sub.rank != amb.rank:
        raise ValueError("quotient needs a full-rank sublattice")
    diag, _u, v = snf_with_transform(sub.basis)
    pairs = [(diag[i], i) for i in range(len(diag)) if diag[i] > 1]
    moduli = tuple(p[0] for p in pairs)
    cols = [p[1] for p in pairs]
    vt = [[v[r][c] for c in cols] for r in range(amb.rank)]

    def classify(x):
        return tuple(sum(x[r] * vt[r][k] for r in range(amb.rank)) % moduli[k]
                     for k in range(len(moduli)))

    return moduli, classify


def cosets(sub):
    """Minimal-norm representatives of ambient/sub, zero first.

    Ties are broken lexicographically on coordinates; deterministic.
    """
    amb = sub.ambient
    moduli, classify = quotient_structure(sub)
    total = 1
    for m in moduli:
        total *= m
    reps = {tuple(0 for _ in moduli): tuple([0] * amb.rank)}
    norm = 0
    step = 2 if amb.is_even() else 1
    while len(reps) < total:
        norm += step
        if norm > 16:
            raise ValueError("coset representatives not found below norm 16")
        for v in short_vectors(amb, norm):
            cls = classify(v)
            if cls not in reps:
                reps[cls] = v
            elif amb.norm(reps[cls]) == norm and v < reps[cls]:
                reps[cls] = v
    ordered = [reps[cls] for cls in sorted(reps, key=lambda c: (reps[c] != tuple([0] * amb.rank), c))]
    return ordered, moduli, classify


def annihilator(ambient, sub):
    """{x in ambient : <x, s> = 0 for all s in sub}, as a Sublattice."""
    pairing = int_matmul(ambient.gram, [list(col) for col in zip(*sub.basis)])
    return Sublattice(ambient, hnf(left_kernel(pairing)))


def kernel_sublattice(ambient_basis_rows, values, modulus):
    """Sublattice of the row span where a Z/m-valued form vanishes.

    ambient_basis_rows generate a lattice; values[i] is the form on row i.
    Returns basis rows (HNF) of the kernel sublattice in the same
    coordinates.
    """
    # x with sum x_i values_i + x_m modulus = 0 are the kernel's coefficients
    coeffs = [x[:-1] for x in left_kernel([[v] for v in values] + [[modulus]])]
    return hnf(int_matmul(coeffs, ambient_basis_rows))


# ---------------------------------------------------------------------------
# isometry search

def isometry_test(lat_l, lat_m, max_nodes=2_000_000):
    """An integer basis change P with P G_L P^T = G_M, or None.

    P's rows are the images in L-coordinates of M's basis vectors; when it
    exists it is unimodular because the determinants agree.  Only M is
    reduced, by lll_reduce; the search runs in L's own coordinates, whose
    candidates come from short_vectors, and the answer is transported back
    through M's reduction.  The search places one image at a time with
    forward checking (Plesken-Souvignier): every unplaced basis vector keeps
    its candidates in L and the matching vectors of M, both narrowed by the
    pairings with what is placed, and a branch is cut as soon as the two
    counts differ.  max_nodes bounds the number of search nodes; past it
    the search raises RuntimeError.
    """
    if lat_l.rank != lat_m.rank:
        raise ValueError("rank mismatch: %d vs %d" % (lat_l.rank, lat_m.rank))
    if lat_l.det() != lat_m.det():
        return None
    gm, um = lll_reduce(lat_m.gram)[:2]
    p_red = _isometry_search(lat_l, IntegralLattice(gm), max_nodes)
    if p_red is None:
        return None
    # rows of P_red are the images of the reduced basis U_M b
    p = int_matmul(int_inverse_unimodular(um), p_red)
    # final exactness check in the original coordinates
    pt = [list(col) for col in zip(*p)]
    if int_matmul(int_matmul(p, lat_l.gram), pt) != lat_m.gram:
        raise AssertionError("isometry transport failed")
    return p


def _isometry_search(lat_l, lat_m, max_nodes):
    """Images in L of M's basis vectors b_k, or None.

    For each unplaced k the search keeps two lists: the vectors of L that
    may still be the image of b_k, and the vectors of M that pair with
    every placed b_j as b_k does.  An isometry that extends the placed
    images maps each M-list onto its L-list, so a branch whose list lengths
    differ anywhere has no extension.
    """
    gl, gm = lat_l.gram, lat_m.gram
    n = lat_l.rank
    by_norm = {}
    for nm in {gm[k][k] for k in range(n)}:
        by_norm[nm] = short_vectors(lat_l, nm), short_vectors(lat_m, nm)
        if len(by_norm[nm][0]) != len(by_norm[nm][1]):
            return None
    lists = {k: by_norm[gm[k][k]] for k in range(n)}
    images = [None] * n
    nodes = 0

    def extend(lists):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError("isometry search exceeded node budget")
        if not lists:
            return True
        j = min(lists, key=lambda k: len(lists[k][0]))
        row = gm[j]
        rest = {k: [w for w in cm if sum(map(mul, w, row)) == row[k]]
                for k, (_cl, cm) in lists.items() if k != j}
        for v in lists[j][0]:
            gv = int_matvec(gl, v)
            narrowed = {}
            for k, cm in rest.items():
                cl = [u for u in lists[k][0] if sum(map(mul, u, gv)) == row[k]]
                if len(cl) != len(cm):
                    break
                narrowed[k] = (cl, cm)
            else:
                images[j] = v
                if extend(narrowed):
                    return True
        return False

    if not extend(lists):
        return None
    return [list(v) for v in images]
