"""Positive definite integral lattices, root systems, and exact enumeration.

A lattice is its integer Gram matrix; vectors are integer coordinate
tuples in the lattice basis.  Short vectors come from Fincke-Pohst
enumeration on a basis reduced by exact integral LLL (Cohen, Alg. 2.6.7),
with the quadratic completion read off the LLL's leading minors and
Gram-Schmidt integers, so the vector lists are provably complete; each
(Gram, norm) is enumerated once per process.  Isometries are found by
backtracking over images of basis vectors among short vectors of the
right norm, on bases size-reduced by a greedy pairwise pass.

The affine E6 diagram is walked in one place, punctured_components: it
gives each component of the diagram with a node deleted, its root type
read off the diagram shape, and the order that the commutant frames of
``commutants`` follow.  Coxeter numbers come from one lookup, _COXETER.
"""

from functools import cache
from math import gcd, lcm

from .intmat import (hnf, snf_with_transform, int_matmul, int_matvec, int_det,
                     int_positive_definite)

__all__ = [
    "IntegralLattice", "Sublattice", "build_root_lattice", "direct_sum",
    "affine_e6", "punctured_components", "node_sublattice", "lll_reduce",
    "short_vectors", "isometry_test", "annihilator", "quotient_structure",
    "cosets", "kernel_sublattice",
]


class IntegralLattice:
    """A free Z-module with a symmetric positive definite integer Gram matrix."""

    __slots__ = ("rank", "gram", "name", "coxeter")

    def __init__(self, gram, name=None, coxeter=None, check=True):
        self.gram = [list(map(int, row)) for row in gram]
        self.rank = len(self.gram)
        self.name = name
        self.coxeter = coxeter
        if check:
            for i in range(self.rank):
                if len(self.gram[i]) != self.rank:
                    raise ValueError("Gram matrix is not square")
                for j in range(self.rank):
                    if self.gram[i][j] != self.gram[j][i]:
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
                               coxeter=self.coxeter, check=False)

    def __repr__(self):
        return "IntegralLattice(%s, rank=%d)" % (self.name or "?", self.rank)


class Sublattice:
    """A sublattice given by basis rows in the coordinates of an ambient lattice."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, basis_rows):
        self.ambient = ambient
        self.basis = [list(map(int, row)) for row in basis_rows]
        if self.basis:
            from .linalg import rank as qrank
            if qrank(self.basis) != len(self.basis):
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
        return abs(int_det(self.basis))


# ---------------------------------------------------------------------------
# root lattices

# Coxeter number h of A_n, D_n, E_n: _COXETER[kind](n)
_COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
            "E": {6: 12, 7: 18, 8: 30}.__getitem__}

# Dynkin diagram edges on nodes 0..n-1.  E6 follows the chain a1-a2-a3-a4-a5
# with a6 attached to the middle node a3; E7, E8 extend the chain.
def _diagram_edges(kind, n):
    if kind == "A":
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
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    name = "+".join(l.name or "?" for l in lattices)
    return IntegralLattice(g, name=name, check=False)


# ---------------------------------------------------------------------------
# the affine E6 diagram

class AffineE6:
    """E6 with its affine diagram data.

    Nodes 0..6 are a0..a6: a1-a2-a3-a4-a5 is the long chain, a6 hangs off
    the branch node a3 and the affine node a0 attaches to a6.  The marks
    m_i satisfy -a0 = sum_{i>=1} m_i a_i with m0 = 1.
    """

    MARKS = (1, 1, 2, 3, 2, 1, 2)   # keyed to a0..a6
    AFFINE_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)]

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
    """Type of a connected simply laced Dynkin diagram (paths and E-stars)."""
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


def cosets(sub, norm_cap=16):
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
        if norm > norm_cap:
            raise ValueError("coset representatives not found below norm %d" % norm_cap)
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
    diag, u, _v = snf_with_transform([list(row) for row in
                                      [[pairing[i][j] for j in range(len(sub.basis))]
                                       for i in range(ambient.rank)]])
    # rows of U beyond the invariant factors span the left kernel of the pairing
    r = len(diag)
    rows = [u[i] for i in range(r, ambient.rank)]
    return Sublattice(ambient, hnf(rows)) if rows else Sublattice(ambient, [])


def kernel_sublattice(ambient_basis_rows, values, modulus):
    """Sublattice of the row span where a Z/m-valued form vanishes.

    ambient_basis_rows generate a lattice; values[i] is the form on row i.
    Returns basis rows (HNF) of the kernel sublattice in the same
    coordinates.
    """
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
    p = vals[pivot]
    # for prime modulus p-inverse exists; modulus here is always 3
    inv = pow(p, -1, modulus)
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


# ---------------------------------------------------------------------------
# isometry search

def _size_reduce_basis(gram):
    """Greedy pairwise size reduction of the abstract basis.

    Works on the Gram matrix alone; returns (new_gram, U) with
    new_gram = U G U^T.  Repeatedly shortens b_i against b_j by integer
    multiples and sorts by norm; this is plain Lagrange-style reduction
    (no swap-condition bookkeeping), used by the isometry search.
    """
    n = len(gram)
    g = [row[:] for row in gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def reduce_once():
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or g[j][j] == 0:
                    continue
                # nearest integer to g[i][j]/g[j][j]
                num, den = g[i][j], g[j][j]
                q = (2 * num + den) // (2 * den)
                if q:
                    new_norm = g[i][i] - 2 * q * g[i][j] + q * q * g[j][j]
                    if new_norm < g[i][i]:
                        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
                        for k in range(n):
                            g[i][k] -= q * g[j][k]
                        for k in range(n):
                            g[k][i] -= q * g[k][j]
                        changed = True
        return changed

    for _ in range(64):
        if not reduce_once():
            break
    order = sorted(range(n), key=lambda i: g[i][i])
    g2 = [[g[a][b] for b in order] for a in order]
    u2 = [u[a] for a in order]
    return g2, u2


def isometry_test(lat_l, lat_m, max_nodes=2_000_000):
    """An integer basis change P with P G_L P^T = G_M, or None.

    P's rows are the images in L-coordinates of M's basis vectors; when it
    exists it is unimodular because the determinants agree.  Both bases
    are size-reduced first (greedily, not by LLL: on the scrambled rank-16
    test basis the LLL basis made the search far slower), then the answer
    is transported back.  The search is backtracking over short vectors
    of the right norm with inner-product pruning.  Target rows are taken
    by the candidate count of their norm, smallest first; when all basis
    norms agree, as on lattices spanned by norm-4 vectors, that is just
    the basis order.
    """
    if lat_l.rank != lat_m.rank:
        raise ValueError("rank mismatch: %d vs %d" % (lat_l.rank, lat_m.rank))
    if lat_l.det() != lat_m.det():
        return None
    n = lat_l.rank
    gl_red, ul = _size_reduce_basis(lat_l.gram)
    gm_red, um = _size_reduce_basis(lat_m.gram)
    red_l = IntegralLattice(gl_red, check=False)
    red_m = IntegralLattice(gm_red, check=False)
    p_red = _isometry_search(red_l, red_m, max_nodes)
    if p_red is None:
        return None
    # transport: rows of P_red are images of (U_M basis) in U_L coordinates
    from .intmat import int_inverse_unimodular, int_matmul
    p = int_matmul(int_matmul(int_inverse_unimodular(um), p_red), ul)
    # final exactness check in the original coordinates
    gm = lat_m.gram
    for i in range(n):
        for j in range(n):
            if lat_l.dot(p[i], p[j]) != gm[i][j]:
                raise AssertionError("isometry transport failed")
    return p


def _isometry_search(lat_l, lat_m, max_nodes):
    gm = lat_m.gram
    n = lat_l.rank
    cands = {}
    for j in range(n):
        nm = gm[j][j]
        if nm not in cands:
            cands[nm] = short_vectors(lat_l, nm)
            if not cands[nm]:
                return None
    # scarce norms first: fewer candidates prune earlier
    order = sorted(range(n), key=lambda j: len(cands[gm[j][j]]))
    gl = lat_l.gram
    images = [None] * n
    gram_rows = {}
    nodes = [0]

    def try_level(t):
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise RuntimeError("isometry search exceeded node budget")
        if t == n:
            return True
        j = order[t]
        for v in cands[gm[j][j]]:
            ok = True
            for k in order[:t]:
                s = 0
                gr = gram_rows[k]
                for idx in range(n):
                    if v[idx]:
                        s += gr[idx] * v[idx]
                if s != gm[j][k]:
                    ok = False
                    break
            if ok:
                images[j] = v
                gram_rows[j] = int_matvec(gl, v)
                if try_level(t + 1):
                    return True
        images[order[t]] = None
        gram_rows.pop(order[t], None)
        return False

    if not try_level(0):
        return None
    return [list(v) for v in images]
