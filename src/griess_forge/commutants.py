"""Commutant Griess algebras of the affine E6 nodes, and their E8-side models.

For a node of the affine E6 diagram with deleted-node sublattice L and
mark m, the commutant's weight-two space inside the sqrt(2)E6 algebra is
spanned by the component Virasoro vectors w^s = tilde_omega(R_s) together
with the coset sums X^r over the nonzero classes of E6/L.  The same recipe
inside sqrt(2)E8, applied to Q + L with Q the A2 annihilator of a fixed
E6, yields the finite-dimensional algebras of dimension 4, 8 and 12 that
model the node pairs; all of them are extracted as explicit
structure-constant algebras and checked for closure on the nose.

The reference tables (node algebras, the four-dimensional two-generator
algebra, the eight-dimensional order-6 algebra) are shipped as literal
data so every computed algebra can be compared entry by entry.
"""

from fractions import Fraction

from .exact import zeta
from .lattices import (affine_e6, build_root_lattice, Sublattice, annihilator,
                       quotient_structure, isometry_test)
from .linalg import row_span_coords
from .gluing import e8_glue
from .w2 import (W2Algebra, W2Element, tilde_omega, coset_sum,
                 virasoro_check, CosetCharacter)

F = Fraction

__all__ = [
    "FDAlgebra", "span_closure", "fd_from_elements", "NodeCase", "node_case",
    "g2a_table", "g3a_table", "u3a_table", "u6a_table", "tilde_v_pair",
    "orthogonal_complement_virasoro", "weight2_dimension_census",
    "E8Side", "e8_side", "vnx_griess", "u3a_griess", "nine_orbit_algebra",
    "commutant_kernel_dimension",
]


# ---------------------------------------------------------------------------
# finite-dimensional commutative algebras with invariant form

class FDAlgebra:
    """Structure constants, invariant form, and an optional embedding."""

    def __init__(self, names, mult, gram, space=None, embedding=None):
        self.names = list(names)
        self.dim = len(self.names)
        self.mult = mult
        self.gram = gram
        self.space = space
        self.embedding = embedding
        for i in range(self.dim):
            for j in range(i):
                if mult[i][j] != mult[j][i]:
                    raise ValueError("structure constants are not symmetric")
                if gram[i][j] != gram[j][i]:
                    raise ValueError("form is not symmetric")

    def index(self, name):
        return self.names.index(name)

    def element(self, name):
        v = [F(0)] * self.dim
        v[self.index(name)] = F(1)
        return v

    def combo(self, **coeffs):
        v = [F(0)] * self.dim
        for name, c in coeffs.items():
            v[self.index(name)] = v[self.index(name)] + c
        return v

    def product_vec(self, u, v):
        out = [F(0)] * self.dim
        for i, x in enumerate(u):
            if not x:
                continue
            for j, y in enumerate(v):
                if not y:
                    continue
                s = x * y
                row = self.mult[i][j]
                for k, c in enumerate(row):
                    if c:
                        out[k] = out[k] + s * c
        return out

    def form_vec(self, u, v):
        tot = F(0)
        for i, x in enumerate(u):
            if not x:
                continue
            for j, y in enumerate(v):
                if y and self.gram[i][j]:
                    tot = tot + self.gram[i][j] * (x * y)
        return tot

    def is_virasoro(self, u):
        sq = self.product_vec(u, u)
        two_u = [2 * t for t in u]
        ok = any(u) and all(a == b for a, b in zip(sq, two_u))
        return ok, 2 * self.form_vec(u, u)

    def check_invariance(self):
        """<a.b, c> = <b, a.c> on all basis triples; raises on failure."""
        for i in range(self.dim):
            for j in range(self.dim):
                pij = self.mult[i][j]
                for k in range(self.dim):
                    lhs = sum((pij[t] * self.gram[t][k] for t in range(self.dim)
                               if pij[t] and self.gram[t][k]), F(0))
                    pik = self.mult[i][k]
                    rhs = sum((self.gram[j][t] * pik[t] for t in range(self.dim)
                               if pik[t] and self.gram[j][t]), F(0))
                    if lhs != rhs:
                        raise AssertionError(
                            "form not invariant at (%s, %s, %s)" %
                            (self.names[i], self.names[j], self.names[k]))
        return True

    def check_embedding(self):
        """Embedded products and forms must match the structure constants."""
        if self.space is None or self.embedding is None:
            raise ValueError("algebra has no embedding")
        alg = self.space
        for i in range(self.dim):
            for j in range(i, self.dim):
                p = alg.product(self.embedding[i], self.embedding[j])
                want = W2Element()
                for k, c in enumerate(self.mult[i][j]):
                    if c:
                        want = want + self.embedding[k].scale(c)
                if p != want:
                    raise AssertionError("embedded product %s.%s mismatch"
                                         % (self.names[i], self.names[j]))
                if alg.form(self.embedding[i], self.embedding[j]) != self.gram[i][j]:
                    raise AssertionError("embedded form %s,%s mismatch"
                                         % (self.names[i], self.names[j]))
        return True


class _IncrementalSpan:
    """Forward-eliminated row store for fast membership tests."""

    def __init__(self):
        self.rows = []      # reduced rows
        self.pivots = []    # pivot column per reduced row

    def residual(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def add(self, v):
        """Reduce v against the span; add and return True if independent."""
        r = self.residual(v)
        p = next((k for k, x in enumerate(r) if x), None)
        if p is None:
            return False
        lead = r[p]
        inv = 1 / lead if isinstance(lead, (int, F)) else lead.inverse()
        self.rows.append([x * inv for x in r])
        self.pivots.append(p)
        return True


def span_closure(alg, gens, max_dim=64):
    """Product-closure of the span of the given weight-two elements.

    Returns the closed list of basis elements: the independent generators
    first, then whichever products escape the running span.  Each product
    of basis elements is computed exactly once.
    """
    span = _IncrementalSpan()
    elems = []
    for g in gens:
        if span.add(alg.signed_coords(g)):
            elems.append(g)
    done = set()
    while True:
        n = len(elems)
        todo = [(i, j) for i in range(n) for j in range(i, n)
                if (i, j) not in done]
        if not todo:
            return elems
        for i, j in todo:
            done.add((i, j))
            p = alg.product(elems[i], elems[j])
            if span.add(alg.signed_coords(p)):
                elems.append(p)
                if len(elems) > max_dim:
                    raise ValueError("closure exceeded dimension bound %d" % max_dim)


def fd_from_elements(alg, elems, names, frame_size=None):
    """Extract the structure-constant algebra of a product-closed span.

    Raises with the offending pair when some product leaves the span.
    When frame_size is given, the sum of the first frame_size elements
    must act as 2 on every basis element (the commutant frame condition).
    """
    from .linalg import solve_matrix
    rows = [alg.signed_coords(e) for e in elems]
    dim = len(elems)
    span = _IncrementalSpan()
    for r in rows:
        if not span.add(r):
            raise ValueError("basis elements are linearly dependent")
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            products[(i, j)] = alg.product(elems[i], elems[j])
    # one batched solve: columns are the products expressed over the span
    a = [list(col) for col in zip(*rows)]
    keys = sorted(products)
    cols = [alg.signed_coords(products[k]) for k in keys]
    x = solve_matrix(a, [list(row) for row in zip(*cols)])
    if x is None:
        for (i, j), col in zip(keys, cols):
            if row_span_coords(rows, col) is None:
                raise ValueError("product %s . %s leaves the span"
                                 % (names[i], names[j]))
        raise ValueError("products leave the span")
    mult = [[None] * dim for _ in range(dim)]
    for col, (i, j) in enumerate(keys):
        c = [x[t][col] for t in range(dim)]
        mult[i][j] = c
        mult[j][i] = c
    gram = [[alg.form(elems[i], elems[j]) for j in range(dim)] for i in range(dim)]
    fd = FDAlgebra(names, mult, gram, space=alg, embedding=list(elems))
    if frame_size is not None:
        total = W2Element()
        for e in elems[:frame_size]:
            total = total + e
        for i, e in enumerate(elems):
            if alg.product(total, e) != e.scale(F(2)):
                raise ValueError("frame sum does not act as 2 on %s" % names[i])
    return fd


# ---------------------------------------------------------------------------
# literal reference tables

def _table(names, prods, gram_entries):
    dim = len(names)
    idx = {n: k for k, n in enumerate(names)}
    mult = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b), terms in prods.items():
        row = [F(0)] * dim
        for name, c in terms.items():
            row[idx[name]] = F(c)
        mult[idx[a]][idx[b]] = row
        mult[idx[b]][idx[a]] = row
    gram = [[F(0)] * dim for _ in range(dim)]
    for (a, b), c in gram_entries.items():
        gram[idx[a]][idx[b]] = F(c)
        gram[idx[b]][idx[a]] = F(c)
    return FDAlgebra(names, mult, gram)


def g2a_table():
    """The 2A-node commutant Griess algebra on {w1, w2, X}."""
    return _table(
        ["w1", "w2", "X"],
        {("w1", "w1"): {"w1": 2}, ("w1", "w2"): {}, ("w1", "X"): {"X": F(1, 2)},
         ("w2", "w2"): {"w2": 2}, ("w2", "X"): {"X": F(3, 2)},
         ("X", "X"): {"w1": 80, "w2": 96}},
        {("w1", "w1"): F(1, 4), ("w2", "w2"): F(5, 8), ("X", "X"): 40},
    )


def g3a_table():
    """The 3A-node commutant Griess algebra on {w1, w2, w3, X1, X2}."""
    prods = {("X1", "X1"): {"X2": 8}, ("X2", "X2"): {"X1": 8},
             ("X1", "X2"): {"w1": 45, "w2": 45, "w3": 45}}
    gram = {("X1", "X2"): 27}
    for i in range(1, 4):
        wi = "w%d" % i
        prods[(wi, wi)] = {wi: 2}
        gram[(wi, wi)] = F(2, 5)
        for j in range(i + 1, 4):
            prods[(wi, "w%d" % j)] = {}
        prods[(wi, "X1")] = {"X1": F(2, 3)}
        prods[(wi, "X2")] = {"X2": F(2, 3)}
    return _table(["w1", "w2", "w3", "X1", "X2"], prods, gram)


def u3a_table():
    """The four-dimensional Griess algebra of the two-Ising 3A dihedral pair."""
    return _table(
        ["w1", "w2", "Xp", "Xm"],
        {("w1", "w1"): {"w1": 2}, ("w1", "w2"): {},
         ("w1", "Xp"): {"Xp": F(2, 3)}, ("w1", "Xm"): {"Xm": F(2, 3)},
         ("w2", "w2"): {"w2": 2},
         ("w2", "Xp"): {"Xp": F(4, 3)}, ("w2", "Xm"): {"Xm": F(4, 3)},
         ("Xp", "Xp"): {"Xm": 20}, ("Xm", "Xm"): {"Xp": 20},
         ("Xp", "Xm"): {"w1": 135, "w2": 252}},
        {("w1", "w1"): F(2, 5), ("w2", "w2"): F(3, 7), ("Xp", "Xm"): 81},
    )


def u6a_table():
    """The eight-dimensional Griess algebra of the order-6 dihedral pair.

    Frame charges (1/2, 4/5, 5/4); the X's are graded mod 6 and products
    add the grades.
    """
    names = ["w1", "w2", "w3", "X1", "X2", "X3", "X4", "X5"]
    prods = {
        ("w1", "w1"): {"w1": 2}, ("w2", "w2"): {"w2": 2}, ("w3", "w3"): {"w3": 2},
        ("w1", "w2"): {}, ("w1", "w3"): {}, ("w2", "w3"): {},
        ("w1", "X1"): {"X1": F(1, 2)}, ("w1", "X2"): {}, ("w1", "X3"): {"X3": F(1, 2)},
        ("w1", "X4"): {}, ("w1", "X5"): {"X5": F(1, 2)},
        ("w2", "X1"): {"X1": F(2, 3)}, ("w2", "X2"): {"X2": F(2, 3)}, ("w2", "X3"): {},
        ("w2", "X4"): {"X4": F(2, 3)}, ("w2", "X5"): {"X5": F(2, 3)},
        ("w3", "X1"): {"X1": F(5, 6)}, ("w3", "X2"): {"X2": F(4, 3)},
        ("w3", "X3"): {"X3": F(3, 2)},
        ("w3", "X4"): {"X4": F(4, 3)}, ("w3", "X5"): {"X5": F(5, 6)},
        ("X1", "X1"): {"X2": 8}, ("X1", "X2"): {"X3": 9}, ("X1", "X3"): {"X4": 8},
        ("X1", "X4"): {"X5": 10}, ("X1", "X5"): {"w1": 72, "w2": 60, "w3": 48},
        ("X2", "X2"): {"X4": 12}, ("X2", "X3"): {"X5": 10},
        ("X2", "X4"): {"w2": 75, "w3": 96}, ("X2", "X5"): {"X1": 10},
        ("X3", "X3"): {"w1": 80, "w3": 96}, ("X3", "X4"): {"X1": 10},
        ("X3", "X5"): {"X2": 8},
        ("X4", "X4"): {"X2": 12}, ("X4", "X5"): {"X3": 9},
        ("X5", "X5"): {"X4": 8},
    }
    gram = {("w1", "w1"): F(1, 4), ("w2", "w2"): F(2, 5), ("w3", "w3"): F(5, 8),
            ("X1", "X5"): 36, ("X2", "X4"): 45, ("X3", "X3"): 40}
    return _table(names, prods, gram)


# ---------------------------------------------------------------------------
# the E6-side node algebras

_NODE_INDEX = {"1A": 0, "2A": 2, "3A": 3}


class NodeCase:
    """One node of the affine E6 diagram with its commutant data."""

    def __init__(self, node):
        if node not in _NODE_INDEX:
            raise ValueError("node must be one of 1A, 2A, 3A")
        self.node = node
        self.aff = affine_e6()
        self.alg = W2Algebra(self.aff.lattice.scaled(2), name="W2(sqrt2 E6)")
        i = _NODE_INDEX[node]
        keep = [j for j in range(7) if j != i]
        self.mark = self.aff.mark(i)
        self.node_root = self.aff.node_root(i)
        # connected components of the punctured diagram, ordered by rank
        comps = _components(keep)
        comps.sort(key=len)
        self.component_rows = [[list(self.aff.node_root(j)) for j in comp]
                               for comp in comps]
        self.sub = Sublattice(self.alg.lattice,
                              [list(self.aff.node_root(j)) for j in keep])
        self.moduli, self.classify = quotient_structure(self.sub)
        self.frame = []
        self.frame_charges = []
        for rows in self.component_rows:
            sub = Sublattice(self.aff.lattice, rows)
            lat = sub.as_lattice()
            kind, n = _root_type(lat)
            h = build_root_lattice(kind, n).coxeter
            roots = self.alg.scaled_roots(rows)
            w = tilde_omega(self.alg, roots, h)
            self.frame.append(w)
            ok, c = virasoro_check(self.alg, w)
            if not ok:
                raise AssertionError("frame member is not Virasoro")
            self.frame_charges.append(c)
        self.xs = []
        for r in range(1, self.mark):
            cls = self.classify([r * t for t in self.node_root])
            self.xs.append(coset_sum(self.alg, self.classify, cls))
        names = ["w%d" % (s + 1) for s in range(len(self.frame))]
        names += ["X%d" % r for r in range(1, self.mark)]
        if self.mark == 2:
            names[-1] = "X"
        self.fd = fd_from_elements(self.alg, self.frame + self.xs, names,
                                   frame_size=len(self.frame))
        self.rho = CosetCharacter(self.alg, self.sub.basis)
        # orient the character so X1 is multiplied by zeta_m, not its inverse
        if self.mark > 1:
            e = self.rho.exponent_of(next(iter(self.xs[0].exps)))
            if self.mark == 3 and e == 2:
                self.rho = self.rho.power(2)

    def griess(self):
        return self.fd


def _components(keep):
    from .lattices import AffineE6
    nodes = set(keep)
    edges = [(a, b) for a, b in AffineE6.AFFINE_EDGES if a in nodes and b in nodes]
    comps = []
    seen = set()
    for v in keep:
        if v in seen:
            continue
        stack, comp = [v], []
        while stack:
            w = stack.pop()
            if w in comp:
                continue
            comp.append(w)
            for a, b in edges:
                if a == w and b not in comp:
                    stack.append(b)
                if b == w and a not in comp:
                    stack.append(a)
        seen |= set(comp)
        comps.append(sorted(comp))
    return comps


def _root_type(lat):
    """Identify an irreducible simply laced root lattice by rank and root count."""
    n = lat.rank
    from .lattices import short_vectors
    nroots = len(short_vectors(lat, 2))
    for kind, size in (("A", n * (n + 1)), ("D", 2 * n * (n - 1)),
                       ("E", {6: 72, 7: 126, 8: 240}.get(n, -1))):
        if nroots == size:
            if kind == "D" and n < 4:
                continue
            if kind == "E" and n not in (6, 7, 8):
                continue
            return kind, n
    raise ValueError("not an irreducible root lattice (rank %d, %d roots)"
                     % (n, nroots))


def node_case(node):
    return NodeCase(node)


def commutant_kernel_dimension(case):
    """Dimension of ker ad(omega - sum of frame vectors) on the ambient space.

    The complement of the frame inside the full conformal vector is itself
    a Virasoro vector; the weight-two part of its commutant is exactly the
    kernel of its adjoint action (the form is positive definite and the
    eigenvalues are nonnegative).  Equality with the span dimension shows
    the frame-plus-coset-sum basis is the whole commutant, not just a
    subalgebra of it.
    """
    from .involutions import W2Space, ad_matrix
    from .linalg import kernel, row_span_coords, rank as qrank
    from .w2 import conformal_vector, virasoro_check
    alg = case.alg
    omega = conformal_vector(alg)
    comp = omega
    for w in case.frame:
        comp = comp - w
    ok, c = virasoro_check(alg, comp)
    if not ok:
        raise AssertionError("frame complement is not a Virasoro vector")
    sp = W2Space(alg)
    ker = kernel(ad_matrix(sp, sp.element_vec(comp)))
    # the even projections of the commutant basis must fill the kernel
    # (for odd marks the coset sums pair off under the lattice involution,
    # so only their symmetric combinations live in the even space)
    rows = []
    for e in case.fd.embedding:
        even = (e + e.theta()).scale(F(1, 2))
        if not even.is_zero():
            rows.append(sp.element_vec(even))
    if qrank(rows) != len(ker):
        raise AssertionError("even commutant dimension %d, kernel dimension %d"
                             % (qrank(rows), len(ker)))
    for v in ker:
        if row_span_coords(rows, v) is None:
            raise AssertionError("kernel vector escapes the commutant basis")
    return len(ker), c


def tilde_v_pair(case):
    """(v, v') = (tilde_omega of the full E6, its character twist).

    v is computed two ways: from the closed-form coefficients over the
    node basis, and from the lattice construction; they must agree.
    """
    alg = case.alg
    v_lattice = tilde_omega(alg, alg.vectors4, 12)
    closed = _closed_form_v(case)
    if closed != v_lattice:
        raise AssertionError("closed-form v disagrees with the lattice construction")
    v_prime = case.rho.apply(v_lattice)
    return v_lattice, v_prime


def _closed_form_v(case):
    fd = case.fd
    if case.node == "1A":
        coeffs = {"w1": F(1)}
    elif case.node == "2A":
        coeffs = {"w1": F(2, 7), "w2": F(4, 7), "X": F(1, 14)}
    else:
        coeffs = {"w1": F(5, 14), "w2": F(5, 14), "w3": F(5, 14),
                  "X1": F(1, 14), "X2": F(1, 14)}
    out = W2Element()
    for name, c in coeffs.items():
        out = out + fd.embedding[fd.index(name)].scale(c)
    return out


def orthogonal_complement_virasoro(case):
    """At the 2A node: the Virasoro vector completing v inside w1 + w2."""
    if case.node != "2A":
        raise ValueError("complement vector is a 2A-node construction")
    fd = case.fd
    u = fd.combo(w1=F(5, 7), w2=F(3, 7), X=-F(1, 14))
    ok, c = fd.is_virasoro(u)
    if not ok or c != F(25, 28):
        raise AssertionError("complement vector has wrong Virasoro data")
    return u


def weight2_dimension_census(case):
    """(expected, computed) commutant weight-two dimension for the node."""
    expected = {"1A": 1, "2A": 3, "3A": 5}[case.node]
    ell = len(case.frame)
    computed = case.fd.dim
    if computed != ell + case.mark - 1:
        raise AssertionError("census mismatch: dim %d vs l + m - 1 = %d"
                             % (computed, ell + case.mark - 1))
    return expected, computed


# ---------------------------------------------------------------------------
# the E8-side: Q + E6 inside the glued E8

class E8Side:
    """The glued sqrt(2)E8 weight-two algebra with its fixed A2 + E6 split."""

    def __init__(self):
        self.glue = e8_glue()
        e8 = self.glue.lattice
        self.e8 = e8
        self.alg = W2Algebra(e8.scaled(2), name="W2(sqrt2 E8)")
        space = self.glue.space
        q_rows_third = [space.block_row(0, 0), space.block_row(0, 1)]
        self.q_sub = self.glue.sublattice_in_basis(q_rows_third)
        self.e6_sub = annihilator(e8, self.q_sub)
        if self.e6_sub.rank != 6:
            raise AssertionError("annihilator of Q is not rank 6")
        aff = affine_e6()
        t = isometry_test(self.e6_sub.as_lattice(), aff.lattice)
        if t is None:
            raise AssertionError("annihilator of Q is not of type E6")
        self.aff = aff
        # images of the seven affine-diagram roots in E8 coordinates
        self._node_images = {}
        for j in range(7):
            root = aff.node_root(j)
            img = [0] * 8
            for k, c in enumerate(root):
                if c:
                    for tcol, tv in enumerate(t[k]):
                        if tv:
                            for a, b in enumerate(self.e6_sub.basis[tcol]):
                                img[a] += c * tv * b
            self._node_images[j] = tuple(img)
        self.ehat = tilde_omega(self.alg, self.alg.vectors4, 30)
        self.omega_q = tilde_omega(self.alg, self.alg.scaled_roots(self.q_sub.basis), 3)
        self.omega_e6 = tilde_omega(self.alg, self.alg.scaled_roots(self.e6_sub.basis), 12)

    def node_image(self, j):
        return self._node_images[j]

    def ltilde_rows(self, node):
        i = _NODE_INDEX[node]
        rows = [list(r) for r in self.q_sub.basis]
        rows += [list(self.node_image(j)) for j in range(7) if j != i]
        return rows

    def character(self, sub_rows, trivial_on=(), orders=None, values=()):
        """A coset character with prescribed behaviour.

        trivial_on: vectors it must kill; values: (vector, exponent_num, order)
        triples it must attain; orders: required character order.
        """
        base = CosetCharacter(self.alg, sub_rows)
        n = base.exponent
        best = []
        from itertools import product as iproduct
        ranges = [range(m) for m in base.moduli]
        for w in iproduct(*ranges):
            chi = base.power(1)
            chi.weights = tuple(w)
            if any(chi.exponent_of(v) for v in trivial_on):
                continue
            if orders is not None and chi.order() != orders:
                continue
            ok = True
            for vec, num, order in values:
                if chi.exponent_of(vec) != (num * (n // order)) % n:
                    ok = False
                    break
            if ok:
                best.append(chi)
        if not best:
            raise ValueError("no character matches the constraints")
        return best[0]


_E8_SIDE = []


def e8_side():
    if not _E8_SIDE:
        _E8_SIDE.append(E8Side())
    return _E8_SIDE[0]


def vnx_griess(node):
    """The E8-side commutant algebra of a node: frame + coset sums.

    Dimensions 4, 8, 12 for 1A, 2A, 3A.  Returns (FDAlgebra, side, classify
    data) with the frame ordered Q first, then the node components by rank.
    """
    side = e8_side()
    alg = side.alg
    rows = side.ltilde_rows(node)
    sub = Sublattice(side.e8, rows)
    moduli, classify = quotient_structure(sub)
    frame = [side.omega_q]
    charges = [F(4, 5)]
    i = _NODE_INDEX[node]
    comps = _components([j for j in range(7) if j != i])
    comps.sort(key=len)
    for comp in comps:
        crows = [list(side.node_image(j)) for j in comp]
        lat = Sublattice(side.e8, crows).as_lattice()
        kind, n = _root_type(lat)
        h = build_root_lattice(kind, n).coxeter
        w = tilde_omega(alg, alg.scaled_roots(crows), h)
        frame.append(w)
        ok, c = virasoro_check(alg, w)
        if not ok:
            raise AssertionError("frame member is not Virasoro")
        charges.append(c)
    classes = sorted(set(classify(v) for v in alg.vectors4) - {tuple(0 for _ in moduli)})
    xs = [coset_sum(alg, classify, cls) for cls in classes]
    names = ["w%d" % (s + 1) for s in range(len(frame))]
    names += ["X%s" % ("".join(map(str, cls)) if len(cls) > 1 else cls[0])
              for cls in classes]
    fd = fd_from_elements(alg, frame + xs, names, frame_size=len(frame))
    return fd, side, (sub, moduli, classify, classes, charges)


def u3a_griess(source="table"):
    """The 3A dihedral Griess algebra, as literal table or from the orbit.

    Orbit mode closes span{e, chi e, chi^2 e} for the special Ising vector
    e of sqrt(2)E8 and the order-3 character chi of E8/(A2 + E6), checks
    the closure is four-dimensional, and returns the algebra on the basis
    (w1, w2, X+, X-) recovered from the orbit.  Its structure constants are
    computed, not compared: the u3a-orbit suite checks them against the
    table.
    """
    if source == "table":
        return u3a_table()
    if source != "e8_orbit":
        raise ValueError("source must be 'table' or 'e8_orbit'")
    side = e8_side()
    alg = side.alg
    rows = [list(r) for r in side.q_sub.basis] + [list(r) for r in side.e6_sub.basis]
    eta = side.character(rows, orders=3)
    e0 = side.ehat
    e1 = eta.apply(e0)
    e2 = eta.power(2).apply(e0)
    closed = span_closure(alg, [e0, e1, e2])
    if len(closed) != 4:
        raise ValueError("orbit closure has dimension %d, expected 4" % len(closed))
    z = zeta(3)
    z2 = zeta(3, 2)
    third = F(32, 3)
    xp = (e0 + e1.scale(z2) + e2.scale(z)).scale(third)
    xm = (e0 + e1.scale(z) + e2.scale(z2)).scale(third)
    # solve for w1, w2 from  e0+e1+e2 = 3(5/32 w1 + 7/16 w2)  and
    # X+ . X- = 135 w1 + 252 w2
    s = e0 + e1 + e2
    pp = alg.product(xp, xm)
    det = F(15, 32) * 252 - F(21, 16) * 135
    w1 = (s.scale(F(252)) - pp.scale(F(21, 16))).scale(1 / det)
    w2 = (pp.scale(F(15, 32)) - s.scale(F(135))).scale(1 / det)
    if alg.product(xp, xp) != xm.scale(F(20)):
        xp, xm = xm, xp
    elems = [w1, w2, xp, xm]
    return fd_from_elements(alg, elems, ["w1", "w2", "Xp", "Xm"])


_NINE_ORBIT = []


def nine_orbit_algebra():
    """Closure of the full 3^2-character orbit of the special Ising vector.

    The nine twisted Ising vectors are expressed in the (product-closed,
    lattice-verified) 3A-node commutant and their span is closed there in
    coordinates; the result is the whole 12-dimensional algebra, so the
    lattice-level closure of the orbit is exactly that commutant.
    Returns (FDAlgebra, side, (chi1, chi2), orbit_coords); computed once
    per process, like e8_side.
    """
    if not _NINE_ORBIT:
        _NINE_ORBIT.append(_nine_orbit_algebra())
    return _NINE_ORBIT[0]


def _nine_orbit_algebra():
    side = e8_side()
    alg = side.alg
    k_rows = side.ltilde_rows("3A")
    base = CosetCharacter(alg, k_rows)
    if base.moduli != (3, 3):
        raise AssertionError("3A quotient is not 3 x 3")
    chi1 = base.power(1)
    chi1.weights = (1, 0)
    chi2 = base.power(1)
    chi2.weights = (0, 1)
    fd12, _side, _data = vnx_griess("3A")
    rows = [alg.signed_coords(e) for e in fd12.embedding]
    orbit = []
    for a in range(3):
        for b in range(3):
            chi = base.power(1)
            chi.weights = (a, b)
            e = chi.apply(side.ehat)
            c = row_span_coords(rows, alg.signed_coords(e))
            if c is None:
                raise AssertionError("orbit vector escapes the 3A commutant")
            orbit.append(c)
    # close the span of the nine coordinate vectors under the table product
    span = _IncrementalSpan()
    elems = [c for c in orbit if span.add(c)]
    done = set()
    while True:
        todo = [(i, j) for i in range(len(elems)) for j in range(i, len(elems))
                if (i, j) not in done]
        if not todo:
            break
        for i, j in todo:
            done.add((i, j))
            p = fd12.product_vec(elems[i], elems[j])
            if span.add(p):
                elems.append(p)
    if len(elems) != 12:
        raise ValueError("nine-vector closure has dimension %d" % len(elems))
    return fd12, side, (chi1, chi2), orbit
