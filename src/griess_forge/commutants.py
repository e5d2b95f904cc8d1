"""Commutant Griess algebras of the affine E6 nodes, and their E8-side models.

For a node of the affine E6 diagram with deleted-node sublattice L and
mark m, the commutant's weight-two space inside the sqrt(2)E6 algebra is
spanned by the component Virasoro vectors w^s = tilde_omega(R_s) together
with the coset sums X^r over the nonzero classes of E6/L.  The same recipe
inside sqrt(2)E8, applied to Q + L with Q the A2 annihilator of a fixed
E6, yields the finite-dimensional algebras of dimension 4, 8 and 12 that
model the node pairs; all of them are extracted as explicit
structure-constant algebras and checked for closure on the nose.  One
builder, _commutant, makes the algebras of both sides: it takes the
components from ``lattices.punctured_components`` for the frame, and the
quotient by the node sublattice once, as a ``w2.CosetCharacter`` whose
classes index the coset sums.  That character is the node's rho and the
source of the nine twisted Ising vectors, so it multiplies X1 by zeta_m
by construction, and the dimension is the frame length plus the
quotient order less one.  The frame is checked on the table that
fd_from_elements extracts: each member w_s is Virasoro there, the frame
sum acts as 2 on every basis element, and the charge of w_s is
2 <w_s, w_s>.  The embedding rows are independent, so the table holds
the unique coordinates of each product, and w_s . w_s = 2 w_s holds
there exactly when it holds on the lattice.  The E8 side builds omega_Q
and omega_E6, the frame of its A2 + E6 split, once; vnx_griess takes
omega_Q from it.  An element of the ambient space is expressed over an
algebra's basis by FDAlgebra.coordinates.

The reference tables (node algebras, the four-dimensional two-generator
algebra, the eight-dimensional order-6 algebra) are shipped as literal
data so every computed algebra can be compared entry by entry.

The finite-dimensional layer computes over Z[z12] integers, in the row
format that ``exact`` owns.  On its first product or form an FDAlgebra
scales all its structure constants by one rational, and its form by
another, into Z[z] 4-tuples, and keeps only the nonzero entries.  A
product or form then scales each operand once (an ``exact._ZRow`` keeps its
scaled form, so a vector used many times is scaled once), sums int tuples
and divides each output entry once, to a Fraction when it is rational and
a CycNum otherwise.  The incremental span behind span_closure and
fd_from_elements reduces such rows with the fraction-free step of the
``linalg`` core, each stored row with a rational integer pivot.  One
closure routine, span_closure, and one extraction, fd_from_elements, serve
a W2Algebra and an FDAlgebra alike, through the ambient's product, form
and signed_coords.  A weight-two element keeps its integer components
from its first product or form (``w2``), so fd_from_elements converts
each element once for all its products and forms.  nine_orbit_algebra
and u3a_griess close twisted Ising vectors in coordinates over the 3A
commutant, whose exact table was solved on the lattice, so products and
forms there are the coordinates of the lattice ones.

node_case, e8_side and nine_orbit_algebra build their objects once per
process (per node for node_case) and hand every caller the same ones, so
callers treat them as read-only.  The literal tables are built afresh on
each call and may be changed by their caller.
"""

from fractions import Fraction
from functools import cache
from itertools import islice

from .exact import _cyc_row, _zdiv, _zmul, zeta
from .lattices import (_COXETER, affine_e6, annihilator, build_root_lattice,
                       punctured_components, Sublattice)
from .linalg import _cyc_step, _rationalize, solve_matrix, transpose
from .w2 import W2Element, root_algebra, tilde_omega, coset_sum, CosetCharacter

F = Fraction
_F0 = Fraction(0)

__all__ = [
    "FDAlgebra", "span_closure", "fd_from_elements", "NodeCase", "node_case",
    "g2a_table", "g3a_table", "u3a_table", "u6a_table", "tilde_v_pair",
    "orthogonal_complement_virasoro", "weight2_dimension_census",
    "E8Side", "e8_side", "vnx_griess", "u3a_griess", "nine_orbit_algebra",
]


# ---------------------------------------------------------------------------
# finite-dimensional commutative algebras with invariant form

class FDAlgebra:
    """Structure constants, invariant form, and an optional embedding.

    mult and gram are read into integer tables on the first product or
    form, so they must not change after that.
    """

    def __init__(self, names, mult, gram, space=None, embedding=None):
        self.names = list(names)
        self.dim = len(self.names)
        self.mult = mult
        self.gram = gram
        self.space = space
        self.embedding = embedding
        self._zt = None
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

    def _ztables(self):
        """(mult, sm, gram, sg): the structure constants times sm and the
        form times sg over Z[z], nonzero entries only, as mult[i][j] a tuple
        of (k, x) and gram[i] a tuple of (j, x).  Built on the first product
        or form, from mult and gram as they are then."""
        if self._zt is None:
            n = self.dim
            ints, sm = _cyc_row([c for row in self.mult for cell in row for c in cell])
            it = iter(ints)
            mult = [[tuple((k, x) for k, x in enumerate(islice(it, n)) if x)
                     for _j in range(n)] for _i in range(n)]
            ints, sg = _cyc_row([c for row in self.gram for c in row])
            it = iter(ints)
            gram = [tuple((j, x) for j, x in enumerate(islice(it, n)) if x)
                    for _i in range(n)]
            self._zt = mult, sm, gram, sg
        return self._zt

    def product_vec(self, u, v):
        mult, sm, _gram, _sg = self._ztables()
        uz, su = _cyc_row(u)
        vz, sv = _cyc_row(v)
        vnz = [(j, y) for j, y in enumerate(vz) if y]
        acc = [None] * self.dim
        for i, x in enumerate(uz):
            if not x:
                continue
            cells = mult[i]
            for j, y in vnz:
                cell = cells[j]
                if cell:
                    p = _zmul(x, y)
                    for k, t in cell:
                        q = _zmul(p, t)
                        w = acc[k]
                        acc[k] = q if w is None else (w[0] + q[0], w[1] + q[1],
                                                      w[2] + q[2], w[3] + q[3])
        den = su * sv * sm
        return [_zdiv(w, den) if w and (w[0] or w[1] or w[2] or w[3]) else _F0
                for w in acc]

    def form_vec(self, u, v):
        _mult, _sm, gram, sg = self._ztables()
        uz, su = _cyc_row(u)
        vz, sv = _cyc_row(v)
        t0 = t1 = t2 = t3 = 0
        for i, x in enumerate(uz):
            if not x:
                continue
            for j, g in gram[i]:
                y = vz[j]
                if y:
                    a, b, c, d = _zmul(_zmul(x, y), g)
                    t0 += a
                    t1 += b
                    t2 += c
                    t3 += d
        return _zdiv((t0, t1, t2, t3), su * sv * sg)

    # the ambient protocol of span_closure and fd_from_elements
    product = product_vec
    form = form_vec
    signed_coords = staticmethod(list)

    def is_virasoro(self, u):
        sq = self.product_vec(u, u)
        two_u = [2 * t for t in u]
        ok = any(u) and all(a == b for a, b in zip(sq, two_u))
        return ok, 2 * self.form_vec(u, u)

    def coordinates(self, elems):
        """Coordinates over the embedding of elements of the ambient space,
        one vector per element, from one solve; raises with the index of
        an element outside the span."""
        alg = self.space
        coords, bad = _solve_over([alg.signed_coords(e) for e in self.embedding],
                                  [alg.signed_coords(e) for e in elems])
        if coords is None:
            raise ValueError("element %d is not in the span of the embedding"
                             % bad)
        return coords

    def check_invariance(self):
        """The basis triples (a, b, c), by name, where <a.b, c> = <b, a.c>
        fails; empty when the form is invariant."""
        violations = []
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
                        violations.append(
                            (self.names[i], self.names[j], self.names[k]))
        return violations


class _IncrementalSpan:
    """Forward-eliminated integer rows for fast membership tests.

    Each stored row is a Z[z] row of the ``linalg`` core whose pivot entry
    is a rational integer; a new vector is cleared against the stored rows
    in turn by the core's fraction-free step.
    """

    def __init__(self):
        self.rows = []      # (row, pivot column, pivot) per stored row

    def add(self, v):
        """Reduce v against the span; add and return True if independent."""
        r, _s = _cyc_row(v)
        for row, c, p in self.rows:
            f = r[c]
            if f:
                r = _cyc_step(r, p, f, row, None)
        c = next((k for k, x in enumerate(r) if x), None)
        if c is None:
            return False
        r = _rationalize(r, c, None)
        self.rows.append((r, c, r[c][0]))
        return True


def _solve_over(rows, cols):
    """(coordinates, None): the coordinates of each of cols over rows, from
    one solve; or (None, k) with cols[k] the first column outside their
    span."""
    a = transpose(rows)
    x = solve_matrix(a, transpose(cols))
    if x is not None:
        return transpose(x), None
    return None, next(k for k, col in enumerate(cols)
                      if solve_matrix(a, [[t] for t in col]) is None)


def span_closure(alg, gens):
    """Product-closure of the span of the given elements of alg.

    Independence is tested on alg.signed_coords.  Returns the closed list
    of basis elements: the independent generators first, then whichever
    products escape the running span.  Each product of basis elements is
    computed exactly once.
    """
    span = _IncrementalSpan()
    elems = [g for g in gens if span.add(alg.signed_coords(g))]
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
                if len(elems) > 64:
                    raise ValueError("closure exceeded dimension bound 64")


def fd_from_elements(alg, elems, names, frame_size=None):
    """Extract the structure-constant algebra of a product-closed span of
    elements of alg, a W2Algebra or an FDAlgebra.

    Raises with the offending pair when some product leaves the span.
    When frame_size is given, the first frame_size elements form the
    frame, which is checked on the extracted table: each member must be
    Virasoro, and their sum must act as 2 on every basis element (the
    commutant frame condition).  The embedding keeps the given elements.
    """
    rows = [alg.signed_coords(e) for e in elems]
    dim = len(elems)
    span = _IncrementalSpan()
    for r in rows:
        if not span.add(r):
            raise ValueError("basis elements are linearly dependent")
    keys = [(i, j) for i in range(dim) for j in range(i, dim)]
    products = [alg.signed_coords(alg.product(elems[i], elems[j])) for i, j in keys]
    # one batched solve: the products expressed over the span
    coords, bad = _solve_over(rows, products)
    if coords is None:
        i, j = keys[bad]
        raise ValueError("product %s . %s leaves the span" % (names[i], names[j]))
    mult = [[None] * dim for _ in range(dim)]
    gram = [[None] * dim for _ in range(dim)]
    for (i, j), c in zip(keys, coords):
        mult[i][j] = mult[j][i] = c
        gram[i][j] = gram[j][i] = alg.form(elems[i], elems[j])
    fd = FDAlgebra(names, mult, gram, space=alg, embedding=elems)
    if frame_size is not None:
        for name in names[:frame_size]:
            if not fd.is_virasoro(fd.element(name))[0]:
                raise AssertionError("frame member %s is not Virasoro" % name)
        total = [F(int(k < frame_size)) for k in range(dim)]
        for name in names:
            e = fd.element(name)
            if fd.product_vec(total, e) != [2 * t for t in e]:
                raise ValueError("frame sum does not act as 2 on %s" % name)
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
    """One node of the affine E6 diagram with its commutant algebra fd and
    rho, the character of E6 modulo the node sublattice."""

    def __init__(self, node):
        if node not in _NODE_INDEX:
            raise ValueError("node must be one of 1A, 2A, 3A")
        self.node = node
        self.alg = root_algebra("E", 6)
        aff = affine_e6()
        i = _NODE_INDEX[node]
        self.mark = aff.mark(i)
        self.fd, self.rho, n = _commutant(self.alg, aff.node_root, i)
        self.frame, self.xs = self.fd.embedding[:n], self.fd.embedding[n:]


def _frame_vectors(alg, components):
    """tilde_omega over the scaled roots of each (rows, kind, n) component."""
    return [tilde_omega(alg, alg.scaled_roots(rows), _COXETER[kind](n))
            for rows, kind, n in components]


def _commutant(alg, root, i, head=(), head_rows=()):
    """The commutant algebra at node i of the affine E6 diagram, with
    root(j) the node root j in the coordinates of alg's lattice.

    The frame is head followed by the frame vectors of the punctured
    diagram's components; the coset sums run over the nonzero classes of
    alg's lattice modulo head_rows and the other node roots, in sorted
    order, named X when there is one class and X<class digits> otherwise.
    Returns (FDAlgebra, chi, frame length), with chi the character of that
    quotient, so at a cyclic quotient of order m chi multiplies X1 by zeta_m.
    """
    chi = CosetCharacter(alg, list(head_rows) + [root(j) for j in range(7) if j != i])
    frame = list(head) + _frame_vectors(alg, [
        ([root(j) for j in nodes], kind, n)
        for nodes, kind, n in punctured_components(i)])
    classes = sorted(set(map(chi.classify, alg.vectors4)) - {(0,) * len(chi.moduli)})
    names = ["w%d" % (s + 1) for s in range(len(frame))]
    names += ["X" + "".join(map(str, cls)) if len(classes) > 1 else "X"
              for cls in classes]
    xs = [coset_sum(alg, chi.classify, cls) for cls in classes]
    fd = fd_from_elements(alg, frame + xs, names, frame_size=len(frame))
    return fd, chi, len(frame)


@cache
def node_case(node):
    return NodeCase(node)


def tilde_v_pair(case):
    """(v, v') = (tilde_omega of the full E6, its character twist).

    v is the lattice construction; suite_commutant compares it with the
    closed-form coefficients over the node basis (_closed_form_v).
    """
    alg = case.alg
    v = tilde_omega(alg, alg.vectors4, 12)
    return v, case.rho.apply(v)


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
    """At the 2A node: the Virasoro vector completing v inside w1 + w2, as
    a fixed combination; suite_commutant checks its Virasoro data."""
    if case.node != "2A":
        raise ValueError("complement vector is a 2A-node construction")
    return case.fd.combo(w1=F(5, 7), w2=F(3, 7), X=-F(1, 14))


def weight2_dimension_census(case):
    """(expected, computed) commutant weight-two dimension for the node."""
    return {"1A": 1, "2A": 3, "3A": 5}[case.node], case.fd.dim


# ---------------------------------------------------------------------------
# the E8-side: Q + E6 inside the root-basis E8

class E8Side:
    """The root-basis sqrt(2)E8 weight-two algebra with its fixed A2 + E6
    split: E6 on the simple roots 0..5, whose diagram is affine_e6's, and
    Q = A2 its annihilator."""

    def __init__(self):
        self.e8 = e8 = build_root_lattice("E", 8)
        self.alg = root_algebra("E", 8)
        self.e6_sub = Sublattice(e8, [[int(i == k) for i in range(8)]
                                      for k in range(6)])
        self.aff = affine_e6()
        if self.e6_sub.gram() != self.aff.lattice.gram:
            raise AssertionError("simple roots 0..5 of E8 are not affine_e6's E6")
        self.q_sub = annihilator(e8, self.e6_sub)
        if self.q_sub.rank != 2:
            raise AssertionError("annihilator of E6 is not rank 2")
        self.ehat = tilde_omega(self.alg, self.alg.vectors4, 30)
        # the frame of the A2 + E6 split
        self.omega_q, self.omega_e6 = _frame_vectors(
            self.alg, [(self.q_sub.basis, "A", 2), (self.e6_sub.basis, "E", 6)])

    def node_image(self, j):
        """The affine E6 node root j in E8 coordinates."""
        return self.aff.node_root(j) + (0, 0)


@cache
def e8_side():
    return E8Side()


def vnx_griess(node):
    """The E8-side commutant algebra of a node: frame + coset sums.

    Dimensions 4, 8, 12 for 1A, 2A, 3A.  Returns (FDAlgebra, side, chi)
    with the frame ordered Q first, then the node components by rank, and
    chi the character of E8 modulo Q + the node sublattice.
    """
    side = e8_side()
    fd, chi, _n = _commutant(side.alg, side.node_image, _NODE_INDEX[node],
                             head=[side.omega_q], head_rows=side.q_sub.basis)
    return fd, side, chi


def u3a_griess():
    """The 3A dihedral Griess algebra from the orbit (u3a_table is the
    literal table), and the dimension of the orbit's closure; the u3a-orbit
    suite checks both.

    The orbit e, eta e, eta^2 e of the special Ising vector e, with eta the
    character of the 3A quotient that is trivial on E6 (simple roots 0..5)
    and zeta_3 on simple root 6, is closed in coordinates over the 3A
    commutant.  The basis (w1, w2, X+, X-) comes from the Fourier sums
    s = e + eta e + eta^2 e and X+- = 32/3 (e + zeta_3^-+ eta e +
    zeta_3^+- eta^2 e); the table is symmetric under X+ <-> X-, so eta's
    value on root 6 is what tells them apart.
    """
    fd12, _dim, chi, orbit = nine_orbit_algebra()
    simple = [tuple(int(i == k) for i in range(8)) for k in range(7)]
    a, b = next((a, b) for a in range(3) for b in range(3)
                if [chi.with_weights((a, b)).exponent_of(r) for r in simple]
                == [0] * 6 + [1])
    # orbit[3a + b] is the vector twisted by the weights (a, b)
    e0, e1, e2 = orbit[0], orbit[3 * a + b], orbit[3 * (2 * a % 3) + 2 * b % 3]
    closed = span_closure(fd12, [e0, e1, e2])
    z, z2 = zeta(3), zeta(3, 2)
    s = [x + y + t for x, y, t in zip(e0, e1, e2)]
    xp = [F(32, 3) * (x + z2 * y + z * t) for x, y, t in zip(e0, e1, e2)]
    xm = [F(32, 3) * (x + z * y + z2 * t) for x, y, t in zip(e0, e1, e2)]
    # solve for w1, w2 from  s = 3(5/32 w1 + 7/16 w2)
    # and  X+ . X- = 135 w1 + 252 w2
    pp = fd12.product_vec(xp, xm)
    det = F(15, 32) * 252 - F(21, 16) * 135
    w1 = [(252 * x - F(21, 16) * y) / det for x, y in zip(s, pp)]
    w2 = [(F(15, 32) * y - 135 * x) / det for x, y in zip(s, pp)]
    fd = fd_from_elements(fd12, [w1, w2, xp, xm], ["w1", "w2", "Xp", "Xm"])
    return fd, len(closed)


@cache
def nine_orbit_algebra():
    """Closure of the full 3^2-character orbit of the special Ising vector.

    The nine twisted Ising vectors are expressed in the (product-closed,
    lattice-verified) 3A-node commutant and their span is closed there in
    coordinates; when the closure has dimension 12 it is the whole
    algebra, so the lattice-level closure of the orbit is exactly that
    commutant.  Returns (FDAlgebra, closure dimension, chi, orbit_coords),
    with chi the character of the 3A quotient and orbit_coords[3a + b] the
    vector twisted by chi.with_weights((a, b)); the involutions-e8-orbit
    suite checks the dimension.  Computed once per process, like e8_side.
    """
    fd12, side, chi = vnx_griess("3A")
    if chi.moduli != (3, 3):
        raise AssertionError("3A quotient is not 3 x 3")
    # the nine twisted vectors, solved for over the 3A basis in one system
    orbit = fd12.coordinates([chi.with_weights((a, b)).apply(side.ehat)
                              for a in range(3) for b in range(3)])
    # close the span of the nine coordinate vectors under the table product
    closed = span_closure(fd12, orbit)
    return fd12, len(closed), chi, orbit
