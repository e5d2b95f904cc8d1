"""Commutant Griess algebras of the affine E6 nodes, and their E8-side models.

For a node of the affine E6 diagram with deleted-node sublattice L and
mark m, the commutant's weight-two space inside the sqrt(2)E6 algebra is
spanned by the component Virasoro vectors w^s = tilde_omega(R_s) together
with the coset sums X^r over the nonzero classes of E6/L.  The same recipe
inside sqrt(2)E8, applied to Q + L with Q the A2 annihilator of a fixed
E6, yields the finite-dimensional algebras of dimension 4, 8 and 12 that
model the node pairs; all of them are extracted as explicit
structure-constant algebras and checked for closure on the nose.  Both
sides take the components from ``lattices.punctured_components`` and
build their frames with one helper, _frame, which checks each frame
vector is Virasoro and computes its central charge.  The E8 side builds
omega_Q and omega_E6, the frame of its A2 + E6 split, once; vnx_griess
takes omega_Q and its computed charge from it.  An element of the
ambient space is expressed over an algebra's basis by
FDAlgebra.coordinates.

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
closure routine, span_closure, serves weight-two elements and coordinate
vectors alike: the caller passes the product and the coordinate map.
A weight-two element keeps its integer components from its first product
or form (``w2``), so fd_from_elements converts each element once for all
its products and forms.
u3a_griess closes the orbit of the special Ising vector under the order-3
character in the character's eigenbasis, where the three spanning vectors
are rational, instead of on the three twisted Q(z) vectors.

node_case, e8_side and nine_orbit_algebra build their objects once per
process (per node for node_case) and hand every caller the same ones, so
callers treat them as read-only.  The literal tables are built afresh on
each call and may be changed by their caller.
"""

from fractions import Fraction
from functools import cache
from itertools import islice, product as iproduct

from .exact import _cyc_row, _zdiv, _zmul
from .lattices import (_COXETER, affine_e6, annihilator, build_root_lattice,
                       punctured_components, quotient_structure, Sublattice)
from .linalg import _cyc_step, _rationalize, solve_matrix, transpose
from .w2 import (W2Element, root_algebra, tilde_omega, coset_sum,
                 virasoro_check, CosetCharacter)

F = Fraction
_F0 = Fraction(0)

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


def span_closure(product, coords, gens, max_dim=64):
    """Product-closure of the span of the given elements.

    product multiplies two elements and coords gives an element's
    coordinate vector, against which independence is tested.  Returns the
    closed list of basis elements: the independent generators first, then
    whichever products escape the running span.  Each product of basis
    elements is computed exactly once.
    """
    span = _IncrementalSpan()
    elems = [g for g in gens if span.add(coords(g))]
    done = set()
    while True:
        n = len(elems)
        todo = [(i, j) for i in range(n) for j in range(i, n)
                if (i, j) not in done]
        if not todo:
            return elems
        for i, j in todo:
            done.add((i, j))
            p = product(elems[i], elems[j])
            if span.add(coords(p)):
                elems.append(p)
                if len(elems) > max_dim:
                    raise ValueError("closure exceeded dimension bound %d" % max_dim)


def fd_from_elements(alg, elems, names, frame_size=None):
    """Extract the structure-constant algebra of a product-closed span.

    Raises with the offending pair when some product leaves the span.
    When frame_size is given, the sum of the first frame_size elements
    must act as 2 on every basis element (the commutant frame condition).
    The embedding keeps the given elements.
    """
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
    # one batched solve: the products expressed over the span
    keys = sorted(products)
    coords, bad = _solve_over(rows, [alg.signed_coords(products[k]) for k in keys])
    if coords is None:
        i, j = keys[bad]
        raise ValueError("product %s . %s leaves the span" % (names[i], names[j]))
    mult = [[None] * dim for _ in range(dim)]
    for (i, j), c in zip(keys, coords):
        mult[i][j] = mult[j][i] = c
    gram = [[alg.form(elems[i], elems[j]) for j in range(dim)] for i in range(dim)]
    fd = FDAlgebra(names, mult, gram, space=alg, embedding=elems)
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
        self.alg = root_algebra("E", 6)
        i = _NODE_INDEX[node]
        self.mark = self.aff.mark(i)
        self.node_root = self.aff.node_root(i)
        self.sub = Sublattice(self.alg.lattice, [list(self.aff.node_root(j))
                                                 for j in range(7) if j != i])
        self.moduli, self.classify = quotient_structure(self.sub)
        self.frame, self.frame_charges = _frame(self.alg, [
            ([list(self.aff.node_root(j)) for j in nodes], kind, n)
            for nodes, kind, n in punctured_components(i)])
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


def _frame_vectors(alg, components):
    """tilde_omega over the scaled roots of each (rows, kind, n) component."""
    return [tilde_omega(alg, alg.scaled_roots(rows), _COXETER[kind](n))
            for rows, kind, n in components]


def _frame(alg, components, vectors=None):
    """(vectors, charges): the frame vectors of the (rows, kind, n)
    components (built here unless given), each with its central charge;
    raises naming the first component whose vector is not Virasoro."""
    if vectors is None:
        vectors = _frame_vectors(alg, components)
    charges = []
    for s, (w, (_rows, kind, n)) in enumerate(zip(vectors, components)):
        ok, c = virasoro_check(alg, w)
        if not ok:
            raise AssertionError("frame member %d (%s%d) is not Virasoro"
                                 % (s + 1, kind, n))
        charges.append(c)
    return vectors, charges


@cache
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
    from .linalg import kernel, rank as qrank
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
    _coords, bad = _solve_over(rows, ker)
    if bad is not None:
        raise AssertionError("kernel vector %d escapes the commutant basis" % bad)
    return len(ker), c


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
    expected = {"1A": 1, "2A": 3, "3A": 5}[case.node]
    ell = len(case.frame)
    computed = case.fd.dim
    if computed != ell + case.mark - 1:
        raise AssertionError("census mismatch: dim %d vs l + m - 1 = %d"
                             % (computed, ell + case.mark - 1))
    return expected, computed


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
        # the frame of the A2 + E6 split; split_charge checks each charge on
        # first use, since the first product of the algebra builds its table
        self.split = [(self.q_sub.basis, "A", 2), (self.e6_sub.basis, "E", 6)]
        self.omega_q, self.omega_e6 = _frame_vectors(self.alg, self.split)

    @cache
    def split_charge(self, k):
        """The central charge of omega_Q (k = 0, 4/5) or omega_E6 (k = 1,
        6/7), computed through _frame once per process."""
        w = (self.omega_q, self.omega_e6)[k]
        return _frame(self.alg, [self.split[k]], [w])[1][0]

    def node_image(self, j):
        """The affine E6 node root j in E8 coordinates."""
        return self.aff.node_root(j) + (0, 0)

    def ltilde_rows(self, node):
        i = _NODE_INDEX[node]
        rows = [list(r) for r in self.q_sub.basis]
        rows += [list(self.node_image(j)) for j in range(7) if j != i]
        return rows

    def character(self, sub_rows, orders):
        """The first coset character of the quotient by sub_rows, in the
        order of its weight tuples, whose order is the given one."""
        base = CosetCharacter(self.alg, sub_rows)
        for w in iproduct(*[range(m) for m in base.moduli]):
            chi = base.with_weights(w)
            if chi.order() == orders:
                return chi
        raise ValueError("no character of order %d" % orders)


@cache
def e8_side():
    return E8Side()


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
    frame, charges = _frame(alg, [
        ([list(side.node_image(j)) for j in nodes], kind, n)
        for nodes, kind, n in punctured_components(_NODE_INDEX[node])])
    # Q first, then the components of the punctured diagram
    frame = [side.omega_q] + frame
    charges = [side.split_charge(0)] + charges
    classes = sorted(set(classify(v) for v in alg.vectors4) - {tuple(0 for _ in moduli)})
    xs = [coset_sum(alg, classify, cls) for cls in classes]
    names = ["w%d" % (s + 1) for s in range(len(frame))]
    names += ["X%s" % ("".join(map(str, cls)) if len(cls) > 1 else cls[0])
              for cls in classes]
    fd = fd_from_elements(alg, frame + xs, names, frame_size=len(frame))
    return fd, side, (sub, moduli, classify, classes, charges)


def u3a_griess():
    """The 3A dihedral Griess algebra from the orbit (u3a_table is the
    literal table).

    It closes span{e, chi e, chi^2 e} for the special Ising vector
    e of sqrt(2)E8 and the order-3 character chi of E8/(A2 + E6), checks
    the closure is four-dimensional, and returns the algebra on the basis
    (w1, w2, X+, X-) recovered from the orbit.  Its structure constants are
    computed, not compared: the u3a-orbit suite checks them against the
    table.

    The orbit is closed in chi's eigenbasis.  With P_k(e) the part of e on
    which chi is zeta_3^k (chi.eigen_parts), chi^i e = sum_k zeta_3^(ik)
    P_k(e); the Vandermonde matrix of zeta_3 is invertible, so the orbit
    spans what P_0(e), P_1(e), P_2(e) span, and the Fourier sums are
    s = e + chi e + chi^2 e = 3 P_0(e) and
    X+- = 32/3 (e + zeta_3^-+ chi e + zeta_3^+- chi^2 e) = 32 P_1(e), 32 P_2(e).
    These are rational, with 78 or 81 exponentials each, so each closure
    product is one integer kernel over a third of the orbit vectors.
    """
    side = e8_side()
    alg = side.alg
    rows = [list(r) for r in side.q_sub.basis] + [list(r) for r in side.e6_sub.basis]
    eta = side.character(rows, orders=3)
    p0, p1, p2 = eta.eigen_parts(side.ehat)
    s = p0.scale(3)
    xp = p1.scale(32)
    xm = p2.scale(32)
    closed = span_closure(alg.product, alg.signed_coords, [s, xp, xm])
    if len(closed) != 4:
        raise ValueError("orbit closure has dimension %d, expected 4" % len(closed))
    # solve for w1, w2 from  s = e + chi e + chi^2 e = 3(5/32 w1 + 7/16 w2)
    # and  X+ . X- = 135 w1 + 252 w2
    pp = alg.product(xp, xm)
    det = F(15, 32) * 252 - F(21, 16) * 135
    w1 = (s.scale(F(252)) - pp.scale(F(21, 16))).scale(1 / det)
    w2 = (pp.scale(F(15, 32)) - s.scale(F(135))).scale(1 / det)
    if alg.product(xp, xp) != xm.scale(F(20)):
        xp, xm = xm, xp
    elems = [w1, w2, xp, xm]
    return fd_from_elements(alg, elems, ["w1", "w2", "Xp", "Xm"])


@cache
def nine_orbit_algebra():
    """Closure of the full 3^2-character orbit of the special Ising vector.

    The nine twisted Ising vectors are expressed in the (product-closed,
    lattice-verified) 3A-node commutant and their span is closed there in
    coordinates; the result is the whole 12-dimensional algebra, so the
    lattice-level closure of the orbit is exactly that commutant.
    Returns (FDAlgebra, side, (chi1, chi2), orbit_coords); computed once
    per process, like e8_side.
    """
    side = e8_side()
    alg = side.alg
    k_rows = side.ltilde_rows("3A")
    base = CosetCharacter(alg, k_rows)
    if base.moduli != (3, 3):
        raise AssertionError("3A quotient is not 3 x 3")
    chi1 = base.with_weights((1, 0))
    chi2 = base.with_weights((0, 1))
    fd12, _side, _data = vnx_griess("3A")
    # the nine twisted vectors, solved for over the 3A basis in one system
    orbit = fd12.coordinates([base.with_weights((a, b)).apply(side.ehat)
                              for a in range(3) for b in range(3)])
    # close the span of the nine coordinate vectors under the table product
    elems = span_closure(fd12.product_vec, list, orbit)
    if len(elems) != 12:
        raise ValueError("nine-vector closure has dimension %d" % len(elems))
    return fd12, side, (chi1, chi2), orbit
