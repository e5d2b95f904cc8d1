"""The theta-even weight-two algebra of a sqrt(2)-scaled root lattice.

For a doubly even lattice M (all norms in 4Z, all pairings even) the
weight-two space is spanned by Heisenberg quadratics b_i(-1)b_j(-1),
single modes b_i(-2), and exponentials e^beta over the norm-4 vectors.
The theta-even part keeps the quadratics and the symmetric combinations
e^beta + e^{-beta}; there the degree-one product a.b and the normalized
bilinear form make a commutative algebra with invariant form (the Griess
product of the fixed-point subalgebra).

Elements store signed exponentials, because coset sums and character
twists of even vectors are not individually theta-even; products track
the antisymmetric b(-2) residue of e^beta . e^{-beta} exactly, so any
failure of a claimed subspace to close is visible rather than projected
away.  The product case table (with the trivial two-cocycle, admissible
because all pairings are even):

    (b b') . (c c') = <b,c> b'c' + <b,c'> b'c + <b',c> b c' + <b',c'> b c
    (b b') . e^beta = <b,beta><b',beta> e^beta      (both orders)
    e^beta . e^gamma = e^{beta+gamma}               if <beta,gamma> = -2
    e^beta . e^-beta = beta(-1)^2/2 + beta(-2)/2
    e^beta . e^gamma = 0                            if <beta,gamma> >= 0
    (b b') . c(-2)   = 2 <b,c> b'(-2) + 2 <b',c> b(-2)
    e^beta . c(-2)   = -<c,beta> e^beta
    b(-2) . c(-2)    = 0

and the form: <b b', c c'> = <b,c><b',c'> + <b,c'><b',c>, exponentials
pair by <e^beta, e^gamma> = delta_{beta+gamma,0}, mixed pairs vanish,
<b(-2), c(-2)> = 2 <b,c>.  The d2 cases follow from sliding the degree
shift through the translation operator; the conformal vector acting as 2
on b(-2) pins them down.

The product and the form run on plain ints.  Each operand's coefficients
(int, Fraction or CycNum) are scaled by one rational into Z[z] and split
by powers of z: up to four components, one per z^p (p = 0..3), each holding
int dicts for the heis, exps and d2 parts, the exps keyed by index into
``vectors4``.  One integer kernel runs the case table on a pair of
components at twice its value, so the 1/2 of e^beta . e^-beta stays
integral; the product adds each pair's result times z^(p+q) and divides
each output entry once at the end, to a Fraction when it is rational and a
CycNum otherwise.  A rational operand has one component, a zeta_3-valued
one two (z^0 and z^2).  Z[z] is a ring and each scale is one exact
rational, so the result equals the term-by-term sum over Q(z).  The
columns of an adjoint matrix skip the W2Element: product_coords writes
the class coordinates straight from the integer sums, after checking that
the b(-2) part vanishes and that e^beta and e^-beta carry equal values.
An element keeps its components from its first product or form in an
algebra (W2Element._z), so an operand of many products, such as v in the
columns of ad(v), is converted once; its parts must not change after that.

short_vectors puts each norm-4 vector just before its negative, so the
negative of vectors4[i] is vectors4[i ^ 1]; the form pairs index i with
i ^ 1.  class_coords reads the theta-even coordinates off signed_coords:
the element is theta-even when its b(-2) part vanishes and the even and
odd indices of its exponentials carry equal values.  The
exponential-exponential case walks a neighbour table built on the first
such product: for each norm-4 beta, the indices of the gamma with
<beta, gamma> = -2 and of each beta + gamma (56 of them for sqrt(2)E8).
Only the rows of the even indices are computed; the row of -beta is the
row of beta with every index negated by ^ 1.  The walk runs over the
smaller operand's exponentials and looks each neighbour up in the other,
so pairs with <beta, gamma> >= 0, which contribute nothing, are never
visited.

root_algebra builds each root lattice's algebra once per process and hands
every caller the same object, which callers therefore treat as read-only.
"""

from copy import copy
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, mul

from .exact import CycNum, _ZPOW, _zdiv, zeta
from .intmat import int_matvec
from .lattices import (build_root_lattice, short_vectors, Sublattice,
                       quotient_structure)
from .linalg import inverse as q_inverse, transpose

__all__ = ["W2Algebra", "W2Element", "root_algebra", "conformal_vector",
           "tilde_omega", "coset_sum", "virasoro_check", "CosetCharacter"]

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)


class W2Element:
    """Sparse weight-two vector: Heisenberg pairs, signed exponentials, b(-2) part.

    _z holds (alg, integer components) from the element's last algebra
    (W2Algebra._zform), so its parts must not change once it has been used
    in a product or form; every operation here builds a new element.
    """

    __slots__ = ("heis", "exps", "d2", "_z")

    def __init__(self, heis=None, exps=None, d2=None):
        self.heis = {k: v for k, v in (heis or {}).items() if v}
        self.exps = {k: v for k, v in (exps or {}).items() if v}
        self.d2 = {k: v for k, v in (d2 or {}).items() if v}
        self._z = None

    def __add__(self, other):
        h = dict(self.heis)
        e = dict(self.exps)
        d = dict(self.d2)
        for k, v in other.heis.items():
            h[k] = h.get(k, _F0) + v
        for k, v in other.exps.items():
            e[k] = e.get(k, _F0) + v
        for k, v in other.d2.items():
            d[k] = d.get(k, _F0) + v
        return W2Element(h, e, d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return W2Element({k: -v for k, v in self.heis.items()},
                         {k: -v for k, v in self.exps.items()},
                         {k: -v for k, v in self.d2.items()})

    def scale(self, c):
        if not c:
            return W2Element()
        return W2Element({k: c * v for k, v in self.heis.items()},
                         {k: c * v for k, v in self.exps.items()},
                         {k: c * v for k, v in self.d2.items()})

    def __eq__(self, other):
        if not isinstance(other, W2Element):
            return NotImplemented
        return (self.heis == other.heis and self.exps == other.exps
                and self.d2 == other.d2)

    def theta(self):
        """The lift of the -1 isometry: e^beta -> e^-beta, b(-2) -> -b(-2)."""
        return W2Element(dict(self.heis),
                         {tuple(-t for t in k): v for k, v in self.exps.items()},
                         {k: -v for k, v in self.d2.items()})

    def is_theta_even(self):
        return self.theta() == self

    def __repr__(self):
        bits = []
        for (i, j), v in sorted(self.heis.items()):
            bits.append("%r*h%d h%d" % (v, i, j))
        if self.exps:
            bits.append("+%d exp terms" % len(self.exps))
        if self.d2:
            bits.append("+d2 part")
        return "W2Element(%s)" % "; ".join(bits)


def _sums(outs, n):
    """Part n of the sums outs, {r: (heis, exps, d2)} of int dicts for the
    powers z^r, as one dict of Z[z] values [a, b, c, d]."""
    acc = {}
    for r, out in outs.items():
        z0, z1, z2, z3 = _ZPOW[r]
        for k, v in out[n].items():
            if v:
                w = acc.get(k)
                if w is None:
                    acc[k] = [v * z0, v * z1, v * z2, v * z3]
                else:
                    w[0] += v * z0
                    w[1] += v * z1
                    w[2] += v * z2
                    w[3] += v * z3
    return acc


_Z0 = [0, 0, 0, 0]


class W2Algebra:
    """The weight-two machinery of one doubly even lattice."""

    def __init__(self, lattice):
        self.lattice = lattice
        self.rank = lattice.rank
        self.name = lattice.name and "W2(%s)" % lattice.name
        g = lattice.gram
        for i in range(self.rank):
            if g[i][i] % 4:
                raise ValueError("lattice is not doubly even")
            for j in range(self.rank):
                if g[i][j] % 2:
                    raise ValueError("lattice is not doubly even")
        # a diagonal in 4Z and even pairings put every norm in 4Z, so the
        # lattice has no roots (norm 2) and needs no root check
        self.vectors4 = vecs = short_vectors(lattice, 4)
        # short_vectors puts each v just before -v, so -vectors4[i] is
        # vectors4[i ^ 1]; the classes are the even indices
        self.classes = vecs[::2]
        if vecs[1::2] != [tuple(-t for t in v) for v in self.classes]:
            raise AssertionError("vectors4[i ^ 1] must be -vectors4[i]")
        self.heis_pairs = [(i, j) for i in range(self.rank)
                           for j in range(i, self.rank)]
        self.heis_index = {p: k for k, p in enumerate(self.heis_pairs)}
        self.dim = len(self.heis_pairs) + len(self.classes)
        self._pos = {v: i for i, v in enumerate(vecs)}
        # the pairings of each norm-4 vector with the basis, by index
        self._gb = [tuple(sum(map(mul, row, v)) for row in g) for v in vecs]
        self._nbrs = None

    # -- bases -------------------------------------------------------------

    def basis_element(self, k):
        """k-th theta-even basis vector: Heisenberg pairs first, then classes."""
        nh = len(self.heis_pairs)
        if k < nh:
            return W2Element({self.heis_pairs[k]: _F1})
        i = 2 * (k - nh)
        return W2Element(exps={self.vectors4[i]: _F1, self.vectors4[i + 1]: _F1})

    def class_coords(self, elem):
        """Coordinates over the theta-even basis, read off signed_coords;
        requires a theta-even element."""
        c = self.signed_coords(elem)
        nh, n4 = len(self.heis_pairs), len(self.vectors4)
        ex = c[nh:nh + n4]
        if any(c[nh + n4:]) or ex[::2] != ex[1::2]:
            raise ValueError("element is not theta-even")
        return c[:nh] + ex[::2]

    def from_class_coords(self, coords):
        heis = {}
        exps = {}
        nh = len(self.heis_pairs)
        vecs = self.vectors4
        for k, c in enumerate(coords):
            if not c:
                continue
            if k < nh:
                heis[self.heis_pairs[k]] = c
            else:
                i = 2 * (k - nh)
                exps[vecs[i]] = exps[vecs[i + 1]] = c
        return W2Element(heis, exps)

    def signed_coords(self, elem):
        """Coordinates over the full signed spanning set (for span
        arithmetic): Heisenberg pairs, the exponentials in the order of
        vectors4, then the b(-2) modes."""
        nh = len(self.heis_pairs)
        base = nh + len(self.vectors4)
        out = [_F0] * (base + self.rank)
        for k, v in elem.heis.items():
            out[self.heis_index[k]] = v
        for i, v in zip(self._indices(elem.exps), elem.exps.values()):
            out[nh + i] = v
        for i, v in elem.d2.items():
            out[base + i] = v
        return out

    # -- product and form ----------------------------------------------------

    def _indices(self, exps):
        """The indices into vectors4 of the exponential keys; raises on a key
        that is not a norm-4 vector of the lattice."""
        pos = self._pos
        try:
            return [pos[k] for k in exps]
        except KeyError as err:
            raise ValueError("exponential key %r is not a norm-4 vector of %s"
                             % (err.args[0], self.name or "the lattice")) from None

    def _zform(self, elem):
        """(comps, s): elem times one positive rational s, split by powers of
        z.  comps lists (p, (heis, exps, d2)) for the p in 0..3 whose
        component is not zero, each part an int dict, exps keyed by index
        into vectors4; elem * s is the sum of the components times z^p.
        Kept on elem for its later products and forms in this algebra."""
        z = elem._z
        if z is not None and z[0] is self:
            return z[1]
        parts = (elem.heis,
                 dict(zip(self._indices(elem.exps), elem.exps.values())),
                 elem.d2)
        d = lcm(*[q.denominator for part in parts for x in part.values()
                  for q in (x.co if type(x) is CycNum else (x,))])
        comps = tuple(({}, {}, {}) for _ in range(4))
        for n, part in enumerate(parts):
            for k, x in part.items():
                if type(x) is CycNum:
                    for p, q in enumerate(x.co):
                        if q:
                            comps[p][n][k] = q.numerator * (d // q.denominator)
                else:
                    comps[0][n][k] = x.numerator * (d // x.denominator)
        out = [(p, c) for p, c in enumerate(comps) if any(c)], Fraction(d)
        elem._z = self, out
        return out

    def _neighbours(self):
        """Row i is (gammas, keys): the indices into vectors4 of the gamma
        with <beta, gamma> = -2 for beta = vectors4[i], and of each
        beta + gamma.  The even rows are computed; row i ^ 1, of -beta, is
        row i with every index negated by ^ 1.  Built on the first product
        of two exponential parts."""
        if self._nbrs is None:
            vecs, pos = self.vectors4, self._pos
            rows = []
            for i in range(0, len(vecs), 2):
                beta, gb = vecs[i], self._gb[i]
                gammas, keys = [], []
                for j, gamma in enumerate(vecs):
                    p = sum(map(mul, gb, gamma))
                    if p == -2:
                        gammas.append(j)
                        keys.append(pos[tuple(map(add, beta, gamma))])
                    elif p == -4 and j != i ^ 1:
                        raise AssertionError("pairing -4 must mean gamma = -beta")
                rows.append((tuple(gammas), tuple(keys)))
                rows.append((tuple(j ^ 1 for j in gammas), tuple(k ^ 1 for k in keys)))
            self._nbrs = rows
        return self._nbrs

    def _kernel(self, a, b, out):
        """Add twice the product of the integer components a and b, each
        (heis, exps, d2), into out = (heis, exps, d2)."""
        ah, ae, ad = a
        bh, be, bd = b
        oh, oe, od = out
        g = self.lattice.gram
        for dd, hh in ((ad, bh), (bd, ah)):
            for i, x in dd.items():
                gi = g[i]
                for (k, l), y in hh.items():
                    s = 4 * x * y
                    if gi[k]:
                        od[l] = od.get(l, 0) + gi[k] * s
                    if gi[l]:
                        od[k] = od.get(k, 0) + gi[l] * s
        if ah and bh:
            for (i, j), x in ah.items():
                gi, gj = g[i], g[j]
                for (k, l), y in bh.items():
                    s = 2 * x * y
                    c = gi[k]
                    if c:
                        key = (j, l) if j <= l else (l, j)
                        oh[key] = oh.get(key, 0) + c * s
                    c = gi[l]
                    if c:
                        key = (j, k) if j <= k else (k, j)
                        oh[key] = oh.get(key, 0) + c * s
                    c = gj[k]
                    if c:
                        key = (i, l) if i <= l else (l, i)
                        oh[key] = oh.get(key, 0) + c * s
                    c = gj[l]
                    if c:
                        key = (i, k) if i <= k else (k, i)
                        oh[key] = oh.get(key, 0) + c * s
        # (b b') . e^beta and c(-2) . e^beta are e^beta times a weight of
        # beta: sum x_ij <b_i,beta><b_j,beta> - sum x_i <b_i,beta>
        for hh, dd, ee in ((ah, ad, be), (bh, bd, ae)):
            if ee and (hh or dd):
                gbs = self._gb
                for beta, y in ee.items():
                    gb = gbs[beta]
                    w = 0
                    for (i, j), x in hh.items():
                        w += gb[i] * gb[j] * x
                    for i, x in dd.items():
                        w -= gb[i] * x
                    if w:
                        oe[beta] = oe.get(beta, 0) + 2 * w * y
        if ae and be:
            # walk the neighbours of the smaller part; the d2 term of
            # e^beta . e^-beta is odd in beta, so it flips with the order
            if len(ae) <= len(be):
                outer, inner, sign = ae, be, 1
            else:
                outer, inner, sign = be, ae, -1
            nbrs, vecs = self._neighbours(), self.vectors4
            get = inner.get
            for beta, x in outer.items():
                x2 = 2 * x
                gammas, keys = nbrs[beta]
                for key, y in zip(keys, map(get, gammas)):
                    if y is not None:
                        oe[key] = oe.get(key, 0) + x2 * y
                y = inner.get(beta ^ 1)
                if y is not None:
                    s = x * y
                    nz = [(i, t) for i, t in enumerate(vecs[beta]) if t]
                    for n, (i, bi) in enumerate(nz):
                        od[i] = od.get(i, 0) + sign * bi * s
                        oh[(i, i)] = oh.get((i, i), 0) + bi * bi * s
                        for j, bj in nz[n + 1:]:
                            oh[(i, j)] = oh.get((i, j), 0) + 2 * bi * bj * s

    def _zproduct(self, a, b):
        """((heis, exps, d2), den): the parts of a . b times den, as dicts
        of Z[z] values, exps keyed by index into vectors4.

        Each pair of components, of powers z^p and z^q, goes through one
        integer kernel into the sum for z^(p+q), kept at twice its value so
        the 1/2 of e^beta . e^-beta stays integral.
        """
        ca, sa = self._zform(a)
        cb, sb = self._zform(b)
        outs = {}
        for p, x in ca:
            for q, y in cb:
                out = outs.get(p + q)
                if out is None:
                    out = outs[p + q] = ({}, {}, {})
                self._kernel(x, y, out)
        return [_sums(outs, n) for n in range(3)], 2 * sa * sb

    def product(self, a, b):
        """The weight-two component of the degree-one product a . b, each
        entry divided once."""
        (heis, exps, d2), den = self._zproduct(a, b)
        vecs = self.vectors4
        return W2Element({k: _zdiv(w, den) for k, w in heis.items()},
                         {vecs[k]: _zdiv(w, den) for k, w in exps.items()},
                         {k: _zdiv(w, den) for k, w in d2.items()})

    def product_coords(self, a, b):
        """class_coords(product(a, b)), written from the integer sums, each
        entry divided once; raises ValueError unless a . b is theta-even."""
        (heis, exps, d2), den = self._zproduct(a, b)
        if (any(map(any, d2.values()))
                or any(w != exps.get(i ^ 1, _Z0) for i, w in exps.items())):
            raise ValueError("element is not theta-even")
        out = [_F0] * self.dim
        index = self.heis_index
        for k, w in heis.items():
            out[index[k]] = _zdiv(w, den)
        nh = len(self.heis_pairs)
        for i, w in exps.items():
            if not i & 1:
                out[nh + (i >> 1)] = _zdiv(w, den)
        return out

    def form(self, a, b):
        """The normalized invariant bilinear form <a, b>."""
        ca, sa = self._zform(a)
        cb, sb = self._zform(b)
        g = self.lattice.gram
        tot = [0, 0, 0, 0]
        for p, (ah, ae, ad) in ca:
            for q, (bh, be, bd) in cb:
                t = 0
                if ah and bh:
                    for (i, j), x in ah.items():
                        gi, gj = g[i], g[j]
                        for (k, l), y in bh.items():
                            t += (gi[k] * gj[l] + gi[l] * gj[k]) * x * y
                if ae and be:
                    small, big = (ae, be) if len(ae) <= len(be) else (be, ae)
                    for i, x in small.items():
                        y = big.get(i ^ 1)
                        if y is not None:
                            t += x * y
                for i, x in ad.items():
                    gi = g[i]
                    for j, y in bd.items():
                        t += 2 * gi[j] * x * y
                if t:
                    for m, c in enumerate(_ZPOW[p + q]):
                        tot[m] += c * t
        return _zdiv(tot, sa * sb)

    # -- sublattice root data ------------------------------------------------

    def scaled_roots(self, rows):
        """Norm-4 vectors of the sublattice spanned by the given basis rows,
        in ambient coordinates."""
        cols = transpose(rows)
        return [tuple(int_matvec(cols, v))
                for v in short_vectors(Sublattice(self.lattice, rows).as_lattice(), 4)]


@cache
def root_algebra(kind, n):
    """The W2Algebra of build_root_lattice(kind, n, scale=2); one per process."""
    return W2Algebra(build_root_lattice(kind, n, scale=2))


def conformal_vector(alg):
    """The Heisenberg conformal vector; acts as 2 on the whole weight-two space."""
    ginv = q_inverse(alg.lattice.gram)
    heis = {}
    for i in range(alg.rank):
        for j in range(i, alg.rank):
            c = ginv[i][j] if i != j else _HALF * ginv[i][i]
            if c:
                heis[(i, j)] = c
    return W2Element(heis)


def sub_conformal_vector(roots, coxeter):
    """Conformal vector of an orthogonal root-sublattice component, from the
    root-sum expression: (1/8h) * sum over scaled roots of beta(-1)^2.

    The sums of beta_i beta_j are taken over the integers; each entry
    becomes one Fraction at the end."""
    sums = {}
    for beta in roots:
        nz = [(i, b) for i, b in enumerate(beta) if b]
        for n, (i, bi) in enumerate(nz):
            for j, bj in nz[n:]:
                sums[(i, j)] = sums.get((i, j), 0) + bi * bj
    den = 8 * coxeter
    return W2Element({(i, j): Fraction(t if i == j else 2 * t, den)
                      for (i, j), t in sums.items()})


def tilde_omega(roots, coxeter):
    """The distinguished Virasoro vector of a root sublattice:
    2/(h+2) times its conformal vector plus 1/(h+2) times the sum of the
    exponentials of its scaled roots."""
    w = sub_conformal_vector(roots, coxeter).scale(Fraction(2, coxeter + 2))
    ec = Fraction(1, coxeter + 2)
    exps = {beta: ec for beta in roots}
    return w + W2Element(exps=exps)


def virasoro_check(alg, v):
    """(is_virasoro, central_charge): v . v = 2 v and c = 2 <v, v>, in any
    algebra with product, form and signed_coords (a W2Algebra, FDAlgebra
    or W2Space).  The zero vector is not a Virasoro vector."""
    s = alg.signed_coords(v)
    ok = any(s) and alg.signed_coords(alg.product(v, v)) == [2 * t for t in s]
    return ok, 2 * alg.form(v, v)


def coset_sum(alg, classify, cls):
    """Sum of e^beta over the norm-4 vectors in one congruence class.

    An empty class yields the zero element with a warning rather than an
    error, so sweeps over all classes stay total.
    """
    exps = {}
    for beta in alg.vectors4:
        if classify(beta) == cls:
            exps[beta] = _F1
    if not exps:
        import warnings
        warnings.warn("coset %r contains no norm-4 vectors" % (cls,))
    return W2Element(exps=exps)


class CosetCharacter:
    """A root-of-unity character of lattice/sublattice acting on exponentials.

    chi(e^beta) = zeta^k(beta) with zeta of the quotient exponent; fixes the
    Heisenberg part.  This is an automorphism of the signed weight-two
    space (and of the full lattice algebra it shadows).  Each vector is
    classified once per quotient: the characters that with_weights and
    power derive share the table.
    """

    def __init__(self, alg, sub_rows):
        self.alg = alg
        sub = Sublattice(alg.lattice, sub_rows)
        moduli, classify = quotient_structure(sub)
        self.moduli = moduli
        self.classify = classify
        self.weights = (1,) * len(moduli)
        self.exponent = lcm(*moduli)
        self._classes = {}

    def exponent_of(self, beta):
        beta = tuple(beta)
        cls = self._classes.get(beta)
        if cls is None:
            cls = self._classes[beta] = self.classify(beta)
        e = 0
        for c, w, m in zip(cls, self.weights, self.moduli):
            e += c * w * (self.exponent // m)
        return e % self.exponent

    def value(self, beta):
        return zeta(self.exponent, self.exponent_of(beta))

    def order(self):
        g = self.exponent
        for w, m in zip(self.weights, self.moduli):
            g = gcd(g, (w * (self.exponent // m)) % self.exponent)
        return self.exponent // g if g else 1

    def apply(self, elem):
        if elem.exps and 12 % self.exponent:
            raise ValueError("unsupported cyclotomic level %r: must divide 12"
                             % (self.exponent,))
        step = 12 // self.exponent
        exps = {}
        for beta, v in elem.exps.items():
            m = step * self.exponent_of(beta)
            exps[beta] = v * zeta(12, m) if m else v
        return W2Element(dict(elem.heis), exps, dict(elem.d2))

    def with_weights(self, weights):
        """The character of the same quotient with the given weights; it
        shares this one's class table."""
        out = copy(self)
        out.weights = tuple(weights)
        return out

    def power(self, k):
        return self.with_weights(w * k for w in self.weights)
