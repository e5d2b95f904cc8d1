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

The product is an integer kernel.  Each operand's coefficients (int,
Fraction or CycNum) are scaled by one rational into elements of Z[z], the
4-tuples of ``exact``; the case table is summed in int-tuple arithmetic at
twice its value, so the 1/2 of e^beta . e^-beta stays integral; and each
output entry is divided once at the end, to a Fraction when it is rational
and a CycNum otherwise.  Z[z] is a ring and each scale is one exact
rational, so the result equals the term-by-term sum over Q(z).  The
exponential-exponential case walks a neighbour table built on the first
such product: for each norm-4 beta, its negative and the gamma with
<beta, gamma> = -2 next to beta + gamma (56 of them for sqrt(2)E8), all
as the tuples of ``vectors4``.  The walk runs over the smaller operand's
exponentials and looks each neighbour up in the other, so pairs with
<beta, gamma> >= 0, which contribute nothing, are never visited.

root_algebra builds each root lattice's algebra once per process and hands
every caller the same object, which callers therefore treat as read-only.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, mul

from .exact import _cyc_row, _zdiv, _zmul
from .lattices import (build_root_lattice, short_vectors, Sublattice,
                       quotient_structure)
from .linalg import inverse as q_inverse

__all__ = ["W2Algebra", "W2Element", "root_algebra", "conformal_vector",
           "tilde_omega", "coset_sum", "virasoro_check", "CosetCharacter"]

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)


class W2Element:
    """Sparse weight-two vector: Heisenberg pairs, signed exponentials, b(-2) part."""

    __slots__ = ("heis", "exps", "d2")

    def __init__(self, heis=None, exps=None, d2=None):
        self.heis = {k: v for k, v in (heis or {}).items() if v}
        self.exps = {k: v for k, v in (exps or {}).items() if v}
        self.d2 = {k: v for k, v in (d2 or {}).items() if v}

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

    def __hash__(self):
        raise TypeError("W2Element is not hashable")

    def is_zero(self):
        return not self.heis and not self.exps and not self.d2

    def theta(self):
        """The lift of the -1 isometry: e^beta -> e^-beta, b(-2) -> -b(-2)."""
        return W2Element(dict(self.heis),
                         {tuple(-t for t in k): v for k, v in self.exps.items()},
                         {k: -v for k, v in self.d2.items()})

    def is_theta_even(self):
        if self.d2:
            return False
        for k, v in self.exps.items():
            if self.exps.get(tuple(-t for t in k)) != v:
                return False
        return True

    def __repr__(self):
        bits = []
        for (i, j), v in sorted(self.heis.items()):
            bits.append("%r*h%d h%d" % (v, i, j))
        if self.exps:
            bits.append("+%d exp terms" % len(self.exps))
        if self.d2:
            bits.append("+d2 part")
        return "W2Element(%s)" % "; ".join(bits)


def _zacc(d, k, c, x):
    """d[k] += c * x for an int c and a Z[z] element x."""
    if c:
        w = d.get(k)
        if w is None:
            d[k] = (c * x[0], c * x[1], c * x[2], c * x[3])
        else:
            d[k] = (w[0] + c * x[0], w[1] + c * x[1],
                    w[2] + c * x[2], w[3] + c * x[3])


def _weight(heis, d2, gb):
    """sum x_ij <b_i,beta><b_j,beta> - sum x_i <b_i,beta> over Z[z], with
    gb the pairings of beta with the basis."""
    w0 = w1 = w2 = w3 = 0
    for (i, j), (x0, x1, x2, x3) in heis.items():
        m = gb[i] * gb[j]
        if m:
            w0 += m * x0
            w1 += m * x1
            w2 += m * x2
            w3 += m * x3
    for i, (x0, x1, x2, x3) in d2.items():
        m = gb[i]
        if m:
            w0 -= m * x0
            w1 -= m * x1
            w2 -= m * x2
            w3 -= m * x3
    return (w0, w1, w2, w3)


class W2Algebra:
    """The weight-two machinery of one doubly even lattice."""

    def __init__(self, lattice, name=None):
        self.lattice = lattice
        self.rank = lattice.rank
        self.name = name or (lattice.name and "W2(%s)" % lattice.name)
        g = lattice.gram
        for i in range(self.rank):
            if g[i][i] % 4:
                raise ValueError("lattice is not doubly even")
            for j in range(self.rank):
                if g[i][j] % 2:
                    raise ValueError("lattice is not doubly even")
        # a diagonal in 4Z and even pairings put every norm in 4Z, so the
        # lattice has no roots (norm 2) and needs no root check
        self.vectors4 = short_vectors(lattice, 4)
        self.classes = [self.vectors4[i] for i in range(0, len(self.vectors4), 2)]
        self.class_index = {}
        for idx, rep in enumerate(self.classes):
            self.class_index[rep] = idx
            self.class_index[tuple(-t for t in rep)] = idx
        self.heis_pairs = [(i, j) for i in range(self.rank)
                           for j in range(i, self.rank)]
        self.heis_index = {p: k for k, p in enumerate(self.heis_pairs)}
        self.dim = len(self.heis_pairs) + len(self.classes)
        self._pos = {v: i for i, v in enumerate(self.vectors4)}
        self._gv = {}
        for v in self.vectors4:
            self._gv[v] = tuple(sum(g[i][j] * v[j] for j in range(self.rank))
                                for i in range(self.rank))
        self._nbrs = None

    # -- bases -------------------------------------------------------------

    def basis_element(self, k):
        """k-th theta-even basis vector: Heisenberg pairs first, then classes."""
        nh = len(self.heis_pairs)
        if k < nh:
            return W2Element({self.heis_pairs[k]: _F1})
        rep = self.classes[k - nh]
        return W2Element(exps={rep: _F1, tuple(-t for t in rep): _F1})

    def class_coords(self, elem):
        """Coordinates over the theta-even basis; requires a theta-even element."""
        if not elem.is_theta_even():
            raise ValueError("element is not theta-even")
        out = [_F0] * self.dim
        for k, v in elem.heis.items():
            out[self.heis_index[k]] = v
        nh = len(self.heis_pairs)
        for rep, idx in ((r, self.class_index[r]) for r in self.classes):
            v = elem.exps.get(rep)
            if v:
                out[nh + idx] = v
        return out

    def from_class_coords(self, coords):
        heis = {}
        exps = {}
        nh = len(self.heis_pairs)
        for k, c in enumerate(coords):
            if not c:
                continue
            if k < nh:
                heis[self.heis_pairs[k]] = c
            else:
                rep = self.classes[k - nh]
                exps[rep] = c
                exps[tuple(-t for t in rep)] = c
        return W2Element(heis, exps)

    def signed_dim(self):
        return len(self.heis_pairs) + len(self.vectors4) + self.rank

    def signed_coords(self, elem):
        """Coordinates over the full signed spanning set (for span arithmetic)."""
        out = [_F0] * self.signed_dim()
        for k, v in elem.heis.items():
            out[self.heis_index[k]] = v
        nh = len(self.heis_pairs)
        pos = self._pos
        for k, v in elem.exps.items():
            out[nh + pos[k]] = v
        base = nh + len(self.vectors4)
        for i, v in elem.d2.items():
            out[base + i] = v
        return out

    # -- product and form ----------------------------------------------------

    def _zform(self, elem):
        """(heis, exps, d2, s): the coefficients of elem over Z[z], all three
        parts scaled by one rational s.  Raises on an exponential key that is
        not a norm-4 vector of the lattice."""
        for k in elem.exps:
            if k not in self._pos:
                raise ValueError("exponential key %r is not a norm-4 vector of %s"
                                 % (k, self.name or "the lattice"))
        parts = (elem.heis, elem.exps, elem.d2)
        ints, s = _cyc_row([v for part in parts for v in part.values()])
        it = iter(ints)
        heis, exps, d2 = ({k: x for k, x in zip(part, it) if x} for part in parts)
        return heis, exps, d2, s

    def _neighbours(self):
        """For each norm-4 beta, (-beta, (g1, beta+g1, g2, beta+g2, ...)) over
        the gamma with <beta, gamma> = -2, every entry a tuple of vectors4.
        Built on the first product of two exponential parts."""
        if self._nbrs is None:
            vecs, pos = self.vectors4, self._pos
            table = {}
            for beta in vecs:
                gb = self._gv[beta]
                neg, flat = None, []
                for gamma in vecs:
                    p = sum(map(mul, gb, gamma))
                    if p == -2:
                        flat.append(gamma)
                        flat.append(vecs[pos[tuple(map(add, beta, gamma))]])
                    elif p == -4:
                        if gamma != tuple(-t for t in beta):
                            raise AssertionError("pairing -4 must mean gamma = -beta")
                        neg = gamma
                table[beta] = (neg, tuple(flat))
            self._nbrs = table
        return self._nbrs

    def product(self, a, b):
        """The weight-two component of the degree-one product a . b.

        Both operands are scaled to integers over Z[z]; the sum is kept at
        twice its value, so the 1/2 of e^beta . e^-beta stays integral, and
        each entry is divided once at the end.
        """
        ah, ae, ad2, sa = self._zform(a)
        bh, be, bd2, sb = self._zform(b)
        g = self.lattice.gram
        out_h, out_e, out_d = {}, {}, {}
        for dd, hh in ((ad2, bh), (bd2, ah)):
            for i, x in dd.items():
                gi = g[i]
                for (k, l), y in hh.items():
                    s = _zmul(x, y)
                    _zacc(out_d, l, 4 * gi[k], s)
                    _zacc(out_d, k, 4 * gi[l], s)
        if ah and bh:
            for (i, j), x in ah.items():
                gi, gj = g[i], g[j]
                for (k, l), y in bh.items():
                    s = _zmul(x, y)
                    _zacc(out_h, (j, l) if j <= l else (l, j), 2 * gi[k], s)
                    _zacc(out_h, (j, k) if j <= k else (k, j), 2 * gi[l], s)
                    _zacc(out_h, (i, l) if i <= l else (l, i), 2 * gj[k], s)
                    _zacc(out_h, (i, k) if i <= k else (k, i), 2 * gj[l], s)
        # (b b') . e^beta and c(-2) . e^beta are e^beta times a weight of beta
        for hh, dd, ee in ((ah, ad2, be), (bh, bd2, ae)):
            if ee and (hh or dd):
                for beta, y in ee.items():
                    w = _weight(hh, dd, self._gv[beta])
                    if w[0] or w[1] or w[2] or w[3]:
                        _zacc(out_e, beta, 2, _zmul(w, y))
        if ae and be:
            # walk the neighbours of the smaller part; the d2 term of
            # e^beta . e^-beta is odd in beta, so it flips with the order
            if len(ae) <= len(be):
                outer, inner, sign = ae, be, 1
            else:
                outer, inner, sign = be, ae, -1
            nbrs = self._neighbours()
            for beta, x in outer.items():
                neg, flat = nbrs[beta]
                it = iter(flat)
                for gamma, key in zip(it, it):
                    y = inner.get(gamma)
                    if y is not None:
                        _zacc(out_e, key, 2, _zmul(x, y))
                y = inner.get(neg)
                if y is not None:
                    s = _zmul(x, y)
                    nz = [(i, t) for i, t in enumerate(beta) if t]
                    for n, (i, bi) in enumerate(nz):
                        _zacc(out_d, i, sign * bi, s)
                        _zacc(out_h, (i, i), bi * bi, s)
                        for j, bj in nz[n + 1:]:
                            _zacc(out_h, (i, j), 2 * bi * bj, s)
        den = 2 * sa * sb
        return W2Element({k: _zdiv(x, den) for k, x in out_h.items()},
                         {k: _zdiv(x, den) for k, x in out_e.items()},
                         {k: _zdiv(x, den) for k, x in out_d.items()})

    def form(self, a, b):
        """The normalized invariant bilinear form <a, b>."""
        g = self.lattice.gram
        tot = _F0
        if a.heis and b.heis:
            for (i, j), x in a.heis.items():
                for (k, l), y in b.heis.items():
                    tot = tot + (g[i][k] * g[j][l] + g[i][l] * g[j][k]) * (x * y)
        if a.exps and b.exps:
            for beta, x in a.exps.items():
                y = b.exps.get(tuple(-t for t in beta))
                if y:
                    tot = tot + x * y
        if a.d2 and b.d2:
            for i, x in a.d2.items():
                for j, y in b.d2.items():
                    tot = tot + 2 * g[i][j] * (x * y)
        return tot

    # -- sublattice root data ------------------------------------------------

    def scaled_roots(self, rows):
        """Norm-4 vectors of the sublattice spanned by the given basis rows,
        in ambient coordinates."""
        sub = Sublattice(self.lattice, rows)
        out = []
        for v in short_vectors(sub.as_lattice(), 4):
            amb = [0] * self.rank
            for c, row in zip(v, rows):
                if c:
                    for i, t in enumerate(row):
                        amb[i] += c * t
            out.append(tuple(amb))
        return out


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


def sub_conformal_vector(alg, roots, coxeter):
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


def tilde_omega(alg, roots, coxeter):
    """The distinguished Virasoro vector of a root sublattice:
    2/(h+2) times its conformal vector plus 1/(h+2) times the sum of the
    exponentials of its scaled roots."""
    w = sub_conformal_vector(alg, roots, coxeter).scale(Fraction(2, coxeter + 2))
    ec = Fraction(1, coxeter + 2)
    exps = {beta: ec for beta in roots}
    return w + W2Element(exps=exps)


def virasoro_check(alg, v):
    """(is_virasoro, central_charge): v . v = 2 v and c = 2 <v, v>.

    The zero vector is not a Virasoro vector.
    """
    sq = alg.product(v, v)
    ok = (not v.is_zero()) and sq == v.scale(Fraction(2))
    c = 2 * alg.form(v, v)
    return ok, c


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
    space (and of the full lattice algebra it shadows).
    """

    def __init__(self, alg, sub_rows, weights=None):
        self.alg = alg
        sub = Sublattice(alg.lattice, sub_rows)
        moduli, classify = quotient_structure(sub)
        self.moduli = moduli
        self.classify = classify
        if weights is None:
            weights = tuple(1 for _ in moduli)
        self.weights = tuple(weights)
        self.exponent = lcm(*moduli)

    def exponent_of(self, beta):
        cls = self.classify(beta)
        e = 0
        for c, w, m in zip(cls, self.weights, self.moduli):
            e += c * w * (self.exponent // m)
        return e % self.exponent

    def value(self, beta):
        from .exact import zeta
        return zeta(self.exponent, self.exponent_of(beta))

    def order(self):
        g = self.exponent
        for w, m in zip(self.weights, self.moduli):
            g = gcd(g, (w * (self.exponent // m)) % self.exponent)
        return self.exponent // g if g else 1

    def apply(self, elem):
        exps = {}
        for beta, v in elem.exps.items():
            val = self.value(beta)
            if val == 1:
                exps[beta] = v
            else:
                exps[beta] = val * v
        return W2Element(dict(elem.heis), exps, dict(elem.d2))

    def with_weights(self, weights):
        """The character of the same quotient with the given weights."""
        out = CosetCharacter.__new__(CosetCharacter)
        out.alg = self.alg
        out.moduli = self.moduli
        out.classify = self.classify
        out.weights = tuple(weights)
        out.exponent = self.exponent
        return out

    def power(self, k):
        return self.with_weights(w * k for w in self.weights)
