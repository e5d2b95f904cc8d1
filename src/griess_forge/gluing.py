"""Lattices glued from A2 blocks along ternary codes.

Vectors here carry integer "third coordinates": the coordinate vector c
stands for sum_i c_i * (b_i / 3), where the b_i run over the simple roots
a1, a2 of each A2 block.  A code digit t glues in t * (a1 - a2) / 3, the
standard minimal-norm representative of the nonzero classes of A2*/A2.
In these coordinates every glued lattice, its index-3 kernels, and the
block isometries tau-bar are integral objects, so all memberships and
pairings below are exact integer arithmetic (the ambient form is the
block form divided by 9).

The chain built here: E8 glued from fourA2 blocks along the tetracode,
the Niemeier lattice N from twelve blocks along the Golay code, the
rootless kernel N0, the Leech lattice, and the sqrt(2)E8 triples used by
the embedding checks.  N, N0 and the Leech lattice are built once per
process and shared, so callers treat them as read-only.
"""

from fractions import Fraction
from functools import cache

from .codes import tetracode_slope, golay12
from .intmat import hnf, int_matmul
from .lattices import IntegralLattice, Sublattice, kernel_sublattice

__all__ = [
    "BlockSpace", "GlueLattice", "glue_lattice", "e8_glue", "niemeier_a2_12",
    "n0_sublattice", "leech", "codeword_isometry", "tau_bar_matrix",
    "delta_hat", "weyl_pattern", "pattern_kernel_rows", "e_copies_rows",
]

_A2 = ((2, -1), (-1, 2))


class BlockSpace:
    """The rational span of n orthogonal A2 blocks, with third coordinates."""

    __slots__ = ("blocks", "dim")

    def __init__(self, blocks):
        self.blocks = blocks
        self.dim = 2 * blocks

    def dot9(self, x, y):
        """9 times the inner product; an integer for integer coordinates."""
        total = 0
        for b in range(self.blocks):
            x1, x2 = x[2 * b], x[2 * b + 1]
            y1, y2 = y[2 * b], y[2 * b + 1]
            if (x1 or x2) and (y1 or y2):
                total += 2 * x1 * y1 + 2 * x2 * y2 - x1 * y2 - x2 * y1
        return total

    def pairing(self, x, y):
        return Fraction(self.dot9(x, y), 9)

    def digit_rows(self, word):
        """Third coordinates of the glue vector of a code word."""
        v = [0] * self.dim
        for b, t in enumerate(word):
            t = t % 3
            if t == 1:
                v[2 * b], v[2 * b + 1] = 1, -1
            elif t == 2:
                v[2 * b], v[2 * b + 1] = -1, 1
        return v

    def block_row(self, b, root):
        """Third coordinates of a block simple root: root=0 -> a1, 1 -> a2."""
        v = [0] * self.dim
        v[2 * b + root] = 3
        return v


class GlueLattice:
    """An integral lattice presented by third-coordinate HNF basis rows."""

    __slots__ = ("space", "basis", "lattice")

    def __init__(self, space, rows, name=None):
        self.space = space
        self.basis = hnf(rows)
        n = len(self.basis)
        gram = []
        for i in range(n):
            gram_row = []
            for j in range(n):
                p = space.dot9(self.basis[i], self.basis[j])
                if p % 9:
                    raise ValueError("glued basis is not integral")
                gram_row.append(p // 9)
            gram.append(gram_row)
        self.lattice = IntegralLattice(gram, name=name)

    @property
    def rank(self):
        return len(self.basis)

    def coords_of(self, v):
        """Basis coordinates of a third-coordinate vector, or None.

        Forward substitution down the HNF basis: a row's pivot column is
        zero in every later row, so the residue there fixes the row's
        coordinate, which must be an integer; a member leaves no residue."""
        r = list(v)
        out = []
        for row in self.basis:
            c = next(k for k, t in enumerate(row) if t)
            x, rem = divmod(r[c], row[c])
            if rem:
                return None
            if x:
                r = [a - x * b for a, b in zip(r, row)]
            out.append(x)
        return None if any(r) else out

    def __contains__(self, v):
        return self.coords_of(v) is not None

    def sublattice_in_basis(self, third_rows):
        """Sublattice of self spanned by third-coordinate rows."""
        rows = []
        for r in third_rows:
            c = self.coords_of(r)
            if c is None:
                raise ValueError("row is not a lattice member")
            rows.append(c)
        return Sublattice(self.lattice, hnf(rows))


def glue_lattice(blocks, code, name=None):
    space = BlockSpace(blocks)
    rows = [space.block_row(b, r) for b in range(blocks) for r in (0, 1)]
    rows += [space.digit_rows(w) for w in code.generators]
    return GlueLattice(space, rows, name=name)


def e8_glue():
    """E8 with a visible A2^4 frame, glued along the tetracode."""
    return glue_lattice(4, tetracode_slope(), name="E8(A2^4)")


@cache
def niemeier_a2_12():
    """The even unimodular rank-24 lattice glued from A2^12 along the Golay code."""
    return glue_lattice(12, golay12(), name="N(A2^12)")


_DELTA_SIGNS = (1, 1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1)


def weyl_pattern(space, pattern):
    """The sum of block Weyl vectors weighted by the pattern, one integer
    per block: 3 t in both third coordinates of a block with weight t."""
    v = [0] * space.dim
    for b, t in enumerate(pattern):
        v[2 * b] = 3 * t
        v[2 * b + 1] = 3 * t
    return v


def pattern_kernel_rows(space, rows, pattern):
    """HNF rows of the vectors of span(rows) pairing into 3Z with the Weyl
    pattern."""
    w = weyl_pattern(space, pattern)
    vals = []
    for row in rows:
        p = space.dot9(row, w)
        if p % 9:
            raise ValueError("Weyl pattern %s does not pair integrally" % (pattern,))
        vals.append((p // 9) % 3)
    return kernel_sublattice(rows, vals, 3)


def delta_hat(space):
    """The signed sum of block Weyl vectors (d, d, d, d, -d, -d, -d, -d, d, d, d, d)."""
    if space.blocks != 12:
        raise ValueError("delta_hat lives in the twelve-block space")
    return weyl_pattern(space, _DELTA_SIGNS)


@cache
def n0_sublattice():
    """The index-3 rootless kernel {x : <x, delta_hat> in 3Z} of N."""
    niem = niemeier_a2_12()
    rows = pattern_kernel_rows(niem.space, niem.basis, _DELTA_SIGNS)
    return GlueLattice(niem.space, rows, name="N0")


@cache
def leech():
    """The Leech lattice as N0 extended by a norm-4 glue vector.

    The glue class is generated by a block root plus delta_hat / 3; the
    root's sign is chosen so the generator has norm 4 (the opposite sign
    gives the non-integral glue class of norm 16/3).
    """
    n0 = n0_sublattice()
    space = n0.space
    dh = delta_hat(space)
    third = [x // 3 for x in dh]
    glue = [a + b for a, b in zip(space.block_row(0, 0), third)]
    if space.pairing(glue, glue) != 4:
        glue = [b - a for a, b in zip(space.block_row(0, 0), third)]
    assert space.pairing(glue, glue) == 4
    rows = [r[:] for r in n0.basis] + [glue]
    return GlueLattice(space, rows, name="Leech")


def tau_bar_matrix(power=1):
    """The order-3 A2 isometry a1 -> a2 -> -(a1 + a2), on third coordinates."""
    m = [[0, -1], [1, -1]]
    out = [[1, 0], [0, 1]]
    for _ in range(power % 3):
        out = int_matmul(m, out)
    return out


def codeword_isometry(space, word, code=None):
    """Block-diagonal isometry tau-bar^{x_1} + ... + tau-bar^{x_n} of a glued lattice.

    When a code is given the word must belong to it (this is what makes the
    map an isometry of the glued lattice rather than just of the blocks).
    Returns the dim x dim integer matrix acting on third coordinates.
    """
    if code is not None and tuple(t % 3 for t in word) not in code:
        raise ValueError("word is not in the glue code")
    if len(word) != space.blocks:
        raise ValueError("word length does not match the block count")
    out = [[0] * space.dim for _ in range(space.dim)]
    for b, t in enumerate(word):
        blk = tau_bar_matrix(t)
        for i in range(2):
            for j in range(2):
                out[2 * b + i][2 * b + j] = blk[i][j]
    return out


def e_copies_rows(e8g):
    """Rows of the copies of the glued E8 sitting in Golay blocks 2 and 3.

    Returns (rows_e1, rows_e2, rows_diag): the 24-coordinate rows of
    E^1 = 0 + E + 0, E^2 = 0 + 0 + E and of the diagonal {(0, y, y)}.
    """
    rows_e1, rows_e2, diag = [], [], []
    for r in e8g.basis:
        rows_e1.append([0] * 8 + list(r) + [0] * 8)
        rows_e2.append([0] * 16 + list(r))
        diag.append([0] * 8 + list(r) + list(r))
    return rows_e1, rows_e2, diag
