"""Lattices glued from A2 blocks along ternary codes.

Vectors here carry integer "third coordinates": the coordinate vector c
stands for sum_i c_i * (b_i / 3), where the b_i run over the simple roots
a1, a2 of each A2 block.  A code digit t glues in t * (a1 - a2) / 3, the
standard minimal-norm representative of the nonzero classes of A2*/A2.
In these coordinates every glued lattice, its index-3 kernels, and the
block isometries tau-bar are integral objects, so all memberships and
pairings below are exact integer arithmetic.  The ambient is the lattice
A2^n itself, block_space(n): its Gram read on third coordinates is 9
times the form, and a glued lattice is a Sublattice of it whose Gram is
the basis Gram divided by 9.

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
from .lattices import (IntegralLattice, Sublattice, build_root_lattice,
                       direct_sum, kernel_sublattice)

__all__ = [
    "block_space", "glue_vector", "block_root", "GlueLattice", "glue_lattice",
    "e8_glue", "niemeier_a2_12", "n0_sublattice", "leech", "codeword_isometry",
    "tau_bar_matrix", "delta_hat", "weyl_pattern", "pattern_kernel_rows",
    "e_copies_rows",
]


def block_space(blocks):
    """The orthogonal sum of n A2 blocks.  Its Gram on third coordinates is
    9 times the inner product, so its dot is the pairing times 9."""
    return direct_sum(*[build_root_lattice("A", 2)] * blocks)


def glue_vector(word):
    """Third coordinates of the glue vector of a code word: t (a1 - a2) / 3
    in each block, with the digit t read as 0, 1 or -1."""
    return [s * ((t + 1) % 3 - 1) for t in word for s in (1, -1)]


def block_root(space, b, root):
    """Third coordinates of a block simple root: root=0 -> a1, 1 -> a2."""
    v = [0] * space.rank
    v[2 * b + root] = 3
    return v


class GlueLattice(Sublattice):
    """An integral lattice given by third-coordinate HNF basis rows in a
    block space; lattice is its Gram, the basis Gram divided by 9."""

    __slots__ = ("lattice",)

    def __init__(self, space, rows, name=None):
        super().__init__(space, hnf(rows))
        gram = self.gram()
        if any(p % 9 for row in gram for p in row):
            raise ValueError("glued basis is not integral")
        self.lattice = IntegralLattice([[p // 9 for p in row] for row in gram],
                                       name=name)

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
    space = block_space(blocks)
    rows = [block_root(space, b, r) for b in range(blocks) for r in (0, 1)]
    rows += [glue_vector(w) for w in code.generators]
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
    if 2 * len(pattern) != space.rank:
        raise ValueError("pattern length does not match the block count")
    return [3 * t for t in pattern for _ in (0, 1)]


def pattern_kernel_rows(space, rows, pattern):
    """HNF rows of the vectors of span(rows) pairing into 3Z with the Weyl
    pattern."""
    w = weyl_pattern(space, pattern)
    vals = []
    for row in rows:
        p = space.dot(row, w)
        if p % 9:
            raise ValueError("Weyl pattern %s does not pair integrally" % (pattern,))
        vals.append((p // 9) % 3)
    return kernel_sublattice(rows, vals, 3)


def delta_hat(space):
    """The signed sum of block Weyl vectors (d, d, d, d, -d, -d, -d, -d, d, d, d, d)."""
    if space.rank != 24:
        raise ValueError("delta_hat lives in the twelve-block space")
    return weyl_pattern(space, _DELTA_SIGNS)


@cache
def n0_sublattice():
    """The index-3 rootless kernel {x : <x, delta_hat> in 3Z} of N."""
    niem = niemeier_a2_12()
    rows = pattern_kernel_rows(niem.ambient, niem.basis, _DELTA_SIGNS)
    return GlueLattice(niem.ambient, rows, name="N0")


@cache
def leech():
    """The Leech lattice as N0 extended by a norm-4 glue vector.

    The glue class is generated by a block root plus delta_hat / 3; the
    root's sign is chosen so the generator has norm 4 (the opposite sign
    gives the non-integral glue class of norm 16/3).
    """
    n0 = n0_sublattice()
    space = n0.ambient
    third = [x // 3 for x in delta_hat(space)]
    root = block_root(space, 0, 0)
    glue = [a + b for a, b in zip(root, third)]
    if space.norm(glue) != 36:
        glue = [b - a for a, b in zip(root, third)]
    if space.norm(glue) != 36:
        raise AssertionError("the Leech glue vector has norm %s, not 4"
                             % Fraction(space.norm(glue), 9))
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
    Returns the rank x rank integer matrix acting on third coordinates.
    """
    if code is not None and tuple(t % 3 for t in word) not in code:
        raise ValueError("word is not in the glue code")
    if 2 * len(word) != space.rank:
        raise ValueError("word length does not match the block count")
    out = [[0] * space.rank for _ in range(space.rank)]
    for b, t in enumerate(word):
        for i, row in enumerate(tau_bar_matrix(t)):
            out[2 * b + i][2 * b:2 * b + 2] = row
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
