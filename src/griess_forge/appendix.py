"""Verified embedding chain: the doubled E8 triple and its Leech realization.

Inside the orthogonal sum of two copies of the glued E8, the diagonal and
the two graph lattices of the order-3 block isometries h1 = 1+t+t+t and
h2 = t+t+t^{-1}+1 (t the A2 rotation) are each doubled E8 lattices; their
sum L is reproduced inside the rootless index-3 sublattice of the glued
Niemeier lattice by the two Golay codewords whose block actions restrict
to h1 and h2, and the two constructions are isometric.
"""

from fractions import Fraction
from functools import cache

from .codes import golay12
from .gluing import (block_space, GlueLattice, e8_glue, niemeier_a2_12,
                     n0_sublattice, leech, codeword_isometry, e_copies_rows,
                     pattern_kernel_rows)
from .intmat import int_matvec, int_matmul, int_identity
from .lattices import build_root_lattice, direct_sum, isometry_test, short_vectors

F = Fraction

D1 = (0, -1, -1, -1, 0, 0, 0, 0, 0, 1, 1, 1)
D2 = (1, 1, 0, -1, 0, 0, 0, 0, 1, 1, -1, 0)

__all__ = ["D1", "D2", "h_matrices", "e8_perp_e8_triple", "leech_embedding_check"]


def h_matrices(space):
    """h1, h2 as block matrices on a four-block space."""
    if space.rank != 8:
        raise ValueError("h1, h2 act on four A2 blocks")
    h1 = codeword_isometry(space, (0, 1, 1, 1))
    h2 = codeword_isometry(space, (1, 1, -1, 0))
    return h1, h2


@cache
def e8_perp_e8_triple():
    """(R, R1, R2, L, record): the doubled-E8 triple in E8 + E8.

    R is the diagonal, R1 and R2 the graphs of h1 and h2; each is
    isometric to the doubled E8 and L is their sum, returned with its
    Gram matrix.  The record maps each exact check performed to whether it
    holds; a false entry is returned, not raised.  Built once per process
    and shared read-only.
    """
    eg = e8_glue()
    space8 = eg.ambient
    h1, h2 = h_matrices(space8)
    record = {}
    record["h1 has order 3"] = int_matmul(h1, int_matmul(h1, h1)) == int_identity(8)
    record["h2 has order 3"] = int_matmul(h2, int_matmul(h2, h2)) == int_identity(8)
    record["h1 preserves E8"] = all(int_matvec(h1, r) in eg for r in eg.basis)
    record["h2 preserves E8"] = all(int_matvec(h2, r) in eg for r in eg.basis)

    # the graphs {(x, m x)} of the identity, h1 and h2
    big = block_space(8)
    r_lat, r1_lat, r2_lat = [
        GlueLattice(big, [r + int_matvec(m, r) for r in eg.basis], name=nm)
        for nm, m in (("R", int_identity(8)), ("R1", h1), ("R2", h2))]
    dbl_e8 = build_root_lattice("E", 8, scale=2)
    for nm, lat in (("R", r_lat), ("R1", r1_lat), ("R2", r2_lat)):
        record["%s is doubled E8" % nm] = (
            isometry_test(lat.lattice, dbl_e8) is not None)
    l_lat = GlueLattice(big, r_lat.basis + r1_lat.basis + r2_lat.basis, name="L")
    record["rank(L) = 16"] = l_lat.rank == 16
    # the K sublattice: vectors of E8 pairing into 3Z with both Weyl-vector
    # patterns (0,d,d,d) and (d,d,-d,0)
    k_rows = _k_sublattice_rows(eg)
    k_lat = GlueLattice(space8, k_rows, name="K")
    record["K is A2^4"] = isometry_test(k_lat.lattice, block_space(4)) is not None
    # the single-pattern kernel is E6 + A2
    e6a2_rows = pattern_kernel_rows(space8, eg.basis, (0, 1, 1, 1))
    e6a2 = GlueLattice(space8, e6a2_rows, name="ker(0,d,d,d)")
    ref = direct_sum(build_root_lattice("E", 6), build_root_lattice("A", 2))
    record["pattern kernel is E6 + A2"] = (
        isometry_test(e6a2.lattice, ref) is not None)
    return r_lat, r1_lat, r2_lat, l_lat, record


def _k_sublattice_rows(eg):
    rows = pattern_kernel_rows(eg.ambient, eg.basis, (0, 1, 1, 1))
    return pattern_kernel_rows(eg.ambient, rows, (1, 1, -1, 0))


def leech_embedding_check():
    """Builds the Golay-side triple inside the rootless sublattice and
    returns the embedding record, {check name: whether it holds}."""
    record = {}
    niem = niemeier_a2_12()
    space = niem.ambient
    n0 = n0_sublattice()
    lam = leech()
    eg = e8_glue()
    rows_e1, rows_e2, diag = e_copies_rows(eg)
    g = golay12()
    record["d1 in Golay"] = tuple(t % 3 for t in D1) in g
    record["d2 in Golay"] = tuple(t % 3 for t in D2) in g
    e1 = GlueLattice(space, rows_e1, name="E1")
    e2 = GlueLattice(space, rows_e2, name="E2")
    record["(E1, E2) = 0"] = all(space.dot(a, b) == 0
                                 for a in e1.basis for b in e2.basis)
    r_t = GlueLattice(space, diag, name="Rt")
    h1hat = codeword_isometry(space, D1, g)
    h2hat = codeword_isometry(space, D2, g)
    r1_rows = [int_matvec(h1hat, r) for r in r_t.basis]
    r2_rows = [int_matvec(h2hat, r) for r in r_t.basis]
    r1_t = GlueLattice(space, r1_rows, name="Rt1")
    r2_t = GlueLattice(space, r2_rows, name="Rt2")
    dbl_e8 = build_root_lattice("E", 8, scale=2)
    for nm, lat in (("Rt", r_t), ("Rt1", r1_t), ("Rt2", r2_t)):
        record["%s in N" % nm] = all(r in niem for r in lat.basis)
        record["%s in N0" % nm] = all(r in n0 for r in lat.basis)
        record["%s in Leech" % nm] = all(r in lam for r in lat.basis)
        record["%s is doubled E8" % nm] = (
            isometry_test(lat.lattice, dbl_e8) is not None)
        record["%s rootless" % nm] = not short_vectors(lat.lattice, 2)
    l_t = GlueLattice(space, r_t.basis + r1_t.basis + r2_t.basis, name="Lt")
    _r, _r1, _r2, l_lat, _rec = e8_perp_e8_triple()
    record["rank(Lt) = rank(L)"] = l_t.rank == l_lat.rank
    record["Lt isometric to L"] = (
        l_t.lattice.gram == l_lat.lattice.gram
        or isometry_test(l_t.lattice, l_lat.lattice) is not None)
    return record
