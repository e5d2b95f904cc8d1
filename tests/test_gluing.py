import random
import subprocess
import sys
from fractions import Fraction

import pytest

from griess_forge.codes import golay12
from griess_forge.gluing import (
    GlueLattice, block_space, e8_glue, niemeier_a2_12, n0_sublattice, leech, delta_hat,
    codeword_isometry, tau_bar_matrix, e_copies_rows,
)
from griess_forge.intmat import int_matvec, int_matmul, int_identity
from griess_forge.lattices import build_root_lattice, short_vectors, isometry_test
from griess_forge.linalg import solve_matrix

D1 = (0, -1, -1, -1, 0, 0, 0, 0, 0, 1, 1, 1)
D2 = (1, 1, 0, -1, 0, 0, 0, 0, 1, 1, -1, 0)


def test_glued_e8_is_e8():
    eg = e8_glue()
    lat = eg.lattice
    assert lat.rank == 8
    assert lat.det() == 1
    assert lat.is_even()
    assert len(short_vectors(lat, 2)) == 240
    assert isometry_test(lat, build_root_lattice("E", 8)) is not None


def test_tau_bar_order_three():
    m = tau_bar_matrix()
    m3 = int_matmul(m, int_matmul(m, m))
    assert m3 == int_identity(2)


def test_niemeier_properties():
    niem = niemeier_a2_12()
    lat = niem.lattice
    assert lat.rank == 24
    assert lat.det() == 1
    assert lat.is_even()


def test_niemeier_roots_are_the_blocks():
    lat = niemeier_a2_12().lattice
    assert len(short_vectors(lat, 2)) == 72


def test_n0_index_three_rootless():
    niem = niemeier_a2_12()
    n0 = n0_sublattice()
    sub = niem.sublattice_in_basis(n0.basis)
    assert sub.index() == 3
    assert len(short_vectors(n0.lattice, 2)) == 0


def test_leech_even_unimodular():
    lam = leech()
    lat = lam.lattice
    assert lat.rank == 24
    assert lat.det() == 1
    assert lat.is_even()
    assert len(short_vectors(lat, 2)) == 0


@pytest.mark.slow
def test_leech_minimal_vector_count():
    lam = leech()
    assert len(short_vectors(lam.lattice, 4)) == 196560


def test_codeword_isometry_preserves_everything():
    niem = niemeier_a2_12()
    g = golay12()
    h1 = codeword_isometry(niem.ambient, D1, g)
    # order divides 3
    h3 = int_matmul(h1, int_matmul(h1, h1))
    assert h3 == int_identity(24)
    # preserves N
    for row in niem.basis:
        assert int_matvec(h1, row) in niem
    # preserves the form
    dh = delta_hat(niem.ambient)
    for row in niem.basis:
        img = int_matvec(h1, row)
        assert niem.ambient.dot(img, img) == niem.ambient.dot(row, row)
    # preserves N0 and the Leech lattice setwise
    n0 = n0_sublattice()
    for row in n0.basis:
        assert int_matvec(h1, row) in n0
    lam = leech()
    for row in lam.basis:
        assert int_matvec(h1, row) in lam


def test_codeword_isometry_rejects_noncodeword():
    niem = niemeier_a2_12()
    with pytest.raises(ValueError):
        codeword_isometry(niem.ambient, (1,) + (0,) * 11, golay12())


def test_identity_word_is_identity():
    niem = niemeier_a2_12()
    h = codeword_isometry(niem.ambient, (0,) * 12, golay12())
    assert h == int_identity(24)


def _coords_by_solve(gl, v):
    """Reference for GlueLattice.coords_of: one Fraction solve against the
    basis columns, None unless the solution exists and is integral."""
    cols = [[Fraction(row[j]) for row in gl.basis] for j in range(gl.ambient.rank)]
    x = solve_matrix(cols, [[Fraction(t)] for t in v])
    if x is None or any(row[0].denominator != 1 for row in x):
        return None
    return [row[0].numerator for row in x]


def test_coords_of_matches_solve():
    rng = random.Random(3)
    niem = niemeier_a2_12()
    space = niem.ambient
    # a rank-8 lattice in the 24-dim space, for vectors outside the span
    e1 = GlueLattice(space, e_copies_rows(e8_glue())[0], name="E1")
    off_span = [0] * space.rank
    off_span[0] = 3
    unit = [1] + [0] * (space.rank - 1)    # a1 / 3, in no lattice of the chain
    for gl in (niem, n0_sublattice(), leech(), e1):
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(gl.rank)]
            v = [sum(c * row[j] for c, row in zip(coeffs, gl.basis))
                 for j in range(space.rank)]
            assert gl.coords_of(v) == _coords_by_solve(gl, v) == coeffs
            off = [a + b for a, b in zip(v, unit)]
            assert gl.coords_of(off) is None
            assert _coords_by_solve(gl, off) is None
    assert _coords_by_solve(e1, off_span) is None
    assert e1.coords_of(off_span) is None


def test_glue_lattice_rejects_a_basis_that_is_not_integral():
    # a1 / 3 has norm 2/9
    with pytest.raises(ValueError, match="glued basis is not integral"):
        GlueLattice(block_space(1), [[1, 0]])


def test_leech_checks_its_glue_norm_when_asserts_are_stripped():
    # with delta_hat zero the glue vector is a root, of norm 2; python -O
    # drops assert statements, so the check must raise by itself
    code = ("import griess_forge.gluing as g\n"
            "g.delta_hat = lambda space: [0] * space.rank\n"
            "g.leech()\n")
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True)
    assert r.returncode != 0
    assert "AssertionError: the Leech glue vector has norm 2, not 4" in r.stderr
