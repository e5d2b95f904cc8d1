from fractions import Fraction

import pytest

from griess_forge.exact import zeta
from griess_forge.linalg import mat_mul, identity, inverse, transpose
from griess_forge.su3 import (su3_data, su3_identities, theta_matrix_relations,
                              is_unitary)
from griess_forge.appendix import e8_perp_e8_triple, leech_embedding_check

F = Fraction


def test_su3_identities():
    tau, s, r = su3_data()
    z = zeta(3)
    assert r[0][0] == z and r[1][1] == z * z and r[2][2] == 1
    assert mat_mul(inverse(s), mat_mul(tau, s)) == r
    assert mat_mul(tau, mat_mul(tau, tau)) == identity(3)
    assert transpose(s) == s
    s2 = mat_mul(s, s)
    assert mat_mul(s2, s2) == identity(3)
    assert is_unitary(s)
    assert all(su3_identities().values())


def test_theta_relations():
    record = theta_matrix_relations()
    assert all(record.values()), record
    assert "theta(s) = s^3" in record


def test_transpose_inverse_facts():
    tau, s, r = su3_data()
    assert transpose(inverse(tau)) == tau     # permutation orthogonality
    assert transpose(inverse(s)) == mat_mul(s, mat_mul(s, s))


@pytest.mark.slow
def test_e8_perp_e8_triple():
    r, r1, r2, l, record = e8_perp_e8_triple()
    assert all(record.values()), record
    assert l.rank == 16
    assert r.lattice.is_even() and l.lattice.is_even()


@pytest.mark.slow
def test_leech_embedding():
    record = leech_embedding_check()
    assert all(record.values()), record


@pytest.mark.slow
def test_rank16_isometry_with_scrambled_basis():
    # force a genuine backtracking search (no Gram-equality shortcut)
    import random
    from griess_forge.lattices import IntegralLattice, isometry_test
    from griess_forge.intmat import int_matmul
    _r, _r1, _r2, l, _rec = e8_perp_e8_triple()
    lat = l.lattice
    rng = random.Random(5)
    n = lat.rank
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(40):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-1, 1])
            for k in range(n):
                u[i][k] += c * u[j][k]
    g2 = int_matmul(int_matmul(u, lat.gram), [list(col) for col in zip(*u)])
    scrambled = IntegralLattice(g2, name="scrambled")
    t = isometry_test(scrambled, lat)
    assert t is not None
    for i in range(n):
        for j in range(n):
            assert scrambled.dot(t[i], t[j]) == lat.gram[i][j]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 9))
def test_rank16_isometry_scrambled_seeds_within_node_budget(seed):
    # the seed-5 scramble above with other seeds: the forward-checking
    # search finds each isometry within 200 nodes
    import random
    from griess_forge.lattices import IntegralLattice, isometry_test
    from griess_forge.intmat import int_matmul
    _r, _r1, _r2, l, _rec = e8_perp_e8_triple()
    lat = l.lattice
    rng = random.Random(seed)
    n = lat.rank
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(40):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-1, 1])
            for k in range(n):
                u[i][k] += c * u[j][k]
    g2 = int_matmul(int_matmul(u, lat.gram), [list(col) for col in zip(*u)])
    scrambled = IntegralLattice(g2, name="scrambled")
    t = isometry_test(scrambled, lat, max_nodes=200)
    assert t is not None
    assert int_matmul(int_matmul(t, scrambled.gram),
                      [list(col) for col in zip(*t)]) == lat.gram
