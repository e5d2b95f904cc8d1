from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from griess_forge import lattices
from griess_forge.intmat import int_matmul
from griess_forge.lattices import IntegralLattice, build_root_lattice, short_vectors


def brute_force(lat, norm, box):
    out = []
    for v in product(range(-box, box + 1), repeat=lat.rank):
        if any(v) and lat.norm(v) == norm:
            out.append(v)
    return sorted(out)


def random_gram(draw, n):
    # B B^T + I is positive definite for any integer B
    b = [[draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)]
         for _ in range(n)]
    g = [[sum(b[i][k] * b[j][k] for k in range(n)) + (1 if i == j else 0)
          for j in range(n)] for i in range(n)]
    return g


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=8))
def test_enumeration_matches_box_search(data, n, norm):
    g = random_gram(data.draw, n)
    lat = IntegralLattice(g)
    got = sorted(short_vectors(lat, norm))
    # box bound: norm(x) >= |x|^2 for B B^T + I, so every coordinate of a
    # norm-N vector is at most sqrt(N)
    want = brute_force(lat, norm, isqrt(norm))
    assert got == want


@pytest.mark.parametrize("kind,n,count", [("E", 8, 240), ("D", 4, 24)])
def test_scrambled_basis_gives_the_same_roots(kind, n, count):
    lat = build_root_lattice(kind, n)
    roots = sorted(short_vectors(lat, 2))
    assert len(roots) == count

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def run(data):
        # rows of U give the scrambled basis in the root basis
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = (data.draw(st.integers(min_value=0, max_value=n - 1))
                    for _ in range(2))
            if i != j:
                c = data.draw(st.sampled_from([-2, -1, 1, 2]))
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        scrambled = IntegralLattice(
            int_matmul(int_matmul(u, lat.gram), [list(col) for col in zip(*u)]))
        found = short_vectors(scrambled, 2)
        assert len(found) == count
        assert sorted(tuple(sum(x[i] * u[i][j] for i in range(n)) for j in range(n))
                      for x in found) == roots

    run()


def test_short_vectors_gives_each_caller_its_own_list():
    a2 = build_root_lattice("A", 2)
    first = short_vectors(a2, 2)
    first.clear()
    assert len(short_vectors(a2, 2)) == 6


def test_each_gram_and_norm_is_enumerated_once():
    # a Gram no other test enumerates, so that every first call is a miss
    lat = build_root_lattice("D", 5).scaled(7)
    before = lattices._short_vectors.cache_info()
    short_vectors(lat, 14)
    # equal contents in another object are the same key
    short_vectors(IntegralLattice([row[:] for row in lat.gram]), 14)
    short_vectors(lat, 28)
    after = lattices._short_vectors.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 1)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=3))
def test_enumeration_pairs_and_determinism(data, n):
    g = random_gram(data.draw, n)
    lat = IntegralLattice(g)
    first = short_vectors(lat, 4)
    # enumerate again, past the cache; clearing the cache instead would
    # drop the other tests' cached enumerations (the Leech norm-4 list)
    second = list(lattices._short_vectors.__wrapped__(tuple(map(tuple, g)), 4))
    assert first == second
    for i in range(0, len(first), 2):
        assert first[i] == tuple(-t for t in first[i + 1])
