"""Exact integral LLL and the Fincke-Pohst completion read off its data.

The completion is checked against a reference copy of the Fraction LDL^T
pass that short_vectors used before LLL, run on the reduced Gram.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from griess_forge.gluing import leech, n0_sublattice
from griess_forge.intmat import int_det, int_matmul
from griess_forge.lattices import _completion, build_root_lattice, lll_reduce


def ldl_scaled_reference(gram):
    """(D, C, M) by the rational LDL^T pass that LLL replaced."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        for j in range(i + 1, n):
            c[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= c[i][k] * a[i][j]
    m = lcm(*[d[i].denominator for i in range(n)],
            *[c[i][j].denominator for i in range(n) for j in range(i + 1, n)])
    return [int(x * m) for x in d], [[int(x * m) for x in row] for row in c], m


def assert_lll_reduced(gram):
    n = len(gram)
    g, u, d, lam = lll_reduce(gram)
    assert int_matmul(int_matmul(u, gram), [list(col) for col in zip(*u)]) == g
    assert abs(int_det(u)) == 1
    assert d[0] == 1
    for i in range(1, n + 1):
        assert d[i] == int_det([row[:i] for row in g[:i]])
    for k in range(n):
        for j in range(k):
            assert 2 * abs(lam[k][j]) <= d[j + 1]
        if k:
            assert (100 * d[k + 1] * d[k - 1]
                    >= 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2)
    assert _completion(d, lam) == tuple(ldl_scaled_reference(g))


def positive_definite_gram(draw, n, spread):
    # B B^T + I is positive definite for any integer B
    b = [[draw(st.integers(min_value=-spread, max_value=spread)) for _ in range(n)]
         for _ in range(n)]
    return [[sum(b[i][k] * b[j][k] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)]


def scramble(draw, gram, steps):
    """U G U^T for a unimodular U made of `steps` random row operations."""
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return int_matmul(int_matmul(u, gram), [list(col) for col in zip(*u)])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=9))
def test_lll_on_random_positive_definite_grams(data, n, spread):
    assert_lll_reduced(positive_definite_gram(data.draw, n, spread))


@pytest.mark.parametrize("lattice,examples", [
    (lambda: build_root_lattice("E", 8), 40),
    (lambda: n0_sublattice().lattice, 6),
    (lambda: leech().lattice, 6),
], ids=["E8", "N0", "Leech"])
def test_lll_on_scrambled_lattices(lattice, examples):
    gram = lattice().gram

    @settings(max_examples=examples, deadline=None)
    @given(st.data())
    def run(data):
        assert_lll_reduced(scramble(data.draw, gram, 3 * len(gram)))

    run()


@pytest.mark.parametrize("gram", [[[1, 2], [2, 1]], [[2, 2], [2, 2]], [[0, 1], [1, 0]]])
def test_lll_rejects_non_positive_definite(gram):
    with pytest.raises(ValueError, match="not positive definite"):
        lll_reduce(gram)
