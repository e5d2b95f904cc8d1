from itertools import product

import pytest

from griess_forge.lattices import (
    build_root_lattice, direct_sum, affine_e6, node_sublattice, short_vectors,
    punctured_components, isometry_test, annihilator, quotient_structure, cosets,
    Sublattice, IntegralLattice,
)


def brute_force_short(lat, norm, box):
    """Oracle: exhaustive box search, valid when box bounds all coordinates."""
    out = []
    for v in product(range(-box, box + 1), repeat=lat.rank):
        if any(v) and lat.norm(v) == norm:
            out.append(v)
    return sorted(out)


def test_a2_roots():
    a2 = build_root_lattice("A", 2)
    roots = short_vectors(a2, 2)
    assert len(roots) == 6
    assert a2.coxeter == 3


def test_e6_roots_and_coxeter():
    e6 = build_root_lattice("E", 6)
    assert len(short_vectors(e6, 2)) == 72
    assert e6.coxeter == 12
    assert e6.det() == 3


def test_e8_scaled_roots():
    e8s = build_root_lattice("E", 8, scale=2)
    assert len(short_vectors(e8s, 4)) == 240
    assert len(short_vectors(e8s, 2)) == 0  # doubly even
    assert e8s.det() == 2 ** 8


def test_d4_and_a1():
    d4 = build_root_lattice("D", 4)
    assert len(short_vectors(d4, 2)) == 24
    assert d4.coxeter == 6
    a1 = build_root_lattice("A", 1)
    assert len(short_vectors(a1, 2)) == 2


@pytest.mark.parametrize("kind,n,box", [("A", 2, 2), ("A", 3, 2), ("D", 4, 2)])
def test_enumeration_against_box_oracle(kind, n, box):
    lat = build_root_lattice(kind, n)
    for norm in (2, 4, 6):
        got = sorted(short_vectors(lat, norm))
        want = brute_force_short(lat, norm, box + norm // 2)
        assert got == want


def test_short_vectors_sign_pairs_adjacent():
    a2 = build_root_lattice("A", 2)
    vs = short_vectors(a2, 2)
    for i in range(0, len(vs), 2):
        assert vs[i] == tuple(-t for t in vs[i + 1])


def test_affine_marks():
    aff = affine_e6()
    assert aff.MARKS == (1, 1, 2, 3, 2, 1, 2)
    assert aff.mark(3) == 3      # the branch node
    assert aff.mark(0) == 1
    assert aff.lattice.norm(aff.alpha0) == 2   # the highest root is a root


def test_node_sublattices():
    aff = affine_e6()
    sub0, m0, comp0 = node_sublattice(aff, 0)
    assert m0 == 1 and comp0 == [("E", 6)] and sub0.index() == 1
    sub2, m2, comp2 = node_sublattice(aff, 2)
    assert m2 == 2 and comp2 == [("A", 1), ("A", 5)] and sub2.index() == 2
    sub3, m3, comp3 = node_sublattice(aff, 3)
    assert m3 == 3 and comp3 == [("A", 2), ("A", 2), ("A", 2)] and sub3.index() == 3


# root counts of the irreducible types, the reference for the diagram walk
_ROOT_COUNT = {"A": lambda n: n * (n + 1), "D": lambda n: 2 * n * (n - 1),
               "E": {6: 72, 7: 126, 8: 240}.__getitem__}


@pytest.mark.parametrize("i", range(7))
def test_punctured_components_match_root_counts(i):
    aff = affine_e6()
    comps = punctured_components(i)
    assert sorted(j for nodes, _k, _n in comps for j in nodes) == \
        [j for j in range(7) if j != i]
    assert [len(nodes) for nodes, _k, _n in comps] == \
        sorted(len(nodes) for nodes, _k, _n in comps)
    for nodes, kind, n in comps:
        assert nodes == sorted(nodes) and len(nodes) == n
        lat = Sublattice(aff.lattice, [aff.node_root(j) for j in nodes]).as_lattice()
        assert len(short_vectors(lat, 2)) == _ROOT_COUNT[kind](n)


def test_punctured_components_order():
    # found in node order, then stably sorted by size: the frame order
    assert punctured_components(2) == [([1], "A", 1), ([0, 3, 4, 5, 6], "A", 5)]
    assert punctured_components(3) == [([0, 6], "A", 2), ([1, 2], "A", 2),
                                       ([4, 5], "A", 2)]
    with pytest.raises(ValueError):
        punctured_components(7)


def test_indefinite_gram_is_rejected():
    for gram in ([[2, 3], [3, 2]], [[0, 1], [1, 0]], [[2, 0], [0, 0]]):
        with pytest.raises(ValueError, match="not positive definite"):
            IntegralLattice(gram)


def test_cosets_of_3a_node():
    aff = affine_e6()
    sub, m, _ = node_sublattice(aff, 3)
    reps, moduli, classify = cosets(sub)
    assert len(reps) == 3
    assert moduli == (3,)
    assert reps[0] == (0,) * 6
    assert {classify(r) for r in reps} == {(0,), (1,), (2,)}


def test_quotient_structure_marks():
    aff = affine_e6()
    for i in range(7):
        sub, m, _ = node_sublattice(aff, i)
        moduli, classify = quotient_structure(sub)
        order = 1
        for q in moduli:
            order *= q
        assert order == m
        # deleted node's root generates the quotient
        if m > 1:
            cls = classify(aff.node_root(i))
            assert any(cls)


def test_annihilator_e6_in_e8_is_a2():
    e8 = build_root_lattice("E", 8)
    # extend E6 simple roots into E8: nodes 0..5 of our E8 chain+branch form E6
    e6 = build_root_lattice("E", 6)
    rows = []
    for i in range(6):
        v = [0] * 8
        v[i] = 1
        rows.append(v)
    sub = Sublattice(e8, rows)
    assert sub.as_lattice().gram == e6.gram
    q = annihilator(e8, sub)
    assert q.rank == 2
    a2 = build_root_lattice("A", 2)
    assert isometry_test(q.as_lattice(), a2) is not None


def test_annihilator_edge_cases():
    a1a1 = direct_sum(build_root_lattice("A", 1), build_root_lattice("A", 1))
    first = Sublattice(a1a1, [[1, 0]])
    other = annihilator(a1a1, first)
    assert other.rank == 1 and other.basis[0][0] == 0
    full = Sublattice(a1a1, [[1, 0], [0, 1]])
    assert annihilator(a1a1, full).rank == 0


def test_isometry_permuted_a2():
    a2 = build_root_lattice("A", 2)
    other = IntegralLattice([[2, 1], [1, 2]], name="A2'")
    t = isometry_test(other, a2)
    assert t is not None
    # rows of t are images; check the Gram transport
    got = [[other.dot(t[i], t[j]) for j in range(2)] for i in range(2)]
    assert got == a2.gram


def test_isometry_determinant_reject():
    a1a1 = direct_sum(build_root_lattice("A", 1), build_root_lattice("A", 1))
    a2 = build_root_lattice("A", 2)
    assert isometry_test(a1a1, a2) is None


def test_index_and_coset_count_a2_e6_in_e8():
    e8 = build_root_lattice("E", 8)
    e6rows = [[1 if j == i else 0 for j in range(8)] for i in range(6)]
    q = annihilator(e8, Sublattice(e8, e6rows))
    rows = e6rows + q.basis
    sub = Sublattice(e8, rows)
    assert sub.index() == 3
    reps, moduli, _ = cosets(sub)
    assert len(reps) == 3
