from itertools import product

import pytest

from griess_forge.codes import tetracode, tetracode_slope, golay12

D1 = (0, -1, -1, -1, 0, 0, 0, 0, 0, 1, 1, 1)
D2 = (1, 1, 0, -1, 0, 0, 0, 0, 1, 1, -1, 0)


@pytest.mark.parametrize("code", [tetracode(), tetracode_slope()])
def test_tetracode_counts(code):
    assert len(code) == 9
    assert code.dimension() == 2
    assert code.minimum_weight() == 3
    assert code.weight_enumerator() == {0: 1, 3: 8}
    assert code.is_self_dual()


def test_tetracode_full_enumeration_oracle():
    # brute force over all 3^4 words using the generator parity checks
    code = tetracode()
    gens = code.generators
    brute = [w for w in product(range(3), repeat=4)
             if all(sum(g[i] * w[i] for i in range(4)) % 3 == 0 for g in gens)]
    assert sorted(code.words()) == sorted(brute)


def test_golay_is_self_dual_golay():
    g = golay12()
    assert len(g) == 729
    assert g.dimension() == 6
    assert g.minimum_weight() == 6
    assert g.is_self_dual()


def test_golay_weight_enumerator():
    # 1 + 264 z^6 + 440 z^9 + 24 z^12 is the unique self-dual [12,6,6] shape
    assert golay12().weight_enumerator() == {0: 1, 6: 264, 9: 440, 12: 24}


def test_named_glue_words_are_codewords():
    g = golay12()
    assert D1 in g
    assert D2 in g


def test_repetition_blocks_in_golay():
    # (0^4, c, c) for every tetracode word c, in slope coordinates
    g = golay12()
    zero = (0, 0, 0, 0)
    for c in tetracode_slope().words():
        assert zero + c + c in g


def test_membership_rejects_noncodeword():
    g = golay12()
    assert (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) not in g
