from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from griess_forge.minimal import (
    central_charge, highest_weight, all_labels, fusion,
    sigma_type_set, w_module_classification, u3a_module_table, charge_to_m,
)

F = Fraction


def test_central_charges():
    assert central_charge(1) == F(1, 2)
    assert central_charge(2) == F(7, 10)
    assert central_charge(3) == F(4, 5)
    assert central_charge(4) == F(6, 7)
    with pytest.raises(ValueError):
        central_charge(0)


def test_charge_to_m():
    assert charge_to_m(F(6, 7)) == 4
    assert charge_to_m(F(25, 28)) == 5
    assert charge_to_m(F(81, 70)) is None


def test_highest_weights():
    assert highest_weight(4, 5, 1) == 5 == F(4 * 5, 4)
    assert highest_weight(3, 4, 3) == F(2, 3)
    assert highest_weight(4, 1, 1) == 0
    assert highest_weight(1, 2, 2) == F(1, 16)
    assert highest_weight(3, 4, 2) == F(13, 8)


def test_label_symmetry():
    for m in (1, 2, 3, 4, 5):
        for r in range(1, m + 2):
            for s in range(1, m + 3):
                a = highest_weight(m, r, s)
                b = highest_weight(m, m + 2 - r, m + 3 - s)
                assert a == b


def test_vacuum_is_unit():
    for m in (1, 3, 4):
        for lab in all_labels(m):
            assert fusion(m, (1, 1), lab) == Counter({lab: 1})


def test_simple_current_square():
    # the parity module fuses with itself to the vacuum
    assert fusion(4, (5, 1), (5, 1)) == Counter({(1, 1): 1})
    assert fusion(3, (4, 1), (4, 1)) == Counter({(1, 1): 1})


def test_sigma_type_sets():
    assert sigma_type_set(4) == {F(0), F(5), F(1, 7), F(5, 7), F(12, 7), F(22, 7)}
    assert sigma_type_set(1) == {F(0), F(1, 2)}
    for m in range(1, 8):
        want = m + 2 if m % 2 == 0 else m + 1
        assert len(sigma_type_set(m)) == want


def test_b4_closed_under_fusion():
    b4_labels = [(1, 1), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5)]
    assert {highest_weight(4, r, s) for r, s in b4_labels} == sigma_type_set(4)
    for a in b4_labels:
        for b in b4_labels:
            for lab in fusion(4, a, b):
                assert highest_weight(4, *lab) in sigma_type_set(4)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_fusion_commutative_associative(m, data):
    labels = all_labels(m)
    a = data.draw(st.sampled_from(labels))
    b = data.draw(st.sampled_from(labels))
    c = data.draw(st.sampled_from(labels))
    assert fusion(m, a, b) == fusion(m, b, a)
    lhs = Counter()
    for lab, k in fusion(m, a, b).items():
        for out, k2 in fusion(m, lab, c).items():
            lhs[out] += k * k2
    rhs = Counter()
    for lab, k in fusion(m, b, c).items():
        for out, k2 in fusion(m, a, lab).items():
            rhs[out] += k * k2
    assert lhs == rhs


def test_parity_fusion_is_involution():
    for m in (3, 4, 7, 8):
        top = (m + 1, 1)
        for lab in all_labels(m):
            image = fusion(m, top, lab)
            assert sum(image.values()) == 1
            back = fusion(m, top, next(iter(image)))
            assert back == Counter({lab: 1})


def test_w_census_counts():
    untwisted4, twisted4 = w_module_classification(4)
    assert len(untwisted4) == 9
    untwisted3, twisted3 = w_module_classification(3)
    assert len(untwisted3) == 6
    with pytest.raises(ValueError):
        w_module_classification(2)


def test_w_census_split_labels():
    untwisted4, _ = w_module_classification(4)
    split = [w for w in untwisted4 if w.kind == "split_pm"]
    assert len(split) == 6       # three labels, two signs each
    assert all(w.label[0] == 3 for w in split)   # r = (m+2)/2 at m = 4
    weights = sorted({highest_weight(4, *w.label) for w in split})
    assert weights == [F(1, 21), F(10, 21), F(4, 3)]


def test_w_census_delta_parity():
    for m in (3, 4):
        untwisted, twisted = w_module_classification(m)
        for w in untwisted:
            assert w.delta.denominator == 1
        for w in twisted:
            assert (w.delta - F(1, 2)).denominator == 1
        if m % 4 == 0:
            for w in twisted:
                assert w.label[0] % 2 == 0   # r even <-> half-integer delta
        else:
            for w in twisted:
                assert w.label[1] % 2 == 0


def test_u3a_module_table():
    table = u3a_module_table()
    assert len(table) == 6
    assert F(2, 5) + F(1, 7) == F(19, 35)
    singles, doubles = table[F(19, 35)]
    assert (F(2, 5), F(1, 7)) in singles
    m3 = {highest_weight(3, r, s) for r, s in all_labels(3)}
    m4 = {highest_weight(4, r, s) for r, s in all_labels(4)}
    for name, (single, double) in table.items():
        for h1, h2 in single + double:
            assert h1 in m3 and h2 in m4
    singles0, _ = table[F(0)]
    assert all(h1 in {F(0), F(3)} for h1, _ in singles0)
