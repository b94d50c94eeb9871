"""Tests for divisor-class arithmetic, bounds, and the slope table."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelops.cli import EXPECTED_TABLE
from siegelops.slopes import (CITED_GENUS6_EFF_LOWER, CITED_GENUS6_FORM_CLASS, DivClass,
                              OPERATOR_BASES, SlopeEntry, class_N0prime, class_operator_output,
                              class_tnull, hyperelliptic_bound, known_slopes_table,
                              make_class, moving_bound, render_table, slope,
                              torelli_pullback)


def test_slope_examples():
    assert slope(make_class(8, 1)) == 8
    assert slope(make_class(108, 14)) == Fraction(54, 7)
    g = 6
    assert slope(make_class(g + 1, 1)) == 7
    with pytest.raises(ValueError, match=r"^the class 16L - 0D has delta = 0 and so no slope$"):
        slope(make_class(16, 0))


def test_classes_compare_with_their_labels_and_print_as_classes():
    assert make_class(12, 1) == DivClass(Fraction(12), Fraction(1))
    assert make_class(12, 1) != make_class(12, 1, label="discriminant")
    assert str(make_class(12, 1, label="discriminant")) == "12L - 1D"
    assert str(make_class(Fraction(17, 2), Fraction(1, 2))) == "17/2L - 1/2D"


def test_slope_entries_render_their_qualifiers():
    assert SlopeEntry(Fraction(54, 7)).render() == "54/7"
    assert SlopeEntry(Fraction(6), qualifier="upper-bound").render() == "<= 6"
    assert SlopeEntry(interval=(Fraction(53, 10), Fraction(7)),
                      qualifier="conjectural-upper").render() == "(?) <= [53/10, 7]"
    assert SlopeEntry().render() == ""


def test_tnull_classes():
    assert class_tnull(3) == DivClass(Fraction(18), Fraction(2), label="theta-null g=3")
    assert slope(class_tnull(3)) == 9
    c4 = class_tnull(4)
    assert (c4.lam, c4.delta) == (68, 8)
    assert slope(c4) == Fraction(17, 2)
    c2 = class_tnull(2)
    assert (c2.lam, c2.delta) == (5, Fraction(1, 2))
    assert slope(c2) == 10
    for g in range(2, 9):
        assert slope(class_tnull(g)) == 8 + Fraction(2) ** (3 - g)
    with pytest.raises(ValueError):
        class_tnull(1)


def test_residual_component_classes():
    c4 = class_N0prime(4)
    assert (c4.lam, c4.delta) == (8, 1)
    c5 = class_N0prime(5)
    assert (c5.lam, c5.delta) == (108, 14)
    for g in range(4, 13):
        assert slope(class_N0prime(g)) > 6
    with pytest.raises(ValueError):
        class_N0prime(3)


def test_operator_output_classes():
    out2 = class_operator_output(2, class_tnull(2))
    assert (out2.lam, out2.delta) == (12, 1) and out2.delta_lower_bound
    assert slope(out2) == 12
    out4 = class_operator_output(4, class_N0prime(4))
    assert (out4.lam, out4.delta) == (34, 4)
    assert slope(out4) == Fraction(17, 2)
    out5 = class_operator_output(5, class_N0prime(5))
    assert (out5.lam, out5.delta) == (542, 70)
    assert slope(out5) == Fraction(271, 35)


def test_moving_bounds():
    assert moving_bound(5, class_N0prime(5)) == Fraction(271, 35)
    assert moving_bound(6, CITED_GENUS6_FORM_CLASS) == Fraction(43, 6)
    assert moving_bound(2, class_tnull(2)) == 12
    with pytest.raises(ValueError):
        moving_bound(3, make_class(9, 0))


def test_hyperelliptic_bounds():
    assert hyperelliptic_bound(3) == Fraction(28, 3)
    assert hyperelliptic_bound(4) == 9
    assert hyperelliptic_bound(6) == Fraction(26, 3)
    with pytest.raises(ValueError):
        hyperelliptic_bound(2)


def test_torelli_pullback():
    out4 = class_operator_output(4, class_N0prime(4))
    pb = torelli_pullback(out4)
    assert (pb.lam1, pb.deltap) == (34, 4)
    assert pb.slope() == Fraction(17, 2)
    t4 = torelli_pullback(class_tnull(4))
    assert (t4.lam1, t4.deltap) == (68, 8)
    assert t4.lam1 == 2 * pb.lam1 and t4.deltap == 2 * pb.deltap
    with pytest.raises(ValueError, match=r"^the class pullback of \(16L - 0D\) has delta = 0 "
                                         r"and so no slope$"):
        torelli_pullback(make_class(16, 0)).slope()


def test_table_values():
    rows = {r.genus: r for r in known_slopes_table()}
    assert rows[5].eff.value == Fraction(54, 7)
    assert rows[5].mov.value == Fraction(271, 35)
    assert rows[5].mov.qualifier == "upper-bound"
    assert rows[4].eff.value == 8 and rows[4].mov.value == Fraction(17, 2)
    assert rows[6].eff.interval == (Fraction(53, 10), 7)
    assert rows[6].mov.qualifier == "conjectural-upper"
    assert rows[1].mov.render() == ""


def test_table_rendering_exact():
    expected = {
        1: ("12", ""),
        2: ("10", "12"),
        3: ("9", "28/3"),
        4: ("8", "17/2"),
        5: ("54/7", "<= 271/35"),
        6: ("[53/10, 7]", "(?) <= 43/6"),
    }
    for row in known_slopes_table():
        assert (row.eff.render(), row.mov.render()) == expected[row.genus]
    text = render_table()
    assert "54/7" in text and "(?) <= 43/6" in text


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=1, max_value=500, max_denominator=12),
       st.fractions(min_value=Fraction(1, 4), max_value=60, max_denominator=12),
       st.integers(2, 6))
def test_operator_slope_matches_moving_bound(a, b, g):
    """(g a + 2)/(g b) = a/b + 2/(b g): the slope of the flagged output class
    equals the bound whenever the order lower bound is attained."""
    c = make_class(a, b)
    assert moving_bound(g, c) == slope(class_operator_output(g, c)) == a / b + 2 / (b * g)


def test_table_rows_come_from_the_operator_bases():
    """Rows 2..6 are the base classes of OPERATOR_BASES: the slope of the
    base (the top of the cited interval at genus 6), and the operator bound
    on it with the table's qualifier; they render as the expected table."""
    rows = {r.genus: r for r in known_slopes_table()}
    assert sorted(OPERATOR_BASES) == [2, 3, 4, 5, 6] and sorted(rows) == [1, 2, 3, 4, 5, 6]
    for g, (base, qualifier) in OPERATOR_BASES.items():
        eff = rows[g].eff.interval or (None, rows[g].eff.value)
        assert eff[1] == slope(base)
        assert rows[g].mov.value == moving_bound(g, base)
        assert rows[g].mov.qualifier == qualifier
    assert rows[6].eff.interval == (CITED_GENUS6_EFF_LOWER, slope(CITED_GENUS6_FORM_CLASS))
    assert {r.genus: (r.eff.render(), r.mov.render()) for r in rows.values()} == EXPECTED_TABLE


def test_residual_equals_schottky_class_in_genus4():
    assert (class_N0prime(4).lam, class_N0prime(4).delta) == (8, 1)
