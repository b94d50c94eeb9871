"""Tests for the jet algebra: operator expansion and structural identities."""

import math

import pytest

from fractions import Fraction

from siegelops.jets import (JetPoly, diffresult_expand, jet_apply, jet_det_operator,
                            jet_det_partial, jet_diff, jet_mod_symbol, jet_var)
from siegelops.opgen import symbolic_weight
from siegelops.poly import MultiPoly, coeff_R, index_set_N, r_var
from siegelops.scalars import RatFunc


def all_F(g):
    return {h: "F" for h in range(1, g + 1)}


def test_apply_ones_gives_twice_det_genus2():
    got = jet_apply(coeff_R(2, (1, 1)), all_F(2), 2)
    assert got == jet_det_partial("F", 2).scale(Fraction(2))


def test_apply_top_shape_gives_F_times_operator_det():
    got = jet_apply(coeff_R(2, (2, 0)), all_F(2), 2)
    expect = JetPoly.symbol("F") * jet_det_operator("F", [1, 2], [1, 2])
    assert got == expect


def test_apply_single_entry():
    got = jet_apply(MultiPoly.var(r_var(1, 1, 1)), {1: "F"}, 1)
    assert got == JetPoly({(jet_var("F", ((1, 1),)),): Fraction(1)})


def test_apply_rejects_unassigned_slot():
    with pytest.raises(ValueError):
        jet_apply(coeff_R(2, (1, 1)), {1: "F"}, 2)


def test_det_partial_small_genera():
    assert jet_det_partial("F", 1) == JetPoly({(jet_var("F", ((1, 1),)),): Fraction(1)})
    expect2 = (JetPoly({(jet_var("F", ((1, 1),)), jet_var("F", ((2, 2),))): Fraction(1)})
               + JetPoly({(jet_var("F", ((1, 2),)), jet_var("F", ((1, 2),))): Fraction(-1)}))
    assert jet_det_partial("F", 2) == expect2


def test_det_partial_genus3_matches_apply_path():
    lhs = jet_det_partial("F", 3).scale(Fraction(math.factorial(3)))
    assert lhs == jet_apply(coeff_R(3, (1, 1, 1)), all_F(3), 3)


def test_mod_symbol_drops_bare_factors(spec2_symbolic):
    jet = jet_apply(spec2_symbolic.Q, all_F(2), 2)
    reduced = jet_mod_symbol(jet, "F")
    assert reduced == jet_det_partial("F", 2, "Qa").scale(RatFunc(2))
    x = JetPoly({(jet_var("F", ((1, 2), (1, 2))),): Fraction(3)})
    assert jet_mod_symbol(JetPoly.symbol("F") * x, "F").is_zero()


def test_jet_equal_detects_difference():
    p = jet_det_partial("F", 2)
    q = p + JetPoly({(jet_var("F", ((1, 1),)),): Fraction(1)})
    assert p != q
    assert p == jet_det_partial("F", 2)


def test_printed_genus2_operator(spec2_symbolic):
    """The explicit genus-2 expansion: 2 det(dF) + (2(2a)/(1-2a)) F (det d)F."""
    a = symbolic_weight()
    got = jet_apply(spec2_symbolic.Q, all_F(2), 2)
    expect = (jet_det_partial("F", 2, "Qa").scale(RatFunc(2))
              + (JetPoly.symbol("F", "Qa")
                 * jet_det_operator("F", [1, 2], [1, 2], "Qa")).scale(
                     2 * (2 * a) / (1 - 2 * a)))
    assert got == expect


def test_printed_genus3_operator(spec3_symbolic):
    """The explicit genus-3 expansion, with the complement minors read as
    signed cofactors (the epsilon convention of the minor-sum formula)."""
    a = symbolic_weight()
    got = jet_apply(spec3_symbolic.Q, all_F(3), 3)
    F = JetPoly.symbol("F", "Qa")
    third = JetPoly.zero("Qa")
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            rows = [v for v in (1, 2, 3) if v != i]
            cols = [v for v in (1, 2, 3) if v != j]
            piece = (jet_det_operator("F", rows, cols, "Qa")
                     * JetPoly({(jet_var("F", ((i, j),)),): RatFunc(1)}, "Qa"))
            third = third + piece.scale(RatFunc((-1) ** (i + j)))
    expect = (jet_det_partial("F", 3, "Qa").scale(RatFunc(6))
              + (F * F * jet_det_operator("F", [1, 2, 3], [1, 2, 3], "Qa")).scale(
                  3 * (2 * a) ** 2 / ((2 * a - 1) * (2 * a - 2)))
              + (F * third).scale(-(3 * (2 * a)) / (2 * a - 1)))
    assert got == expect


@pytest.mark.parametrize("g,n", [
    (2, (1, 1)), (2, (2, 0)), (3, (2, 1, 0)), (3, (3, 0, 0)), (3, (1, 1, 1)),
])
def test_diffresult_examples(g, n):
    assert diffresult_expand(g, n) == jet_apply(coeff_R(g, n), all_F(g), g)


def test_diffresult_explicit_values():
    # m=1 collapses to twice the first-derivative determinant
    assert diffresult_expand(2, (1, 1)) == jet_det_partial("F", 2).scale(Fraction(2))
    # m=g keeps a single summand F^(g-1) (det d)F
    expect = (JetPoly.symbol("F") ** 2) * jet_det_operator("F", [1, 2, 3], [1, 2, 3])
    assert diffresult_expand(3, (3, 0, 0)) == expect


def test_diffresult_rejects_bad_shape():
    with pytest.raises(ValueError):
        diffresult_expand(4, (2, 2, 0, 0))


@pytest.mark.parametrize("g", [2, 3])
def test_laplace_agreement_all_admissible(g):
    for n in index_set_N(g):
        shape = sorted(n, reverse=True)
        if any(v not in (0, 1) for v in shape[1:]):
            continue
        assert diffresult_expand(g, n) == jet_apply(coeff_R(g, n), all_F(g), g)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_summands_structure(g):
    """All-ones gives g! det(dF); every other index is divisible by the symbol."""
    ones = (1,) * g
    assert jet_apply(coeff_R(g, ones), all_F(g), g) == \
        jet_det_partial("F", g).scale(Fraction(math.factorial(g)))
    for n in index_set_N(g):
        if n == ones:
            continue
        jet = jet_apply(coeff_R(g, n), all_F(g), g)
        assert jet_mod_symbol(jet, "F").is_zero(), n


def test_jet_diff_leibniz():
    F = JetPoly.symbol("F")
    d = jet_diff(F * F, 1, 2)
    assert d == (F * JetPoly({(jet_var("F", ((1, 2),)),): Fraction(1)})).scale(Fraction(2))

