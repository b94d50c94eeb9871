"""Tests for the jet algebra: operator expansion and structural identities."""

import math

import pytest

from fractions import Fraction

from conftest import packed
from siegelops.jets import (JetPoly, diffresult_expand, jet_apply, jet_det_operator,
                            jet_det_partial, jet_diff, jet_minor_det_partial, jet_mod_symbol,
                            jet_var, operator_jet)
from siegelops.opgen import symbolic_weight
from siegelops.poly import MultiPoly, coeff_R, index_set_N, r_var, t_var
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
    got = jet_apply(packed(MultiPoly.var(r_var(1, 1, 1)), 1), {1: "F"}, 1)
    assert got == JetPoly({(jet_var("F", ((1, 1),)),): Fraction(1)})


def test_apply_rejects_unassigned_slot():
    with pytest.raises(ValueError):
        jet_apply(coeff_R(2, (1, 1)), {1: "F"}, 2)


def test_det_partial_small_genera():
    assert jet_det_partial("F", 1) == JetPoly({(jet_var("F", ((1, 1),)),): Fraction(1)})
    expect2 = (JetPoly({(jet_var("F", ((1, 1),)), jet_var("F", ((2, 2),))): Fraction(1)})
               + JetPoly({(jet_var("F", ((1, 2),)), jet_var("F", ((1, 2),))): Fraction(-1)}))
    assert jet_det_partial("F", 2) == expect2
    # the empty determinants: 1, and the operator of order 0, the bare symbol
    empty = jet_minor_det_partial("F", [], []).promote()
    assert empty == JetPoly.const(RatFunc(1)) and empty.terms == {(): RatFunc(1)}
    assert isinstance(empty.terms[()], RatFunc)
    assert jet_det_operator("F", [], []) == JetPoly.symbol("F")


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
              + (JetPoly.symbol("F").promote()
                 * jet_det_operator("F", [1, 2], [1, 2])).scale(2 * (2 * a) / (1 - 2 * a)))
    assert got == expect


def test_operator_jet_is_the_genus2_operator_over_2(spec2_symbolic):
    """operator_jet divides the expansion by g!: det(dF) + (2a/(1-2a)) F (det d)F,
    the form that apply and the numeric D25T2 check both evaluate."""
    a = symbolic_weight()
    expect = (jet_det_partial("F", 2, "Qa")
              + (JetPoly.symbol("F").promote()
                 * jet_det_operator("F", [1, 2], [1, 2])).scale(2 * a / (1 - 2 * a)))
    assert operator_jet(spec2_symbolic) == expect


def test_printed_genus3_operator(spec3_symbolic):
    """The explicit genus-3 expansion, with the complement minors read as
    signed cofactors (the epsilon convention of the minor-sum formula)."""
    a = symbolic_weight()
    got = jet_apply(spec3_symbolic.Q, all_F(3), 3)
    F = JetPoly.symbol("F").promote()
    third = JetPoly.zero()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            rows = [v for v in (1, 2, 3) if v != i]
            cols = [v for v in (1, 2, 3) if v != j]
            piece = (jet_det_operator("F", rows, cols)
                     * JetPoly({(jet_var("F", ((i, j),)),): RatFunc(1)}))
            third = third + piece.scale(RatFunc((-1) ** (i + j)))
    expect = (jet_det_partial("F", 3, "Qa").scale(RatFunc(6))
              + (F * F * jet_det_operator("F", [1, 2, 3], [1, 2, 3])).scale(
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



def _jet_apply_term_by_term(q, assignment, g):
    """The oracle of jet_apply on the MultiPoly q: each term's jet monomial
    built on its own from its decoded monomial,
    its coefficient added in the field, one RatFunc or Fraction sum per
    term, dropping a sum that cancels."""
    out: dict = {}
    for m, c in q.terms.items():
        derivs = {h: [] for h in range(1, g + 1)}
        for v, e in m:
            derivs[v[1]] += [(v[2], v[3])] * e
        mono = tuple(sorted(jet_var(assignment[h], derivs[h]) for h in range(1, g + 1)))
        total = out.pop(mono, 0) + c
        if total:
            out[mono] = total
    return JetPoly(out)


def test_jet_apply_matches_the_term_by_term_sum_in_Qa():
    """On the cleared form, jet_apply adds integer numerators per jet
    monomial; the result equals the field sum term by term, on input with
    unequal denominators (not built by build_Q), two coefficients that
    cancel to zero in one jet monomial and two that add up in another."""
    a = symbolic_weight()

    def r(h, i, j):
        return MultiPoly.var(r_var(h, i, j)).promote()

    # with F in both slots, r_{1;11} r_{2;22} and r_{1;22} r_{2;11} give one
    # jet monomial F_11 F_22, and so do r_{1;12} r_{2;11} and r_{1;11} r_{2;12}
    q = ((r(1, 1, 1) * r(2, 2, 2)).scale(1 / (a - 1))
         + (r(1, 2, 2) * r(2, 1, 1)).scale(-1 / (a - 1))
         + (r(1, 1, 2) * r(2, 1, 1)).scale((a + 2) / (2 * a + 3))
         + (r(1, 1, 1) * r(2, 1, 2)).scale(Fraction(1, 3) / (a - 1))
         + r(2, 1, 2).scale(a * a / 7) + MultiPoly.const(RatFunc(Fraction(5, 2))))
    assert all(isinstance(c, RatFunc) for c in q.terms.values()) and len(q.terms) == 6
    for assignment in ({1: "F", 2: "F"}, {1: "F", 2: "G"}):
        got = jet_apply(packed(q, 2), assignment, 2)
        assert got == _jet_apply_term_by_term(q, assignment, 2)
        assert all(isinstance(c, RatFunc) for c in got.terms.values())
    both_F = jet_apply(packed(q, 2), all_F(2), 2)
    assert len(both_F.terms) == 3
    assert (jet_var("F", ((1, 1),)), jet_var("F", ((2, 2),))) not in both_F.terms
    assert both_F.terms[jet_var("F", ((1, 1),)), jet_var("F", ((1, 2),))] == \
        (a + 2) / (2 * a + 3) + Fraction(1, 3) / (a - 1)
    assert len(jet_apply(packed(q, 2), {1: "F", 2: "G"}, 2).terms) == 6
    # a RatFunc constant times a variable is in Q(a), as the variable scaled by it is
    const_a = MultiPoly.const(a) * MultiPoly.var(r_var(1, 1, 1))
    got = jet_apply(packed(const_a, 2), all_F(2), 2)
    assert got == jet_apply(packed(MultiPoly.var(r_var(1, 1, 1)).scale(a), 2), all_F(2), 2)
    assert got.terms == {(jet_var("F"), jet_var("F", ((1, 1),))): a}
    assert isinstance(got.terms[jet_var("F"), jet_var("F", ((1, 1),))], RatFunc)


def test_jet_apply_matches_the_term_by_term_sum_in_Q():
    b11, b20, b02 = (coeff_R(2, n).decode() for n in ((1, 1), (2, 0), (0, 2)))
    q = b11.scale(Fraction(3, 4)) + b20.scale(Fraction(-5, 6)) + b02
    for assignment in ({1: "F", 2: "F"}, {1: "F", 2: "G"}):
        got = jet_apply(packed(q, 2), assignment, 2)
        assert got == _jet_apply_term_by_term(q, assignment, 2)
        assert all(isinstance(c, Fraction) for c in got.terms.values())
    assert jet_apply(packed(q - q, 2), all_F(2), 2).is_zero()


def test_jet_apply_of_the_genus3_operator_matches_the_term_by_term_sum(spec3_symbolic):
    q = spec3_symbolic.Q
    assert jet_apply(q, all_F(3), 3) == _jet_apply_term_by_term(q.decode(), all_F(3), 3)


@pytest.mark.parametrize("q, message", [
    (packed(MultiPoly.var(t_var(1)), 2),
     r"^operator polynomial mentions non-matrix variable \('t', 1\)$"),
    (packed(MultiPoly.var(t_var(2)) * MultiPoly.var(r_var(1, 1, 1)), 2),
     r"^operator polynomial mentions non-matrix variable \('t', 2\)$"),
    (packed(MultiPoly.var(t_var(2)) * MultiPoly.var(t_var(1)), 2),
     r"^operator polynomial mentions non-matrix variable \('t', 1\)$"),
    (packed(MultiPoly.var(r_var(3, 1, 1)), 3), r"^operator polynomial of genus 3 on 2 slots$"),
    (packed(MultiPoly.var(r_var(1, 1, 3)), 3), r"^operator polynomial of genus 3 on 2 slots$"),
], ids=["non-matrix-variable", "second-t-variable", "lowest-non-matrix-variable",
        "index-above-genus", "entry-above-genus"])
def test_jet_apply_refusals(q, message):
    with pytest.raises(ValueError, match=message):
        jet_apply(q, all_F(2), 2)


@pytest.mark.parametrize("call, message", [
    (lambda: jet_apply(coeff_R(1, (1,)), {1: "F"}, True), r"^genus True is not an integer$"),
    (lambda: jet_apply(coeff_R(1, (1,)), {1: "F"}, 1.0), r"^genus 1\.0 is not an integer$"),
    (lambda: diffresult_expand(True, (1,)), r"^genus True is not an integer$"),
    (lambda: diffresult_expand(2.0, (1, 1)), r"^genus 2\.0 is not an integer$"),
    (lambda: diffresult_expand(2, (True, True)),
     r"^multi-index \(True, True\) is not a composition of 2 into 2 parts$"),
    (lambda: diffresult_expand(2, (1.0, 1.0)),
     r"^multi-index \(1\.0, 1\.0\) is not a composition of 2 into 2 parts$"),
    (lambda: diffresult_expand(0, ()), "^genus must be >= 1$"),
], ids=["jet-apply-genus-bool", "jet-apply-genus-float", "diffresult-genus-bool",
        "diffresult-genus-float", "diffresult-bool-index", "diffresult-float-index",
        "diffresult-genus-0"])
def test_a_genus_and_a_multi_index_pass_the_gate_of_coeff_R(call, message):
    """jet_apply and diffresult_expand refuse a genus that is not an int, and
    diffresult_expand a multi-index not made of ints, as coeff_R does, where
    an int-valued bool was read as its int and a float failed in range or
    math.factorial."""
    with pytest.raises(ValueError, match=message):
        call()
