"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single status line so the suite can be read as a
checklist (`pytest tests/test_acceptance.py -v -s`).  Tolerances are pinned
here and nowhere else: exact identities are exact (structural equality of
canonical forms), numeric checks use 1e-8 (modularity), 1e-10 (heat), and
1e-6 (gradient-determinant nonvanishing).
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import symbol_count
from siegelops.brackets import delta1_qexp, eis1_qexp, scalar_bracket_jet, scalar_bracket_q
from siegelops.jets import (JetPoly, diffresult_expand, jet_apply, jet_det_partial,
                            jet_mod_symbol)
from siegelops.opgen import (build_Q, symbolic_weight,
                             verify_harmonic_condition, verify_pluriharmonic,
                             xspace_oracle)
from siegelops.poly import coeff_R, index_set_N
from siegelops.qexp import eval_jetpoly
from siegelops.scalars import RatFunc
from siegelops.slopes import (CITED_GENUS6_FORM_CLASS, class_N0prime,
                              class_operator_output, class_tnull, known_slopes_table,
                              make_class, moving_bound, slope)
from siegelops.theta import (check_condition_star, check_heat,
                             check_modularity, even_chars, form_operator_tnull,
                             form_tnull, gamma_J, gamma_gl, gamma_translation,
                             odd_chars, schottky_qexp, theta_qexp, tnull_qexp)

TOL_MODULARITY = 1e-8
TOL_HEAT = 1e-10
TOL_COND = 1e-6


def _report(num: int, name: str):
    print(f"[criterion {num:02d}] {name}: PASS")


def _all_F(g):
    return {h: "F" for h in range(1, g + 1)}


def test_criterion_01_pluriharmonicity(spec2_symbolic, spec3_symbolic, spec4_symbolic):
    for spec in (spec2_symbolic, spec3_symbolic, spec4_symbolic):
        assert verify_harmonic_condition(spec.g, spec.a)
        assert verify_pluriharmonic(spec), f"symbolic genus {spec.g}"
    for a in (3, 108):
        spec5 = build_Q(5, Fraction(a))
        assert verify_pluriharmonic(spec5), f"genus 5, a={a}"
    assert verify_harmonic_condition(5, symbolic_weight())
    assert verify_harmonic_condition(6, symbolic_weight())
    _report(1, "second-order annihilation, g=2,3,4 symbolic and g=5 numeric")


def test_criterion_02_oracle_equivalence(spec2_symbolic):
    for a in (1, 2):
        spec = build_Q(2, Fraction(a))
        assert xspace_oracle(2, 2 * a, spec.Q).is_zero(), f"a={a}"
        assert verify_pluriharmonic(spec)
    # the mis-normalized operator (second-order factor 1) fails the symbolic
    # check, so the oracle and the broken verifier disagree
    assert not verify_pluriharmonic(spec2_symbolic, second_order_factor=1)
    for a in (1, 2):
        spec = build_Q(2, Fraction(a))
        oracle_zero = xspace_oracle(2, 2 * a, spec.Q).is_zero()
        broken = verify_pluriharmonic(spec, second_order_factor=1)
        assert oracle_zero and not broken
    _report(2, "matrix-space Laplacian oracle, exact zero at (g,a)=(2,1),(2,2)")


def test_criterion_03_jet_identities(spec2_symbolic, spec3_symbolic, spec4_symbolic):
    for g, spec in ((2, spec2_symbolic), (3, spec3_symbolic), (4, spec4_symbolic)):
        ones = (1,) * g
        assert jet_apply(coeff_R(g, ones), _all_F(g), g) == \
            jet_det_partial("F", g).scale(Fraction(math.factorial(g)))
        jet = jet_apply(spec.Q, _all_F(g), g)
        assert jet_mod_symbol(jet, "F") == \
            jet_det_partial("F", g, "Qa").scale(RatFunc(math.factorial(g)))
    # the printed explicit genus-2 and genus-3 expansions are reproduced as
    # exact jet identities in test_jets (signed-cofactor reading for g=3)
    from test_jets import test_printed_genus2_operator, test_printed_genus3_operator
    test_printed_genus2_operator(spec2_symbolic)
    test_printed_genus3_operator(spec3_symbolic)
    _report(3, "g! determinant identity and mod-F restriction, g=2,3,4")


@pytest.mark.slow
def test_criterion_04_laplace_cross_check():
    for g in (2, 3, 4):
        for n in index_set_N(g):
            shape = sorted(n, reverse=True)
            if any(v not in (0, 1) for v in shape[1:]):
                continue
            assert diffresult_expand(g, n) == jet_apply(coeff_R(g, n), _all_F(g), g), \
                (g, n)
    _report(4, "minor-sum expansion equals the direct path, all admissible n, g<=4")


def test_criterion_05_genus2_pipeline(t2_48):
    assert t2_48.fj_order() == Fraction(1, 2)
    spec = build_Q(2, Fraction(5))
    jet = jet_apply(spec.Q, _all_F(2), 2)
    out = eval_jetpoly(jet, {"F": t2_48}).scale_coeff(Fraction(1, 2))
    assert not out.is_zero()
    assert out.weight == 12
    assert out.fj_order() == 1
    # order bound: output order >= g * input order, with equality here
    assert out.fj_order() >= 2 * t2_48.fj_order()
    cls = class_operator_output(2, class_tnull(2))
    assert (cls.lam, cls.delta) == (12, 1)
    assert slope(cls) == 12
    table = {r.genus: r for r in known_slopes_table()}
    assert table[2].mov.value == 12
    # truncation stability: the deeper run reproduces every window coefficient
    deep = eval_jetpoly(jet, {"F": tnull_qexp(80)}).scale_coeff(Fraction(1, 2))
    assert {k: v for k, v in deep.terms.items() if k[0] + k[2] <= 48} == out.terms
    _report(5, "operator output on the theta-null product: order 1, class 12L-1D")


@pytest.mark.slow
def test_criterion_06_theta_identities():
    for c in odd_chars(2):
        assert theta_qexp(2, c, 32).is_zero()
    assert len(even_chars(2)) == 10
    assert len(even_chars(3)) == 36
    assert schottky_qexp(2, 48).is_zero()
    assert schottky_qexp(2, 80).is_zero()
    rng = random.Random(2024)
    for g in (1, 2):
        chars = even_chars(g)
        for _ in range(5):
            if g == 1:
                tau = [[complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.8))]]
                z = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))]
            else:
                y3 = rng.uniform(-0.2, 0.2)
                tau = [[complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.8)),
                        complex(0.1, y3)],
                       [complex(0.1, y3),
                        complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.8))]]
                z = [complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15))
                     for _ in range(2)]
            c = chars[rng.randrange(len(chars))]
            rep = check_heat(g, c, tau, z, TOL_HEAT)
            assert rep.max_residual < TOL_HEAT, (g, tau)
    _report(6, "theta parity counts, degree-16 vanishing at N=48/80, heat residuals")


def test_criterion_07_numeric_modularity():
    import numpy as np
    rng = random.Random(5)
    gammas = [gamma_J(2),
              gamma_translation(np.array([[1, 1], [1, 0]])),
              gamma_gl(np.array([[1, 1], [0, 1]]))]
    forms = [form_tnull(2), form_operator_tnull(5)]
    assert [f.weight for f in forms] == [10, 12]
    for form in forms:
        for _ in range(3):
            y3 = rng.uniform(-0.2, 0.2)
            tau = [[complex(rng.uniform(-0.3, 0.3), rng.uniform(1.2, 1.9)),
                    complex(0.08, y3)],
                   [complex(0.08, y3),
                    complex(rng.uniform(-0.3, 0.3), rng.uniform(1.2, 1.9))]]
            for gam in gammas:
                rep = check_modularity(form, gam, tau, TOL_MODULARITY)
                assert not rep.inconclusive
                assert rep.rel_err < TOL_MODULARITY, (form.label, rep.rel_err)
    _report(7, "transformation law for the weight-10 and weight-12 outputs")


def test_criterion_08_condition_spot_check():
    for tau in ([[1.1j, 0], [0, 1.7j]],
                [[0.25 + 1.05j, 0], [0, -0.35 + 1.45j]]):
        rep = check_condition_star(tau)
        assert abs(rep.det_value) > TOL_COND, tau
    _report(8, "gradient determinant nonzero at two theta-null points")


def test_criterion_09_bracket_properties():
    K, H = JetPoly.symbol("k"), JetPoly.symbol("h")
    F, G = JetPoly.symbol("F"), JetPoly.symbol("G")
    HH = JetPoly.symbol("H")
    for n in (2, 3):
        assert scalar_bracket_jet(F, K, F ** n, K.scale(Fraction(n)), 2).is_zero()
    br = scalar_bracket_jet(F, K, G, H, 2)
    assert jet_mod_symbol(br, "F") == H * H * G * G * jet_det_partial("F", 2)
    ELL = JetPoly.symbol("ell")
    sq = scalar_bracket_jet(HH * HH * F, K + ELL.scale(Fraction(2)), G, H, 2)
    assert symbol_count(sq, "H") >= 2
    e4, e6 = eis1_qexp(4, 168), eis1_qexp(6, 168)
    br1 = scalar_bracket_q(e4, e6)
    d = delta1_qexp(168)
    for m in range(21):
        assert br1.coefficient(m) == 3456 * d.coefficient(m)
    _report(9, "self-bracket vanishing, mod-F value, divisibility, weight-12 match")


def test_criterion_10_slope_ledger():
    expected = {
        1: ("12", ""), 2: ("10", "12"), 3: ("9", "28/3"), 4: ("8", "17/2"),
        5: ("54/7", "<= 271/35"), 6: ("[53/10, 7]", "(?) <= 43/6"),
    }
    for row in known_slopes_table():
        assert (row.eff.render(), row.mov.render()) == expected[row.genus]
    assert (class_N0prime(4).lam, class_N0prime(4).delta) == (8, 1)
    assert (class_N0prime(5).lam, class_N0prime(5).delta) == (108, 14)
    assert moving_bound(5, class_N0prime(5)) == Fraction(271, 35)
    assert moving_bound(6, CITED_GENUS6_FORM_CLASS) == Fraction(43, 6)
    rng = random.Random(99)
    for _ in range(25):
        a = Fraction(rng.randint(1, 400), rng.randint(1, 8))
        b = Fraction(rng.randint(1, 60), rng.randint(1, 8))
        g = rng.randint(2, 6)
        assert slope(class_operator_output(g, make_class(a, b))) == \
            moving_bound(g, make_class(a, b))
    _report(10, "slope table, residual-component classes, and bound identities")


@pytest.mark.slow
def test_criterion_01b_pluriharmonicity_genus5_deep():
    """Supplementary: the deriv-lemma identity at genus 3, all indices."""
    from siegelops.opgen import verify_deriv_lemma
    for n in index_set_N(3):
        for h in (1, 2, 3):
            assert verify_deriv_lemma(3, n, h)
    _report(1, "supplementary derivative-lemma sweep at genus 3")
