"""Tests for the bracket operators on jets and on expansions."""

from fractions import Fraction

import pytest

from siegelops import brackets, qexp
from siegelops.brackets import (_det, _symmetric, delta1_qexp, eis1_qexp, eta_power_qexp,
                                scalar_bracket_jet, scalar_bracket_q, sigma_power_sum,
                                vector_bracket_jet, vector_bracket_q)
from siegelops.cli import main
from siegelops.jets import JetPoly, jet_det_partial, jet_mod_symbol
from siegelops.qexp import qexp_from_text
from siegelops.theta import ThetaChar, theta_pow8_sum, theta_qexp, tnull_qexp

K = JetPoly.symbol("k")
H = JetPoly.symbol("h")
ELL = JetPoly.symbol("ell")
F = JetPoly.symbol("F")
G = JetPoly.symbol("G")
HH = JetPoly.symbol("H")


def test_bracket_of_form_with_itself_vanishes():
    m = vector_bracket_jet(F, K, F, K, 2)
    assert all(e.is_zero() for row in m for e in row)


def test_antisymmetry_symbolic_weights():
    m1 = vector_bracket_jet(F, K, G, H, 2)
    m2 = vector_bracket_jet(G, H, F, K, 2)
    for i in range(2):
        for j in range(2):
            assert (m1[i][j] + m2[i][j]).is_zero()
    # in odd genus det(-M) = -det(M), so the scalar bracket is antisymmetric;
    # g = 3 is the first genus whose Leibniz terms include 3-cycles
    assert scalar_bracket_jet(G, H, F, K, 3) == -scalar_bracket_jet(F, K, G, H, 3)


def test_bilinearity_in_first_slot():
    lhs = vector_bracket_jet(F + F, K, G, H, 2)
    rhs = vector_bracket_jet(F, K, G, H, 2)
    for i in range(2):
        for j in range(2):
            assert lhs[i][j] == rhs[i][j].scale(Fraction(2))


@pytest.mark.parametrize("n", [2, 3])
def test_self_power_bracket_vanishes(n):
    """[F, F^n] = 0 as a jet identity (weight of F^n is n k)."""
    fn = F ** n
    kn = K.scale(Fraction(n))
    m = vector_bracket_jet(F, K, fn, kn, 2)
    assert all(e.is_zero() for row in m for e in row)
    assert scalar_bracket_jet(F, K, fn, kn, 2).is_zero()


@pytest.mark.parametrize("g", [2, 3, 4])
def test_restriction_to_zero_locus(g):
    """[F, G] reduces to h^g G^g det(dF) modulo the bare symbol F."""
    br = scalar_bracket_jet(F, K, G, H, g)
    expect = H ** g * G ** g * jet_det_partial("F", g)
    assert jet_mod_symbol(br, "F") == expect


def test_square_factor_divisibility():
    """Every monomial of [H^2 F, G] carries the symbol H at least g times."""
    op = HH * HH * F
    w_op = K + ELL.scale(Fraction(2))
    br = scalar_bracket_jet(op, w_op, G, H, 2)
    assert not br.is_zero()
    assert br.symbol_count("H") >= 2


def test_equal_factor_divisibility():
    """[H F, H G] is likewise divisible by H^g."""
    br = scalar_bracket_jet(HH * F, K + ELL, HH * G, H + ELL, 2)
    assert not br.is_zero()
    assert br.symbol_count("H") >= 2


def test_eisenstein_coefficients():
    e4 = eis1_qexp(4, 200)
    assert e4.coefficient(1) == 240
    assert e4.coefficient(2) == 240 * sigma_power_sum(3, 2)
    e6 = eis1_qexp(6, 200)
    assert e6.coefficient(2) == -504 * 33
    with pytest.raises(ValueError):
        eis1_qexp(8)


def test_discriminant_normalization():
    e4, e6 = eis1_qexp(4, 80), eis1_qexp(6, 80)
    diff = e4 ** 3 - e6 ** 2
    assert diff.coefficient(0) == 0
    assert diff.coefficient(1) == 1728
    d = delta1_qexp(80)
    assert d.coefficient(1) == 1


def test_genus1_bracket_proportional_to_discriminant():
    """{E4, E6} = 6 E6 dE4 - 4 E4 dE6 is 3456 times the discriminant series."""
    n = 20
    trunc = 8 * (n + 1)
    e4, e6 = eis1_qexp(4, trunc), eis1_qexp(6, trunc)
    br = scalar_bracket_q(e4, e6)
    assert br.weight == 12
    d = delta1_qexp(trunc)
    assert br.coefficient(1) == 3456
    for m in range(n + 1):
        assert br.coefficient(m) == 3456 * d.coefficient(m), m


def test_genus1_scalar_is_one_by_one_determinant():
    e4, e6 = eis1_qexp(4, 80), eis1_qexp(6, 80)
    br = scalar_bracket_q(e4, e6)
    manual = e6.scale_coeff(6) * e4.q_diff() - e4.scale_coeff(4) * e6.q_diff()
    assert br.terms == manual.terms


def test_genus2_bracket_is_boundary_vanishing():
    """The scalar bracket is boundary-vanishing even off the cusp ideal, and
    its order is at least g (order F + order G)."""
    f = theta_pow8_sum(32)          # weight 4, boundary order 0
    t2 = tnull_qexp(32)
    g_form = (t2 * t2).with_character(False)  # weight 10, boundary order 1
    br = scalar_bracket_q(f, g_form)
    assert br.weight == 2 * (4 + 10) + 2
    assert not br.is_zero()
    assert br.fj_order() > 0
    assert br.fj_order() >= 2 * (f.fj_order() + g_form.fj_order())


def test_genus2_bracket_cuspidal_even_for_noncusp_inputs():
    """Both operands have boundary order 0; the bracket still vanishes there."""
    from siegelops.theta import ThetaChar, theta_qexp
    f = theta_pow8_sum(32)
    g_form = theta_qexp(2, ThetaChar((0, 0), (0, 0)), 32) ** 8
    assert f.fj_order() == 0 and g_form.fj_order() == 0
    br = scalar_bracket_q(f, g_form)
    assert not br.is_zero()
    assert br.fj_order() > 0


def test_vector_bracket_q_is_symmetric_matrix():
    f = theta_pow8_sum(24)
    t2 = tnull_qexp(24)
    g_form = (t2 * t2).with_character(False)
    m = vector_bracket_q(f, g_form)
    assert m[0][1].terms == m[1][0].terms
    assert m[0][0].weight == 4 + 10 + 1


def test_eta_powers_from_jacobis_identity():
    """eta^3 from Jacobi's identity and its powers."""
    e3 = eta_power_qexp(3, 81)
    assert e3.terms == {(1,): 1, (9,): -3, (25,): 5, (49,): -7, (81,): 9}
    assert e3.weight == Fraction(3, 2)
    e9 = eta_power_qexp(9, 8 * 6 + 3)  # prod (1 - q^m)^9 = 1 - 9q + 27q^2 - 12q^3 - 90q^4 + ...
    assert [e9.terms.get((3 + 8 * k,), 0) for k in range(6)] == [1, -9, 27, -12, -90, 135]
    assert e9.weight == Fraction(9, 2)
    for power in (0, 2, -3):
        with pytest.raises(ValueError, match="positive multiple of 3"):
            eta_power_qexp(power, 24)


# -- the expansion bracket and Delta against their formulas multiplied out ----------


def _reference_bracket(f, g_form):
    """The scalar bracket by its formula: h G dF - k F dG entry by entry,
    scaled, differentiated and multiplied on expansions, then _det."""
    k, h = f.weight, g_form.weight
    weight = k + h + Fraction(2, f.genus)
    return _det(_symmetric(f.genus, lambda i, j: (g_form.scale_coeff(h) * f.q_diff(i, j)
                                                  - f.scale_coeff(k) * g_form.q_diff(i, j))
                           .with_weight(weight)))


def _reference_delta(trunc):
    """Delta as (E4^3 - E6^2)/1728."""
    e4, e6 = eis1_qexp(4, trunc), eis1_qexp(6, trunc)
    return (e4 ** 3 - e6 ** 2).scale_coeff(Fraction(1, 1728))


def _genus2_pairs(trunc):
    """theta_pow8_sum with T^2 and with theta[00,00]^8."""
    f = theta_pow8_sum(trunc)
    t = tnull_qexp(trunc)
    return [(f, (t * t).with_character(False)),
            (f, theta_qexp(2, ThetaChar((0, 0), (0, 0)), trunc) ** 8)]


@pytest.mark.parametrize("trunc", [0, 7, 8, 80, 400, 1600])
def test_delta_is_the_eisenstein_discriminant(trunc):
    """eta^24 equals (E4^3 - E6^2)/1728, weight and truncation included, and
    writes the same SMF1 bytes."""
    delta = delta1_qexp(trunc)
    assert delta == _reference_delta(trunc) == eta_power_qexp(24, trunc)
    assert delta.to_text() == _reference_delta(trunc).to_text()


@pytest.mark.parametrize("trunc", [80, 400, 1600])
def test_genus1_bracket_matches_its_formula(trunc):
    e4, e6 = eis1_qexp(4, trunc), eis1_qexp(6, trunc)
    br = scalar_bracket_q(e4, e6)
    assert br == _reference_bracket(e4, e6)
    assert br.to_text() == _reference_bracket(e4, e6).to_text()


@pytest.mark.parametrize("trunc", [32, 48])
def test_genus2_bracket_matches_its_formula(trunc):
    for f, g_form in _genus2_pairs(trunc):
        br = scalar_bracket_q(f, g_form)
        assert not br.is_zero()
        assert br == _reference_bracket(f, g_form)
        assert br.to_text() == _reference_bracket(f, g_form).to_text()


def test_bracket_products(monkeypatch):
    """The entries and their determinant take 8 products at genus 2 and 2
    at genus 1."""
    calls = []
    real = qexp._mul_terms

    def counting(*args):
        calls.append(1)
        return real(*args)

    (f, g_form), _ = _genus2_pairs(24)
    e4, e6 = eis1_qexp(4, 80), eis1_qexp(6, 80)
    monkeypatch.setattr(qexp, "_mul_terms", counting)
    scalar_bracket_q(f, g_form)
    assert len(calls) == 8
    calls.clear()
    scalar_bracket_q(e4, e6)
    assert len(calls) == 2


@pytest.mark.parametrize("genus", [1, 2])
def test_bracket_of_weights_zero_writes_the_formulas_bytes(genus, tmp_path, capsys):
    """Both weights 0 leave every entry jet empty; the bracket is still the
    formula's zero, one derivative deep per entry (taupow g)."""
    if genus == 1:
        f, g_form = eis1_qexp(4, 80), eis1_qexp(6, 80)
    else:
        f, g_form = _genus2_pairs(24)[0]
    paths = [tmp_path / "f.smf", tmp_path / "g.smf"]
    for path, form in zip(paths, (f, g_form)):
        path.write_text(form.to_text())
    out = tmp_path / "br.smf"
    assert main(["bracket", "--scalar", *map(str, paths), "--weights", "0", "0",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "# scalar bracket: weight 2\n"
    want = _reference_bracket(f.with_weight(0), g_form.with_weight(0))
    assert want.is_zero() and want.tau_factor == genus
    assert out.read_text() == want.to_text()
    assert qexp_from_text(out.read_text()).tau_factor == genus


def test_bracket_with_swapped_weights_fails(monkeypatch):
    """Negative control: with k and h swapped in vector_bracket_jet,
    {E4, E6} is no longer 3456 Delta."""
    e4, e6 = eis1_qexp(4, 160), eis1_qexp(6, 160)
    want = delta1_qexp(160).scale_coeff(3456)
    assert scalar_bracket_q(e4, e6).terms == want.terms
    real = brackets.vector_bracket_jet
    monkeypatch.setattr(brackets, "vector_bracket_jet",
                        lambda f, k, g_form, h, genus: real(f, h, g_form, k, genus))
    assert scalar_bracket_q(e4, e6).terms != want.terms
