"""Tests for truncated expansions: ring laws, differentiation, boundary data."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelops.jets import JetPoly, jet_det_partial
from siegelops.qexp import (QExp1, QExp2, eval_jetpoly, product_balanced,
                            qexp1_from_text, qexp2_from_text, qexp_from_text)
from siegelops.theta import ThetaChar, even_chars, theta_qexp, tnull_qexp


def test_exponent_addition():
    f = QExp2.monomial(0, 0, 1, trunc=16)
    g = QExp2.monomial(0, 0, 3, trunc=16)
    assert (f * g).terms == {(0, 0, 4): Fraction(1)}


def test_multiply_by_zero():
    f = theta_qexp(2, ThetaChar((0, 0), (0, 0)), 16)
    z = QExp2.zero(trunc=16)
    assert (f * z).is_zero()


def test_product_fold_orders_agree():
    forms = [theta_qexp(2, c, 24) for c in even_chars(2)]
    left = forms[0]
    for f in forms[1:]:
        left = left * f
    assert product_balanced(forms) == left


def test_q_diff_rules():
    f = QExp2.monomial(0, 0, 4, trunc=16)
    assert f.q_diff(2, 2).terms == {(0, 0, 4): Fraction(1, 2)}
    g = QExp2.monomial(1, 2, 1, trunc=16)
    assert g.q_diff(1, 2).terms == {(1, 2, 1): Fraction(1, 8)}
    assert QExp2.one(16).q_diff(1, 1).is_zero()
    assert g.q_diff(1, 2).tau_factor == 1


def test_psd_invariant_enforced():
    with pytest.raises(ValueError):
        QExp2({(1, 9, 1): Fraction(1)}, trunc=16)
    with pytest.raises(ValueError):
        QExp2({(-1, 0, 0): Fraction(1)}, trunc=16)
    with pytest.raises(ValueError):
        QExp2({(10, 0, 10): Fraction(1)}, trunc=16)


def test_fj_order_and_slices(t2_48):
    theta00 = theta_qexp(2, ThetaChar((0, 0), (0, 0)), 16)
    assert theta00.fj_order() == 0
    assert t2_48.fj_order() == Fraction(1, 2)
    assert t2_48.fj_slice(0) == {}
    one = QExp2.one(16)
    assert one.fj_slice(0) == {(0, 0): Fraction(1)}
    # slices partition the terms
    total = sum(len(t2_48.fj_slice(Fraction(g2, 8)))
                for g2 in range(t2_48.trunc + 1))
    assert total == len(t2_48.terms)
    with pytest.raises(ValueError):
        QExp2.zero(trunc=8).fj_order()


def test_truncation_is_ring_congruence():
    f = theta_qexp(2, ThetaChar((0, 0), (1, 1)), 32)
    g = theta_qexp(2, ThetaChar((1, 0), (0, 0)), 32)
    n = 12
    lhs = (f * g).truncate(n)
    rhs = (f.truncate(n) * g.truncate(n)).truncate(n)
    assert lhs.terms == rhs.terms


def test_add_requires_matching_weight():
    f = theta_qexp(2, ThetaChar((0, 0), (0, 0)), 16)
    with pytest.raises(ValueError):
        _ = f + (f * f)


def test_pow_matches_repeated_multiplication():
    f = theta_qexp(2, ThetaChar((0, 0), (1, 1)), 24)
    assert (f ** 3).terms == (f * f * f).terms


def _psd_terms():
    import math

    def mk(a, c, pick):
        bmax = math.isqrt(4 * a * c)
        b = -bmax + (pick % (2 * bmax + 1)) if bmax else 0
        return (a, b, c)

    return st.builds(mk, st.integers(0, 6), st.integers(0, 6), st.integers(0, 100))


def _expansions():
    return st.builds(
        lambda keys, coeffs: QExp2(
            {k: Fraction(c) for k, c in zip(keys, coeffs) if c and k[0] + k[2] <= 16},
            trunc=16),
        st.lists(_psd_terms(), min_size=0, max_size=5),
        st.lists(st.integers(-4, 4), min_size=5, max_size=5))


@settings(max_examples=40, deadline=None)
@given(_expansions(), _expansions(), _expansions())
def test_mul_commutative_associative(f, g, h):
    assert (f * g).terms == (g * f).terms
    assert ((f * g) * h).terms == (f * (g * h)).terms


def test_eval_jetpoly_product_without_derivatives():
    theta00 = theta_qexp(2, ThetaChar((0, 0), (0, 0)), 24)
    jet = JetPoly.symbol("F") * JetPoly.symbol("G")
    got = eval_jetpoly(jet, {"F": theta00, "G": theta00})
    assert got.terms == (theta00 * theta00).terms
    assert got.weight == 1


def test_eval_jetpoly_det_on_tnull(t2_48):
    jet = jet_det_partial("F", 2).scale(Fraction(2))
    got = eval_jetpoly(jet, {"F": t2_48})
    assert not got.is_zero()
    assert min(k[2] for k in got.terms) == 8
    assert got.tau_factor == 2
    assert got.weight == 12


def test_eval_jetpoly_unbound_symbol():
    jet = JetPoly.symbol("F") * JetPoly.symbol("G")
    theta00 = theta_qexp(2, ThetaChar((0, 0), (0, 0)), 16)
    with pytest.raises(ValueError):
        eval_jetpoly(jet, {"F": theta00})


def test_smf1_round_trip(t2_48):
    assert qexp2_from_text(t2_48.to_text()) == t2_48
    assert qexp_from_text(t2_48.to_text()) == t2_48
    one = QExp1({0: Fraction(1), 8: Fraction(-3, 7)}, Fraction(4), 16, 1)
    assert qexp1_from_text(one.to_text()) == one
    assert qexp_from_text(one.to_text()) == one
    # byte-exact: serialize twice
    assert t2_48.to_text() == qexp2_from_text(t2_48.to_text()).to_text()


def test_qexp1_diff_and_order():
    f = QExp1({8: Fraction(3)}, Fraction(4), 24)
    assert f.q_diff().terms == {8: Fraction(3)}
    assert f.fj_order() == 1
    with pytest.raises(ValueError):
        QExp1.zero().fj_order()


def test_eval_jetpoly_empty_is_the_bound_class_zero():
    from siegelops.brackets import eis1_qexp
    got = eval_jetpoly(JetPoly.zero(), {"F": eis1_qexp(4, 160), "G": eis1_qexp(6, 96)},
                       weight=10)
    assert got == QExp1.zero(weight=10, trunc=96)
    got = eval_jetpoly(JetPoly.zero(), {"F": QExp2.one(24)}, weight=10)
    assert got == QExp2.zero(weight=10, trunc=24)


def _genus1(terms: dict, trunc: int, weight=Fraction(1, 2)) -> QExp1:
    return QExp1({a: Fraction(c) for (a, _, _), c in terms.items()}, weight, trunc)


def _genus2(terms: dict, trunc: int, weight=Fraction(1, 2)) -> QExp2:
    return QExp2({k: Fraction(c) for k, c in terms.items()}, weight, trunc)


@pytest.mark.parametrize("make", [_genus1, _genus2], ids=["QExp1", "QExp2"])
def test_ring_methods_agree_across_genera(make):
    """Keys (a, 0, 0) embed a genus-1 series into genus 2 with weight a, so
    add, sub, scale, truncate and equality must give the same coefficients."""
    f = make({(0, 0, 0): 1, (8, 0, 0): -3, (24, 0, 0): 5, (40, 0, 0): 7}, 40)
    g = make({(8, 0, 0): 3, (16, 0, 0): Fraction(1, 2), (24, 0, 0): 2}, 24)
    assert f + g == g + f == make({(0, 0, 0): 1, (16, 0, 0): Fraction(1, 2),
                                   (24, 0, 0): 7}, 24)
    assert f - g == make({(0, 0, 0): 1, (8, 0, 0): -6, (16, 0, 0): Fraction(-1, 2),
                          (24, 0, 0): 3}, 24)
    assert g - f == -(f - g)
    assert (f - f).is_zero() and (f - f).trunc == 40
    assert f.scale_coeff(Fraction(-2, 3)) == make(
        {(0, 0, 0): Fraction(-2, 3), (8, 0, 0): 2, (24, 0, 0): Fraction(-10, 3),
         (40, 0, 0): Fraction(-14, 3)}, 40)
    assert f.scale_coeff(0) == make({}, 40)
    assert f.truncate(16) == make({(0, 0, 0): 1, (8, 0, 0): -3}, 16)
    assert f.truncate(99) == f
    assert f != f.truncate(39)
    assert f != f.with_weight(1)
    with pytest.raises(ValueError, match="weight mismatch"):
        _ = f + f.with_weight(1)
    with pytest.raises(ValueError, match="tau-factor mismatch"):
        _ = f + f.q_diff(1, 1)
    with pytest.raises(ValueError, match="negative powers"):
        _ = f ** -1
    other = _genus2 if make is _genus1 else _genus1
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        with pytest.raises(ValueError, match="genus mismatch"):
            op(f, other({(0, 0, 0): 1}, 40))


def _drop(text: str, idx: int) -> str:
    lines = text.splitlines()
    return "\n".join(lines[:idx] + lines[idx + 1:]) + "\n"


def _replace(text: str, idx: int, line: str) -> str:
    lines = text.splitlines()
    lines[idx] = line
    return "\n".join(lines) + "\n"


def test_smf1_rejects_truncated_blocks(t2_48):
    text = t2_48.to_text()
    n = len(t2_48.terms)
    cut = "\n".join(text.splitlines()[:-20]) + "\n"
    with pytest.raises(ValueError, match=f"SMF1 line 8: declares {n} terms, found {n - 20}"):
        qexp2_from_text(cut)
    with pytest.raises(ValueError, match=f"SMF1 line 8: declares {n} terms, found {n - 20}"):
        qexp_from_text(cut)
    one = QExp1({0: Fraction(1), 8: Fraction(-3, 7)}, Fraction(4), 16, 1).to_text()
    with pytest.raises(ValueError, match="SMF1 line 7: declares 2 terms, found 1"):
        qexp_from_text(_drop(one, 8))


def test_smf1_rejects_duplicate_exponents(t2_48):
    lines = t2_48.to_text().splitlines()
    with pytest.raises(ValueError, match=f"SMF1 line {len(lines)}: duplicate exponent"):
        qexp2_from_text(_replace(t2_48.to_text(), len(lines) - 1, lines[8]))
    one = QExp1({0: Fraction(1), 8: Fraction(2)}, Fraction(4), 16).to_text()
    with pytest.raises(ValueError, match="SMF1 line 9: duplicate exponent"):
        qexp1_from_text(_replace(one, 8, "0 5"))


@pytest.mark.parametrize("idx,key", [(1, "genus"), (2, "weight"), (3, "scale"),
                                     (4, "trunc"), (5, "taupow"), (7, "terms")])
def test_smf1_requires_every_header_line(t2_48, idx, key):
    with pytest.raises(ValueError, match=f"SMF1 line {idx + 1}: expected '{key} <value>'"):
        qexp2_from_text(_drop(t2_48.to_text(), idx))


def test_smf1_rejects_bad_header_values(t2_48):
    text = t2_48.to_text()
    cases = [(0, "SMF2", "SMF1 line 1: not an SMF1 block"),
             (1, "genus x", "SMF1 line 2: bad genus value"),
             (1, "genus 1", "SMF1 line 2: genus-1 block passed to the genus-2 reader"),
             (2, "weight 1/0", "SMF1 line 3: bad weight value"),
             (3, "scale 4", "SMF1 line 4: scale must be 8"),
             (4, "trunc -1", "SMF1 line 5: negative truncation"),
             (6, "character 2", "SMF1 line 7: character must be 0 or 1"),
             (7, "terms many", "SMF1 line 8: bad terms value")]
    for idx, line, msg in cases:
        with pytest.raises(ValueError, match=msg):
            qexp2_from_text(_replace(text, idx, line))
    with pytest.raises(ValueError, match="SMF1 line 2: genus-2 block passed to the genus-1 reader"):
        qexp1_from_text(text)


def test_smf1_rejects_bad_term_lines(t2_48):
    text = t2_48.to_text()
    cases = [("0 0 4", "cannot parse"), ("0 0 4 1 1", "cannot parse"),
             ("0 x 4 1", "cannot parse"), ("0 0 4 1/0", "cannot parse"),
             ("0 0 4 0", "zero coefficient"), ("40 0 9 1", "exceeds truncation 48"),
             ("1 9 1 1", "violates beta"), ("-1 0 4 1", "negative diagonal")]
    for line, msg in cases:
        with pytest.raises(ValueError, match=f"SMF1 line 9: .*{msg}"):
            qexp2_from_text(_replace(text, 8, line))
    one = QExp1({0: Fraction(1), 8: Fraction(2)}, Fraction(4), 16).to_text()
    with pytest.raises(ValueError, match=r"SMF1 line 9: exponent 24 outside \[0, 16\]"):
        qexp1_from_text(_replace(one, 8, "24 1"))


def test_tnull_text_is_pinned():
    """tnull_qexp(120) serialized, byte for byte."""
    data = tnull_qexp(120).to_text().encode()
    assert hashlib.sha256(data).hexdigest() == (
        "c97a1d6aef737732f6a644827a6d310b61d75475eced376f3df0090d6c54deed")
