"""Tests for truncated expansions: ring laws, differentiation, boundary data."""

import hashlib
import itertools
import math
import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelops import qexp
from siegelops.brackets import delta1_qexp, eis1_qexp, scalar_bracket_q
from siegelops.jets import JetPoly, jet_det_partial, jet_diff
from siegelops.qexp import (QExp1, QExp2, eval_jetpoly, product_balanced,
                            qexp1_from_text, qexp2_from_text, qexp_from_text)
from siegelops.scalars import RatFunc
from siegelops.theta import ThetaChar, even_chars, theta_qexp, tnull_qexp


def test_exponent_addition():
    f = QExp2({(0, 0, 1): 1}, trunc=16)
    g = QExp2({(0, 0, 3): 1}, trunc=16)
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
    f = QExp2({(0, 0, 4): 1}, trunc=16)
    assert f.q_diff(2, 2).terms == {(0, 0, 4): Fraction(1, 2)}
    g = QExp2({(1, 2, 1): 1}, trunc=16)
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


def test_constructor_takes_int_and_fraction_coefficients_only():
    mixed = QExp2({(0, 0, 0): 3, (4, 0, 0): Fraction(1, 2), (0, 0, 4): 0}, trunc=16)
    assert mixed.terms == {(0, 0, 0): Fraction(3), (4, 0, 0): Fraction(1, 2)}
    assert QExp1({(8,): 2}, trunc=16) == QExp1({(8,): Fraction(2)}, trunc=16)
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="is not an exact rational"):
            QExp2({(0, 0, 0): bad}, trunc=16)


@pytest.mark.parametrize("bad", [0.1, 0.5, 1j, "1/2", True],
                         ids=["float", "binary-float", "complex", "string", "bool"])
def test_scale_coeff_takes_exact_factors_only(bad):
    """Every number an expansion takes from its caller is exact: a factor,
    a coefficient, a weight, a slice index and an exponent."""
    one2, one1 = QExp2.one(16), QExp1.one(16)
    for call in (one2.scale_coeff, one1.scale_coeff, lambda c: QExp2({(0, 0, 0): c}),
                 lambda c: QExp1({(0,): c}), lambda c: QExp2({}, c), lambda c: QExp1({}, c),
                 one2.with_weight, one1.with_weight, one2.fj_slice, one1.coefficient):
        with pytest.raises(TypeError, match=rf"^coefficient {re.escape(repr(bad))} is not an "
                                            "exact rational$"):
            call(bad)


def test_constructor_checks_every_term_before_dropping_zeros():
    """A zero term is checked like any other, its key and its coefficient,
    and only then dropped."""
    with pytest.raises(ValueError, match="^key 'junk' is not a genus-2 key of 3 integers$"):
        QExp2({"junk": 0})
    with pytest.raises(ValueError, match=r"^term \(10, 0, 10\) exceeds truncation 16$"):
        QExp2({(10, 0, 10): 0}, trunc=16)
    with pytest.raises(TypeError, match=r"^coefficient 0\.0 is not an exact rational$"):
        QExp1({(0,): 0.0})


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


def test_eval_jetpoly_takes_the_genus_of_the_symbols_it_uses(t2_48):
    """A bound expansion that the jet does not use does not set the genus
    (F_12 of T has weight 5 + 2/2 = 6 whatever else is bound), and the
    expansions of the symbols it uses must share one genus."""
    jet = jet_diff(JetPoly.symbol("F"), 1, 2)
    genus1 = QExp1({(8,): 1}, 3, 48)
    for bind in ({"G": genus1, "F": t2_48}, {"F": t2_48}):
        assert eval_jetpoly(jet, bind).weight == 6
    with pytest.raises(ValueError, match="^jet symbols bound to expansions of different "
                                         "genera: F genus 2, G genus 1$"):
        eval_jetpoly(jet * JetPoly.symbol("G"), {"G": genus1, "F": t2_48})


def test_smf1_round_trip(t2_48):
    assert qexp2_from_text(t2_48.to_text()) == t2_48
    assert qexp_from_text(t2_48.to_text()) == t2_48
    one = QExp1({(0,): Fraction(1), (8,): Fraction(-3, 7)}, Fraction(4), 16, 1)
    assert qexp1_from_text(one.to_text()) == one
    assert qexp_from_text(one.to_text()) == one
    # byte-exact: serialize twice
    assert t2_48.to_text() == qexp2_from_text(t2_48.to_text()).to_text()


def test_qexp1_diff_and_order():
    f = QExp1({(8,): Fraction(3)}, Fraction(4), 24)
    assert f.q_diff().terms == {(8,): Fraction(3)}
    assert f.fj_order() == 1
    with pytest.raises(ValueError):
        QExp1.zero().fj_order()


def test_eval_jetpoly_refuses_an_empty_jet():
    """An empty jet carries no weight and no derivative order, so it has no
    expansion; the bracket makes its zero entry itself."""
    from siegelops.brackets import eis1_qexp
    for bind in ({"F": eis1_qexp(4, 160), "G": eis1_qexp(6, 96)}, {"F": QExp2.one(24)}):
        with pytest.raises(ValueError, match="empty jet polynomial"):
            eval_jetpoly(JetPoly.zero(), bind)


def _genus1(terms: dict, trunc: int, weight=Fraction(1, 2)) -> QExp1:
    return QExp1({(a,): Fraction(c) for (a, _, _), c in terms.items()}, weight, trunc)


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
    one = QExp1({(0,): Fraction(1), (8,): Fraction(-3, 7)}, Fraction(4), 16, 1).to_text()
    with pytest.raises(ValueError, match="SMF1 line 7: declares 2 terms, found 1"):
        qexp_from_text(_drop(one, 8))


def test_smf1_rejects_duplicate_exponents(t2_48):
    lines = t2_48.to_text().splitlines()
    with pytest.raises(ValueError, match=f"SMF1 line {len(lines)}: duplicate exponent"):
        qexp2_from_text(_replace(t2_48.to_text(), len(lines) - 1, lines[8]))
    one = QExp1({(0,): Fraction(1), (8,): Fraction(2)}, Fraction(4), 16).to_text()
    with pytest.raises(ValueError, match="SMF1 line 9: duplicate exponent"):
        qexp1_from_text(_replace(one, 8, "0 5"))


def test_smf1_rejects_terms_out_of_the_writers_order(t2_48):
    """The writer sorts the terms by their exponent tuples; a term line
    whose key is below the previous one is an error naming its line, and a
    repeated key still reads as a duplicate."""
    lines = t2_48.to_text().splitlines()
    swapped = lines[:8] + [lines[9], lines[8]] + lines[10:]
    first, second = (tuple(map(int, ln.split()[:-1])) for ln in lines[8:10])
    with pytest.raises(ValueError, match=re.escape(
            f"SMF1 line 10: term {first} comes after {second}; the terms are sorted")):
        qexp2_from_text("\n".join(swapped) + "\n")
    one = QExp1({(0,): Fraction(1), (8,): Fraction(2), (16,): Fraction(3)},
                Fraction(4), 16).to_text()
    with pytest.raises(ValueError, match=r"SMF1 line 10: term \(8,\) comes after \(16,\)"):
        qexp1_from_text(_replace(_replace(one, 8, "16 3"), 9, "8 2"))
    with pytest.raises(ValueError, match="SMF1 line 10: duplicate exponent"):
        qexp1_from_text(_replace(one, 9, "0 3"))


def test_smf1_rejects_a_blank_line(t2_48):
    """The writer writes no blank line, so the reader takes none, between
    terms or after the last one."""
    lines = t2_48.to_text().splitlines()
    with pytest.raises(ValueError, match="SMF1 line 10: blank line"):
        qexp2_from_text("\n".join(lines[:9] + [""] + lines[9:]) + "\n")
    with pytest.raises(ValueError, match=f"SMF1 line {len(lines) + 1}: blank line"):
        qexp2_from_text("\n".join(lines) + "\n\n")


@pytest.mark.parametrize("idx,key", [(1, "genus"), (2, "weight"), (3, "scale"),
                                     (4, "trunc"), (5, "taupow"), (6, "character"),
                                     (7, "terms")])
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


@pytest.mark.parametrize("idx,line", [
    (1, "genus +2"), (2, "weight 5.0"), (2, "weight 10/2"), (3, "scale 08"),
    (4, "trunc 016"), (5, "taupow +0"), (6, "character 01"), (7, "terms 1_50")])
def test_smf1_reads_header_numbers_only_as_the_writer_spells_them(t2_48, idx, line):
    """A header number spelled otherwise than the writer spells its value
    is an error at its line, not a value written back another way."""
    key = line.split()[0]
    assert t2_48.to_text().splitlines()[idx].split()[0] == key
    with pytest.raises(ValueError, match=f"SMF1 line {idx + 1}: bad {key} value"):
        qexp2_from_text(_replace(t2_48.to_text(), idx, line))


def test_smf1_reads_exponents_only_as_the_writer_spells_them(t2_48):
    lines = t2_48.to_text().splitlines()
    assert lines[8] == "4 -20 28 64"
    for line in ("+4 -20 28 64", "4 -20 028 64", "4 -2_0 28 64", "4 -20 28.0 64"):
        with pytest.raises(ValueError, match="SMF1 line 9: cannot parse"):
            qexp2_from_text(_replace(t2_48.to_text(), 8, line))


def test_smf1_rejects_bad_term_lines(t2_48):
    text = t2_48.to_text()
    cases = [("0 0 4", "cannot parse"), ("0 0 4 1 1", "cannot parse"),
             ("0 x 4 1", "cannot parse"), ("0 0 4 1/0", "cannot parse"),
             ("0 0 4 0", "zero coefficient"), ("40 0 9 1", "exceeds truncation 48"),
             ("1 9 1 1", "violates beta"), ("-1 0 4 1", "negative diagonal")]
    for line, msg in cases:
        with pytest.raises(ValueError, match=f"SMF1 line 9: .*{msg}"):
            qexp2_from_text(_replace(text, 8, line))
    one = QExp1({(0,): Fraction(1), (8,): Fraction(2)}, Fraction(4), 16).to_text()
    with pytest.raises(ValueError, match=r"SMF1 line 9: term \(24,\) exceeds truncation 16"):
        qexp1_from_text(_replace(one, 8, "24 1"))


def test_tnull_text_is_pinned():
    """tnull_qexp(120) serialized, byte for byte."""
    data = tnull_qexp(120).to_text().encode()
    assert hashlib.sha256(data).hexdigest() == (
        "c97a1d6aef737732f6a644827a6d310b61d75475eced376f3df0090d6c54deed")


@pytest.mark.parametrize("make,digest", [
    (lambda: delta1_qexp(400),
     "dcbb3836e03372068753240c974a1eb4ad26374f3d3ac5b0328379649b587de8"),
    (lambda: scalar_bracket_q(eis1_qexp(4, 400), eis1_qexp(6, 400)),
     "eab3614efe63b841085ee8449c5059682a1539d49c0189207c5f95f4cb0d4e4c"),
    (lambda: theta_qexp(1, ThetaChar((0,), (0,)), 400),
     "76089cd1fe93d91705d8a342e21e537ba42bc6213180c1f5cc70433f6af5e26f"),
], ids=["delta", "bracket-E4-E6", "theta-0-0"])
def test_genus1_text_is_pinned(make, digest):
    """Genus-1 SMF1 blocks at N = 400, byte for byte, and their read-back."""
    text = make().to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert qexp_from_text(text).to_text() == text


@pytest.mark.parametrize("cls,key", [(QExp1, 8), (QExp1, (8, 0)), (QExp1, (8.0,)),
                                     (QExp2, (8, 0)), (QExp2, (0, 0, 0, 8))])
def test_constructor_rejects_keys_of_the_wrong_shape(cls, key):
    with pytest.raises(ValueError, match=re.escape(f"key {key!r} is not a genus-{cls.genus}")):
        cls({key: Fraction(1)}, trunc=16)


@st.composite
def _checked_operands(draw, genus: int):
    """Two expansions of one genus and weight built through the public
    constructor, at truncations up to 24; genus-2 keys fill the PSD cone."""
    cls = QExp1 if genus == 1 else QExp2

    def operand(trunc):
        terms = {}
        for _ in range(draw(st.integers(0, 8))):
            a = draw(st.integers(0, trunc))
            if genus == 1:
                key = (a,)
            else:
                g2 = draw(st.integers(0, trunc - a))
                bound = math.isqrt(4 * a * g2)
                key = (a, draw(st.integers(-bound, bound)), g2)
            terms[key] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        return cls(terms, Fraction(1, 2), trunc)

    return operand(draw(st.integers(0, 24))), operand(draw(st.integers(0, 24)))


def _assert_checked(f):
    """f passes the public term check, holds no zero coefficient and stores
    its coefficients canonically: one denominator den >= 1 over nonzero
    integer numerators, with gcd(den, *nums) == 1."""
    assert all(f.terms.values())
    assert type(f)(f.terms, f.weight, f.trunc, f.tau_factor, f.character) == f
    den, nums = f._den, f._nums
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in nums.values())
    assert math.gcd(den, *nums.values()) == 1


@pytest.mark.parametrize("genus", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derived_expansions_keep_the_invariants(genus, data):
    """Ring results skip the term check, so every one must still pass it."""
    f, g = data.draw(_checked_operands(genus))
    pairs = [(1, 1)] if genus == 1 else [(1, 1), (1, 2), (2, 2)]
    results = [f + g, f - g, f - f, f * g, f ** data.draw(st.integers(0, 3)),
               f.scale_coeff(data.draw(st.sampled_from([0, 1, Fraction(-2, 3)]))),
               f.truncate(data.draw(st.integers(0, 30))),
               f.with_weight(3), f.with_character(True)]
    results += [f.q_diff(i, j) for i, j in pairs]
    for r in results:
        _assert_checked(r)


def test_equality_sees_the_character_flag():
    """Two expansions whose SMF1 bytes differ in the character line are
    unequal, and a round trip keeps the flag."""
    t = tnull_qexp(16)
    plain = t.with_character(False)
    assert t.character and t != plain
    assert t.to_text() != plain.to_text()
    for f in (t, plain):
        back = qexp2_from_text(f.to_text())
        assert back == f and back.character == f.character


@pytest.mark.parametrize("coeff,form", [
    ("1.5", "decimal"), ("1e1", "exponent"), ("1_0e1", "exponent"), ("1_0", "underscore"),
    ("+3", "leading plus"), ("03", "leading zero"), ("3/1", "denominator 1"),
    ("2/4", "not reduced"), ("-6/9", "not reduced"), ("3/-4", "signed denominator"),
    ("3/", "empty denominator")])
def test_smf1_accepts_only_the_coefficients_it_writes(coeff, form):
    """A term coefficient is an integer or p/q in lowest terms with q >= 2,
    as to_text writes it; anything else is an error naming the line."""
    one = QExp1({(0,): Fraction(1), (8,): Fraction(2)}, Fraction(4), 16).to_text()
    with pytest.raises(ValueError, match=f"SMF1 line 9: cannot parse '8 {re.escape(coeff)}'"):
        qexp1_from_text(_replace(one, 8, f"8 {coeff}"))


@pytest.mark.parametrize("weight", ["5.0", "1e1", "+5", "1_0", "10/2", "5/1"])
def test_smf1_weight_header_is_strict(t2_48, weight):
    with pytest.raises(ValueError, match=f"SMF1 line 3: bad weight value '{re.escape(weight)}'"):
        qexp2_from_text(_replace(t2_48.to_text(), 2, f"weight {weight}"))


def test_smf1_reads_the_coefficients_it_writes():
    f = QExp1({(0,): Fraction(-7, 12), (8,): Fraction(2), (16,): Fraction(5, 3)},
              Fraction(-9, 2), 16)
    text = f.to_text()
    assert "weight -9/2" in text and "\n0 -7/12\n8 2\n16 5/3\n" in text
    assert qexp1_from_text(text) == f


# -- jet evaluation: grouped products against the term-by-term sum ---------------


def eval_per_monomial(p: JetPoly, bind: dict):
    """Every monomial multiplied out on its own and scaled, then summed: the
    reference for eval_jetpoly's grouping (its weight is not set)."""
    total = None
    for mono, coeff in sorted(p.terms.items()):
        acc = None
        for sym, derivs in mono:
            f = bind[sym]
            for i, j in derivs:
                f = f.q_diff(i, j)
            acc = f if acc is None else acc * f
        acc = acc.scale_coeff(coeff)
        total = acc if total is None else total + acc
    return total


def _assert_grouping_exact(p: JetPoly, bind: dict):
    got = eval_jetpoly(p, bind)
    want = eval_per_monomial(p, bind).with_weight(got.weight)
    assert got == want
    assert got.to_text() == want.to_text()


def test_grouped_jet_evaluation_of_the_weight5_operator(t2_48):
    from siegelops.jets import jet_apply
    from siegelops.opgen import build_Q
    jet = jet_apply(build_Q(2, Fraction(5)).Q, {1: "F", 2: "F"}, 2)
    assert len(jet.terms) == 4
    _assert_grouping_exact(jet, {"F": t2_48})


_DERIVS = {0: [()], 1: [((1, 1),), ((1, 2),), ((2, 2),)],
           2: [((1, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 1), (2, 2)), ((1, 2), (1, 2)),
               ((1, 2), (2, 2)), ((2, 2), (2, 2))]}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("FG"), st.sampled_from("FG"), st.integers(0, 2),
                          st.integers(0, 9), st.integers(0, 9),
                          st.sampled_from([1, -1, 2, Fraction(-20, 9), Fraction(3, 7)])),
                min_size=1, max_size=8))
def test_grouped_jet_evaluation_of_random_degree2_polynomials(draws):
    """Degree-2 jet polynomials of derivative order 2 in two symbols of one
    weight: shared factors, repeated factors and cancelling coefficients."""
    from siegelops.jets import _mono, jet_var
    terms: dict = {}
    for s1, s2, k, i1, i2, c in draws:
        d1, d2 = _DERIVS[k], _DERIVS[2 - k]
        mono = _mono([jet_var(s1, d1[i1 % len(d1)]), jet_var(s2, d2[i2 % len(d2)])])
        terms[mono] = terms.get(mono, 0) + Fraction(c)
    p = JetPoly(terms)
    if not p.terms:
        return
    c0, c1 = ThetaChar((0, 0), (0, 0)), ThetaChar((1, 0), (0, 0))
    theta0, theta1 = theta_qexp(2, c0, 24), theta_qexp(2, c1, 24)
    _assert_grouping_exact(p, {"F": theta0 * theta0, "G": theta0 * theta1})


# -- the Leibniz rewrite: c D_p F D_q F = c/2 D_p D_q (F F) - c F D_p D_q F ------


def _products(monkeypatch) -> list:
    """Each expansion product made from here on, as True for a square (one
    object as both operands) and False otherwise."""
    made = []
    for cls in (QExp1, QExp2):
        def counted(f, g, mul=cls.__mul__):
            made.append(f is g)
            return mul(f, g)
        monkeypatch.setattr(cls, "__mul__", counted)
    return made


@pytest.mark.parametrize("a", [Fraction(n, 2) for n in range(2, 17)])
def test_leibniz_rewrite_is_exact_for_every_genus2_weight(t2_48, a, monkeypatch):
    """At every weight the genus-2 operator's two-factor monomials of one
    derivative pair each are rewritten, and the result is the term-by-term
    sum byte for byte, from one square and one product."""
    from siegelops.jets import jet_apply
    from siegelops.opgen import build_Q
    jet = jet_apply(build_Q(2, a).Q, {1: "F", 2: "F"}, 2)
    want = eval_per_monomial(jet, {"F": t2_48})
    made = _products(monkeypatch)
    got = eval_jetpoly(jet, {"F": t2_48})
    assert sorted(made) == [False, True]
    assert got.to_text() == want.with_weight(got.weight).to_text()


def _jet(terms: dict) -> JetPoly:
    from siegelops.jets import _mono, jet_var
    return JetPoly({_mono(jet_var(s, d) for s, d in mono): Fraction(c)
                    for mono, c in terms.items()})


def test_leibniz_rewrite_at_genus1(monkeypatch):
    f = eis1_qexp(4, 64)
    p = _jet({(("F", ((1, 1),)), ("F", ((1, 1),))): Fraction(-3, 7)})
    want = eval_per_monomial(p, {"F": f})
    made = _products(monkeypatch)
    got = eval_jetpoly(p, {"F": f})
    assert made == [True]  # F' F', with no factor F to share a rewrite
    assert got.to_text() == want.with_weight(got.weight).to_text()


def test_leibniz_rewrite_skips_two_symbols_and_three_factors(t2_48, monkeypatch):
    """D_p F D_q G with G != F, and a monomial of three factors, are
    multiplied as they stand; the F_12 F_12 of the second is a square."""
    g = theta_qexp(2, ThetaChar((1, 0), (0, 0)), 48) ** 2
    two = _jet({(("F", ((1, 1),)), ("G", ((2, 2),))): 2,
                (("F", ((1, 2),)), ("G", ((1, 2),))): -2})
    three = _jet({(("F", ((1, 1),)), ("F", ((2, 2),)), ("F", ())): 5,
                  (("F", ((1, 2),)), ("F", ((1, 2),)), ("F", ())): -5})
    for p, bind, products in (
            (two, {"F": t2_48, "G": g}, [False, False]),
            (three, {"F": t2_48}, [False, True, False])):
        want = eval_per_monomial(p, bind)
        made = _products(monkeypatch)
        got = eval_jetpoly(p, bind)
        assert made == products
        assert got.to_text() == want.with_weight(got.weight).to_text()
        monkeypatch.undo()


def test_smf1_reader_messages_for_misplaced_keys(t2_48):
    """A repeated key reads as a duplicate whether or not it follows its
    twin, a smaller key as out of order, and an off-lattice key by the
    invariant it breaks, at both genera."""
    lines = t2_48.to_text().splitlines()
    text = t2_48.to_text()
    first = tuple(map(int, lines[8].split()[:-1]))
    last = tuple(map(int, lines[-2].split()[:-1]))
    cases = [(_replace(text, 9, lines[8]), "SMF1 line 10: duplicate exponent"),
             (_replace(text, len(lines) - 1, lines[8]),
              f"SMF1 line {len(lines)}: duplicate exponent"),
             (_replace(text, len(lines) - 1, "0 0 0 1"),
              f"SMF1 line {len(lines)}: term (0, 0, 0) comes after {last}; "
              "the terms are sorted by exponent"),
             (_replace(text, 8, "0 0 49 1"),
              "SMF1 line 9: term (0, 0, 49) exceeds truncation 48"),
             (_replace(text, 8, "0 -1 0 1"),
              "SMF1 line 9: term (0, -1, 0) violates beta^2 <= 4*alpha*gamma"),
             (_replace(text, 8, "0 0 -4 1"),
              "SMF1 line 9: negative diagonal exponent in term (0, 0, -4)")]
    assert first < last
    one = QExp1({(0,): Fraction(1), (8,): Fraction(2), (16,): Fraction(3)},
                Fraction(4), 16).to_text()
    cases += [(_replace(one, 9, "8 3"), "SMF1 line 10: duplicate exponent"),
              (_replace(one, 9, "0 3"), "SMF1 line 10: duplicate exponent"),
              (_replace(one, 7, "-8 1"), "SMF1 line 8: negative diagonal exponent in term (-8,)"),
              (_replace(one, 9, "24 3"), "SMF1 line 10: term (24,) exceeds truncation 16")]
    for bad, msg in cases:
        with pytest.raises(ValueError) as err:
            qexp_from_text(bad)
        assert str(err.value) == msg


def _replace_lines(text: str, edits: dict) -> str:
    """text with line idx (0-based) replaced by edits[idx]; None drops it."""
    lines = text.split("\n")[:-1]
    return "\n".join(l if i not in edits else edits[i] for i, l in enumerate(lines)
                     if edits.get(i, l) is not None) + "\n"


# each off-lattice line of t2_48 below sorts between its neighbours, so only
# the invariants it breaks fail there
_BETA_FAULT = {11: "4 -12 8 -64"}  # line 12: 144 > 4 * 4 * 8
_TRUNC_FAULT = {15: "4 -12 45 5760"}  # line 16: weight 49 > 48
_LEAST_BETA_FAULT = {8: "4 -24 28 64"}  # line 9: the least beta of group (4, 28)
_BETA_MSG = "SMF1 line 12: term (4, -12, 8) violates beta^2 <= 4*alpha*gamma"


@pytest.mark.parametrize("later,edits", [
    ("parse", {19: "4 -4 x -768"}), ("blank", {19: ""}), ("zero", {19: "4 -4 28 0"}),
    ("order", {19: "4 -4 4 -768"}), ("duplicate", {19: "4 -4 20 1728"}),
    ("off-lattice and out of order", {19: "4 -40 4 -768"}), ("count", {7: "terms 151"}),
    ("no final newline", {})])
def test_smf1_names_an_off_lattice_line_before_a_later_fault(t2_48, later, edits):
    """A term line that breaks an invariant is named even when a later line
    fails to parse, holds a zero, is out of order or the count is off."""
    text = _replace_lines(t2_48.to_text(), {**_BETA_FAULT, **edits})
    if later == "no final newline":
        text = text[:-1]
        msg = f"SMF1 line {len(text.splitlines())}: the block does not end in a newline"
    else:
        msg = _BETA_MSG
    with pytest.raises(ValueError) as err:
        qexp2_from_text(text)
    assert str(err.value) == msg


def test_smf1_names_the_first_of_two_failing_groups(t2_48):
    text = t2_48.to_text()
    cases = [({**_BETA_FAULT, **_TRUNC_FAULT}, _BETA_MSG),
             (_TRUNC_FAULT, "SMF1 line 16: term (4, -12, 45) exceeds truncation 48"),
             (_LEAST_BETA_FAULT, "SMF1 line 9: term (4, -24, 28) violates beta^2 <= 4*alpha*gamma"),
             ({**_LEAST_BETA_FAULT, **_TRUNC_FAULT},
              "SMF1 line 9: term (4, -24, 28) violates beta^2 <= 4*alpha*gamma"),
             ({**_LEAST_BETA_FAULT, **_BETA_FAULT, 19: "4 -4 28 0"},
              "SMF1 line 9: term (4, -24, 28) violates beta^2 <= 4*alpha*gamma")]
    for edits, msg in cases:
        with pytest.raises(ValueError) as err:
            qexp2_from_text(_replace_lines(text, edits))
        assert str(err.value) == msg


def test_smf1_genus1_exponents_outside_the_window():
    """Genus-1 term lines with a negative exponent or one above trunc are
    named before any later fault."""
    one = QExp1({(0,): Fraction(1), (8,): Fraction(2), (16,): Fraction(3)},
                Fraction(4), 16).to_text()
    negative = "SMF1 line 8: negative diagonal exponent in term (-8,)"
    cases = [({7: "-8 1"}, negative), ({7: "-8 1", 9: "24 3"}, negative),
             ({7: "-8 1", 8: "8 0"}, negative), ({7: "-8 1", 9: "16 x"}, negative),
             ({9: "24 3"}, "SMF1 line 10: term (24,) exceeds truncation 16"),
             ({8: "20 2"}, "SMF1 line 9: term (20,) exceeds truncation 16"),
             ({6: "terms 4", 8: "20 2"}, "SMF1 line 9: term (20,) exceeds truncation 16"),
             ({6: "terms 2", 8: "17 2", 9: None},
              "SMF1 line 9: term (17,) exceeds truncation 16")]
    for edits, msg in cases:
        with pytest.raises(ValueError) as err:
            qexp1_from_text(_replace_lines(one, edits))
        assert str(err.value) == msg
    with pytest.raises(ValueError) as err:
        qexp1_from_text(_replace_lines(one, {9: "24 3"}) + "32 1\n")
    assert str(err.value) == "SMF1 line 10: term (24,) exceeds truncation 16"


# -- SMF1 takes only what to_text writes -----------------------------------------


def _strict_cases(text: str) -> list:
    """(edited text, the 1-based line its error must name) for each kind of
    spacing and line-end the writer never writes."""
    lines = text.split("\n")[:-1]
    term = len(lines) - 1  # the last term line

    def edit(idx, line):
        return "\n".join(lines[:idx] + [line] + lines[idx + 1:]) + "\n"

    return [(edit(4, " " + lines[4]), 5),  # ' trunc 16'
            (edit(5, "\t" + lines[5]), 6),  # '\ttaupow 0'
            (edit(2, lines[2].replace(" ", "\t")), 3),
            (edit(term, lines[term].replace(" ", "\t", 1)), term + 1),
            (edit(3, lines[3].replace(" ", "  ")), 4),
            (edit(term, lines[term].replace(" ", "  ", 1)), term + 1),
            (edit(1, lines[1] + " "), 2),
            (edit(term, lines[term] + " "), term + 1),
            (text[:-1], term + 1),  # no final newline
            (text.replace("\n", "\r\n"), 1)]


@pytest.mark.parametrize("genus", [1, 2])
def test_smf1_takes_only_single_spaces_and_newlines(genus):
    f = tnull_qexp(16) if genus == 2 else eis1_qexp(4, 24)
    text = f.to_text()
    assert qexp_from_text(text).to_text() == text
    read = qexp2_from_text if genus == 2 else qexp1_from_text
    for bad, line in _strict_cases(text):
        for reader in (read, qexp_from_text):
            with pytest.raises(ValueError, match=f"^SMF1 line {line}: "):
                reader(bad)


@pytest.mark.parametrize("genus", [1, 2])
def test_one_pass_derivatives_match_the_q_diff_chain(genus):
    """_diff(pairs) equals q_diff applied pair by pair, for every sequence of
    at most three pairs: the same normalization, tau_factor and dropped zeros."""
    if genus == 2:
        f = tnull_qexp(24).scale_coeff(Fraction(3, 7)).with_character(False) + QExp2(
            {(0, 0, 0): 5, (8, 0, 0): Fraction(1, 3), (0, 0, 16): 2, (16, 0, 8): -1}, 5, 24)
    else:
        f = eis1_qexp(4, 24).scale_coeff(Fraction(1, 240)) + QExp1({(3,): Fraction(2, 9)}, 4, 24)
    pairs = [(i, j) for i in range(1, genus + 1) for j in range(1, genus + 1)]
    sequences = [seq for n in range(4) for seq in itertools.product(pairs, repeat=n)]
    for seq in sequences:
        chain = f
        for p in seq:
            chain = chain.q_diff(*p)
        once = f._diff([(1, seq)])
        assert once == chain and once.tau_factor == f.tau_factor + len(seq), seq
        assert once.to_text() == chain.to_text()
        assert all(once.terms.values())
    with pytest.raises(ValueError, match="out of range"):
        f._diff([(1, ((1, 1), (1, genus + 1)))])


@pytest.mark.parametrize("genus", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_combined_diff_is_the_sum_of_q_diff_chains(genus, data):
    """_diff(terms) equals the sum of c times the q_diff chain of pairs over
    the (c, pairs) of terms, also when the terms cancel; a perturbed
    coefficient gives another result."""
    f, _ = data.draw(_checked_operands(genus))
    pairs = [(i, j) for i in range(1, genus + 1) for j in range(1, genus + 1)]
    order = data.draw(st.integers(0, 3))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    terms = data.draw(st.lists(st.tuples(coeffs, st.tuples(*[st.sampled_from(pairs)] * order)),
                               min_size=1, max_size=4))
    cancel = data.draw(st.booleans())
    if cancel:  # each term again, negated, with its pairs in reverse order
        terms += [(-c, seq[::-1]) for c, seq in terms]

    def chain(seq):
        out = f
        for p in seq:
            out = out.q_diff(*p)
        return out

    def chain_sum(cs):
        parts = [chain(seq).scale_coeff(c) for c, (_, seq) in zip(cs, terms)]
        return sum(parts[1:], parts[0])

    got = f._diff(terms)
    want = chain_sum([c for c, _ in terms])
    assert got == want and got.to_text() == want.to_text()
    assert got.tau_factor == f.tau_factor + order
    _assert_checked(got)
    if cancel:
        assert got.is_zero()
    elif not chain(terms[0][1]).is_zero():  # negative control
        assert got != chain_sum([terms[0][0] + 1] + [c for c, _ in terms[1:]])


def test_combined_diff_rejects_mixed_orders():
    f = tnull_qexp(24)
    for terms in ([], [(1, ((1, 1),)), (1, ())], [(1, ((1, 2),)), (2, ((1, 1), (2, 2)))]):
        with pytest.raises(ValueError, match="one order"):
            f._diff(terms)


def test_combined_diff_negative_control():
    """The genus-2 operator's second-order part on F F against a perturbed
    coefficient: a wrong weight shows."""
    ff = tnull_qexp(24) ** 2
    terms = [(Fraction(1, 2), ((1, 1), (2, 2))), (Fraction(-1, 2), ((1, 2), (1, 2)))]
    want = (ff.q_diff(1, 1).q_diff(2, 2).scale_coeff(Fraction(1, 2))
            - ff.q_diff(1, 2).q_diff(1, 2).scale_coeff(Fraction(1, 2)))
    assert ff._diff(terms) == want and not want.is_zero()
    assert ff._diff([terms[0], (Fraction(-1, 3), terms[1][1])]) != want


def test_jet_variables_take_one_pass_each(t2_48, monkeypatch):
    """The genus-2 operator's second derivatives are two _diff calls, one on
    F and one on F F, each taking both derivative terms; no q_diff runs."""
    from siegelops.jets import operator_jet
    from siegelops.opgen import build_Q
    calls = []
    diff = QExp2._diff

    def counting(self, terms):
        calls.append((self, sorted(pairs for _, pairs in terms)))
        return diff(self, terms)

    monkeypatch.setattr(QExp2, "_diff", counting)
    monkeypatch.setattr(QExp2, "q_diff", None)
    eval_jetpoly(operator_jet(build_Q(2, Fraction(5))), {"F": t2_48})
    both = [((1, 1), (2, 2)), ((1, 2), (1, 2))]
    assert len(calls) == 2
    assert sorted((base == t2_48, pairs) for base, pairs in calls) == [(False, both), (True, both)]
    assert [base for base, _ in calls if base != t2_48] == [t2_48 * t2_48]


def test_sum_drops_cancelled_terms_and_stays_canonical():
    f = QExp2({(8, 0, 8): Fraction(1, 6), (8, 4, 8): Fraction(1, 3), (16, 0, 8): 2}, 5, 24)
    g = QExp2({(8, 0, 8): Fraction(-1, 6), (8, 4, 8): Fraction(1, 6),
               (0, 0, 16): Fraction(1, 2)}, 5, 24)
    total = f + g
    assert total.terms == {(8, 4, 8): Fraction(1, 2), (16, 0, 8): 2, (0, 0, 16): Fraction(1, 2)}
    assert (total._den, total._nums) == (2, {(8, 4, 8): 1, (16, 0, 8): 4, (0, 0, 16): 1})
    assert total == QExp2(dict(total.terms), 5, 24)
    zero = f + (-f)
    assert zero.is_zero() and (zero._den, zero._nums) == (1, {}) and zero == QExp2.zero(5, 24)
    half = QExp2({(8, 0, 8): Fraction(1, 2), (8, 4, 8): Fraction(-1, 2)}, 5, 24)
    assert ((half + half)._den, (half + half)._nums) == (1, {(8, 0, 8): 1, (8, 4, 8): -1})
    # every term within the shorter truncation cancels
    assert f + (-f).truncate(16) == QExp2.zero(5, 16)


def _theta00():
    return theta_qexp(2, ThetaChar((0, 0), (0, 0)), 16)


_F = JetPoly.symbol("F")


@pytest.mark.parametrize("call, message", [
    (lambda: QExp2.one(16) + QExp2.one(16).with_character(True), "^character mismatch$"),
    (lambda: product_balanced([]), "^empty product$"),
    (lambda: eval_jetpoly(JetPoly.symbol("F").scale(RatFunc.var()), {"F": _theta00()}),
     "^bind a numeric weight before evaluating$"),
    (lambda: eval_jetpoly(_F + _F * _F, {"F": _theta00()}),
     "^jet polynomial is not weight/order homogeneous$"),
    (lambda: eval_jetpoly(_F * _F + jet_det_partial("F", 2), {"F": _theta00()}),
     "^jet polynomial is not weight/order homogeneous$"),
    (lambda: eval_jetpoly(JetPoly.const(3), {"F": _theta00()}),
     "^jet polynomial has a constant term$"),
    (lambda: eval_jetpoly(_F + JetPoly.const(1), {"F": _theta00()}),
     "^jet polynomial has a constant term$"),
    (lambda: eval_jetpoly(JetPoly.const(3), {}), "^jet polynomial has a constant term$"),
], ids=["character", "empty-product", "symbolic-weight", "weight", "order", "constant",
        "constant-term", "constant-unbound"])
def test_qexp_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- the SMF1 column reader against the line reader ---------------------------------


@contextmanager
def line_reads():
    """The list of the line reader's calls in the block: the column reader
    fell back to it once per entry."""
    calls = []
    real = qexp._smf1_lines

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    with mock.patch.object(qexp, "_smf1_lines", spy):
        yield calls


def read_by_lines(text: str):
    """qexp_from_text with the column reader off: the line reader alone."""
    with mock.patch.object(qexp, "_smf1_columns", lambda *args: None):
        return qexp_from_text(text)


@st.composite
def expansions(draw):
    """A genus-1 or genus-2 expansion with integer or p/q coefficients, maybe
    zero, with terms at the truncation and, at genus 2, beta at
    +-2 sqrt(alpha gamma) where that is an integer."""
    genus, trunc = draw(st.sampled_from([1, 2])), draw(st.integers(0, 40))
    dens = draw(st.sampled_from([[1], [1, 3], [2, 3, 12], [7 ** 30]]))
    coeff = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.sampled_from(dens))
    terms = {}
    for _ in range(draw(st.integers(0, 25))):
        a = draw(st.integers(0, trunc))
        c = trunc - a if draw(st.booleans()) else draw(st.integers(0, trunc - a))
        if genus == 1:
            terms[(a + c,)] = draw(coeff)
            continue
        if draw(st.booleans()):  # alpha = gamma: beta = +-2 alpha is on the boundary
            a = c = min(a, c)
        m = math.isqrt(4 * a * c)
        terms[(a, draw(st.one_of(st.sampled_from([-m, m]), st.integers(-m, m))), c)] = draw(coeff)
    cls = QExp2 if genus == 2 else QExp1
    return cls(terms, Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2]))), trunc,
               draw(st.integers(-3, 3)), genus == 2 and draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(expansions())
def test_smf1_columns_read_what_the_lines_read(f):
    """Every block to_text writes takes the column reader (the line reader
    is never called) and reads to what the line reader reads: f itself."""
    text = f.to_text()
    with line_reads() as calls:
        got = qexp_from_text(text)
    assert calls == []
    assert got == read_by_lines(text) == f
    assert got.to_text() == text


_F2 = QExp2({(0, 0, 0): Fraction(1), (4, -4, 4): Fraction(-3, 2), (4, 4, 4): Fraction(5, 3)},
            Fraction(5), 8)
_F1 = QExp1({(0,): Fraction(1), (8,): Fraction(-3, 2), (16,): Fraction(5, 3)}, Fraction(4), 16)
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("f, edits, message", [
    (_F2, {8: "0 0 0 1/1"},
     "SMF1 line 9: cannot parse '0 0 0 1/1' ('1/1' is not p/q in lowest terms with q >= 2)"),
    (_F2, {9: "4 -4 4 2/4"},
     "SMF1 line 10: cannot parse '4 -4 4 2/4' ('2/4' is not p/q in lowest terms with q >= 2)"),
    (_F2, {8: "0 -0 0 1"},
     "SMF1 line 9: cannot parse '0 -0 0 1' ('-0' is not an integer as str writes it)"),
    (_F2, {8: "0 0 0 -0"},
     "SMF1 line 9: cannot parse '0 0 0 -0' ('-0' is not an integer as str writes it)"),
    (_F2, {9: "0 0 0 2"}, "SMF1 line 10: duplicate exponent"),
    (_F2, {9: "4 4 4 5/3", 10: "4 -4 4 -3/2"},
     "SMF1 line 11: term (4, -4, 4) comes after (4, 4, 4); the terms are sorted by exponent"),
    (_F2, {7: "terms 4"}, "SMF1 line 8: declares 4 terms, found 3"),
    (_F2, {10: "4 4 5 5/3"}, "SMF1 line 11: term (4, 4, 5) exceeds truncation 8"),
    (_F2, {10: "4 9 4 5/3"}, "SMF1 line 11: term (4, 9, 4) violates beta^2 <= 4*alpha*gamma"),
    (_F2, {8: "-4 0 0 1"}, "SMF1 line 9: negative diagonal exponent in term (-4, 0, 0)"),
    (_F1, {8: "8 -3/1"},
     "SMF1 line 9: cannot parse '8 -3/1' ('-3/1' is not p/q in lowest terms with q >= 2)"),
    (_F1, {9: "16 10/6"},
     "SMF1 line 10: cannot parse '16 10/6' ('10/6' is not p/q in lowest terms with q >= 2)"),
    (_F1, {7: "-0 1"},
     "SMF1 line 8: cannot parse '-0 1' ('-0' is not an integer as str writes it)"),
    (_F1, {8: "0 2"}, "SMF1 line 9: duplicate exponent"),
    (_F1, {8: "16 5/3", 9: "8 -3/2"},
     "SMF1 line 10: term (8,) comes after (16,); the terms are sorted by exponent"),
    (_F1, {6: "terms 2"}, "SMF1 line 7: declares 2 terms, found 3"),
    (_F1, {9: "24 5/3"}, "SMF1 line 10: term (24,) exceeds truncation 16"),
    (_F1, {7: "-8 1"}, "SMF1 line 8: negative diagonal exponent in term (-8,)"),
], ids=["g2-over-1", "g2-unreduced", "g2-minus-zero-key", "g2-minus-zero-coeff",
        "g2-duplicate", "g2-order", "g2-count", "g2-weight", "g2-beta", "g2-negative-alpha",
        "g1-over-1", "g1-unreduced", "g1-minus-zero", "g1-duplicate", "g1-order", "g1-count",
        "g1-weight", "g1-negative"])
def test_smf1_column_reader_falls_back_on_each_fault(f, edits, message):
    """Negative controls: each block the writer cannot write reaches the
    line reader, which raises the line reader's message."""
    text = _replace_lines(f.to_text(), edits)
    with line_reads() as calls, pytest.raises(ValueError) as err:
        qexp_from_text(text)
    assert str(err.value) == message
    assert len(calls) == 1


@pytest.mark.skipif(not _DIGITS, reason="this Python has no integer digit limit")
@pytest.mark.parametrize("edits", [{8: f"{'1' * (_DIGITS + 1)} 0 0 1"},
                                   {8: f"0 0 0 {'1' * (_DIGITS + 1)}"}], ids=["key", "coeff"])
def test_smf1_column_reader_falls_back_past_the_digit_limit(edits):
    """An integer longer than int() reads makes the column reader raise;
    the line reader then names the line."""
    text = _replace_lines(_F2.to_text(), edits)
    with line_reads() as calls, pytest.raises(ValueError) as err:
        qexp_from_text(text)
    assert str(err.value).startswith(f"SMF1 line 9: cannot parse '{edits[8]}' (")
    assert len(calls) == 1


@pytest.mark.parametrize("make", [lambda: tnull_qexp(24).scale_coeff(Fraction(-5, 6)),
                                  lambda: eis1_qexp(4, 40).scale_coeff(Fraction(1, 240))],
                         ids=["genus2", "genus1"])
def test_smf1_column_and_line_readers_agree_on_edited_blocks(make):
    """Seeded one-character edits: the reader with its column path reads
    each edited block to the object the line reader alone reads, or raises
    the line reader's message."""
    text = make().to_text()
    rng = random.Random(5)
    alphabet = sorted(set(text) | set(" -/0123456789\n\t"))

    def outcome(read, edited):
        try:
            return read(edited)
        except ValueError as exc:
            return str(exc)

    for _ in range(600):
        pos = rng.randrange(len(text))
        edited = text[:pos] + rng.choice(["", rng.choice(alphabet)]) + text[pos + 1:]
        assert outcome(qexp_from_text, edited) == outcome(read_by_lines, edited), edited


# -- the SMF1 header: only its lines are split off --------------------------------


@pytest.mark.parametrize("f, n, newline, message", [
    (_F2, 6, True, "SMF1 line 7: expected 'character <value>', found ''"),
    (_F2, 6, False, "SMF1 line 6: the block does not end in a newline"),
    (_F2, 7, True, "SMF1 line 8: expected 'terms <value>', found ''"),
    (_F2, 7, False, "SMF1 line 7: the block does not end in a newline"),
    (_F2, 8, True, "SMF1 line 8: declares 3 terms, found 0"),
    (_F2, 8, False, "SMF1 line 8: the block does not end in a newline"),
    (_F2, 9, True, "SMF1 line 8: declares 3 terms, found 1"),
    (_F2, 9, False, "SMF1 line 9: the block does not end in a newline"),
    (_F2, 10, True, "SMF1 line 8: declares 3 terms, found 2"),
    (_F2, 10, False, "SMF1 line 10: the block does not end in a newline"),
    (_F1, 6, True, "SMF1 line 7: expected 'terms <value>', found ''"),
    (_F1, 6, False, "SMF1 line 6: the block does not end in a newline"),
    (_F1, 7, True, "SMF1 line 7: declares 3 terms, found 0"),
    (_F1, 7, False, "SMF1 line 7: the block does not end in a newline"),
    (_F1, 8, True, "SMF1 line 7: declares 3 terms, found 1"),
    (_F1, 8, False, "SMF1 line 8: the block does not end in a newline"),
    (_F1, 9, True, "SMF1 line 7: declares 3 terms, found 2"),
    (_F1, 9, False, "SMF1 line 9: the block does not end in a newline"),
    (_F1, 10, True, None),
    (_F1, 10, False, "SMF1 line 10: the block does not end in a newline"),
])
def test_smf1_blocks_cut_around_the_header(f, n, newline, message):
    """Blocks of 6-10 lines, on both sides of the eight lines split off as
    the header, each read to f (the whole genus-1 block) or refused with
    its message."""
    text = "\n".join(f.to_text().split("\n")[:n]) + ("\n" if newline else "")
    if message is None:
        assert qexp_from_text(text) == f
        return
    with pytest.raises(ValueError) as err:
        qexp_from_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("", "SMF1 line 1: not an SMF1 block"),
    ("\n", "SMF1 line 1: not an SMF1 block"),
    ("SMF1", "SMF1 line 1: the block does not end in a newline"),
    ("SMF1\n", "SMF1 line 2: expected 'genus <value>', found ''"),
], ids=["empty", "newline", "no-newline", "magic-only"])
def test_smf1_refuses_blocks_of_at_most_one_line(text, message):
    for read in (qexp1_from_text, qexp2_from_text):
        with pytest.raises(ValueError) as err:
            read(text)
        assert str(err.value) == message


@pytest.mark.parametrize("edits, message", [
    ({3: "scale  8"}, "SMF1 line 4: 'scale  8' has whitespace other than single spaces "
                      "between fields"),
    ({7: "terms 3"}, "SMF1 line 8: declares 3 terms, found 150"),
    ({2: "weight 5.0", 40: "4 -4 4 0"}, "SMF1 line 3: bad weight value '5.0'"),
], ids=["spacing", "count", "weight-and-body"])
def test_smf1_header_fault_before_a_long_body(t2_48, edits, message):
    """A header fault is named whatever the 150 term lines after it hold."""
    with pytest.raises(ValueError) as err:
        qexp2_from_text(_replace_lines(t2_48.to_text(), edits))
    assert str(err.value) == message


def test_smf1_genus1_first_term_line_is_checked_with_the_header():
    """At genus 1 the eighth line split off with the header is a term line;
    its spacing is named there, before the body is read."""
    with pytest.raises(ValueError) as err:
        qexp1_from_text(_replace_lines(_F1.to_text(), {7: "0\t1"}))
    assert str(err.value) == ("SMF1 line 8: '0\\t1' has whitespace other than single "
                              "spaces between fields")
