"""Tests for the sparse polynomial ring and the determinant-pencil expansion."""

import itertools
import json
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import encode, packed
from siegelops.jets import JetPoly, jet_var
from siegelops.opgen import build_Q, opspec_from_text, opspec_to_text, symbolic_weight
from siegelops.poly import (MultiPoly, PackedPoly, _index_pairs, _minor_rows,
                            _packed_chunks, _packing, _t_split, coeff_R, det_expand, index_set_N,
                            minor_coeff_R, multi_indices, r_var, t_var)
from siegelops.scalars import RatFunc, scalar_to_text

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def V(v):
    return MultiPoly.var(v)


def leibniz_det(entries):
    """Independent determinant: Leibniz expansion over a matrix of polynomials."""
    n = len(entries)
    total = MultiPoly.zero()
    for sigma in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        term = MultiPoly.const(sign)
        for i in range(n):
            term = term * entries[i][sigma[i]]
        total = total + term
    return total


def test_det_expand_genus1():
    assert det_expand(1).decode() == V(t_var(1)) * V(r_var(1, 1, 1))


def test_det_expand_genus2_by_hand():
    # 2x2 determinant of the pencil, expanded by hand
    d = det_expand(2).decode()
    detR1 = V(r_var(1, 1, 1)) * V(r_var(1, 2, 2)) - V(r_var(1, 1, 2)) ** 2
    detR2 = V(r_var(2, 1, 1)) * V(r_var(2, 2, 2)) - V(r_var(2, 1, 2)) ** 2
    mixed = (V(r_var(1, 1, 1)) * V(r_var(2, 2, 2))
             + V(r_var(2, 1, 1)) * V(r_var(1, 2, 2))
             - V(r_var(1, 1, 2)) * V(r_var(2, 1, 2)).scale(Fraction(2)))
    expect = (V(t_var(1)) ** 2 * detR1 + V(t_var(1)) * V(t_var(2)) * mixed
              + V(t_var(2)) ** 2 * detR2)
    assert d == expect


def test_genus3_t1_cube_coefficient_is_det_R1():
    got = coeff_R(3, (3, 0, 0)).decode()
    entries = [[V(r_var(1, i, j)) for j in range(1, 4)] for i in range(1, 4)]
    assert got == leibniz_det(entries)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_det_expand_at_t_equal_one(g):
    """Specializing every t to 1 matches an independent Leibniz determinant."""
    subs = {t_var(h): MultiPoly.const(1) for h in range(1, g + 1)}
    lhs = det_expand(g).decode().substitute(subs)
    entries = [[sum((V(r_var(h, i, j)) for h in range(1, g + 1)),
                    MultiPoly.zero()) for j in range(1, g + 1)]
               for i in range(1, g + 1)]
    assert lhs == leibniz_det(entries)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_collapsed_sum_scales_like_det_of_gR(g):
    """R_1 = ... = R_g = R and t = 1 turns the expansion into det(gR) = g^g det R."""
    subs = {t_var(h): MultiPoly.const(1) for h in range(1, g + 1)}
    for h in range(2, g + 1):
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                subs[r_var(h, i, j)] = V(r_var(1, i, j))
    collapsed = det_expand(g).decode().substitute(subs)
    entries = [[V(r_var(1, i, j)) for j in range(1, g + 1)] for i in range(1, g + 1)]
    assert collapsed == leibniz_det(entries).scale(Fraction(g ** g))


@pytest.mark.parametrize("g", [2, 3])
def test_congruence_scaling(g):
    """B(n)(A R A^t, ...) = det(A)^2 B(n): the degree-2 scaling property."""
    rng = random.Random(20240 + g)
    det_a = 0
    while det_a == 0:
        a = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
        det_a = round(leibniz_det([[MultiPoly.const(a[i][j]) for j in range(g)]
                                   for i in range(g)]).terms.get((), 0))
    subs = {}
    for h in range(1, g + 1):
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                acc = MultiPoly.zero()
                for p in range(1, g + 1):
                    for q in range(1, g + 1):
                        c = a[i - 1][p - 1] * a[j - 1][q - 1]
                        if c:
                            acc = acc + V(r_var(h, p, q)).scale(Fraction(c))
                subs[r_var(h, i, j)] = acc
    for n in [(1,) * g, (g,) + (0,) * (g - 1)]:
        b = coeff_R(g, n).decode()
        assert b.substitute(subs) == b.scale(Fraction(det_a ** 2))


def test_coeff_R_examples():
    detR1 = V(r_var(1, 1, 1)) * V(r_var(1, 2, 2)) - V(r_var(1, 1, 2)) ** 2
    assert coeff_R(2, (2, 0)).decode() == detR1
    mixed = (V(r_var(1, 1, 1)) * V(r_var(2, 2, 2))
             + V(r_var(2, 1, 1)) * V(r_var(1, 2, 2))
             - V(r_var(1, 1, 2)) * V(r_var(2, 1, 2)).scale(Fraction(2)))
    assert coeff_R(2, (1, 1)).decode() == mixed


def test_index_sets():
    assert len(index_set_N(3)) == 10
    assert all(sum(n) == 3 for n in index_set_N(3))
    assert len(multi_indices(3, 2)) == 6
    with pytest.raises(ValueError):
        coeff_R(2, (2, 1))


def test_minor_coefficients():
    assert minor_coeff_R(2, 1, 1, (0, 1)).decode() == V(r_var(2, 2, 2))
    assert minor_coeff_R(2, 1, 1, (1, 0)).decode() == V(r_var(1, 2, 2))
    # deleting row 1, column 2 leaves the (2,1) entry of the pencil
    assert minor_coeff_R(2, 1, 2, (1, 0)).decode() == V(r_var(1, 1, 2))


def test_sym_diff():
    p = V(r_var(1, 1, 1)) ** 2
    assert p.diff_sym(1, 1, 1) == V(r_var(1, 1, 1)).scale(Fraction(2))
    q = V(r_var(1, 1, 2)) ** 2
    assert q.diff_sym(1, 1, 2) == V(r_var(1, 1, 2))
    assert V(r_var(2, 1, 2)).diff_sym(1, 1, 2).is_zero()


def test_mul_var_is_the_product_with_the_variable():
    """mul_var(v, e) is the product with v^e, on monomials with and without
    v, and e = 0 gives an equal polynomial."""
    v = r_var(1, 1, 2)
    p = (V(r_var(1, 1, 1)) * V(v).scale(Fraction(3)) - V(t_var(2)) ** 2
         + V(r_var(2, 2, 2)) * V(v) ** 2 + MultiPoly.const(5))
    for e in (1, 2, 3):
        assert p.mul_var(v, e) == p * V(v) ** e
    assert p.mul_var(v, 0) == p


def test_symmetric_entries_have_one_order():
    """The entries (i, j), i <= j, row by row: the key entries of an
    expansion and the r-variables of each block R_h of a packed key."""
    from siegelops.qexp import QExp1, QExp2
    assert _index_pairs(2) == [(1, 1), (1, 2), (2, 2)]
    assert QExp2._layout.pairs == _index_pairs(2) and QExp1._layout.pairs == [(1, 1)]
    names = _packing(3).names
    for h in (1, 2, 3):
        block = names[3 + 6 * (h - 1):3 + 6 * h]
        assert block == [r_var(h, i, j) for i, j in _index_pairs(3)]


def test_mixed_sums_and_products_are_in_qa():
    """A sum or product of a Q and a Q(a) polynomial, either way round, is
    the same operation on the promoted Q operand: each coefficient it makes
    from a RatFunc is a RatFunc.  A RatFunc constant times a variable is the
    variable scaled by it, and promotes to it."""
    a = symbolic_weight()
    p = V(r_var(1, 1, 1)).scale(Fraction(3)) + MultiPoly.const(Fraction(1, 2))
    q = V(r_var(1, 1, 1)).scale(a) + MultiPoly.var(r_var(1, 2, 2)).promote()
    r111, r122 = ((r_var(1, 1, 1), 1),), ((r_var(1, 2, 2), 1),)
    for total in (p + q, q + p):
        assert total == p.promote() + q
        assert total.terms[r111] == 3 + a and isinstance(total.terms[r111], RatFunc)
        assert isinstance(total.terms[r122], RatFunc) and total.terms[()] == Fraction(1, 2)
        assert all(isinstance(c, RatFunc) for c in total.promote().terms.values())
    for product in (p * q, q * p):
        assert product == p.promote() * q and len(product.terms) == 4
        assert all(isinstance(c, RatFunc) for c in product.terms.values())
    jet = JetPoly.symbol("F")
    assert jet * jet.promote() == (jet * jet).promote()
    assert all(isinstance(c, RatFunc) for c in (jet * jet.promote()).terms.values())
    const_a = MultiPoly.const(a) * V(r_var(1, 1, 1))
    assert const_a == V(r_var(1, 1, 1)).scale(a) == const_a.promote()
    assert const_a.promote().terms == {r111: a}
    # a polynomial and its promote are equal, so they hash alike
    assert len({p, p.promote()}) == 1
    assert len({V(r_var(1, 1, 1)), V(r_var(1, 1, 1)).promote()}) == 1


@pytest.mark.parametrize("bad", [0.1, 0.5, 1j, "1/2", True],
                         ids=["float", "binary-float", "complex", "string", "bool"])
def test_const_takes_exact_numbers_only(bad):
    for cls in (MultiPoly, JetPoly):
        for make in (cls.const, lambda c: cls({(): c})):
            with pytest.raises(TypeError, match=rf"^coefficient {re.escape(repr(bad))} is not "
                                                "an exact rational$"):
                make(bad)
    assert MultiPoly.const(RatFunc(3)).terms == {(): RatFunc(3)}


_R111, _T1 = r_var(1, 1, 1), t_var(1)
_F, _G = jet_var("F"), jet_var("G")


@pytest.mark.parametrize("cls, mono", [
    (MultiPoly, ((_R111, 1), (_T1, 1))),
    (MultiPoly, ((_T1, 1), (_T1, 1))),
    (MultiPoly, ((_T1, 0),)),
    (MultiPoly, ((_T1, True),)),
    (MultiPoly, ((("r", 1, 2, 1), 1),)),
    (MultiPoly, ("r", 1, 2, 1)),
    (MultiPoly, "junk"),
    (MultiPoly, (("junk", 1),)),
    (JetPoly, (_G, _F)),
    (JetPoly, (("F", ((2, 1),)),)),
    (JetPoly, "junk"),
], ids=["out-of-order", "repeated", "exponent-0", "exponent-bool", "r-entry-i-above-j",
        "bare-variable", "string", "unknown-variable", "jet-out-of-order", "jet-unsorted-pair",
        "jet-string"])
def test_constructors_refuse_a_monomial_not_in_ring_form(cls, mono):
    """A key the ring's own product would not make is refused, naming it,
    whatever its coefficient: the ring compares monomials as it makes them."""
    for c in (1, 0):
        with pytest.raises(ValueError, match=rf"monomial {re.escape(repr(mono))} is not "):
            cls({mono: c})


def test_a_product_written_as_a_key_is_the_product_in_ring_form_only():
    """The key in ring form is the product; the same factors in another
    order are refused, where they made a polynomial unequal to it."""
    assert MultiPoly({((_T1, 1), (_R111, 1)): 2}) == (V(_T1) * V(_R111)).scale(2)
    F, G = JetPoly.symbol("F"), JetPoly.symbol("G")
    assert JetPoly({(_F, _G): 1}) == F * G == G * F
    for cls, key in ((MultiPoly, ((_R111, 1), (_T1, 1))), (JetPoly, (_G, _F))):
        with pytest.raises(ValueError):
            cls({key: 1})


@pytest.mark.parametrize("bad", [0.1, 0.25, 1j, 0.0, "1/2", True],
                         ids=["float", "binary-float", "complex", "float-zero", "string", "bool"])
def test_scale_takes_exact_factors_only(bad):
    """A float factor would be stored as a float, which jet_apply cannot clear."""
    for p in (MultiPoly.var(r_var(1, 1, 1)), JetPoly.symbol("F")):
        with pytest.raises(TypeError, match=rf"^coefficient {re.escape(repr(bad))} is not an "
                                            "exact rational$"):
            p.scale(bad)


def test_qa_constant_has_a_ratfunc_coefficient():
    from siegelops.scalars import RatFunc
    p = MultiPoly.const(RatFunc(1)) + MultiPoly.var(r_var(1, 1, 1)).promote()
    assert all(isinstance(c, RatFunc) for c in p.terms.values())
    assert all(isinstance(c, RatFunc) for c in (JetPoly.const(RatFunc(3)).terms.values()))
    assert _write(p).splitlines()[1:] == ["1*a^0;1*a^0 | ", "1*a^0;1*a^0 | r[1;1,1]^1"]


def test_poly1_round_trip():
    """A polynomial goes to its cleared packed form and back unchanged, and
    the POLY1 text of that form is the reference writer's text of it.  The
    form is in Q with all-Fraction coefficients and in Q(a) with a RatFunc
    among them: with RatFunc and Fraction coefficients side by side, it is
    the form of the polynomial promoted."""
    p = (V(r_var(1, 1, 2)) * V(r_var(2, 2, 2)).scale(Fraction(-3, 7))
         + V(r_var(1, 1, 1)) ** 3 + MultiPoly.const(Fraction(5, 2)))
    mixed = MultiPoly({m: RatFunc(c) if i % 2 else c for i, (m, c) in enumerate(p.terms.items())})
    assert isinstance(packed(p, 2).den, int) and packed(p, 2).den == 14
    assert packed(p.promote(), 2) == packed(mixed, 2) and packed(mixed, 2).den == (14,)
    for q in (p, p.promote(), mixed):
        assert packed(q, 2).decode() == q
        assert _write(q) == poly_to_text(q.promote() if q is mixed else q, 2)


_vars = [r_var(1, 1, 1), r_var(1, 1, 2), r_var(2, 2, 2), t_var(1)]


def polys():
    term = st.tuples(st.sampled_from(_vars), st.integers(1, 2))
    return st.builds(
        lambda ts, cs: sum((MultiPoly.var(v).scale(Fraction(c)) ** e
                            for (v, e), c in zip(ts, cs) if c),
                           MultiPoly.zero()),
        st.lists(term, max_size=3),
        st.lists(st.integers(-4, 4), min_size=3, max_size=3))


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_product_reassociation_random_order():
    """Products of determinant-expansion pieces agree under any association."""
    rng = random.Random(7)
    parts = [coeff_R(2, n).decode() for n in index_set_N(2)]
    ordered = parts[0] * parts[1] * parts[2]
    shuffled = parts[:]
    rng.shuffle(shuffled)
    other = shuffled[0] * (shuffled[1] * shuffled[2])
    assert ordered == other


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_t_split_matches_t_coefficient(g):
    """The cached split by t-exponent agrees with a scan for each n."""
    full = det_expand(g).decode()
    for n in index_set_N(g):
        assert coeff_R(g, n).decode() == full.t_coefficient(n)
    for k in range(1, g + 1):
        for l in range(1, g + 1):
            minor = PackedPoly(g, 1, _reference_leibniz(g, (k, l))).decode()
            for n in multi_indices(g, g - 1):
                assert minor_coeff_R(g, k, l, n).decode() == minor.t_coefficient(n), (k, l, n)


# -- POLY1: the packed writer, and its lines in an OPSPEC1 file ----------------
#
# POLY1 has no reader of its own: opgen.opspec_from_text rebuilds the
# operator of a file's genus and weight and compares the writer's lines
# with the text.  So each POLY1 body the writer would not write is an
# error at the first line that differs, naming the line expected and the
# line found.


def _packed_text(p):
    """The POLY1 block of a PackedPoly as one text."""
    return "".join(_packed_chunks(p))


def _write(p, g=2):
    """The POLY1 text of a genus-g MultiPoly, packed and cleared first."""
    return _packed_text(packed(p, g))


def _opspec_lines(symbolic=False):
    """The lines of the genus-2 operator file at a = 5, or in Q(a)."""
    return opspec_to_text(build_Q(2, symbolic_weight() if symbolic else Fraction(5))).splitlines()


def _rejected(lines, idx, found=None):
    """The file of lines (each ended by a newline) is rejected at line
    idx + 1: the error names the writer's line there and what was found
    (lines[idx] when not given)."""
    want = _opspec_lines(lines[2] == "mode symbolic")[idx]
    found = repr(lines[idx]) if found is None else found
    text = "".join(ln + "\n" for ln in lines)
    with pytest.raises(ValueError) as err:
        opspec_from_text(text)
    assert str(err.value) == f"OPSPEC1 line {idx + 1}: expected {want!r}, found {found}"


def _edited(idx, line, symbolic=False):
    """The operator file's lines with line idx replaced by line."""
    lines = _opspec_lines(symbolic)
    return lines[:idx] + [line] + lines[idx + 1:]


def test_poly1_rejects_truncated_block():
    lines = _opspec_lines()
    assert lines[9] == "POLY1 field=Q terms=7" and len(lines) == 17
    _rejected(lines[:-1], 16, "end of file")


def test_poly1_rejects_duplicate_monomials():
    lines = _opspec_lines()
    _rejected(lines[:11] + lines[10:], 11)
    _rejected(_edited(9, "POLY1 field=Q terms=8")[:11] + lines[10:], 9)


def test_poly1_rejects_a_blank_line():
    """The writer writes no blank line, so the reader takes none, also at
    the end of the block."""
    lines = _opspec_lines()
    _rejected(lines[:12] + [""] + lines[12:], 12)
    for blank in ("", "  "):
        with pytest.raises(ValueError, match=re.escape(f"OPSPEC1 line 18: expected end of file, "
                                                       f"found {blank!r}")):
            opspec_from_text("".join(ln + "\n" for ln in lines + [blank]))


def test_poly1_rejects_the_swapped_spelling_of_an_r_variable():
    """The writer spells r_{h;ij} as r[h;i,j] with i <= j, and only so."""
    lines = _opspec_lines()
    assert lines[10] == "10/9 | r[1;1,2]^2"
    _rejected(_edited(10, "10/9 | r[1;2,1]^2"), 10)


def test_poly1_rejects_bad_header():
    for head in ("POLY1 field=Z terms=7", "POLY1 field=Q", "POLY2 field=Q terms=7",
                 "POLY1 field=Qa terms=7", "POLY1  field=Q terms=7"):
        _rejected(_edited(9, head), 9)


def test_poly1_rejects_malformed_term_lines():
    for term in ("10/9 r[1;1,2]^2", "10/9 | r[1;1,2]^x", "10/9 | q[1]^2", "10/0 | r[1;1,2]^2",
                 "10/9 | r[1;1,2]^2 ", "10/9 |r[1;1,2]^2", "10/9\t| r[1;1,2]^2"):
        _rejected(_edited(10, term), 10)


def test_poly1_rejects_non_positive_exponents():
    for term in ("10/9 | r[1;1,2]^0", "10/9 | r[1;1,2]^-2", "10/9 | r[1;1,2]^2 r[1;1,1]^0"):
        _rejected(_edited(10, term), 10)


def test_poly1_rejects_unsorted_variables():
    """The writer writes the variables of a monomial in the variable order,
    so the same monomial with its variables in another order is an error."""
    lines = _opspec_lines()
    assert lines[12] == "1 | r[1;2,2]^1 r[2;1,1]^1"
    _rejected(_edited(12, "1 | r[2;1,1]^1 r[1;2,2]^1"), 12)


def test_poly1_rejects_coefficients_of_the_other_field():
    """A numeric file takes only rational text and a symbolic one only
    'num;den' text, which is all the writer writes."""
    _rejected(_edited(12, "1*a^0;1*a^0 | r[1;2,2]^1 r[2;1,1]^1"), 12)
    _rejected(_edited(12, "1 | r[1;2,2]^1 r[2;1,1]^1", symbolic=True), 12)
    _rejected(_edited(9, "POLY1 field=Q terms=7", symbolic=True), 9)


# -- the per-key reference for the split ---------------------------------------


_MINORS = {g: [()] + [(k, l) for k in range(1, g + 1) for l in range(1, g + 1)]
           for g in range(1, 5)}


def _reference_leibniz(g, minor):
    """The pencil's determinant (minor == ()) or its (k, l) first minor, by
    a pass whose keys carry their t-units: each Leibniz term, the product of
    its entries t_h r_{h;i,sigma(i)}, is one packed key (t_h in nibble
    h - 1), counted per permutation parity, the odd counts negated.  Packed
    key -> int."""
    unit = _packing(g).unit
    rows, cols = _minor_rows(g, minor)
    counts = (Counter(), Counter())
    for sigma in itertools.permutations(cols):
        odd = sum(s > t for s, t in itertools.combinations(sigma, 2)) % 2
        for hs in itertools.product(range(1, g + 1), repeat=len(rows)):
            counts[odd][sum(unit[t_var(h)] + unit[r_var(h, r, c)]
                            for h, r, c in zip(hs, rows, sigma))] += 1
    total = dict(counts[0])
    total.update(zip(counts[1], map(operator.neg, counts[1].values())))
    return total


def _reference_split(g, minor):
    """{n: {r-part key: int}}: the reference pass split key by key, by
    masking the t-block off each key."""
    tmask = (1 << 4 * g) - 1
    split = {}
    for key, c in _reference_leibniz(g, minor).items():
        n = tuple(key >> 4 * i & 15 for i in range(g))
        split.setdefault(n, {})[key & ~tmask] = c
    return split


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_t_split_matches_the_per_key_reference(g):
    """The split by row assignment is the reference pass split key by key:
    the full pencil at g = 1..5, and every first minor at g <= 4."""
    for minor in _MINORS.get(g, [()]):
        assert _t_split(g, minor) == _reference_split(g, minor), minor


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_det_expands_decode_the_per_key_reference(g):
    """det_expand, made from the split with each bucket's t-units added
    back, is the reference pass, key for key and decoded; each first-minor
    coefficient is the reference pass's bucket of its t-units."""
    assert det_expand(g) == PackedPoly(g, 1, _reference_leibniz(g, ()))
    assert det_expand(g).decode() == PackedPoly(g, 1, _reference_leibniz(g, ())).decode()
    for k, l in _MINORS[g][1:]:
        reference = _reference_split(g, (k, l))
        for n in multi_indices(g, g - 1):
            assert minor_coeff_R(g, k, l, n) == PackedPoly(g, 1, reference.get(n, {}))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_leibniz_parities_share_no_key(g):
    """No packed key of a pencil's Leibniz terms, full or minor, comes from
    permutations of both parities, so the reference pass (and the split,
    which puts the even counts beside the negated odd ones) keeps every key,
    with the sign of its parity and no zero coefficient."""
    unit = _packing(g).unit
    for minor in _MINORS[g]:
        rows, cols = _minor_rows(g, minor)
        parities: dict = {}
        for sigma in itertools.permutations(range(len(cols))):
            sign = (-1) ** sum(s > t for s, t in itertools.combinations(sigma, 2))
            for hs in itertools.product(range(1, g + 1), repeat=len(rows)):
                key = sum(unit[t_var(h)] + unit[r_var(h, r, cols[s])]
                          for h, r, s in zip(hs, rows, sigma))
                parities.setdefault(key, set()).add(sign)
        assert all(len(signs) == 1 for signs in parities.values()), minor
        got = _reference_leibniz(g, minor)
        assert set(got) == set(parities)
        assert all(c * parities[key].pop() > 0 for key, c in got.items())


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_packed_split_decodes_to_the_t_coefficient_oracle(g):
    """Each packed B(n) and minor coefficient of the split, decoded, is the
    coefficient of t^n that MultiPoly.t_coefficient scans out of the decoded
    reference pass; the split keeps no t-variable in its keys."""
    tmask = (1 << 4 * g) - 1
    for minor in _MINORS[g]:
        full = PackedPoly(g, 1, _reference_leibniz(g, minor)).decode()
        split = _t_split(g, minor)
        ns = multi_indices(g, g - 1) if minor else index_set_N(g)
        assert set(split) <= set(ns)
        for n in ns:
            bucket = split.get(n, {})
            assert not any(key & tmask for key in bucket)
            assert PackedPoly(g, 1, bucket).decode() == full.t_coefficient(n), (minor, n)


def _random_keys(rng, g, count, first=0):
    """Packed genus-g keys with random variables from nibble first on (g:
    the r-variables) and exponents 1..14."""
    names = _packing(g).names
    keys = set()
    while len(keys) < count:
        picked = rng.sample(range(first, len(names)), rng.randint(0, 4))
        keys.add(sum(rng.randint(1, 14) << 4 * p for p in picked))
    return sorted(keys)


def _var_text(v) -> str:
    return f"t[{v[1]}]" if v[0] == "t" else f"r[{v[1]};{v[2]},{v[3]}]"


def poly_to_text(p, g) -> str:
    """An independent POLY1 writer on decoded monomials, each rendered on its
    own with its variables in the variable order (t_h by h, then r_{h;ij} by
    (h, i, j)); the terms sorted by their packed genus-g keys."""
    field = "Qa" if any(isinstance(c, RatFunc) for c in p.terms.values()) else "Q"
    lines = [f"POLY1 field={field} terms={len(p.terms)}"]
    for m in sorted(p.terms, key=lambda m: encode(m, g)):
        body = " ".join(f"{_var_text(v)}^{e}" for v, e in m)
        lines.append(f"{scalar_to_text(p.terms[m])} | {body}")
    return "\n".join(lines) + "\n"


def _shared_half_keys(rng, g, count):
    """Packed genus-g keys made of few distinct low and high halves of the
    writer's layout, so that many keys share one half and differ in the
    other."""
    packing = _packing(g)
    lows = [key & packing.low for key in _random_keys(rng, g, count)]
    highs = [key >> packing.cut << packing.cut for key in _random_keys(rng, g, count)]
    return sorted({lo | hi for lo in lows for hi in highs})


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_packed_text_is_poly_to_text_of_the_decoded_form(g):
    """The packed POLY1 writer orders and renders keys byte for byte as the
    reference writer poly_to_text does the decoded polynomial, in both
    fields, on random keys with exponents up to 14, t-variables, keys that
    share one half of the layout and differ in the other, and the constant
    monomial."""
    rng = random.Random(g)
    keys = sorted(set(_random_keys(rng, g, 300) + _shared_half_keys(rng, g, 12) + [0]))
    nums = {key: rng.choice([-3, -1, 1, 2, 6]) for key in keys}
    polys = {key: (rng.randint(-4, 4), rng.choice([-1, 1])) for key in keys}
    for den, form in ((6, nums), ((-1, 0, 2), polys)):
        p = PackedPoly(g, den, form)
        assert _packed_text(p) == poly_to_text(p.decode(), g)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_packed_writer_writes_the_keys_in_increasing_order(g):
    """The term lines come in strictly increasing packed key, in both
    fields; the constant monomial, the least key, is the first line,
    written 'c | '.  Each line is read back here on its own, by name."""
    rng = random.Random(g)
    packing = _packing(g)
    names = {_var_text(v): v for v in packing.names}
    keys = set(_random_keys(rng, g, 300) + _shared_half_keys(rng, g, 8) + [0])
    for den, form in ((6, {key: rng.choice([-3, 1, 5]) for key in keys}),
                      ((1, 1), {key: (rng.choice([-2, 1]), 1) for key in keys})):
        lines = _packed_text(PackedPoly(g, den, form)).splitlines()[1:]
        coeff, _, rest = lines[0].partition(" | ")
        assert rest == "" and lines[0] == f"{coeff} | "
        read = [encode([(names[name], int(e)) for name, _, e in
                        (tok.rpartition("^") for tok in ln.split(" | ")[1].split())], g)
                for ln in lines]
        assert all(k1 < k2 for k1, k2 in zip(read, read[1:])) and set(read) == keys


def test_packed_reader_takes_only_increasing_keys():
    """The writer writes the keys in increasing order, so two swapped term
    lines, and a duplicate that is not next to its first copy, are errors
    at the first line that differs."""
    lines = _opspec_lines()
    _rejected(lines[:11] + [lines[12], lines[11]] + lines[13:], 11)
    _rejected(lines[:9] + ["POLY1 field=Q terms=8"] + lines[10:13] + [lines[10]] + lines[13:], 9)
    _rejected(lines[:13] + [lines[10]] + lines[13:], 13)


@pytest.mark.parametrize("field,line", [
    ("Q", "1.0 | r[1;2,2]^1"), ("Q", "2/2 | r[1;2,2]^1"), ("Q", " +1 | r[1;2,2]^1"),
    ("Q", "-0 | r[1;2,2]^1"), ("Q", "1 | r[1;2,2]^01"),
    ("Qa", "2*a^0;2*a^0 | r[1;2,2]^1"), ("Qa", "1*a^0+0*a^1;1*a^0 | r[1;2,2]^1"),
    ("Qa", "1/1*a^0;1*a^0 | r[1;2,2]^1")])
def test_poly1_reads_numbers_only_as_the_writer_spells_them(field, line):
    """A coefficient or exponent spelled otherwise than the writer spells
    its value is a line-numbered error, not a value written back another
    way; so is such a term count.  Line 13 of both files is the term
    1 r[1;2,2] r[2;1,1]."""
    symbolic = field == "Qa"
    lines = _opspec_lines(symbolic)
    one = "1*a^0;1*a^0" if symbolic else "1"
    assert lines[12] == f"{one} | r[1;2,2]^1 r[2;1,1]^1"
    _rejected(_edited(12, f"{line} r[2;1,1]^1", symbolic), 12)
    _rejected(_edited(9, f"POLY1 field={field} terms=07", symbolic), 9)


@pytest.mark.parametrize("den,nums", [
    (6, {0: 3, 1 << 20: -4, 1 << 24: 3, 3 << 28: 5}),
    ((1, 2), {0: (1,), 1 << 20: (0, 2), 1 << 24: (1,), 3 << 28: (-3, 0, 1)})],
    ids=["Q", "Qa"])
def test_packed_poly_views_share_their_coefficient_objects(den, nums):
    """Two views of one cleared form hold the same coefficient objects, one
    per distinct numerator, so their comparison takes the identity shortcut;
    numerators given as equal but distinct tuples give them too."""
    p, q = PackedPoly(2, den, nums).decode(), PackedPoly(2, den, dict(nums)).decode()
    assert p == q and all(p.terms[m] is q.terms[m] for m in p.terms)
    first, third = (p.terms[m] for m in _packing(2).decode([0, 1 << 24]))
    assert first is third and first == (Fraction(1, 2) if den == 6 else RatFunc(1, (1, 2)))
    copy = {key: num if isinstance(num, int) else tuple(list(num)) for key, num in nums.items()}
    r = PackedPoly(2, den, copy).decode()
    assert all(r.terms[m] is p.terms[m] for m in p.terms)


def test_a_packed_poly_is_a_plain_canonical_form():
    """A PackedPoly is no tuple: +, * and iteration are refused, not tuple
    operations, and it is unhashable.  Its terms are the packed keys of its
    decode, with no decode; the canonical forms of one polynomial compare
    equal, so the cleared form of a build or of a decode is the form
    itself, and zero is (g, 1, {})."""
    b = coeff_R(2, (2, 0))
    for op in (lambda: b + b, lambda: b * 2, lambda: iter(b), lambda: hash(b)):
        with pytest.raises(TypeError):
            op()
    assert b.terms == {encode(m, 2): c for m, c in b.decode().terms.items()}
    assert packed(b.decode(), 2) == b and b != coeff_R(2, (0, 2)) and b != b.decode()
    half = packed(b.decode().scale(Fraction(3, 2)), 2)
    assert half.den == 2 and set(half.nums.values()) == {3, -3}
    zero = packed(MultiPoly.zero(), 2)
    assert zero == PackedPoly(2, 1, {}) and zero.is_zero() and not b.is_zero()
    for spec in (build_Q(3, symbolic_weight()), build_Q(3, Fraction(7, 3))):
        assert packed(spec.Q.decode(), 3) == spec.Q


def test_importing_the_package_leaves_every_cache_cold(tmp_path):
    """Each CLI call starts with cold caches, and so does each benchmark pass,
    which refuses to start when an lru_cache of poly or theta holds an entry
    (the cleared-form coefficient memo of poly is one of them)."""
    code = ("import json, siegelops\n"
            "from siegelops import poly, theta\n"
            "caches = {f'{m.__name__}.{n}': f.cache_info().currsize for m in (poly, theta)\n"
            "          for n, f in vars(m).items() if hasattr(f, 'cache_info')}\n"
            "print(json.dumps([sorted(caches), sorted(n for n, s in caches.items() if s)]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    names, warm = json.loads(done.stdout)
    assert "siegelops.poly._coefficient" in names and "siegelops.poly.det_expand" in names
    assert warm == []


@pytest.mark.parametrize("g", [2, 3])
def test_packed_reader_round_trips_the_writer(g):
    """Reading an operator file gives the cleared packed form that build_Q
    made, in both fields, and the writer writes the file back byte for
    byte."""
    for a in (Fraction(g, 2), Fraction(7, 3), symbolic_weight()):
        spec = build_Q(g, a)
        text = opspec_to_text(spec)
        back = opspec_from_text(text)
        assert (back.g, back.a, back.Q.den, back.Q.nums) == (g, a, spec.Q.den, spec.Q.nums)
        assert opspec_to_text(back) == text


@pytest.mark.parametrize("term", [
    "r[1;1,1]^1 r[1;2,2]^1 r[1;1,1]^2",
    " ".join(["r[2;2,2]^1"] * 14),
])
def test_packed_reader_rejects_a_repeated_variable(term):
    """The writer writes each variable of a monomial once, so a variable
    written twice (r^1 r^2 for r^3), also in more tokens than the layout
    has variables, is a line-numbered error."""
    _rejected(_edited(11, f"-10/9 | {term}"), 11)


@pytest.mark.parametrize("term,what", [
    ("r[1;1,1]^15", "exponent of r[1;1,1] is 15, above 14"),
    ("r[1;2,2]^1 r[2;2,2]^99", "exponent of r[2;2,2] is 99, above 14"),
    ("r[1;1,1]^7 r[1;1,1]^8", "exponents of r[1;1,1] add up to 15, above 14"),
    ("r[2;2,2]^8 r[2;2,2]^8", "exponents of r[2;2,2] add up to 16, above 14"),
    ("r[1;1,2]^2 " + " ".join(["r[1;1,2]^1"] * 13), "exponents of r[1;1,2] add up to 15"),
])
def test_packed_reader_rejects_nibble_overflow(term, what):
    """A term whose packed key would overflow a nibble (what) is an error at
    its line: its text is compared, never packed."""
    _rejected(_edited(11, f"-10/9 | {term}"), 11)


@pytest.mark.parametrize("var", ["t[1]", "x[1,1]", "r[3;1,1]", "r[1;1,3]"])
def test_packed_reader_takes_only_the_r_variables_of_its_genus(var):
    _rejected(_edited(11, f"-10/9 | {var}^1 r[1;2,2]^1"), 11)


def test_packed_reader_rejects_two_orderings_of_one_monomial():
    lines = _opspec_lines()
    assert lines[11] == "-10/9 | r[1;1,1]^1 r[1;2,2]^1"
    _rejected(lines[:12] + ["-10/9 | r[1;2,2]^1 r[1;1,1]^1"] + lines[12:], 12)


@pytest.mark.parametrize("coeff", ["0", "0*a^0;1*a^0"])
def test_poly1_rejects_a_zero_coefficient(coeff):
    symbolic = ";" in coeff
    _rejected(_edited(11, f"{coeff} | r[1;1,1]^1 r[1;2,2]^1", symbolic), 11)


@pytest.mark.parametrize("call, message", [
    (lambda: minor_coeff_R(2, 3, 1, (1, 0)), r"^minor indices \(3,1\) out of range for g=2$"),
    (lambda: det_expand(0), "^genus must be >= 1$"),
    (lambda: minor_coeff_R(2, 1, 1, (1, 1)),
     r"^multi-index \(1, 1\) is not a composition of 1 into 2 parts$"),
], ids=["minor-indices", "det-expand-0", "minor-multi-index"])
def test_poly_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda g: det_expand(g),
    lambda g: coeff_R(g, (1,) * g),
    lambda g: minor_coeff_R(g, 1, 1, (1,) * (g - 1) + (0,)),
], ids=["det_expand", "coeff_R", "minor_coeff_R"])
def test_every_leibniz_entry_refuses_a_genus_outside_1_to_5(call):
    """det_expand, coeff_R and minor_coeff_R share one genus check, made
    before any work: g = 0 (where coeff_R(0, ()) passes the index check) and
    g = 6, whose pass of 13.8M terms build_Q refuses too."""
    with pytest.raises(ValueError, match="^genus must be >= 1$"):
        call(0)
    with pytest.raises(ValueError, match="^genus must be <= 5, found 6$"):
        call(6)
    assert call(1).g == 1
