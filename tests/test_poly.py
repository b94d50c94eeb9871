"""Tests for the sparse polynomial ring and the determinant-pencil expansion."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelops.jets import JetPoly
from siegelops.poly import (MultiPoly, FieldMismatch, coeff_R, det_expand,
                            index_set_N, index_set_Nprime, minor_coeff_R,
                            minor_det_expand, poly_from_text, poly_to_text, r_var,
                            t_var, x_var)


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
    assert det_expand(1) == V(t_var(1)) * V(r_var(1, 1, 1))


def test_det_expand_genus2_by_hand():
    # 2x2 determinant of the pencil, expanded by hand
    d = det_expand(2)
    detR1 = V(r_var(1, 1, 1)) * V(r_var(1, 2, 2)) - V(r_var(1, 1, 2)) ** 2
    detR2 = V(r_var(2, 1, 1)) * V(r_var(2, 2, 2)) - V(r_var(2, 1, 2)) ** 2
    mixed = (V(r_var(1, 1, 1)) * V(r_var(2, 2, 2))
             + V(r_var(2, 1, 1)) * V(r_var(1, 2, 2))
             - V(r_var(1, 1, 2)) * V(r_var(2, 1, 2)).scale(Fraction(2)))
    expect = (V(t_var(1)) ** 2 * detR1 + V(t_var(1)) * V(t_var(2)) * mixed
              + V(t_var(2)) ** 2 * detR2)
    assert d == expect


def test_genus3_t1_cube_coefficient_is_det_R1():
    got = coeff_R(3, (3, 0, 0))
    entries = [[V(r_var(1, i, j)) for j in range(1, 4)] for i in range(1, 4)]
    assert got == leibniz_det(entries)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_det_expand_at_t_equal_one(g):
    """Specializing every t to 1 matches an independent Leibniz determinant."""
    subs = {t_var(h): MultiPoly.const(1) for h in range(1, g + 1)}
    lhs = det_expand(g).substitute(subs)
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
    collapsed = det_expand(g).substitute(subs)
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
        b = coeff_R(g, n)
        assert b.substitute(subs) == b.scale(Fraction(det_a ** 2))


def test_coeff_R_examples():
    detR1 = V(r_var(1, 1, 1)) * V(r_var(1, 2, 2)) - V(r_var(1, 1, 2)) ** 2
    assert coeff_R(2, (2, 0)) == detR1
    mixed = (V(r_var(1, 1, 1)) * V(r_var(2, 2, 2))
             + V(r_var(2, 1, 1)) * V(r_var(1, 2, 2))
             - V(r_var(1, 1, 2)) * V(r_var(2, 1, 2)).scale(Fraction(2)))
    assert coeff_R(2, (1, 1)) == mixed


def test_index_sets():
    assert len(index_set_N(3)) == 10
    assert all(sum(n) == 3 for n in index_set_N(3))
    assert len(index_set_Nprime(3)) == 6
    with pytest.raises(ValueError):
        coeff_R(2, (2, 1))


def test_minor_coefficients():
    assert minor_coeff_R(2, 1, 1, (0, 1)) == V(r_var(2, 2, 2))
    assert minor_coeff_R(2, 1, 1, (1, 0)) == V(r_var(1, 2, 2))
    # deleting row 1, column 2 leaves the (2,1) entry of the pencil
    assert minor_coeff_R(2, 1, 2, (1, 0)) == V(r_var(1, 1, 2))


def test_sym_diff():
    p = V(r_var(1, 1, 1)) ** 2
    assert p.diff_sym(1, 1, 1) == V(r_var(1, 1, 1)).scale(Fraction(2))
    q = V(r_var(1, 1, 2)) ** 2
    assert q.diff_sym(1, 1, 2) == V(r_var(1, 1, 2))
    assert V(r_var(2, 1, 2)).diff_sym(1, 1, 2).is_zero()


def test_field_mismatch_raises():
    p = V(r_var(1, 1, 1))
    q = p.promote()
    with pytest.raises(FieldMismatch):
        _ = p + q
    jet = JetPoly.symbol("F")
    with pytest.raises(FieldMismatch):
        _ = jet * jet.promote()


def test_qa_constant_has_a_ratfunc_coefficient():
    from siegelops.scalars import RatFunc
    p = MultiPoly.const(1, "Qa") + MultiPoly.var(r_var(1, 1, 1), "Qa")
    assert all(isinstance(c, RatFunc) for c in p.terms.values())
    assert all(isinstance(c, RatFunc) for c in (JetPoly.const(3, "Qa").terms.values()))
    assert poly_to_text(p).splitlines()[1:] == ["1*a^0;1*a^0 | ",
                                                "1*a^0;1*a^0 | r[1;1,1]^1"]
    assert poly_from_text(poly_to_text(p)) == p


def test_poly1_round_trip():
    p = (V(r_var(1, 1, 2)) * V(t_var(2)).scale(Fraction(-3, 7))
         + V(x_var(1, 4)) ** 3 + MultiPoly.const(Fraction(5, 2)))
    assert poly_from_text(poly_to_text(p)) == p
    q = p.promote()
    assert poly_from_text(poly_to_text(q)) == q


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
    parts = [coeff_R(2, n) for n in index_set_N(2)]
    ordered = parts[0] * parts[1] * parts[2]
    shuffled = parts[:]
    rng.shuffle(shuffled)
    other = shuffled[0] * (shuffled[1] * shuffled[2])
    assert ordered == other


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_t_split_matches_t_coefficient(g):
    """The cached split by t-exponent agrees with a scan for each n."""
    full = det_expand(g)
    for n in index_set_N(g):
        assert coeff_R(g, n) == full.t_coefficient(n)
    for k in range(1, g + 1):
        for l in range(1, g + 1):
            minor = minor_det_expand(g, k, l)
            for n in index_set_Nprime(g):
                assert minor_coeff_R(g, k, l, n) == minor.t_coefficient(n), (k, l, n)


def _poly1_lines():
    p = (V(r_var(1, 1, 2)) * V(t_var(2)).scale(Fraction(-3, 7))
         + V(x_var(1, 4)) ** 3 + MultiPoly.const(Fraction(5, 2)))
    return poly_to_text(p).splitlines()


def test_poly1_rejects_truncated_block():
    lines = _poly1_lines()
    assert lines[0] == "POLY1 field=Q terms=3"
    with pytest.raises(ValueError, match="POLY1 line 1: declares 3 terms, found 2"):
        poly_from_text("\n".join(lines[:-1]))


def test_poly1_rejects_duplicate_monomials():
    lines = ["POLY1 field=Q terms=2", "1 | r[1;2,1]^1", "2 | r[1;1,2]^1"]
    with pytest.raises(ValueError, match="POLY1 line 3: duplicate monomial"):
        poly_from_text("\n".join(lines))


def test_poly1_rejects_bad_header():
    lines = _poly1_lines()
    for head in ("POLY1 field=Z terms=3", "POLY1 field=Q", "POLY2 field=Q terms=3"):
        with pytest.raises(ValueError, match="POLY1 line 1: "):
            poly_from_text("\n".join([head] + lines[1:]))


def test_poly1_rejects_malformed_term_lines():
    head = "POLY1 field=Q terms=1"
    for term in ("1 r[1;1,1]^1", "1 | r[1;1,1]^x", "1 | q[1]^1", "1/0 | t[1]^1"):
        with pytest.raises(ValueError, match="POLY1 line 2: "):
            poly_from_text(f"{head}\n{term}\n")


def test_poly1_rejects_non_positive_exponents():
    with pytest.raises(ValueError, match="POLY1 line 2: .*not positive"):
        poly_from_text("POLY1 field=Q terms=1\n1 | t[1]^0\n")


def test_poly1_reads_unsorted_variables_canonically():
    p = poly_from_text("POLY1 field=Q terms=1\n3 | r[1;2,2]^1 t[1]^2\n")
    assert p == (V(t_var(1)) ** 2 * V(r_var(1, 2, 2))).scale(Fraction(3))
