"""Tests for operator construction and the three pluriharmonicity verifiers."""

import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import re

import pytest

from siegelops.opgen import (_IntegerForm, apply_D11, build_Q, coeff_c, constant_C,
                             opspec_from_text, opspec_to_text, symbolic_weight,
                             verify_deriv_lemma, verify_harmonic_condition,
                             verify_pluriharmonic, xspace_oracle)
from siegelops.poly import (MultiPoly, _cleared, _mono_lower, _mono_times, _packing,
                            coeff_R, index_set_N, r_var, t_var, x_var)
from siegelops.scalars import RatFunc, _accumulate

A = symbolic_weight()
K = 2 * A


def _reference_d11(g, h, p, k, second_order_factor=2):
    """D_{h;11} p by per-term field arithmetic: the reference for the kernel.

    D_{h;11} P = k d_{h;11} P + factor * sum_{u,w} r_{h;uw} d_{h;1u} d_{h;1w} P
    with symmetrized d; each monomial yields its first-order term and one
    second-order term per pair of its factors r_{h;1u}.
    """
    if isinstance(k, RatFunc) and p.field != "Qa":
        p = p.promote()
    f = second_order_factor
    row = {r_var(h, 1, u): u for u in range(1, g + 1)}
    # d_{h;1u} carries the symmetrization factor 1/2 for u != 1
    den = {u: 1 if u == 1 else 2 for u in range(1, g + 1)}
    out: dict = {}
    for m, c in p.terms.items():
        hits = [(idx, row[v], e) for idx, (v, e) in enumerate(m) if v in row]
        for i, (iu, u, eu) in enumerate(hits):
            if u == 1:  # k d_{h;11}
                _accumulate(out, _mono_lower(m, iu), c * (k * eu))
            if eu > 1:  # f r_{h;uu} d_{h;1u}^2
                q = Fraction(f * eu * (eu - 1), den[u] ** 2)
                _accumulate(out, _mono_times(_mono_lower(m, iu, 2), r_var(h, u, u)), c * q)
            for iw, w, ew in hits[i + 1:]:  # 2 f r_{h;uw} d_{h;1u} d_{h;1w}, u < w
                q = Fraction(2 * f * eu * ew, den[u] * den[w])
                rest = _mono_lower(_mono_lower(m, iw), iu)
                _accumulate(out, _mono_times(rest, r_var(h, u, w)), c * q)
    return MultiPoly(out, p.field)


def test_constants_genus2():
    assert constant_C(2, A, 1) == K - 1
    assert constant_C(2, A, 2) == -K


def test_constants_genus3():
    assert constant_C(3, A, 1) == 2 * (K - 1) * (K - 2)
    assert constant_C(3, A, 2) == -K * (K - 2)
    assert constant_C(3, A, 3) == 2 * K ** 2


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_top_constant_closed_form(g):
    """C(g) = (-1)^(g-1) (g-1)! (2a)^(g-1)."""
    import math
    expect = RatFunc((-1) ** (g - 1) * math.factorial(g - 1)) * K ** (g - 1)
    assert constant_C(g, A, g) == expect


def test_constant_numeric_evaluation():
    assert constant_C(2, Fraction(5), 2) == -10


def test_coefficient_classification():
    assert coeff_c(4, A, (2, 2, 0, 0)) == RatFunc(0)
    assert coeff_c(4, A, (1, 1, 1, 1)) == constant_C(4, A, 1)
    assert coeff_c(4, A, (1, 3, 0, 0)) == constant_C(4, A, 3)


def test_build_Q_genus2_printed_coefficients(spec2_symbolic):
    ratio = -(2 * A) / (2 * A - 1)
    assert spec2_symbolic.coeffs == {(1, 1): RatFunc(1), (2, 0): ratio, (0, 2): ratio}
    assert spec2_symbolic.Q == (
        coeff_R(2, (1, 1)).promote()
        + (coeff_R(2, (2, 0)) + coeff_R(2, (0, 2))).promote().scale(ratio))


def test_build_Q_genus3_coefficient_orbits(spec3_symbolic):
    c21 = constant_C(3, A, 2) / constant_C(3, A, 1)
    c30 = constant_C(3, A, 3) / constant_C(3, A, 1)
    for n, c in spec3_symbolic.coeffs.items():
        if n == (1, 1, 1):
            assert c == RatFunc(1)
        elif sorted(n, reverse=True) == [2, 1, 0]:
            assert c == c21
        else:
            assert sorted(n, reverse=True) == [3, 0, 0] and c == c30
    assert len(spec3_symbolic.coeffs) == 1 + 6 + 3


def test_build_Q_numeric_schottky_weight():
    spec = build_Q(4, Fraction(8))
    assert spec.coeffs[(1, 1, 1, 1)] == 1
    assert not spec.symbolic


def test_build_Q_rejects_bad_input():
    with pytest.raises(ValueError):
        build_Q(1, A)
    with pytest.raises(ValueError):
        build_Q(4, Fraction(1))  # a < g/2


def test_apply_D11_hand_values():
    detR1 = coeff_R(2, (2, 0))
    assert apply_D11(2, 1, detR1, K) == \
        MultiPoly.var(r_var(1, 2, 2)).promote().scale(K - 1)
    assert apply_D11(2, 1, coeff_R(2, (1, 1)), K) == \
        MultiPoly.var(r_var(2, 2, 2)).promote().scale(K)
    assert apply_D11(2, 2, detR1, K).is_zero()


def test_pluriharmonic_genus2_symbolic(spec2_symbolic):
    assert verify_pluriharmonic(spec2_symbolic)


def test_misnormalized_operator_fails_with_known_residual(spec2_symbolic):
    assert not verify_pluriharmonic(spec2_symbolic, second_order_factor=1)
    total = MultiPoly.zero("Qa")
    for h in (1, 2):
        total = total + apply_D11(2, h, spec2_symbolic.Q, K, second_order_factor=1)
    residual = ((MultiPoly.var(r_var(1, 2, 2)) + MultiPoly.var(r_var(2, 2, 2)))
                .promote().scale(2 * A * Fraction(-1, 2) / (2 * A - 1)))
    assert total == residual


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("g,a", [(2, A), (3, A), (4, A), (4, Fraction(5, 2)),
                                 (4, Fraction(3)), (4, Fraction(108))])
def test_kernel_residual_matches_reference(g, a, factor):
    """The integer kernel's full residual, unpacked into the field, is the
    per-term reference residual; at factor 1 it is nonzero, so in Q(a) a
    packing base 2^S too small to hold its coefficients would show here."""
    spec = build_Q(g, a)
    form = _IntegerForm(g, spec.den, spec.nums, spec.k, factor)
    residual = form.to_poly(form.d11(range(1, g + 1)))
    reference = MultiPoly.zero(spec.Q.field)
    for h in range(1, g + 1):
        reference = reference + _reference_d11(g, h, spec.Q, spec.k, factor)
    assert residual.field == reference.field == spec.Q.field
    assert residual == reference
    assert residual.is_zero() == (factor == 2)
    assert verify_pluriharmonic(spec, factor) == (factor == 2)


@pytest.mark.parametrize("g,h,p,k", [
    (3, 1, coeff_R(3, (2, 1, 0)), K),
    (3, 2, coeff_R(3, (1, 1, 1)).promote(), Fraction(7, 3)),
    (2, 1, coeff_R(2, (2, 0)) * MultiPoly.var(t_var(2)) ** 3, Fraction(5)),
    (2, 2, MultiPoly.var(r_var(2, 1, 1)) ** 4 * MultiPoly.var(r_var(2, 1, 2)) ** 3,
     1 / (A + 3)),
])
def test_apply_D11_matches_reference(g, h, p, k):
    """apply_D11 runs the kernel for one h: the reference's exact output,
    for either field of p and k, high exponents and t-variables."""
    for factor in (1, 2):
        assert apply_D11(g, h, p, k, factor) == _reference_d11(g, h, p, k, factor)


def test_apply_D11_rejects_what_the_packing_cannot_hold():
    for p in (MultiPoly.var(x_var(1, 1)), MultiPoly.var(r_var(3, 1, 1)),
              MultiPoly.var(r_var(1, 1, 2)) ** 15):
        with pytest.raises(ValueError, match="is not a genus-2 variable to a power up to 14"):
            apply_D11(2, 1, p, K)


@pytest.mark.parametrize("a", [A, Fraction(3)])
def test_perturbed_operator_fails(a):
    """One coefficient of Q changed, by a term with a fresh denominator, and
    the verifier rejects the result."""
    spec = build_Q(3, a)
    m = next(m for m in sorted(spec.Q.terms) if m[0] == (r_var(1, 1, 1), 1))
    bump = 1 / (A ** 3 + 7) if spec.symbolic else Fraction(1, 10 ** 30)
    terms = dict(spec.Q.terms)
    terms[m] = terms[m] + bump
    encode = _packing(3).encode
    den, nums = _cleared(spec.Q.field, {encode(m): c for m, c in terms.items()})
    bad = dataclasses.replace(spec, den=den, nums=nums)
    assert bad.Q == MultiPoly(terms, spec.Q.field)
    assert verify_pluriharmonic(spec)
    assert not verify_pluriharmonic(bad)


@pytest.mark.parametrize("g,a", [(2, A), (3, A), (4, A), (3, Fraction(7, 3)),
                                 (4, Fraction(5, 2)), (4, Fraction(108))])
def test_packed_build_matches_the_basis_sum(g, a):
    """The packed build is sum_n c(n)/C(1) B(n) summed in MultiPoly
    arithmetic, over canonical cleared integers."""
    spec = build_Q(g, a)
    expect = MultiPoly.zero(spec.Q.field)
    for n in index_set_N(g):
        c = coeff_c(g, a, n) / constant_C(g, a, 1)
        if c:
            b = coeff_R(g, n).promote() if spec.symbolic else coeff_R(g, n)
            expect = expect + b.scale(c)
            assert spec.coeffs[n] == c
    assert spec.Q == expect and set(spec.coeffs) == {n for n in index_set_N(g)
                                                     if coeff_c(g, a, n)}
    if spec.symbolic:
        assert spec.den[-1] > 0
        assert math.gcd(*spec.den, *(c for P in spec.nums.values() for c in P)) == 1
    else:
        assert spec.den > 0 and math.gcd(spec.den, *spec.nums.values()) == 1


def test_operator_view_is_read_only_and_built_once(spec2_symbolic):
    assert spec2_symbolic.Q is spec2_symbolic.Q
    with pytest.raises(AttributeError):
        spec2_symbolic.Q = MultiPoly.zero("Qa")


@pytest.mark.parametrize("pick,delta", [(0, (1,)), (100, (0, 0, 0, 0, -1)), (-1, (0, 3))])
def test_perturbed_packed_numerator_fails(spec4_symbolic, pick, delta):
    """One numerator of the packed genus-4 Q(a) changed, by a constant or a
    power of a, and the verifier rejects the result.  The changed monomial
    holds r_{1;11}, so D_{1;11} does not annihilate it (a monomial with one
    row-1 factor r_{h;1u}, u != 1, per block is annihilated by every
    D_{h;11}, and changing its coefficient keeps Q pluriharmonic)."""
    spec = spec4_symbolic
    r111 = 15 * _packing(4).unit[r_var(1, 1, 1)]
    key = [key for key in spec.nums if key & r111][pick]
    num = spec.nums[key]
    bumped = tuple(x + y for x, y in itertools.zip_longest(num, delta, fillvalue=0))
    bad = dataclasses.replace(spec, nums={**spec.nums, key: bumped})
    assert verify_pluriharmonic(spec)
    assert not verify_pluriharmonic(bad)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_harmonic_condition_symbolic(g):
    assert verify_harmonic_condition(g, A)


@pytest.mark.parametrize("m,g", [(m, g) for g in (2, 3, 4, 5, 6)
                                 for m in range(2, g)])
def test_stratum_identity(m, g):
    """(k - m) C(m+1) + k m C(m) = 0, the cancellation behind the condition
    on the strata with one entry m >= 2 (which have m zero entries)."""
    lhs = (K - m) * constant_C(g, A, m + 1) + K * m * constant_C(g, A, m)
    assert lhs == RatFunc(0)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_all_ones_stratum_identity(g):
    """k C(1) + (k-1)(g-1) C(2) = 0: the all-ones minor stratum, where the
    g-1 positions holding a 1 each contribute a C(2) bump."""
    lhs = K * constant_C(g, A, 1) + (K - 1) * (g - 1) * constant_C(g, A, 2)
    assert lhs == RatFunc(0)


@pytest.mark.parametrize("g", [2, 3])
def test_deriv_lemma_all_indices(g):
    for n in index_set_N(g):
        for h in range(1, g + 1):
            assert verify_deriv_lemma(g, n, h), (n, h)


def test_deriv_lemma_hand_instances():
    # n = (1,1), h = 1: derivative k r[2;2,2] = (k - 1 + 1) * minor(0,1)
    assert verify_deriv_lemma(2, (1, 1), 1)
    # n = (2,0), h = 1: (k-1) r[1;2,2] both sides
    assert verify_deriv_lemma(2, (2, 0), 1)
    # vacuous branch
    assert verify_deriv_lemma(2, (2, 0), 2)


def test_xspace_single_entry_laplacian():
    for k in (2, 4):
        out = xspace_oracle(2, k, MultiPoly.var(r_var(1, 1, 1)))
        assert out == MultiPoly.const(Fraction(2 * k))


@pytest.mark.parametrize("a", [1, 2])
def test_xspace_oracle_annihilates_operator(a):
    spec = build_Q(2, Fraction(a))
    assert xspace_oracle(2, 2 * a, spec.Q).is_zero()


def test_oracle_agrees_with_symbolic_verifier():
    """The substitution oracle and the r-space verifier give the same verdict."""
    for a in (1, 2):
        spec = build_Q(2, Fraction(a))
        assert xspace_oracle(2, 2 * a, spec.Q).is_zero() == verify_pluriharmonic(spec)
    # a non-pluriharmonic polynomial trips both
    bad = coeff_R(2, (2, 0)) + coeff_R(2, (0, 2))
    assert not xspace_oracle(2, 2, bad).is_zero()
    total = MultiPoly.zero("Q")
    for h in (1, 2):
        total = total + apply_D11(2, h, bad, Fraction(2))
    assert not total.is_zero()


def test_xspace_guard():
    with pytest.raises(ValueError):
        xspace_oracle(4, 10, MultiPoly.var(r_var(1, 1, 1)))
    with pytest.raises(ValueError):
        xspace_oracle(2, 3, MultiPoly.var(r_var(1, 1, 1)))


def test_opspec_round_trip(spec2_symbolic):
    text = opspec_to_text(spec2_symbolic)
    back = opspec_from_text(text)
    assert back.g == 2 and back.symbolic
    assert back.coeffs == spec2_symbolic.coeffs
    assert back.Q == spec2_symbolic.Q
    spec = build_Q(2, Fraction(5))
    back = opspec_from_text(opspec_to_text(spec))
    assert back.Q == spec.Q and back.a == Fraction(5)


@pytest.mark.parametrize("g,a,size,digest", [
    (4, A, 195364, "2de44e0203d0560ec86cbd6ceb6959c6593e6353450a36c606f230962f5c3dd3"),
    (5, Fraction(3), 6703524,
     "0a35dbb2d6fb9f9b0ebd3975a13c843880f9cc78579afbb1e7499f7c735759b1"),
])
def test_opspec_bytes_are_pinned(g, a, size, digest):
    """The operator files of build_Q(4, a) and build_Q(5, 3), byte for byte."""
    data = opspec_to_text(build_Q(g, a)).encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.slow
def test_pluriharmonic_genus5_for_every_weight():
    """Genus-5 pluriharmonicity for every weight a, from six exact checks.

    C(1) Q = sum_n c(n) B(n), and every c(n) is zero or some C(m), a
    polynomial in a of degree g - 1 = 4.  D_{h;11} = k d_{h;11} + 2 sum
    r d d with k = 2a adds at most one degree.  So each coefficient of
    sum_h D_{h;11}(C(1) Q) is a polynomial in a of degree <= g = 5, and six
    zeros at distinct weights make it vanish identically.  D is linear, and
    C(1) has no root a >= 5/2, so at each weight below the check on Q is
    the check on C(1) Q; hence sum_h D_{h;11} Q = 0 wherever C(1) != 0.
    """
    weights = (Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(4), Fraction(9, 2),
               Fraction(108))
    for a in weights:
        spec = build_Q(5, a)
        assert constant_C(5, a, 1) != 0
        assert len(spec.Q.terms) == 111275
        assert verify_pluriharmonic(spec), f"genus 5, a={a}"


@pytest.mark.slow
def test_pluriharmonic_genus5_in_Qa():
    """Genus-5 pluriharmonicity proved in Q(a) directly, for every weight at
    once: the kernel evaluates each coefficient polynomial at a = 2^S with
    S above its stated bound.  The factor-1 control fails there too."""
    spec = build_Q(5, A)
    assert len(spec.Q.terms) == 111275
    assert verify_pluriharmonic(spec)
    assert not verify_pluriharmonic(spec, second_order_factor=1)


def _opspec_lines():
    return opspec_to_text(build_Q(2, Fraction(5))).splitlines()


def test_opspec_rejects_wrong_coefficient_count():
    lines = _opspec_lines()
    assert lines[5] == "coeffs 3"
    with pytest.raises(ValueError, match="OPSPEC1 line 6: declares 3 coefficients, found 2"):
        opspec_from_text("\n".join(lines[:6] + lines[7:]))
    with pytest.raises(ValueError, match="OPSPEC1 line 6: declares 4 coefficients, found 3"):
        opspec_from_text("\n".join(lines[:5] + ["coeffs 4"] + lines[6:]))


def test_opspec_rejects_a_zero_in_the_coefficient_table():
    lines = _opspec_lines()
    assert lines[6] == "n=0,2 | -10/9"
    with pytest.raises(ValueError, match=r"OPSPEC1 line 7: n=0,2 has c\(n\)/C\(1\) = -10/9, "
                                         "found 0"):
        opspec_from_text("\n".join(lines[:6] + ["n=0,2 | 0"] + lines[7:]))
    # a multi-index with c(n) = 0 has no line at all
    with pytest.raises(ValueError, match=r"OPSPEC1 line 7: n=0,0,2,2 has c\(n\)/C\(1\) = 0, "
                                         "which has no line, found 0"):
        opspec_from_text("\n".join(lines[:1] + ["genus 4"] + lines[2:6] + ["n=0,0,2,2 | 0"]
                                    + lines[6:]))


def test_opspec_rejects_a_wrong_value_in_the_coefficient_table():
    lines = _opspec_lines()
    with pytest.raises(ValueError, match=r"OPSPEC1 line 7: n=0,2 has c\(n\)/C\(1\) = -10/9, "
                                         "found 7"):
        opspec_from_text("\n".join(lines[:6] + ["n=0,2 | 7"] + lines[7:]))
    # the table of a = 5 under the header of a = 6
    with pytest.raises(ValueError, match="OPSPEC1 line 7: n=0,2 has c.* = -12/11, found -10/9"):
        opspec_from_text("\n".join(lines[:3] + ["a 6"] + lines[4:]))
    symbolic = opspec_to_text(build_Q(2, A)).splitlines()
    assert symbolic[8] == "n=2,0 | -1*a^1;-1/2*a^0+1*a^1"
    with pytest.raises(ValueError, match="OPSPEC1 line 9: n=2,0 has c.* = -1\\*a\\^1;.*, "
                                         "found 1\\*a\\^1;"):
        opspec_from_text("\n".join(symbolic[:8] + ["n=2,0 | 1*a^1;-1/2*a^0+1*a^1"]
                                    + symbolic[9:]))


def test_opspec_rejects_a_missing_row_of_the_coefficient_table():
    lines = _opspec_lines()
    assert lines[7] == "n=1,1 | 1"
    with pytest.raises(ValueError, match=r"OPSPEC1 line 8: missing the line n=1,1 \| 1$"):
        opspec_from_text("\n".join(lines[:5] + ["coeffs 2", lines[6]] + lines[8:]))
    with pytest.raises(ValueError, match=r"OPSPEC1 line 9: missing the line n=2,0 \| -10/9$"):
        opspec_from_text("\n".join(lines[:5] + ["coeffs 2"] + lines[6:8] + lines[9:]))


def test_opspec_rejects_rows_out_of_order():
    """The writer sorts the coefficient table by n; a row that breaks the
    order is an error at its line, even when every value is right."""
    lines = _opspec_lines()
    assert lines[6:9] == ["n=0,2 | -10/9", "n=1,1 | 1", "n=2,0 | -10/9"]
    with pytest.raises(ValueError, match="OPSPEC1 line 8: n=1,1 comes after n=2,0; "
                                         "the rows are sorted by n"):
        opspec_from_text("\n".join(lines[:6] + lines[6:9][::-1] + lines[9:]))
    with pytest.raises(ValueError, match="OPSPEC1 line 9: n=0,2 comes after n=2,0"):
        opspec_from_text("\n".join(lines[:6] + [lines[7], lines[8], lines[6]] + lines[9:]))


def test_opspec_rejects_other_normalization():
    lines = _opspec_lines()
    for norm in ("normalization second-order-factor=1 leading-coefficient=1", ""):
        with pytest.raises(ValueError, match="OPSPEC1 line 5: expected 'normalization"):
            opspec_from_text("\n".join(lines[:4] + [norm] + lines[5:]))


def test_opspec_rejects_missing_header_keys():
    lines = _opspec_lines()
    for idx, bad in ((1, "genius 2"), (2, "mode exact"), (3, "a five"), (5, "coeffs")):
        with pytest.raises(ValueError, match=f"OPSPEC1 line {idx + 1}: "):
            opspec_from_text("\n".join(lines[:idx] + [bad] + lines[idx + 1:]))


def test_opspec_rejects_truncated_polynomial():
    lines = _opspec_lines()
    assert lines[9] == "POLY1 field=Q terms=7"
    with pytest.raises(ValueError, match="OPSPEC1 line 10: declares 7 terms, found 6"):
        opspec_from_text("\n".join(lines[:-1]))
    with pytest.raises(ValueError, match="OPSPEC1 line 18: duplicate monomial"):
        opspec_from_text("\n".join(lines[:9] + [lines[9].replace("7", "8")]
                                   + lines[10:] + lines[-1:]))


def test_opspec_rejects_a_body_of_the_other_field():
    symbolic = opspec_to_text(build_Q(2, A)).splitlines()
    assert symbolic[9] == "POLY1 field=Qa terms=7"
    edited = symbolic[:9] + ["POLY1 field=Q terms=7"] + symbolic[10:]
    with pytest.raises(ValueError, match="OPSPEC1 line 11: .*not a coefficient of field Q"):
        opspec_from_text("\n".join(edited))
    # a symbolic header and coefficient table over a numeric body
    numeric = _opspec_lines()
    with pytest.raises(ValueError, match="OPSPEC1 line 10: mode symbolic needs POLY1 field=Qa"):
        opspec_from_text("\n".join(symbolic[:9] + numeric[9:]))
    with pytest.raises(ValueError, match="OPSPEC1 line 7: .*not a coefficient of field Qa"):
        opspec_from_text("\n".join(numeric[:2] + ["mode symbolic", "a a"] + numeric[4:]))


def test_opspec_rejects_a_weight_build_Q_refuses():
    lines = _opspec_lines()
    with pytest.raises(ValueError, match="OPSPEC1 line 4: weight a=1/4 violates a >= g/2 = 1"):
        opspec_from_text("\n".join(lines[:3] + ["a 1/4"] + lines[4:]))
    with pytest.raises(ValueError, match="OPSPEC1 line 2: genus must be >= 2"):
        opspec_from_text("\n".join(lines[:1] + ["genus 1"] + lines[2:]))


def test_opspec_rejects_a_body_of_another_genus():
    lines = _opspec_lines()
    g3 = opspec_to_text(build_Q(3, Fraction(5))).splitlines()
    with pytest.raises(ValueError, match="OPSPEC1 line 7: n=0,0,3 is not a multi-index of genus 2"):
        opspec_from_text("\n".join(lines[:1] + ["genus 2"] + g3[2:]))
    body = g3[g3.index("POLY1 field=Q terms=108"):]
    with pytest.raises(ValueError, match=r"OPSPEC1 line 11: .*variable r\[\d;\d,3\] is not allowed"):
        opspec_from_text("\n".join(lines[:9] + body))
    for var in ("r[3;1,1]", "t[1]", "x[1,1]"):
        with pytest.raises(ValueError, match=f"OPSPEC1 line 11: .*variable .* is not allowed"):
            opspec_from_text("\n".join(lines[:10] + [f"-10/9 | {var}^1 r[1;2,2]^1"]
                                        + lines[11:]))


def _opspec_with_term(term: str) -> str:
    """The genus-2, a = 5 operator file with its first term line replaced."""
    lines = _opspec_lines()
    return "\n".join(lines[:10] + [term] + lines[11:])


@pytest.mark.parametrize("vars_txt,what", [
    ("r[1;1,1]^15", "exponent of r[1;1,1] is 15, above 14"),
    ("r[1;1,1]^9 r[1;1,1]^6", "exponents of r[1;1,1] add up to 15, above 14"),
])
def test_opspec_rejects_nibble_overflow(vars_txt, what):
    """Exponents of one variable that add up past 14 are rejected as a
    variable written twice, before they could be added."""
    error = "variable r[1;1,1] is written twice" if what.startswith("exponents") else what
    with pytest.raises(ValueError, match=rf"OPSPEC1 line 11: .*\({re.escape(error)}\)"):
        opspec_from_text(_opspec_with_term(f"-10/9 | {vars_txt}"))


def test_opspec_rejects_a_repeated_variable_and_reordered_duplicates():
    """The writer writes each variable of a monomial once and each monomial
    once, so r^1 r^2 (for r^3) and a reordered repeat of a monomial are
    errors that name their line."""
    lines = _opspec_lines()
    assert lines[10] == "-10/9 | r[1;1,1]^1 r[1;2,2]^1"
    with pytest.raises(ValueError, match=r"OPSPEC1 line 11: .*\(variable r\[1;1,1\] "
                                         r"is written twice\)"):
        opspec_from_text(_opspec_with_term("-10/9 | r[1;1,1]^1 r[1;1,1]^2"))
    with pytest.raises(ValueError, match="OPSPEC1 line 12: duplicate monomial"):
        opspec_from_text("\n".join(lines[:9] + [lines[9].replace("7", "8")] + lines[10:11]
                                   + ["-10/9 | r[1;2,2]^1 r[1;1,1]^1"] + lines[11:]))
