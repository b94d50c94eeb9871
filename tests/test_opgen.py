"""Tests for operator construction and the three pluriharmonicity verifiers."""

import hashlib
import itertools
import math
import pathlib
from fractions import Fraction

import re

import pytest

from conftest import packed
from siegelops import opgen
from siegelops import poly
from siegelops.opgen import (OperatorSpec, _as_weight, _first_difference, _IntegerForm,
                             _opspec_chunks, _opspec_text, _stratum, apply_D11, build_Q, constant_C, opspec_from_text, opspec_to_text,
                             symbolic_weight, verify_deriv_lemma, verify_harmonic_condition,
                             verify_pluriharmonic, xspace_oracle)
from siegelops.poly import (MultiPoly, PackedPoly, _mono_lower, _mono_mul, _packing, coeff_R,
                            index_set_N, multi_indices, r_var, t_var)
from siegelops.scalars import RatFunc, _accumulate, _horner, _padd, _pmul

A = symbolic_weight()
K = 2 * A
R111 = packed(MultiPoly.var(r_var(1, 1, 1)), 2)


def coeff_c(g, a, n):
    """c(n): C(1) for all ones, C(m) on the admissible shapes, else 0."""
    m = _stratum(n)
    return constant_C(g, a, m) if m else _as_weight(a) * 0


def _reference_d11(g, h, p, k, second_order_factor=2):
    """D_{h;11} p by per-term field arithmetic: the reference for the kernel.

    D_{h;11} P = k d_{h;11} P + factor * sum_{u,w} r_{h;uw} d_{h;1u} d_{h;1w} P
    with symmetrized d; each monomial yields its first-order term and one
    second-order term per pair of its factors r_{h;1u}.
    """
    if isinstance(k, RatFunc):
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
                _accumulate(out, _mono_mul(_mono_lower(m, iu, 2), ((r_var(h, u, u), 1),)), c * q)
            for iw, w, ew in hits[i + 1:]:  # 2 f r_{h;uw} d_{h;1u} d_{h;1w}, u < w
                q = Fraction(2 * f * eu * ew, den[u] * den[w])
                rest = _mono_lower(_mono_lower(m, iw), iu)
                _accumulate(out, _mono_mul(rest, ((r_var(h, u, w), 1),)), c * q)
    return MultiPoly(out)


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
    assert spec2_symbolic.Q.decode() == (
        coeff_R(2, (1, 1)).decode().promote()
        + (coeff_R(2, (2, 0)).decode() + coeff_R(2, (0, 2)).decode()).promote().scale(ratio))


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
        packed(MultiPoly.var(r_var(1, 2, 2)).promote().scale(K - 1), 2)
    assert apply_D11(2, 1, coeff_R(2, (1, 1)), K) == \
        packed(MultiPoly.var(r_var(2, 2, 2)).promote().scale(K), 2)
    assert apply_D11(2, 2, detR1, K).is_zero()
    assert apply_D11(2, 2, detR1, K) == PackedPoly(2, 1, {})


def test_pluriharmonic_genus2_symbolic(spec2_symbolic):
    assert verify_pluriharmonic(spec2_symbolic)


def test_misnormalized_operator_fails_with_known_residual(spec2_symbolic):
    assert not verify_pluriharmonic(spec2_symbolic, second_order_factor=1)
    total = MultiPoly.zero()
    for h in (1, 2):
        total = total + apply_D11(2, h, spec2_symbolic.Q, K, second_order_factor=1).decode()
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
    form = _IntegerForm(spec.Q, spec.k, factor)
    residual = form.to_poly(form.d11(range(1, g + 1)))
    reference = MultiPoly.zero()
    for h in range(1, g + 1):
        reference = reference + _reference_d11(g, h, spec.Q.decode(), spec.k, factor)
    field = RatFunc if spec.symbolic else Fraction
    assert all(isinstance(c, field) for q in (residual.decode(), reference, spec.Q.decode())
               for c in q.terms.values())
    assert residual.decode() == reference
    assert residual == packed(reference, g)
    assert residual.is_zero() == (factor == 2)
    assert verify_pluriharmonic(spec, factor) == (factor == 2)


@pytest.mark.parametrize("g,h,p,k", [
    (3, 1, coeff_R(3, (2, 1, 0)).decode(), K),
    (3, 2, coeff_R(3, (1, 1, 1)).decode().promote(), Fraction(7, 3)),
    (2, 1, coeff_R(2, (2, 0)).decode() * MultiPoly.var(t_var(2)) ** 3, Fraction(5)),
    (2, 2, MultiPoly.var(r_var(2, 1, 1)) ** 4 * MultiPoly.var(r_var(2, 1, 2)) ** 3,
     1 / (A + 3)),
    (2, 1, MultiPoly.const(A) * MultiPoly.var(r_var(1, 1, 1)) ** 2, K),
    (2, 1, MultiPoly.const(A) * MultiPoly.var(r_var(1, 1, 1)) ** 2, Fraction(5)),
])
def test_apply_D11_matches_reference(g, h, p, k):
    """apply_D11 runs the kernel for one h on the packed p: the canonical
    form of the reference's exact output, for either field of p and k, high
    exponents and t-variables; a RatFunc constant times a monomial is the
    monomial scaled by it.  The residuals of p and of p promoted to Q(a)
    are equal forms, as their decodes are."""
    for factor in (1, 2):
        got = apply_D11(g, h, packed(p, g), k, factor)
        assert got.decode() == _reference_d11(g, h, p, k, factor)
        assert got == packed(_reference_d11(g, h, p, k, factor), g)
        assert got == apply_D11(g, h, packed(p.promote(), g), k, factor)


def test_packed_forms_of_one_polynomial_compare_equal_across_fields():
    """The Q form and the Q(a) form of one polynomial are equal, either way
    round, and a Q form differs from another polynomial's Q(a) form, such as
    the same keys times a, and from the Q(a) form of another genus."""
    p = MultiPoly.var(r_var(1, 1, 1)) ** 2 * MultiPoly.var(r_var(1, 2, 2)).scale(Fraction(3, 2))
    q, qa = packed(p, 2), packed(p.promote(), 2)
    assert (q.den, qa.den) == (2, (2,)) and q == qa and qa == q
    times_a = packed(p.promote().scale(A), 2)
    assert set(times_a.nums) == set(q.nums) and q != times_a and times_a != q
    assert packed(p, 3) != qa and packed(p.scale(2), 2) != qa


def test_apply_D11_takes_exponents_up_to_14_and_refuses_15():
    """A move raises one exponent by 1, so D_{h;11} of a form with exponents
    up to 14 is exact, with an exponent of 15 in its result; that result,
    given back, is refused, not carried into the next variable's nibble."""
    p = MultiPoly.var(r_var(1, 1, 2)) ** 4 * MultiPoly.var(r_var(1, 2, 2)) ** 14
    once = apply_D11(2, 1, packed(p, 2), 4)
    assert once.decode() == _reference_d11(2, 1, p, 4) == \
        (MultiPoly.var(r_var(1, 1, 2)) ** 2 * MultiPoly.var(r_var(1, 2, 2)) ** 15).scale(6)
    with pytest.raises(ValueError, match="^polynomial has an exponent of 15, above the 14 "
                                         "apply_D11 takes$"):
        apply_D11(2, 1, once, 4)


@pytest.mark.parametrize("a", [A, Fraction(3)])
def test_perturbed_operator_fails(a):
    """One coefficient of Q changed, by a term with a fresh denominator, and
    the verifier rejects the result."""
    spec = build_Q(3, a)
    q = spec.Q.decode()
    m = next(m for m in sorted(q.terms) if m[0] == (r_var(1, 1, 1), 1))
    bump = 1 / (A ** 3 + 7) if spec.symbolic else Fraction(1, 10 ** 30)
    terms = dict(q.terms)
    terms[m] = terms[m] + bump
    bad = OperatorSpec(spec.g, spec.a, packed(MultiPoly(terms), 3))
    assert bad.Q.decode() == MultiPoly(terms)
    assert verify_pluriharmonic(spec)
    assert not verify_pluriharmonic(bad)


@pytest.mark.parametrize("g,a", [(2, A), (3, A), (4, A), (3, Fraction(7, 3)),
                                 (4, Fraction(5, 2)), (4, Fraction(108))])
def test_packed_build_matches_the_basis_sum(g, a):
    """The packed build is sum_n c(n)/C(1) B(n) summed in MultiPoly
    arithmetic, over canonical cleared integers."""
    spec = build_Q(g, a)
    expect = MultiPoly.zero()
    for n in index_set_N(g):
        c = coeff_c(g, a, n) / constant_C(g, a, 1)
        if c:
            b = coeff_R(g, n).decode()
            expect = expect + (b.promote() if spec.symbolic else b).scale(c)
            assert spec.coeffs[n] == c
    assert spec.Q.decode() == expect and set(spec.coeffs) == {n for n in index_set_N(g)
                                                              if coeff_c(g, a, n)}
    assert spec.Q == packed(expect, g)
    den, nums = spec.Q.den, spec.Q.nums
    if spec.symbolic:
        assert den[-1] > 0
        assert math.gcd(*den, *(c for P in nums.values() for c in P)) == 1
    else:
        assert den > 0 and math.gcd(den, *nums.values()) == 1


def test_specs_compare_by_their_cleared_form_and_are_unhashable():
    """Equality reads (g, a, Q), and Q compares by its (g, den, nums)."""
    spec, fresh = build_Q(2, 5), build_Q(2, 5)
    assert spec.Q is not fresh.Q and spec.Q == fresh.Q
    assert spec == fresh and fresh == spec and spec != build_Q(2, 6)
    assert repr(spec) == "OperatorSpec(g=2, a=Fraction(5, 1))"
    for unhashable in (spec, spec.Q):
        with pytest.raises(TypeError):
            hash(unhashable)


@pytest.mark.parametrize("pick,delta", [(0, (1,)), (100, (0, 0, 0, 0, -1)), (-1, (0, 3))])
def test_perturbed_packed_numerator_fails(spec4_symbolic, pick, delta):
    """One numerator of the packed genus-4 Q(a) changed, by a constant or a
    power of a, and the verifier rejects the result.  The changed monomial
    holds r_{1;11}, so D_{1;11} does not annihilate it (a monomial with one
    row-1 factor r_{h;1u}, u != 1, per block is annihilated by every
    D_{h;11}, and changing its coefficient keeps Q pluriharmonic)."""
    spec = spec4_symbolic
    r111 = 15 * _packing(4).unit[r_var(1, 1, 1)]
    nums = spec.Q.nums
    key = [key for key in nums if key & r111][pick]
    bumped = tuple(x + y for x, y in itertools.zip_longest(nums[key], delta, fillvalue=0))
    bad = OperatorSpec(spec.g, spec.a, PackedPoly(4, spec.Q.den, {**nums, key: bumped}))
    assert verify_pluriharmonic(spec)
    assert not verify_pluriharmonic(bad)


@pytest.fixture(scope="module")
def spec5():
    return build_Q(5, Fraction(7, 2))


def test_genus5_factor_1_control_fails(spec5):
    assert verify_pluriharmonic(spec5)
    assert not verify_pluriharmonic(spec5, second_order_factor=1)


def _row1_moves(key) -> str:
    """The moves of D_{h;11} on a genus-5 monomial, over every h: 'first'
    when some R_h holds r_{h;11} (and so a first-order move), else 'second'
    when some R_h holds two row-1 factors r_{h;1u} r_{h;1w} (u = w allowed),
    else 'none'."""
    unit = _packing(5).unit
    rows = [[key // unit[r_var(h, 1, u)] & 15 for u in range(1, 6)] for h in range(1, 6)]
    if any(row[0] for row in rows):
        return "first"
    return "second" if any(sum(row) > 1 for row in rows) else "none"


@pytest.mark.parametrize("moves", ["first", "second", "none"])
def test_genus5_numerator_changed(spec5, moves):
    """One numerator of the genus-5 Q at a = 7/2 changed by 1: the verifier
    rejects it when the monomial's row-1 class has moves, of either order,
    and accepts it when the class has none, since every D_{h;11} annihilates
    such a monomial (the kernel touches only the classes with moves)."""
    nums = spec5.Q.nums
    key = next(key for key in nums if _row1_moves(key) == moves)
    bad = OperatorSpec(5, spec5.a, PackedPoly(5, spec5.Q.den, {**nums, key: nums[key] + 1}))
    assert verify_pluriharmonic(bad) == (moves == "none")


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_harmonic_condition_symbolic(g):
    assert verify_harmonic_condition(g, A)


def test_harmonic_condition_fails_for_a_perturbed_constant(monkeypatch):
    """Negative control: with 1 added to the constant term (in k) of one
    C(m), the coefficient identity fails in Q(a) and at a = (g+3)/2, and at
    g <= 4 the second-order verifier rejects the operator built from it."""
    from siegelops import opgen
    exact = opgen._constant_C_k
    for g in range(2, 7):
        for m in range(1, g + 1):
            def bumped(gg, mm, m=m):
                c = exact(gg, mm)
                return [c[0] + 1] + c[1:] if mm == m else c
            monkeypatch.setattr(opgen, "_constant_C_k", bumped)
            assert not verify_harmonic_condition(g, A), (g, m)
            assert not verify_harmonic_condition(g, Fraction(g + 3, 2)), (g, m)
            if g <= 4:
                assert not verify_pluriharmonic(build_Q(g, A)), (g, m)


def test_a_weight_is_a_rational_or_the_symbolic_a():
    """A constant of Q(a) is its rational; any other element of Q(a) is not
    a weight, rather than being read as the generic Q(a)."""
    for bad in (2 * A, A + 1, 1 / A):
        with pytest.raises(ValueError, match="neither a rational nor the symbolic weight"):
            build_Q(2, bad)
        with pytest.raises(ValueError):
            verify_harmonic_condition(2, bad)
    const, rational = build_Q(2, RatFunc(3)), build_Q(2, 3)
    assert (const.a, const.Q.den, const.Q.nums) == (rational.a, rational.Q.den, rational.Q.nums)
    assert opspec_to_text(const) == opspec_to_text(rational)
    assert verify_harmonic_condition(3, RatFunc(Fraction(7, 2)))


def _reference_harmonic_condition(g, a):
    """The coefficient identity checked at every minor multi-index n', the
    C(2g-2, g-1) of them: the reference for verify_harmonic_condition's
    g - 1 shape recurrences.  C(m) is read through opgen._constant_C_k, so
    a monkeypatched constant bites here too."""
    if g < 2:
        raise ValueError(f"genus must be >= 2, found {g}")
    a = _as_weight(a)
    C = {0: (), **{m: opgen._constant_C_k(g, m) for m in range(1, g + 1)}}
    for nprime in multi_indices(g, g - 1):
        n = list(nprime)
        side = ()
        for h in range(g):
            n[h] += 1
            side = _padd(side, _pmul((-nprime[h], 1), C[_stratum(n)]))
            n[h] -= 1
        value = side if isinstance(a, RatFunc) else _horner(side, 2 * a)
        if value:
            return False
    return True


def _general_weights(g):
    """Q(a) and three weights where no C(m) vanishes."""
    return [A, Fraction(g, 2), Fraction(g + 3, 2), Fraction(7, 3)]


@pytest.mark.parametrize("g", range(2, 11))
def test_harmonic_condition_matches_the_minor_index_loop(g):
    """The g - 1 shape recurrences give the verdict of the loop over every
    minor multi-index, in Q(a) and at numeric weights, also at each 2a in
    1..g-1, where some C(m) vanish.  At g = 10 the loop takes about 0.8 s
    a weight, so there it runs at Q(a), a = 7/3 and 2a = 5 alone."""
    weights = _general_weights(g) + [Fraction(k, 2) for k in range(1, g)]
    if g == 10:
        weights = [A, Fraction(7, 3), Fraction(5, 2)]
    for a in weights:
        assert verify_harmonic_condition(g, a) is _reference_harmonic_condition(g, a) is True, a


def _scale_C(monkeypatch, m):
    """Make C(m), and no other constant, 11/10 times itself."""
    exact = opgen._constant_C_k

    def scaled(g, mm):
        return [c * Fraction(11, 10) for c in exact(g, mm)] if mm == m else exact(g, mm)

    monkeypatch.setattr(opgen, "_constant_C_k", scaled)


@pytest.mark.parametrize("g", range(2, 11))
@pytest.mark.parametrize("which", ["C(2)", "C(g)"])
def test_harmonic_condition_rejects_a_scaled_constant_on_both_routes(monkeypatch, g, which):
    """Negative controls: with C(2) or C(g) times 11/10 the identity fails
    in Q(a) and at weights where no C(m) vanishes, by the shape recurrences
    and by the loop over every minor multi-index."""
    _scale_C(monkeypatch, 2 if which == "C(2)" else g)
    for a in _general_weights(g):
        assert not verify_harmonic_condition(g, a), a
        assert not _reference_harmonic_condition(g, a), a


def test_harmonic_condition_at_genus_30(monkeypatch):
    """The shapes make the identity O(g) work: g = 30, whose loop would
    visit C(58, 29) minor multi-indices, holds in Q(a) and fails with C(2)
    times 11/10.  verify_harmonic_condition builds one side per shape."""
    sides = []

    def counted(p, q):
        sides.append(_padd(p, q))
        return sides[-1]

    monkeypatch.setattr(opgen, "_padd", counted)
    assert verify_harmonic_condition(30, A)
    assert len(sides) == 29
    monkeypatch.undo()
    _scale_C(monkeypatch, 2)
    assert not verify_harmonic_condition(30, A)


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
        out = xspace_oracle(2, k, R111)
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
    bad = packed(coeff_R(2, (2, 0)).decode() + coeff_R(2, (0, 2)).decode(), 2)
    assert not xspace_oracle(2, 2, bad).is_zero()
    total = MultiPoly.zero()
    for h in (1, 2):
        total = total + apply_D11(2, h, bad, Fraction(2)).decode()
    assert not total.is_zero()


def test_xspace_guard():
    with pytest.raises(ValueError):
        xspace_oracle(4, 10, packed(MultiPoly.var(r_var(1, 1, 1)), 4))
    with pytest.raises(ValueError):
        xspace_oracle(2, 3, R111)


@pytest.mark.parametrize("g, k, reason", [
    (2, 2 * symbolic_weight(), "the substitution oracle needs a numeric weight"),
    (2, Fraction(3), "the substitution oracle needs an even integer 2a"),
    (2, -2, "the substitution oracle needs an even integer 2a"),
    (3, Fraction(10), "the substitution oracle takes at most 80 variables, and genus 3 at "
                      "2a = 10 needs 90"),
], ids=["symbolic", "odd", "negative", "too-many-variables"])
def test_xspace_oracle_refuses_a_weight_with_its_reason(g, k, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        xspace_oracle(g, k, packed(MultiPoly.var(r_var(1, 1, 1)), g))


def test_xspace_oracle_takes_2a_as_any_exact_number():
    assert xspace_oracle(2, Fraction(4), R111) == xspace_oracle(2, 4, R111) == MultiPoly.const(8)


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
    (4, A, 195364, "425c010fb02f478fb7f85c0c1ec66c28e9b856ef401807b34bbe0ca5ed24e786"),
    (5, Fraction(3), 6703524,
     "f50f506ce45fef489ecc766baf786d45e1bc530c9eccf737c219a12887da281e"),
    (2, A, 473, "ab4b1bd6cedec782797fdb3ec1793e60589546ba58a81238f510b8115f0b4802"),
    (3, A, 6278, "b062f176cffa6939d44b78e39ffc10b1307aafa9a9738d938328f37d70e8809d"),
    (2, Fraction(5), 335, "5c418af32baf3781d89154bd1c6c3133e1f8f4f3209d94253a4d77c568dd88df"),
    (3, Fraction(2), 4199, "deeba8564701d4be1480412254a974d780bdf6957677f23f039397c39e60f158"),
    (4, Fraction(7, 3), 142498,
     "3f686c343d7a7b181c37b374bbcca4ecc748471b6686bbde323ee839ffe85f84"),
    (5, Fraction(7, 2), 6832536,
     "4a6be9a320eb88ecb982b58eb604edf51011d3bd0eefbafd4eb74bdb2388c27e"),
    (5, A, 9039691, "9ed4385f22ae7cdd1f853981602edf70141e9c61940321162528292b67baac3c"),
])
def test_opspec_bytes_are_pinned(g, a, size, digest):
    """The operator files of build_Q at these genera and weights, byte for
    byte: Q(a) and Q coefficients, and at 7/3 a weight that is no integer."""
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


def _opspec_lines(a=Fraction(5), g=2):
    return opspec_to_text(build_Q(g, a)).splitlines()


def _error(lines) -> str:
    """The message with which the reader rejects the file of lines, each
    ended by a newline."""
    with pytest.raises(ValueError) as err:
        opspec_from_text("".join(ln + "\n" for ln in lines))
    return str(err.value)


def _differs(line: int, want: str, found: str) -> str:
    """The reader's message for a line that is not the writer's."""
    return f"OPSPEC1 line {line}: expected {want!r}, found {found!r}"


def test_opspec_rejects_wrong_coefficient_count():
    lines = _opspec_lines()
    assert lines[5:8] == ["coeffs 3", "n=0,2 | -10/9", "n=1,1 | 1"]
    assert _error(lines[:6] + lines[7:]) == _differs(7, lines[6], lines[7])
    assert _error(lines[:5] + ["coeffs 4"] + lines[6:]) == _differs(6, "coeffs 3", "coeffs 4")


def test_opspec_messages_at_genus_5():
    """The reader names the first line of a genus-5 file that differs, in
    the words it has always used: the last term line changed, the final
    newline cut, a line after the end and a line dropped in the middle."""
    text = opspec_to_text(build_Q(5, Fraction(3)))
    lines = text.splitlines()
    last = "324/5 | r[5;1,1]^1 r[5;2,2]^1 r[5;3,3]^1 r[5;4,4]^1 r[5;5,5]^1"
    assert len(lines) == 111358 and lines[-1] == last
    changed = last.replace("324/5", "324/7")
    assert _error(lines[:-1] + [changed]) == _differs(111358, last, changed)
    with pytest.raises(ValueError) as err:
        opspec_from_text(text[:-1])
    assert str(err.value) == f"{_differs(111358, last, last)} with no newline"
    assert _error(lines + ["extra"]) == "OPSPEC1 line 111359: expected end of file, found 'extra'"
    mid = len(lines) // 2
    assert lines[mid:mid + 2] == [
        "3/5 | r[1;4,4]^1 r[2;3,5]^1 r[3;3,5]^1 r[5;1,1]^1 r[5;2,2]^1",
        "3/5 | r[1;3,5]^1 r[2;4,4]^1 r[3;3,5]^1 r[5;1,1]^1 r[5;2,2]^1"]
    assert _error(lines[:mid] + lines[mid + 1:]) == _differs(55680, lines[mid], lines[mid + 1])


CHUNK_SIZES = [1, 7, poly._CHUNK_TERMS]


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("g", [2, 3, 4])
def test_opspec_text_does_not_depend_on_the_chunk_size(g, size, monkeypatch):
    """The writer's chunks of term lines join to the same bytes whatever
    their size, in Q(a) and in Q."""
    for a in (A, Fraction(g, 2) + 1):
        spec = build_Q(g, a)
        want = _opspec_text(spec)
        monkeypatch.setattr(poly, "_CHUNK_TERMS", size)
        chunks = list(_opspec_chunks(spec))
        monkeypatch.undo()
        assert "".join(chunks) == want
        # the OPSPEC1 head, the POLY1 header line, then the runs of term lines
        assert len(chunks) == 2 + math.ceil(len(spec.Q.nums) / size)


def _chunk_edits(chunks):
    """Files one edit away from the join of chunks: a byte changed at the
    first and at the last position of each chunk, the text cut at each
    chunk boundary, one byte appended and the final newline removed."""
    text = "".join(chunks)
    pos = 0
    for chunk in chunks:
        for at in (pos, pos + len(chunk) - 1):
            yield text[:at] + ("x" if text[at] != "x" else "y") + text[at + 1:]
        pos += len(chunk)
        if pos < len(text):
            yield text[:pos]
    yield text + "\n"
    yield text[:-1]


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_opspec_reader_names_the_first_difference_across_chunk_boundaries(size, monkeypatch):
    """An edit at a chunk's first or last byte, a file cut at a chunk
    boundary, a byte appended and the final newline removed are each
    rejected with the message _first_difference gives against the whole
    writer's text, whatever the chunk size."""
    specs = [build_Q(2, Fraction(5)), build_Q(3, A)]
    wants = [_opspec_text(spec) for spec in specs]
    monkeypatch.setattr(poly, "_CHUNK_TERMS", size)
    for spec, want in zip(specs, wants):
        assert opspec_from_text(want) == spec
        for bad in _chunk_edits(list(_opspec_chunks(spec))):
            with pytest.raises(ValueError) as err:
                opspec_from_text(bad)
            assert str(err.value) == _first_difference(bad, want)


def test_reading_the_genus_5_file_holds_no_second_copy_of_it():
    """The reader compares the file with the writer's chunks at their
    offsets, so its transient memory, its peak less what the returned spec
    keeps, stays below the size of the file; a whole second text beside the
    file, with its pieces, would take about 2.6 times that."""
    import tracemalloc
    text = opspec_to_text(build_Q(5, Fraction(3)))
    tracemalloc.start()
    try:
        back = opspec_from_text(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.g == 5 and len(back.Q.nums) == 111275
    assert peak - kept < len(text)


def test_opspec_rejects_a_zero_in_the_coefficient_table():
    lines = _opspec_lines()
    assert _error(lines[:6] + ["n=0,2 | 0"] + lines[7:]) == _differs(7, lines[6], "n=0,2 | 0")
    # a multi-index with c(n) = 0 has no line at all
    g4 = _opspec_lines(g=4)
    assert _error(g4[:6] + ["n=0,0,2,2 | 0"] + g4[6:]) == _differs(7, g4[6], "n=0,0,2,2 | 0")


def test_opspec_rejects_a_wrong_value_in_the_coefficient_table():
    lines = _opspec_lines()
    assert _error(lines[:6] + ["n=0,2 | 7"] + lines[7:]) == _differs(7, lines[6], "n=0,2 | 7")
    # the table of a = 5 under the header of a = 6
    assert _error(lines[:3] + ["a 6"] + lines[4:]) == _differs(7, "n=0,2 | -12/11", lines[6])
    symbolic = _opspec_lines(A)
    assert symbolic[8] == "n=2,0 | -1*a^1;-1/2*a^0+1*a^1"
    bad = "n=2,0 | 1*a^1;-1/2*a^0+1*a^1"
    assert _error(symbolic[:8] + [bad] + symbolic[9:]) == _differs(9, symbolic[8], bad)


def test_opspec_rejects_a_missing_row_of_the_coefficient_table():
    lines = _opspec_lines()
    assert lines[7] == "n=1,1 | 1"
    assert _error(lines[:7] + lines[8:]) == _differs(8, lines[7], lines[8])
    assert _error(lines[:5] + ["coeffs 2", lines[6]] + lines[8:]) == _differs(6, "coeffs 3",
                                                                           "coeffs 2")


def test_opspec_rejects_rows_out_of_order():
    """The writer sorts the coefficient table by n; a row that breaks the
    order is an error at its line, even when every value is right."""
    lines = _opspec_lines()
    assert lines[6:9] == ["n=0,2 | -10/9", "n=1,1 | 1", "n=2,0 | -10/9"]
    assert _error(lines[:6] + lines[6:9][::-1] + lines[9:]) == _differs(7, lines[6], lines[8])
    assert _error(lines[:6] + [lines[7], lines[8], lines[6]] + lines[9:]) == \
        _differs(7, lines[6], lines[7])


@pytest.mark.parametrize("idx,line,msg", [
    (3, "a 5.0", "bad a value"), (3, "a 10/2", "bad a value"),
    (1, "genus 0_2", "bad genus value"), (1, "genus +2", "bad genus value"),
    (5, "coeffs 03", "bad coeffs value"),
    (6, "n=0,2 | -20/18", "cannot parse"), (6, "n=00,2 | -10/9", "cannot parse"),
    (9, "POLY1 field=Q terms=+7", "missing or bad term count"),
    (10, "10/9 | r[1;1,2]^+2", "cannot parse"), (10, "10/9 | r[1;1,2]^2.0", "cannot parse"),
])
def test_opspec_reads_numbers_only_as_the_writer_spells_them(idx, line, msg):
    """Each number of the file spelled otherwise than the writer spells
    its value is an error at its line, not a value written back another
    way.  The genus and the weight, which the reader parses, are refused
    as msg says; every later line is compared with the writer's."""
    lines = _opspec_lines()
    error = _error(lines[:idx] + [line] + lines[idx + 1:])
    if idx < 4:
        assert error == f"OPSPEC1 line {idx + 1}: {msg} {line.split()[1]!r}"
    else:
        assert error == _differs(idx + 1, lines[idx], line)


def test_opspec_reads_symbolic_coefficients_only_as_the_writer_spells_them():
    symbolic = _opspec_lines(A)
    assert symbolic[8] == "n=2,0 | -1*a^1;-1/2*a^0+1*a^1"
    assert symbolic[10] == "1*a^1;-1/2*a^0+1*a^1 | r[1;1,2]^2"
    for idx, line in ((8, "n=2,0 | -2*a^1;-1*a^0+2*a^1"),
                      (8, "n=2,0 | -1*a^-1;-1/2*a^0+1*a^1"),
                      (8, "n=2,0 | -1*a^1 ; -1/2*a^0+1*a^1"),
                      (10, "1*a^1+0*a^2;-1/2*a^0+1*a^1 | r[1;1,2]^2")):
        assert _error(symbolic[:idx] + [line] + symbolic[idx + 1:]) == \
            _differs(idx + 1, symbolic[idx], line)


def test_opspec_takes_the_terms_only_in_increasing_key_order():
    """Two swapped term lines, and a repeat of a term that is not next to
    it, are errors at the first line that differs."""
    lines = _opspec_lines()
    assert _error(lines[:11] + [lines[12], lines[11]] + lines[13:]) == \
        _differs(12, lines[11], lines[12])
    assert _error(lines[:13] + [lines[10]] + lines[13:]) == _differs(14, lines[13], lines[10])


def test_readme_shows_the_genus2_weight5_operator_file():
    """The OPSPEC1 example of the README is the file build_Q(2, 5) makes."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("  ```text\n  OPSPEC1\n", 1)[1].split("  ```", 1)[0]
    shown = "OPSPEC1\n" + "".join(ln[2:] + "\n" for ln in block.splitlines())
    assert shown == opspec_to_text(build_Q(2, Fraction(5)))


def test_opspec_rejects_other_normalization():
    lines = _opspec_lines()
    for norm in ("normalization second-order-factor=1 leading-coefficient=1", ""):
        assert _error(lines[:4] + [norm] + lines[5:]) == _differs(5, lines[4], norm)


def test_opspec_rejects_missing_header_keys():
    lines = _opspec_lines()
    for idx, bad in ((1, "genius 2"), (2, "mode exact"), (3, "a five"), (5, "coeffs")):
        assert _error(lines[:idx] + [bad] + lines[idx + 1:]).startswith(
            f"OPSPEC1 line {idx + 1}: ")


def test_opspec_rejects_truncated_polynomial():
    lines = _opspec_lines()
    assert lines[9] == "POLY1 field=Q terms=7"
    assert _error(lines[:-1]) == f"OPSPEC1 line 17: expected {lines[-1]!r}, found end of file"
    assert _error(lines[:9] + [lines[9].replace("7", "8")] + lines[10:] + lines[-1:]) == \
        _differs(10, lines[9], "POLY1 field=Q terms=8")


def test_opspec_rejects_a_body_of_the_other_field():
    symbolic = _opspec_lines(A)
    assert symbolic[9] == "POLY1 field=Qa terms=7"
    edited = symbolic[:9] + ["POLY1 field=Q terms=7"] + symbolic[10:]
    assert _error(edited) == _differs(10, symbolic[9], "POLY1 field=Q terms=7")
    # a symbolic header and coefficient table over a numeric body
    numeric = _opspec_lines()
    assert _error(symbolic[:9] + numeric[9:]) == _differs(10, symbolic[9], numeric[9])
    assert _error(numeric[:2] + ["mode symbolic", "a a"] + numeric[4:]) == \
        _differs(7, symbolic[6], numeric[6])


def test_opspec_rejects_a_weight_build_Q_refuses():
    lines = _opspec_lines()
    assert _error(lines[:3] + ["a 1/4"] + lines[4:]) == \
        "OPSPEC1 line 4: weight a=1/4 violates a >= g/2 = 1"
    assert _error(lines[:1] + ["genus 1"] + lines[2:]) == \
        "OPSPEC1 line 2: genus must be 2..5, found 1"


def test_opspec_rejects_a_body_of_another_genus():
    lines = _opspec_lines()
    g3 = _opspec_lines(g=3)
    assert _error(lines[:1] + ["genus 2"] + g3[2:]) == _differs(6, "coeffs 3", g3[5])
    body = g3[g3.index("POLY1 field=Q terms=108"):]
    assert _error(lines[:9] + body) == _differs(10, lines[9], body[0])
    for var in ("r[3;1,1]", "t[1]", "x[1,1]"):
        bad = f"-10/9 | {var}^1 r[1;2,2]^1"
        assert _error(lines[:10] + [bad] + lines[11:]) == _differs(11, lines[10], bad)


def test_opspec_of_genus_above_5_is_refused_before_a_build(monkeypatch):
    """A genus-6 operator would take minutes and gigabytes to build, so a
    forged four-line genus-6 file is refused at line 2 at once; so are a
    weight below g/2 and a weight not written as the writer writes it, at
    line 4.  None of them builds anything."""
    import time
    from siegelops import opgen

    def no_build(g, a):
        raise AssertionError(f"build_Q({g}, {a}) called")

    monkeypatch.setattr(opgen, "build_Q", no_build)
    for text, error in (
            ("OPSPEC1\ngenus 6\nmode numeric\na 3\n", "line 2: genus must be 2..5, found 6"),
            ("OPSPEC1\ngenus 6\nmode symbolic\na a\n", "line 2: genus must be 2..5, found 6"),
            ("OPSPEC1\ngenus 3\nmode numeric\na 1\n",
             "line 4: weight a=1 violates a >= g/2 = 3/2"),
            ("OPSPEC1\ngenus 2\nmode numeric\na 10/2\n", "line 4: bad a value '10/2'")):
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            opspec_from_text(text)
        assert time.perf_counter() - start < 0.1
        assert str(err.value) == f"OPSPEC1 {error}"


@pytest.mark.parametrize("g", [0, 1, 6, 7])
def test_build_Q_refuses_a_genus_outside_2_to_5_before_a_build(g):
    """The bound of the OPSPEC1 reader: a genus-6 Q would take about 2.6 GB
    and its file could not be read back, and g = 7 would not finish.  The
    refusal comes before the Leibniz pass fills the t-split cache."""
    from siegelops import poly
    before = poly._t_split.cache_info()
    with pytest.raises(ValueError, match=r"^genus must be 2\.\.5$"):
        build_Q(g, 3)
    assert poly._t_split.cache_info() == before


def test_opspec_error_shows_at_most_200_characters_of_a_line():
    """A file with no newline is one line; the error shows its start."""
    text = _opspec_lines()
    bad = "\r".join(text) + "\r"
    with pytest.raises(ValueError) as err:
        opspec_from_text(bad)
    assert str(err.value) == (f"OPSPEC1 line 1: expected 'OPSPEC1', found {bad[:200]!r}... "
                              "with no newline")


@pytest.mark.parametrize("vars_txt,what", [
    ("r[1;1,1]^15", "exponent of r[1;1,1] is 15, above 14"),
    ("r[1;1,1]^9 r[1;1,1]^6", "exponents of r[1;1,1] add up to 15, above 14"),
])
def test_opspec_rejects_nibble_overflow(vars_txt, what):
    """A term whose packed key would overflow a nibble (what) is an error
    at its line: the reader compares its text and never packs it."""
    lines = _opspec_lines()
    bad = f"-10/9 | {vars_txt}"
    assert _error(lines[:10] + [bad] + lines[11:]) == _differs(11, lines[10], bad)


def test_opspec_rejects_a_repeated_variable_and_reordered_duplicates():
    """The writer writes each variable of a monomial once and each monomial
    once, so r^1 r^2 (for r^3) and a reordered repeat of a monomial are
    errors that name their line."""
    lines = _opspec_lines()
    assert lines[11] == "-10/9 | r[1;1,1]^1 r[1;2,2]^1"
    bad = "-10/9 | r[1;1,1]^1 r[1;1,1]^2"
    assert _error(lines[:10] + [bad] + lines[11:]) == _differs(11, lines[10], bad)
    bad = "-10/9 | r[1;2,2]^1 r[1;1,1]^1"
    assert _error(lines[:12] + [bad] + lines[12:]) == _differs(13, lines[12], bad)


@pytest.mark.parametrize("idx,edit", [
    (8, lambda ln: "n=2,0 | 1*a^1000000;1*a^0"),
    (10, lambda ln: "1*a^1000000;1*a^0 | " + ln.partition(" | ")[2])])
def test_opspec_rejects_a_huge_qa_exponent_at_once(spec2_symbolic, idx, edit):
    """No coefficient of build_Q(g, a) has a term of degree above g - 1 in
    a, so a^1000000 in the table or in the body is an error at its line,
    found at once: the reader compares the text and never parses it."""
    import time
    lines = opspec_to_text(spec2_symbolic).splitlines()
    bad = edit(lines[idx])
    start = time.perf_counter()
    assert _error(lines[:idx] + [bad] + lines[idx + 1:]) == _differs(idx + 1, lines[idx], bad)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_opspec_coefficients_stay_within_the_degree_bound(g):
    """The bound g - 1 of the reader is the largest degree in a that
    build_Q makes: its cleared numerators and denominator have degree at
    most g - 1, and the file's coefficients reach it (at g <= 4; the g = 5
    file is 9 MB)."""
    spec = build_Q(g, A)
    assert max(map(len, [spec.Q.den, *spec.Q.nums.values()])) - 1 == g - 1
    if g < 5:
        text = opspec_to_text(spec)
        assert max(map(int, re.findall(r"\*a\^(\d+)", text))) == g - 1


def test_opspec_read_builds_the_coefficient_table_once(spec2_symbolic, monkeypatch):
    from siegelops import opgen
    calls = []
    table = opgen._coefficient_table

    def counted(g, a):
        calls.append((g, a))
        return table(g, a)

    monkeypatch.setattr(opgen, "_coefficient_table", counted)
    for text in (opspec_to_text(spec2_symbolic), "\n".join(_opspec_lines()) + "\n"):
        calls.clear()
        spec = opspec_from_text(text)
        assert spec.coeffs == table(spec.g, spec.a)
        assert len(calls) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: constant_C(2, Fraction(3), 3), r"^m=3 out of range 1\.\.2$"),
    (lambda: xspace_oracle(2, 2, build_Q(2, symbolic_weight()).Q),
     r"^the substitution oracle needs a numeric weight$"),
    (lambda: xspace_oracle(2, 2, packed(MultiPoly.var(t_var(1)), 2)),
     r"^oracle input mentions non-matrix variable \('t', 1\)$"),
    (lambda: apply_D11(2, 3, R111, 4), r"^slot h=3 is outside 1\.\.2$"),
    (lambda: apply_D11(2, 0, R111, 4), r"^slot h=0 is outside 1\.\.2$"),
    (lambda: verify_deriv_lemma(2, (1, 1), 3), r"^slot h=3 is outside 1\.\.2$"),
    (lambda: apply_D11(2, 1, packed(MultiPoly.var(r_var(3, 1, 1)), 3), 4),
     r"^polynomial of genus 3 is not of genus 2$"),
    (lambda: xspace_oracle(2, 2, packed(MultiPoly.var(r_var(3, 1, 1)), 3)),
     r"^polynomial of genus 3 is not of genus 2$"),
    (lambda: apply_D11(2, 1, R111, 4, Fraction(3, 2)),
     r"^second-order factor 3/2 is not an integer$"),
    (lambda: verify_pluriharmonic(build_Q(2, 3), Fraction(-1, 2)),
     r"^second-order factor -1/2 is not an integer$"),
    (lambda: verify_harmonic_condition(0, A), r"^genus must be >= 2, found 0$"),
    (lambda: verify_harmonic_condition(1, Fraction(3)), r"^genus must be >= 2, found 1$"),
    (lambda: verify_deriv_lemma(0, (), 1), r"^genus must be >= 1$"),
    (lambda: verify_deriv_lemma(6, (1,) * 6, 1), r"^genus must be <= 5, found 6$"),
], ids=["constant-m", "oracle-symbolic", "oracle-non-matrix", "D11-slot-above-genus",
        "D11-slot-zero", "deriv-lemma-slot", "D11-other-genus", "oracle-other-genus",
        "D11-fractional-factor",
        "verifier-fractional-factor", "harmonic-condition-genus-0",
        "harmonic-condition-genus-1", "deriv-lemma-genus-0", "deriv-lemma-genus-6"])
def test_opgen_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, bad", [
    (lambda: apply_D11(2, 1, R111, "3"), "'3'"),
    (lambda: apply_D11(2, 1, R111, 1j), "1j"),
    (lambda: apply_D11(2, 1, R111, 0.5), "0.5"),
    (lambda: apply_D11(2, 1, R111, True), "True"),
    (lambda: apply_D11(2, 1, R111, 4, 1.5), "1.5"),
    (lambda: apply_D11(2, 1, R111, 4, True), "True"),
    (lambda: verify_pluriharmonic(build_Q(2, 3), True), "True"),
], ids=["k-string", "k-complex", "k-float", "k-bool", "factor-float", "factor-bool",
        "verifier-factor-bool"])
def test_the_D11_kernel_takes_exact_numbers_only(call, bad):
    """k and the second-order factor pass the one gate of a caller's number
    (a RatFunc k too): a bool is no number, and no float is read."""
    with pytest.raises(TypeError, match=rf"^coefficient {re.escape(bad)} is not an exact "
                                        "rational$"):
        call()


def test_the_D11_kernel_takes_an_integral_fraction_as_its_factor():
    spec, detR1 = build_Q(2, 3), coeff_R(2, (2, 0))
    assert verify_pluriharmonic(spec, Fraction(2)) and not verify_pluriharmonic(spec, Fraction(1))
    assert apply_D11(2, 1, detR1, K, Fraction(1)) == apply_D11(2, 1, detR1, K, 1)


def test_only_the_oracle_decodes_a_packed_polynomial(monkeypatch):
    """With PackedPoly.decode raising, the genus-5 path runs as the
    benchmark runs it: build_Q(5, 3), the verifier, the OPSPEC1 round trip
    compared by ==, and the term count; so do the jets of the operator and
    of B(n), and the derivative lemma.  Only the substitution oracle
    decodes."""
    from siegelops.jets import jet_apply, operator_jet

    def no_decode(self):
        raise AssertionError("PackedPoly.decode called")

    monkeypatch.setattr(PackedPoly, "decode", no_decode)
    spec = build_Q(5, 3)
    assert verify_pluriharmonic(spec)
    back = opspec_from_text(opspec_to_text(spec))
    assert back == spec and back.Q == spec.Q
    assert len(spec.Q.terms) == 111275
    assert not operator_jet(build_Q(2, 5)).is_zero()
    assert not jet_apply(coeff_R(3, (2, 1, 0)), {1: "F", 2: "F", 3: "F"}, 3).is_zero()
    assert verify_deriv_lemma(3, (2, 1, 0), 1)
    with pytest.raises(AssertionError, match="decode called"):
        xspace_oracle(2, 10, build_Q(2, 5).Q)
