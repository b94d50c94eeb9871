"""Tests for exact rational and Q(a) arithmetic."""

import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelops import opgen, slopes
from siegelops.scalars import PoleError, RatFunc, _binpow, _padd, _pdivmod, _pgcd, _pmul

A = RatFunc.var()


def test_additive_inverse_cancels():
    f = (2 * A) / (2 * A - 1)
    assert not (f + (-(2 * A)) / (2 * A - 1))


def test_eval_simple_quotient():
    f = (2 * A) / (2 * A - 1)
    assert f.eval_at(5) == Fraction(10, 9)


def test_gcd_cancellation():
    f = (4 * A * A - 1) / (2 * A - 1)
    assert f == 2 * A + 1
    # canonical form is unique, so equality is structural
    assert f.num == (2 * A + 1).num and f.den == (2 * A + 1).den


def test_eval_constant():
    assert RatFunc(7).eval_at(Fraction(123, 7)) == 7


@pytest.mark.parametrize("g", [2, 3, 4])
def test_pole_at_half_genus(g):
    f = RatFunc(1) / (2 * A - g)
    with pytest.raises(PoleError):
        f.eval_at(Fraction(g, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        (A + 1) / (A - A)


def test_monic_denominator():
    f = A / (2 * A - 1)
    assert f.den[-1] == 1


def test_a_constant_hashes_as_the_fraction_it_equals():
    """A constant of Q(a), zero included, equals its Fraction and so hashes
    as it: a set or dict holds the two as one."""
    for c in (0, 1, -3, Fraction(7, 2)):
        assert RatFunc(c) == Fraction(c) and hash(RatFunc(c)) == hash(Fraction(c))
        assert len({Fraction(c), RatFunc(c)}) == 1
    x = RatFunc((2, 4), (4,))  # 1/2 + a, built another way
    assert x == Fraction(1, 2) + A and len({x, Fraction(1, 2) + A}) == 1


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def ratfuncs():
    polys = st.lists(small_fracs, min_size=1, max_size=4)
    return st.builds(
        lambda n, d: RatFunc(tuple(n), tuple(d)),
        polys, polys.filter(lambda d: any(c != 0 for c in d)))


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), small_fracs)
def test_eval_is_ring_homomorphism(x, y, a0):
    try:
        lhs_mul = (x * y).eval_at(a0)
        lhs_add = (x + y).eval_at(a0)
        xa, ya = x.eval_at(a0), y.eval_at(a0)
    except PoleError:
        return
    assert lhs_mul == xa * ya
    assert lhs_add == xa + ya


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_field_laws(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert x - x == RatFunc(0)
    if y:
        assert (x / y) * y == x


class _Counted:
    """An integer that counts its multiplications."""

    products = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.v * other.v)


@pytest.mark.parametrize("n", range(1, 40))
def test_binpow_makes_no_wasted_products(n):
    """Left-to-right powering: bit_length - 1 squarings, popcount - 1 products."""
    _Counted.products = 0
    assert _binpow(_Counted(3), n).v == 3 ** n
    assert _Counted.products == n.bit_length() - 1 + bin(n).count("1") - 1


def _ring_elements():
    from siegelops.jets import JetPoly
    from siegelops.poly import MultiPoly, r_var
    from siegelops.qexp import QExp1, QExp2
    x = MultiPoly.var(r_var(1, 1, 2)) + MultiPoly.const(Fraction(1, 3))
    theta = QExp2({(0, 0, 0): Fraction(1), (1, 0, 1): Fraction(2), (1, 1, 1): Fraction(-1),
                   (8, 0, 0): Fraction(1, 5)}, Fraction(1, 2), 24)
    return [(RatFunc((1, 2), (3, 0, 1)), RatFunc(1)),
            (x, MultiPoly.const(1)),
            (JetPoly.symbol("F") + JetPoly.const(2), JetPoly.const(1)),
            (theta, QExp2.one(24)),
            (QExp1({(0,): Fraction(1), (1,): Fraction(-24), (3,): Fraction(7, 2)}, 2, 30), QExp1.one(30))]


@pytest.mark.parametrize("x,one", _ring_elements(),
                         ids=["RatFunc", "MultiPoly", "JetPoly", "QExp2", "QExp1"])
def test_power_matches_repeated_multiplication(x, one):
    acc = one
    for n in range(10):
        assert x ** n == acc, n
        acc = acc * x


def _general_sum(x, y):
    """x + y by the cross-multiplied formula, written out."""
    return RatFunc(_padd(_pmul(x.num, y.den), _pmul(y.num, x.den)), _pmul(x.den, y.den))


def test_same_denominator_sum_cancels_to_canonical_form():
    """a/(a^2-1) - 1/(a^2-1) = 1/(a+1): the shared-denominator sum is
    reduced by the gcd like any other."""
    d = A ** 2 - 1
    x, y = A / d, -1 / d
    assert x.den == y.den
    assert x + y == _general_sum(x, y) == 1 / (A + 1)
    assert (x + y).num == (1 / (A + 1)).num and (x + y).den == (1 / (A + 1)).den


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), small_fracs.filter(bool), small_fracs, ratfuncs())
def test_same_denominator_sum_matches_the_general_formula(x, s, t, y):
    """s x + t has x's denominator, so x + (s x + t) and x - (s x + t) add
    over one shared denominator; they, and a sum over different
    denominators, equal the general formula in canonical form."""
    q = x * s + t
    assert q.den == x.den
    for p, r in ((x, q), (x, -q), (x, y)):
        total = p + r
        assert total == _general_sum(p, r)
        assert total.num == _general_sum(p, r).num and total.den[-1] == 1


# the entry points of the exact-rational gate outside qexp and poly, each
# given an inexact number: (id, call of it, inexact numbers)
_INEXACT = {"half": 0.5, "string": "1/2", "bool": True, "complex": 1j}
_GATED = [
    ("ratfunc-entry", lambda x: RatFunc((x, 1)), {**_INEXACT, "tenth": 0.1}),
    ("ratfunc-scalar", RatFunc, {k: v for k, v in _INEXACT.items() if k != "string"}),
    ("eval-at", RatFunc(1).eval_at, _INEXACT),
    ("build-Q", partial(opgen.build_Q, 2), {**_INEXACT, "5.1": 5.1}),
    ("constant-C", lambda x: opgen.constant_C(2, x, 1), _INEXACT),
    ("harmonic-condition", partial(opgen.verify_harmonic_condition, 2), _INEXACT),
    ("make-class", lambda x: slopes.make_class(x, 1), {**_INEXACT, "12.0": 12.0}),
]


@pytest.mark.parametrize("call, exc, message", [
    (lambda: _pdivmod((Fraction(1),), ()), ZeroDivisionError, "^polynomial division by zero$"),
    (lambda: _binpow(2, 0), ValueError, "^binary powering needs an exponent >= 1, got 0$"),
    (lambda: RatFunc(1, 0), ZeroDivisionError, "^RatFunc with zero denominator$"),
    (lambda: RatFunc("a"), TypeError, "^cannot build polynomial from 'a'$"),
    (lambda: A + True, TypeError, "^unsupported operand type"),
    *[(partial(call, x), TypeError, rf"^coefficient {re.escape(repr(x))} is not an exact rational$")
      for _, call, bad in _GATED for x in bad.values()],
], ids=["divide-by-zero", "power-0", "zero-denominator", "not-a-polynomial", "bool-operand",
        *[f"{name}-{kind}" for name, _, bad in _GATED for kind in bad]])
def test_scalar_refusals(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


def test_polynomial_helpers_stay_exact_on_integers():
    """Integer polynomials add and multiply as int tuples; a quotient, a
    remainder and a monic gcd are Fractions, never rounded floats."""
    for p in (_padd((1, 2), (3,)), _pmul((1, 1), (-1, 1))):
        assert all(type(c) is int for c in p), p
    assert _padd((1, 2), (3,)) == (4, 2) and _pmul((1, 1), (-1, 1)) == (-1, 0, 1)
    quot, rem = _pdivmod((1, 2), (1, 1))
    assert (quot, rem) == ((2,), (-1,))
    assert _pdivmod((1, 2, 3), (2, 4)) == ((Fraction(1, 8), Fraction(3, 4)), (Fraction(3, 4),))
    gcd = _pgcd((2, 2), (1, 1))
    assert gcd == (1, 1)
    for p in (quot, rem, gcd, *_pdivmod((1, 2, 3), (2, 4))):
        assert all(type(c) is Fraction for c in p), p
