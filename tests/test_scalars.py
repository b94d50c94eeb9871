"""Tests for exact rational and Q(a) arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelops.scalars import PoleError, RatFunc, _binpow, _padd, _pmul

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
