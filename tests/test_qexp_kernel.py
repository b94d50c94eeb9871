"""The Kronecker-substitution product kernel against a naive convolution.

The reference below multiplies every pair of terms; the kernel must return
the same dict for any operands: negative beta, strides and offsets that
differ between the operands, mixed denominators, coefficients far above a
machine word, empty operands and terms exactly at the truncation.  A square
(one dict passed as both operands) takes its own path, which visits each
unordered group pair once; it is checked the same way.
"""

from fractions import Fraction
from math import isqrt, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegelops.qexp import QExp1, QExp2, _mul_terms


def cleared(t: dict) -> tuple[int, dict]:
    """(d, integer numerators over d) of a Fraction dict."""
    d = lcm(*{c.denominator for c in t.values()})
    return d, {k: c.numerator * (d // c.denominator) for k, c in t.items()}


def kernel(ta: dict, tb: dict, trunc: int) -> dict:
    """_mul_terms on the cleared integer numerators of two Fraction dicts,
    the product's numerators read back over the product of the denominators."""
    (da, na), (db, nb) = cleared(ta), cleared(tb)
    return {k: Fraction(v, da * db) for k, v in _mul_terms(na, nb, trunc).items()}


def square(t: dict, trunc: int) -> dict:
    """kernel(t, t, trunc) with one dict of numerators passed as both operands."""
    d, n = cleared(t)
    return {k: Fraction(v, d * d) for k, v in _mul_terms(n, n, trunc).items()}


def naive_mul2(ta: dict, tb: dict, trunc: int) -> dict:
    out: dict = {}
    for (a1, b1, g1), c1 in ta.items():
        for (a2, b2, g2), c2 in tb.items():
            if a1 + g1 + a2 + g2 <= trunc:
                k = (a1 + a2, b1 + b2, g1 + g2)
                out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def naive_mul1(ta: dict, tb: dict, trunc: int) -> dict:
    out: dict = {}
    for n1, c1 in ta.items():
        for n2, c2 in tb.items():
            if n1 + n2 <= trunc:
                out[n1 + n2] = out.get(n1 + n2, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


BIG = 2 ** 210
coefficients = st.builds(
    Fraction,
    st.one_of(st.integers(-4, 4), st.integers(-BIG, BIG),
              st.sampled_from([BIG - 1, 1 - BIG, 2 ** 201, -(2 ** 201)])),
    st.sampled_from([1, 1, 2, 3, 7, 12, 2 ** 61 - 1]))


@st.composite
def operand2(draw, trunc: int) -> dict:
    """Terms beta = offset + stride * j on one residue class, as theta
    products have; a few sit exactly on alpha + gamma = trunc."""
    stride = draw(st.sampled_from([1, 2, 3, 8, 12]))
    offset = draw(st.integers(-40, 40))
    terms = {}
    for _ in range(draw(st.integers(0, 14))):
        a = draw(st.integers(0, 3))
        g2 = trunc - a if draw(st.booleans()) and a <= trunc else draw(st.integers(0, 3))
        b = offset + stride * draw(st.integers(-6, 6))
        terms[(a, b, g2)] = draw(coefficients)
    return {k: c for k, c in terms.items() if c}


@st.composite
def genus2_case(draw):
    trunc = draw(st.integers(0, 10))
    return draw(operand2(trunc)), draw(operand2(trunc)), trunc


@settings(max_examples=300, deadline=None)
@given(genus2_case())
def test_kernel_matches_naive_convolution(case):
    ta, tb, trunc = case
    assert kernel(ta, tb, trunc) == naive_mul2(ta, tb, trunc)
    assert kernel(tb, ta, trunc) == naive_mul2(ta, tb, trunc)


@st.composite
def operand1(draw, trunc: int) -> dict:
    stride = draw(st.sampled_from([1, 2, 5, 8]))
    offset = draw(st.integers(0, 9))
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        n = offset + stride * draw(st.integers(0, 8))
        if n <= trunc:
            terms[n] = draw(coefficients)
    if draw(st.booleans()):
        terms[trunc] = draw(coefficients)
    return {k: c for k, c in terms.items() if c}


@st.composite
def genus1_case(draw):
    ta_trunc, tb_trunc = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    return draw(operand1(ta_trunc)), ta_trunc, draw(operand1(tb_trunc)), tb_trunc


@settings(max_examples=300, deadline=None)
@given(genus1_case())
def test_genus1_kernel_matches_naive_convolution(case):
    ta, ta_trunc, tb, tb_trunc = case
    f, g = (QExp1({(n,): c for n, c in ta.items()}, trunc=ta_trunc),
            QExp1({(n,): c for n, c in tb.items()}, trunc=tb_trunc))
    trunc = min(ta_trunc, tb_trunc)
    want = naive_mul1({n: c for n, c in ta.items() if n <= trunc},
                      {n: c for n, c in tb.items() if n <= trunc}, trunc)
    got = f * g
    assert got.trunc == trunc
    assert got.terms == {(n,): c for n, c in want.items()}
    assert (g * f).terms == {(n,): c for n, c in want.items()}


def test_empty_operands():
    t = {(1, 0, 1): Fraction(3)}
    assert kernel({}, t, 8) == {} == kernel(t, {}, 8)
    # nothing left within the truncation is empty too
    assert kernel({(5, 0, 5): Fraction(1)}, t, 8) == {}
    assert (QExp1({}, trunc=8) * QExp1({(8,): Fraction(1)}, trunc=8)).terms == {}


def test_extreme_digits_at_the_slot_bound():
    """Rows of equal extreme coefficients drive the middle digit of the
    product to the largest value the slot width must hold, in both signs."""
    m = 2 ** 300 - 1
    for sa, sb in ((1, 1), (1, -1), (-1, -1)):
        ta = {(0, b, 0): Fraction(sa * m) for b in range(-20, 21, 4)}
        tb = {(0, b, 0): Fraction(sb * m) for b in range(-20, 21, 4)}
        got = kernel(ta, tb, 0)
        assert got == naive_mul2(ta, tb, 0)
        assert got[(0, 0, 0)] == sa * sb * 11 * m * m


@st.composite
def unit_groups(draw, trunc: int) -> dict:
    """Several groups of one term each, with coefficient +-1: their packed
    rows are equal small ints, which CPython shares between the groups."""
    cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8,
                          unique=True))
    return {(a, draw(st.integers(-3, 3)), g2): Fraction(draw(st.sampled_from([1, -1])))
            for a, g2 in cells if a + g2 <= trunc}


@st.composite
def square_case(draw):
    trunc = draw(st.integers(0, 10))
    terms = draw(operand2(trunc))
    if draw(st.booleans()):
        terms.update(draw(unit_groups(trunc)))
    return terms, trunc


@settings(max_examples=200, deadline=None)
@given(square_case())
# rows 1, 1, -1: a pair of two of these shared ints is off-diagonal and counts twice
@example(({(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(1), (1, 0, 0): Fraction(-1)}, 2))
def test_square_kernel_matches_naive_convolution(case):
    t, trunc = case
    assert square(t, trunc) == naive_mul2(t, t, trunc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60).flatmap(lambda trunc: st.tuples(operand1(trunc), st.just(trunc))))
def test_genus1_square_kernel_matches_naive_convolution(case):
    t, trunc = case
    got = square({(n,): c for n, c in t.items()}, trunc)
    assert got == {(n,): c for n, c in naive_mul1(t, t, trunc).items()}


@st.composite
def psd_operand2(draw) -> QExp2:
    """A QExp2 whose terms keep the constructor's invariants."""
    trunc = draw(st.integers(0, 12))
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        a = draw(st.integers(0, trunc))
        g2 = draw(st.integers(0, trunc - a))
        b = draw(st.integers(-isqrt(4 * a * g2), isqrt(4 * a * g2)))
        terms[(a, b, g2)] = draw(coefficients)
    return QExp2(terms, Fraction(draw(st.integers(0, 3))), trunc,
                 character=draw(st.booleans()))


@st.composite
def operand1_qexp(draw) -> QExp1:
    trunc = draw(st.integers(0, 40))
    terms = draw(operand1(trunc))
    return QExp1({(n,): c for n, c in terms.items()}, Fraction(draw(st.integers(0, 3))),
                 trunc)


@settings(max_examples=60, deadline=None)
@given(st.one_of(psd_operand2(), operand1_qexp()))
def test_powers_equal_the_left_fold_of_distinct_copies(x):
    """x ** n squares through the square path at every step of binary
    powering; the fold multiplies by a copy rebuilt through the constructor,
    so its dicts are distinct and every product takes the general path."""
    copy = type(x)(dict(x.terms), x.weight, x.trunc, x.tau_factor, x.character)
    assert copy._nums is not x._nums
    fold = x.one(x.trunc)
    for n in range(10):
        assert x ** n == fold, n
        fold = fold * copy
