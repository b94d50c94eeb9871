"""The Kronecker-substitution product kernel against a naive convolution.

The reference below multiplies every pair of terms; the kernel must return
the same dict for any operands: negative beta, strides and offsets that
differ between the operands, mixed denominators, coefficients far above a
machine word, empty operands and terms exactly at the truncation.  A square
(one dict passed as both operands) takes its own path, which visits each
unordered group pair once; it is checked the same way.  Operands that are
+-themselves under the mirror alpha <-> gamma, as Siegel modular forms are,
make only half the output groups; they are checked the same way too, and a
spy on the mirror check shows which path each product took.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import isqrt, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegelops import qexp
from siegelops.qexp import QExp1, QExp2, _mirror_sign, _mul_terms
from siegelops.theta import char_from_text, tnull_qexp, theta_qexp


def cleared(t: dict) -> tuple[int, dict]:
    """(d, integer numerators over d) of a Fraction dict."""
    d = lcm(*{c.denominator for c in t.values()})
    return d, {k: c.numerator * (d // c.denominator) for k, c in t.items()}


def expansion(t: dict, trunc: int, genus: int):
    """The unchecked expansion of t's cleared numerators (the kernel's operand)."""
    cls = QExp1 if genus == 1 else QExp2
    return cls._checked(*cleared(t), Fraction(0), trunc, 0, False)


def _genus(*ts: dict) -> int:
    """The genus of the keys of ts, 2 when they hold none."""
    keys = [k for t in ts for k in t]
    return 1 if keys and len(keys[0]) == 1 else 2


def kernel(ta: dict, tb: dict, trunc: int) -> dict:
    """_mul_terms on the expansions of the cleared integer numerators of two
    Fraction dicts, the product's numerators read back over the product of
    the denominators."""
    g = _genus(ta, tb)
    x, y = expansion(ta, trunc, g), expansion(tb, trunc, g)
    return {k: Fraction(v, x._den * y._den) for k, v in _mul_terms(x, y, trunc).items()}


def square(t: dict, trunc: int) -> dict:
    """kernel(t, t, trunc) with one expansion passed as both operands."""
    x = expansion(t, trunc, _genus(t))
    return {k: Fraction(v, x._den * x._den) for k, v in _mul_terms(x, x, trunc).items()}


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


def mirrored(t: dict, sign: int) -> dict:
    """t with each term's mirror (gamma, beta, alpha) set to sign times it
    (the later of two mirror partners wins); sign -1 drops the alpha = gamma
    terms, which an antisymmetric operand cannot have."""
    out = {}
    for (a, b, g2), c in t.items():
        if a != g2 or sign > 0:
            out[(a, b, g2)], out[(g2, b, a)] = c, sign * c
    return out


@contextmanager
def mirror_signs():
    """The list of the values the kernel's mirror check returns in the block."""
    seen = []

    def spy(groups):
        seen.append(_mirror_sign(groups))
        return seen[-1]

    with mock.patch.object(qexp, "_mirror_sign", spy):
        yield seen


def within(t: dict, trunc: int) -> dict:
    return {k: c for k, c in t.items() if k[0] + k[2] <= trunc}


signs = st.sampled_from([1, -1])
# truncation 0, an odd one, or any; operand2 puts terms exactly at it
mirror_truncs = st.one_of(st.just(0), st.integers(0, 5).map(lambda n: 2 * n + 1),
                          st.integers(0, 10))


@st.composite
def mirror_case(draw):
    trunc = draw(mirror_truncs)
    sa, sb = draw(signs), draw(signs)
    return (mirrored(draw(operand2(trunc)), sa), sa,
            mirrored(draw(operand2(trunc)), sb), sb, trunc)


@settings(max_examples=150, deadline=None)
@given(mirror_case())
# sym x anti: the output's alpha = gamma groups cancel
@example(({(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(1)}, 1,
          {(0, 1, 1): Fraction(2), (1, 1, 0): Fraction(-2)}, -1, 2))
def test_mirrored_operands_match_naive_convolution(case):
    """sym x sym, anti x anti and sym x anti take the half path (each nonempty
    operand's check returns its sign) and agree with the reference."""
    ta, sa, tb, sb, trunc = case
    want = naive_mul2(ta, tb, trunc)
    with mirror_signs() as seen:
        assert kernel(ta, tb, trunc) == want
    if within(ta, trunc) and within(tb, trunc):
        assert seen == [sa, sb]
    assert all(want.get((g2, b, a)) == sa * sb * c for (a, b, g2), c in want.items())


@settings(max_examples=100, deadline=None)
@given(st.tuples(mirror_truncs, signs).flatmap(
    lambda ts: st.tuples(operand2(ts[0]).map(lambda t: mirrored(t, ts[1])),
                         st.just(ts[1]), st.just(ts[0]))))
def test_mirrored_squares_match_naive_convolution(case):
    t, sign, trunc = case
    with mirror_signs() as seen:
        assert square(t, trunc) == naive_mul2(t, t, trunc)
    if within(t, trunc):
        assert seen == [sign]


@settings(max_examples=100, deadline=None)
@given(mirror_case(), st.data())
def test_a_broken_mirror_takes_the_full_path(case, data):
    """Negative control: one coefficient off the alpha = gamma line doubled
    breaks the mirror, so the check returns 0 and the product is made in full."""
    ta, sa, tb, _, trunc = case
    off = sorted(k for k in within(ta, trunc) if k[0] != k[2])
    if not off:
        return
    k = data.draw(st.sampled_from(off))
    ta = {**ta, k: 2 * ta[k]}
    with mirror_signs() as seen:
        assert square(ta, trunc) == naive_mul2(ta, ta, trunc)
        assert kernel(ta, tb, trunc) == naive_mul2(ta, tb, trunc)
    assert seen == [0, 0] if within(tb, trunc) else seen == [0]


def test_a_mirror_shifted_in_beta_takes_the_full_path():
    """Rows that are equal packed ints from different lowest slots (beta 0
    at (0, 1), beta 8 at (1, 0)) are not mirrors of each other."""
    t = {(0, 0, 1): Fraction(1), (1, 8, 0): Fraction(1), (1, 0, 1): Fraction(3)}
    with mirror_signs() as seen:
        assert square(t, 4) == naive_mul2(t, t, 4)
    assert seen == [0]


def test_siegel_forms_take_the_half_path():
    """The theta-null product T, its square and D T = T_{11,22} - T_{12,12} are
    symmetric under the mirror; theta[10,00] alone is not (it takes the full
    path), and a mirrored antisymmetric operand has sign -1."""
    t = tnull_qexp(48)
    d = t.q_diff(1, 1).q_diff(2, 2) - t.q_diff(1, 2).q_diff(1, 2)
    for f in (t, t * t, d):
        with mirror_signs() as seen:
            f * f
        assert seen == [1]
    with mirror_signs() as seen:
        t * d
    assert seen == [1, 1]
    th = theta_qexp(2, char_from_text("10,00"), 48)
    with mirror_signs() as seen:
        th * t
        t * th
    assert seen == [0, 1, 0]
    anti = QExp2(mirrored(dict(th.terms), -1), th.weight, th.trunc)
    with mirror_signs() as seen:
        anti * t
    assert seen == [-1, 1]


@contextmanager
def groupings():
    """The (numerators, truncation) of each grouping the kernel makes in the
    block."""
    made = []
    real = qexp._rows

    def spy(nums, trunc, lay):
        made.append((nums, trunc))
        return real(nums, trunc, lay)

    with mock.patch.object(qexp, "_rows", spy):
        yield made


@settings(max_examples=150, deadline=None)
@given(genus2_case())
def test_a_reused_grouping_matches_naive_convolution(case):
    """An operand is grouped once per truncation: a square and then products
    with it reuse its rows, as apply's two products of F do, and every
    result agrees with the reference."""
    ta, tb, trunc = case
    x, y = expansion(ta, trunc, 2), expansion(tb, trunc, 2)
    (da, na), (db, nb) = (x._den, x._nums), (y._den, y._nums)
    with groupings() as made:
        aa = _mul_terms(x, x, trunc)
        ab = _mul_terms(x, y, trunc)
        ba = _mul_terms(y, x, trunc)
    assert {k: Fraction(v, da * da) for k, v in aa.items()} == naive_mul2(ta, ta, trunc)
    want = naive_mul2(ta, tb, trunc)
    assert {k: Fraction(v, da * db) for k, v in ab.items()} == want
    assert {k: Fraction(v, da * db) for k, v in ba.items()} == want
    if na and nb:
        assert made == [(na, trunc), (nb, trunc)]


@pytest.mark.parametrize("genus", [1, 2])
def test_a_grouping_is_not_reused_at_another_truncation(genus):
    """F F at F's truncation, then F times an operand of lower truncation:
    that product is truncated lower, so F is grouped again, and both
    products agree with the reference."""
    if genus == 2:
        f, naive = tnull_qexp(48), naive_mul2
    else:
        f = QExp1({(n,): Fraction(n % 7 - 3, n % 5 + 1) for n in range(0, 49, 3)}, trunc=48)
        naive = lambda ta, tb, trunc: {(n,): c for n, c in naive_mul1(
            {k[0]: c for k, c in ta.items()}, {k[0]: c for k, c in tb.items()}, trunc).items()}
    g = f.truncate(40)
    with groupings() as made:
        ff, fg = f * f, f * g
    assert [(nums is f._nums, trunc) for nums, trunc in made] == [
        (True, 48), (True, 40), (False, 40)]
    assert ff.terms == naive(f.terms, f.terms, 48)
    assert fg.terms == naive(f.terms, g.terms, 40)


def test_an_operand_keeps_its_grouping_across_other_products():
    """f f, g g, then f g: the third product reuses the groupings of the
    first two, though neither was an operand of the product before it."""
    f, g = tnull_qexp(48), theta_qexp(2, char_from_text("00,00"), 48)
    with groupings() as made:
        ff, gg, fg = f * f, g * g, f * g
    assert [nums is f._nums for nums, _ in made] == [True, False]
    assert [nums is g._nums for nums, _ in made] == [False, True]
    assert fg.terms == naive_mul2(f.terms, g.terms, 48)
    assert ff.terms == naive_mul2(f.terms, f.terms, 48)
    assert gg.terms == naive_mul2(g.terms, g.terms, 48)
