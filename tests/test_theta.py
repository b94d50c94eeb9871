"""Tests for theta characteristics, exact expansions, and the numeric lab."""

import cmath
import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from siegelops import qexp, theta
from siegelops.brackets import delta1_qexp, eis1_qexp, eta_power_qexp
from siegelops.theta import (ThetaChar, _arithmetic_lift, _as_matrix, _check_tau, _grid,
                             _lattice_sums, _orbit_sum, _pick_radius, _theta8, _tnull_derivatives,
                             all_chars, char_from_text, check_condition_star, check_heat,
                             check_modularity, even_chars, form_tnull, form_operator_tnull,
                             gamma_J, gamma_translation, gamma_gl, minus_64_eta9_theta,
                             odd_chars, schottky_qexp, symplectic_act, theta_numeric,
                             theta_pow8_sum, theta_qexp, tnull_product, tnull_qexp)


def eval_numeric(series, tau) -> complex:
    """The genus-2 expansion series summed at the period matrix tau, term by
    term (the stripped (2 pi i)-power is not reinstated: multiply by
    (2 pi i)**tau_factor to compare with true derivative values)."""
    t11, t12, t22 = complex(tau[0][0]), complex(tau[0][1]), complex(tau[1][1])
    return sum(float(c) * cmath.exp(2j * cmath.pi * (a * t11 + b * t12 + g2 * t22) / qexp.SCALE)
               for (a, b, g2), c in sorted(series.terms.items()))


def test_parity_examples():
    assert ThetaChar((0, 0), (1, 1)).is_even()
    assert not ThetaChar((1, 1), (1, 0)).is_even()
    assert char_from_text("01,10").is_even()


def test_characteristic_checks_its_halves():
    with pytest.raises(ValueError, match="^characteristic halves have different lengths$"):
        ThetaChar((0, 1), (0,))
    with pytest.raises(ValueError, match="^characteristic entries must be 0 or 1$"):
        ThetaChar((0, 2), (0, 0))
    with pytest.raises(ValueError, match="^characteristic entries must be 0 or 1$"):
        ThetaChar((0,), (1,))._replace(delta=(2,))


def test_characteristics_order_print_and_key_by_their_halves():
    chars = all_chars(2)
    assert sorted(reversed(chars)) == chars
    assert [str(c) for c in chars] == [f"{e},{d}" for e in ("00", "01", "10", "11")
                                       for d in ("00", "01", "10", "11")]
    assert repr(chars[6]) == "ThetaChar(eps=(0, 1), delta=(1, 0))"
    assert all(repr(c) == f"ThetaChar(eps={c.eps!r}, delta={c.delta!r})" for c in chars)
    keys = {c: i for i, c in enumerate(chars)}
    assert [keys[char_from_text(str(c))] for c in chars] == list(range(16))
    assert ThetaChar((0,), (1,)) < ThetaChar((1,), (0,)) and len(set(chars + chars)) == 16


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_characteristic_counts(g):
    assert len(even_chars(g)) == 2 ** (g - 1) * (2 ** g + 1)
    assert len(odd_chars(g)) == 2 ** (g - 1) * (2 ** g - 1)
    assert len(all_chars(g)) == 4 ** g


def _lattice_oracle(char, trunc, box=3):
    """Direct genus-2 lattice sum over |n|_inf <= box, written independently."""
    out = {}
    for n1 in range(-box, box + 1):
        for n2 in range(-box, box + 1):
            m1 = Fraction(2 * n1 + char.eps[0], 2)
            m2 = Fraction(2 * n2 + char.eps[1], 2)
            key = (int(8 * m1 * m1 / 2), int(8 * m1 * m2), int(8 * m2 * m2 / 2))
            if key[0] + key[2] > trunc:
                continue
            ed = char.eps[0] * char.delta[0] + char.eps[1] * char.delta[1]
            sign = (-1) ** ((n1 * char.delta[0] + n2 * char.delta[1]) % 2)
            sign *= (-1) ** ((ed // 2) % 2)
            out[key] = out.get(key, 0) + sign
    return {k: Fraction(v) for k, v in out.items() if v}


@pytest.mark.parametrize("char", even_chars(2), ids=str)
def test_theta_qexp_matches_direct_lattice_sum(char):
    assert theta_qexp(2, char, 32).terms == _lattice_oracle(char, 32)


def test_theta00_leading_terms():
    t = theta_qexp(2, ThetaChar((0, 0), (0, 0)), 16)
    assert t.terms[(0, 0, 0)] == 1
    assert t.terms[(4, 0, 0)] == 2
    assert t.terms[(0, 0, 4)] == 2
    assert t.terms[(4, 8, 4)] == 2
    assert t.terms[(4, -8, 4)] == 2


@pytest.mark.parametrize("trunc", [0, 1, 7, 8, 48, 200])
def test_builders_pass_the_public_check(trunc):
    """The builders skip the term check, so their outputs, rebuilt through
    the public constructor, must come back equal: every key keeps the
    invariants, every coefficient is a nonzero int over den = 1."""
    built = [theta_qexp(g, c, trunc) for g in (1, 2) for c in all_chars(g)]
    built += [tnull_qexp(trunc), eis1_qexp(4, trunc), eis1_qexp(6, trunc),
              eta_power_qexp(3, trunc),
              _arithmetic_lift(lambda n, l: (n + 2 * l) % 5 - 2, 4, 8, trunc)]
    for f in built:
        assert type(f)(dict(f.terms), f.weight, f.trunc, f.tau_factor, f.character) == f
        assert f._den == 1 and all(type(v) is int and v for v in f._nums.values())
    for c in odd_chars(1) + odd_chars(2):
        f = theta_qexp(c.g, c, trunc)
        assert (f._den, f._nums) == (1, {})


def test_builders_reject_a_negative_truncation():
    for build in (lambda: eis1_qexp(4, -1), lambda: eta_power_qexp(3, -1),
                  lambda: theta_qexp(2, ThetaChar((0, 0), (0, 0)), -1), lambda: tnull_qexp(-1)):
        with pytest.raises(ValueError):
            build()


def test_odd_characteristics_vanish():
    for c in odd_chars(2):
        f = theta_qexp(2, c, 24)
        assert f.is_zero()
    assert theta_qexp(1, ThetaChar((1,), (1,)), 24).is_zero()


def test_genus1_series():
    t = theta_qexp(1, ThetaChar((0,), (0,)), 40)
    assert dict(t.terms) == {(0,): Fraction(1), (4,): Fraction(2), (16,): Fraction(2),
                             (36,): Fraction(2)}


def test_tnull_properties(t2_48):
    assert t2_48.weight == 5
    assert t2_48.character
    assert t2_48.fj_order() == Fraction(1, 2)
    assert t2_48.fj_slice(Fraction(1, 2))
    assert (t2_48 * t2_48).terms == (t2_48 ** 2).terms


@pytest.mark.parametrize("g", [1, 2])
def test_schottky_vanishes(g):
    assert schottky_qexp(g, 48).is_zero()


def _direct_sums(g: int, trunc: int) -> tuple:
    """(sum theta_m^8, sum theta_m^16) with every even characteristic's
    powers multiplied out."""
    e8 = [theta_qexp(g, c, trunc) ** 8 for c in even_chars(g)]
    return sum(e8[1:], e8[0]), sum((f * f for f in e8[1:]), e8[0] * e8[0])


def test_schottky_wrong_normalization_nonzero():
    """Dropping the 1/2^(2g) factor must break the vanishing (negative control)."""
    g = 2
    sum8, sum16 = _direct_sums(g, 24)
    wrong = sum16.scale_coeff(Fraction(1, 2 ** g)) - sum8 * sum8
    assert not wrong.is_zero()


@pytest.mark.parametrize("g,trunc", [(2, 48), (2, 80), (1, 48), (1, 400)])
def test_orbit_sums_equal_the_direct_sums(g, trunc):
    """Both power sums, not only J (zero on both sides), match the ten (or
    three) characteristics multiplied out."""
    e8 = _theta8(g, trunc)
    assert (_orbit_sum(g, e8), _orbit_sum(g, [f * f for f in e8])) == _direct_sums(g, trunc)


@pytest.mark.parametrize("trunc,terms,digest", [
    (80, 590, "8832f911a0e8a739e0819eb5929c1274b7f64a2f707dcc9f1698363c8248caf6"),
    (120, 1908, "ab5bb4fd61258dbd7f348af3b75aaddec8906d94d44711b85d3ea5716f599297"),
])
def test_theta_pow8_sum_is_pinned(trunc, terms, digest):
    """The SMF1 bytes of the sum of the eighth powers, pinned from the
    build that also made the 16th powers."""
    f = theta_pow8_sum(trunc)
    assert len(f.terms) == terms
    assert hashlib.sha256(f.to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize("trunc", [48, 80])
def test_theta_01_is_theta_10_swapped(trunc):
    t10 = theta_qexp(2, ThetaChar((1, 0), (0, 0)), trunc)
    t01 = theta_qexp(2, ThetaChar((0, 1), (0, 0)), trunc)
    assert t01.terms == {(c, b, a): v for (a, b, c), v in t10.terms.items()}


def _products(monkeypatch) -> list:
    """The list each later product appends to: True for a square."""
    made = []

    def counted(x, y, n, mul=qexp._mul_terms):
        made.append(x._nums is y._nums)
        return mul(x, y, n)

    monkeypatch.setattr(qexp, "_mul_terms", counted)
    return made


@pytest.mark.parametrize("g,trunc,products", [(2, 80, 13), (1, 400, 9)])
def test_schottky_product_count(g, trunc, products, monkeypatch):
    """Three (two) orbit representatives of four squarings each, and the
    square of the sum: every product is a square."""
    made = _products(monkeypatch)
    assert schottky_qexp(g, trunc).is_zero()
    assert made == [True] * products


def test_theta_pow8_sum_product_count(monkeypatch):
    """Three orbit representatives of three squarings each, and no 16th
    power: 9 products, every one a square."""
    made = _products(monkeypatch)
    assert not theta_pow8_sum(80).is_zero()
    assert made == [True] * 9


def test_schottky_wrong_orbit_size_nonzero(monkeypatch):
    """The orbit of eps = 00 counted twice, not four times (negative control)."""
    (eps, _, kernel), *rest = theta._ORBITS[2]
    monkeypatch.setitem(theta._ORBITS, 2, ((eps, 2, kernel), *rest))
    assert not schottky_qexp(2, 48).is_zero()


def test_schottky_changed_theta_coefficient_nonzero(monkeypatch):
    """One coefficient of theta[11, 00] off by one (negative control)."""
    def changed(g, char, trunc, orig=theta.theta_qexp):
        f = orig(g, char, trunc)
        if char != ThetaChar((1, 1), (0, 0)):
            return f
        terms = dict(f.terms)
        terms[(1, 2, 1)] += 1
        return type(f)(terms, f.weight, f.trunc)

    monkeypatch.setattr(theta, "theta_qexp", changed)
    assert not schottky_qexp(2, 48).is_zero()


def test_theta_numeric_classical_value():
    got = theta_numeric(1, ThetaChar((0,), (0,)), [[1j]])
    expect = math.pi ** 0.25 / math.gamma(0.75)
    assert abs(got - expect) < 1e-12
    # two tail tolerances agree
    a = theta_numeric(1, ThetaChar((0,), (0,)), [[1j]], tol=1e-12)
    b = theta_numeric(1, ThetaChar((0,), (0,)), [[1j]], tol=1e-15)
    assert abs(a - b) < 1e-12


def test_odd_theta_numeric_zero():
    tau = [[0.3 + 1.1j, 0.1j], [0.1j, 1.4j]]
    for c in odd_chars(2):
        assert abs(theta_numeric(2, c, tau)) < 1e-12


def test_tau_derivative_against_finite_difference():
    c = ThetaChar((0, 0), (1, 0))
    tau0 = [[1.2j, 0.15 + 0.1j], [0.15 + 0.1j, 1.5j]]
    h = 1e-5
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        d = theta_numeric(2, c, tau0, d_tau=((i, j),))
        taup = [row[:] for row in tau0]
        taum = [row[:] for row in tau0]
        taup[i - 1][j - 1] += h
        taum[i - 1][j - 1] -= h
        if i != j:
            taup[j - 1][i - 1] += h
            taum[j - 1][i - 1] -= h
        fd = (theta_numeric(2, c, taup) - theta_numeric(2, c, taum)) / (2 * h)
        assert abs(d - fd) / abs(d) < 1e-6


def test_series_agrees_with_lattice_sum():
    """The truncated expansion evaluated numerically matches the lattice sum."""
    tau = [[2.2j, 0.05j], [0.05j, 2.5j]]
    for c in even_chars(2):
        series = eval_numeric(theta_qexp(2, c, 48), tau)
        direct = theta_numeric(2, c, tau)
        assert abs(series - direct) / abs(direct) < 1e-10


def test_heat_equation_residuals():
    rep = check_heat(1, ThetaChar((1,), (0,)), [[2j]], [0.3 + 0.1j])
    assert rep.max_residual < 1e-10
    rep = check_heat(2, ThetaChar((0, 0), (1, 1)), [[2j, 0j], [0j, 3j]], [0, 0])
    assert rep.max_residual < 1e-10


def test_heat_without_two_pi_i_fails():
    """Scale control: omitting 2 pi i leaves an O(1) mismatch."""
    c = ThetaChar((1,), (0,))
    tau, z = [[1.3j]], [0.2 + 0.1j]
    zz = theta_numeric(1, c, tau, z, d_z=(1, 1))
    tt = theta_numeric(1, c, tau, z, d_tau=((1, 1),))
    assert abs(zz - 2 * tt) > 0.1  # correct factor is 2j*pi*(1+1)


def test_product_rule_aggregation(t2_48):
    """Log-derivative gradient of the product vs direct product differentiation."""
    import random
    rng = random.Random(11)
    for _ in range(3):
        y3 = rng.uniform(-0.2, 0.2)
        tau = [[complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.6)), complex(0.1, y3)],
               [complex(0.1, y3), complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.6))]]
        pairs = [(1, 1), (1, 2), (2, 2)]
        got, _, _ = _tnull_derivatives(tau, [()] + [(p,) for p in pairs])
        for (i, j) in pairs:
            sym = 0.5 if i != j else 1.0
            direct = 0j
            for c in even_chars(2):
                part = sym * theta_numeric(2, c, tau, d_tau=((i, j),))
                for cc in even_chars(2):
                    if cc != c:
                        part *= theta_numeric(2, cc, tau)
                direct += part
            assert abs(direct - got[(i, j),]) < 1e-9 * max(1.0, abs(got[()]))


def test_modularity_with_character():
    import numpy as np
    tau = [[0.2 + 1.7j, 0.1 + 0.08j], [0.1 + 0.08j, -0.1 + 1.9j]]
    t2 = form_tnull(1)
    rep = check_modularity(t2, gamma_translation(np.array([[1, 0], [0, 0]])), tau)
    assert rep.rel_err < 1e-8 and rep.sign in (-1, 1)
    t2sq = form_tnull(2)
    for gam in (gamma_J(2), gamma_gl(np.array([[0, 1], [1, 0]]))):
        rep = check_modularity(t2sq, gam, tau)
        assert rep.rel_err < 1e-8 and rep.sign == 1


def test_operator_form_matches_exact_expansion(t2_48):
    """Numeric operator values agree with the exact expansion (times (2 pi i)^2)."""
    from siegelops.jets import jet_apply
    from siegelops.opgen import build_Q
    from siegelops.qexp import eval_jetpoly
    tau = [[2.4j, 0.1j], [0.1j, 2.6j]]
    for a in (3, 5, 8):
        jet = jet_apply(build_Q(2, Fraction(a)).Q, {1: "F", 2: "F"}, 2)
        series = eval_jetpoly(jet, {"F": t2_48}).scale_coeff(Fraction(1, 2))
        series_val = eval_numeric(series, tau) * (2j * math.pi) ** series.tau_factor
        direct = form_operator_tnull(a).eval(tau)
        assert abs(series_val - direct) / abs(direct) < 1e-9, a


def test_operator_form_sums_six_theta_derivatives_per_characteristic(monkeypatch):
    """One evaluation is one lattice batch of the value, the three first
    derivatives, (11,22) and (12,12) of each even theta constant: the sums
    the operator's jet reads, and no full Hessian."""
    from siegelops import theta
    batches = []

    def counting(g, tau, z, requests, *args):
        batches.append(list(requests))
        return _lattice_sums(g, tau, z, requests, *args)

    form = form_operator_tnull(5)
    monkeypatch.setattr(theta, "_lattice_sums", counting)
    form.eval([[1.1 + 1.3j, 0.1 + 0.05j], [0.1 + 0.05j, -0.2 + 1.4j]])
    assert len(batches) == 1 and len(batches[0]) == 60
    pairs = [(1, 1), (1, 2), (2, 2)]
    wanted = [(), *((p,) for p in pairs), ((1, 1), (2, 2)), ((1, 2), (1, 2))]
    for c in even_chars(2):
        assert sorted(d for cc, d, dz in batches[0] if cc == c and dz == ()) == sorted(wanted)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_tnull_power_is_the_product_of_the_ten_theta_values(power, monkeypatch):
    """T^p, read as the jet F^p, is the p-th power of the product of the ten
    even theta values, from one lattice batch of their ten values, at the
    points of verify modularity."""
    import random
    from siegelops import theta
    from siegelops.cli import _random_tau
    rng = random.Random(0)
    taus = [_random_tau(rng, 2) for _ in range(3)]
    want = [math.prod(theta_numeric(2, c, tau) for c in even_chars(2)) ** power
            for tau in taus]
    batches = []

    def counting(g, tau, z, requests, *args):
        batches.append(list(requests))
        return _lattice_sums(g, tau, z, requests, *args)

    form = form_tnull(power)
    monkeypatch.setattr(theta, "_lattice_sums", counting)
    for tau, w in zip(taus, want):
        batches.clear()
        assert abs(form.eval(tau) - w) < 1e-13 * abs(w)
        assert len(batches) == 1 and len(batches[0]) == 10
    assert (form.weight, form.character) == (5 * power, power % 2 == 1)


def test_condition_star_points():
    rep = check_condition_star([[1.1j, 0], [0, 1.7j]])
    assert abs(rep.det_value) > 1e-6
    assert rep.vanishing_char == ThetaChar((1, 1), (1, 1))
    rep2 = check_condition_star([[0.25 + 1.05j, 0], [0, -0.35 + 1.45j]])
    assert abs(rep2.det_value) > 1e-6


def test_condition_star_rejects_generic_point():
    with pytest.raises(ValueError):
        check_condition_star([[1.1j, 0.3 + 0.2j], [0.3 + 0.2j, 1.7j]])


def _reference_condition(tau):
    """det(grad theta_*) * prod_{c != *} theta_c^2 from two lattice batches,
    the gradient of the vanishing theta_* symmetrized and divided by 2 pi i."""
    values, _ = _lattice_sums(2, tau, None, [(c, (), ()) for c in even_chars(2)])
    vals = dict(zip(even_chars(2), values))
    star = min(vals, key=lambda c: abs(vals[c]))
    pairs = [(1, 1), (1, 2), (2, 2)]
    grads, _ = _lattice_sums(2, tau, None, [(star, (p,), ()) for p in pairs])
    m = {p: (0.5 if p[0] != p[1] else 1.0) * v / (2j * math.pi) for p, v in zip(pairs, grads)}
    rest = math.prod(v ** 2 for c, v in vals.items() if c != star)
    return (m[1, 1] * m[2, 2] - m[1, 2] ** 2) * rest


def _condition_points():
    """The two CLI default points, the second point of test_condition_star_points
    and ten seeded diagonal points with Im tau_ii in [0.9, 1.45]."""
    import random
    rng = random.Random(7)
    points = [[[1.1j, 0], [0, 1.7j]], [[0.9j, 0], [0, 1.45j]],
              [[0.25 + 1.05j, 0], [0, -0.35 + 1.45j]]]
    for _ in range(10):
        points.append([[complex(rng.uniform(-0.35, 0.35), rng.uniform(0.9, 1.45)), 0],
                       [0, complex(rng.uniform(-0.35, 0.35), rng.uniform(0.9, 1.45))]])
    return points


def test_condition_star_is_the_vanishing_factors_gradient_determinant():
    """The jet det(dF) read on T equals det(grad theta_*) prod theta_c^2."""
    for tau in _condition_points():
        got, want = check_condition_star(tau).det_value, _reference_condition(tau)
        assert abs(got - want) <= 1e-12 * abs(want), tau


def test_condition_star_with_a_wrong_jet_fails(monkeypatch):
    """Negative control: F_11 F_22 + F_12^2 in place of det(dF) disagrees."""
    from siegelops import jets

    def first(p):
        return jets.JetPoly({(jets.jet_var("F", (p,)),): Fraction(1)})

    wrong = first((1, 1)) * first((2, 2)) + first((1, 2)) ** 2
    monkeypatch.setattr(jets, "jet_det_partial", lambda symbol, g, field="Q": wrong)
    for tau in _condition_points():
        got, want = check_condition_star(tau).det_value, _reference_condition(tau)
        assert abs(got - want) > 1e-6 * abs(want), tau


def test_theta8_sum_has_order_zero():
    f = theta_pow8_sum(24)
    assert f.weight == 4
    assert f.fj_order() == 0


def test_theta_numeric_rejects_bad_tau():
    with pytest.raises(ValueError):
        theta_numeric(1, ThetaChar((0,), (0,)), [[-1j]])
    with pytest.raises(ValueError):
        theta_numeric(2, ThetaChar((0, 0), (0, 0)), [[1j, 5j], [5j, 1j]])


def test_modularity_inconclusive_near_zero_locus():
    # any diagonal period matrix lies on the zero locus of the product
    rep = check_modularity(form_tnull(1), gamma_J(2), [[1.1j, 0], [0, 1.7j]])
    assert rep.inconclusive


# -- the batched lattice kernel against the per-point loop ------------------------


def _reference_theta(g, char, tau, z=None, d_tau=(), d_z=(), tol=1e-12):
    """Per-point lattice sum over the box of _pick_radius: the kernel's oracle."""
    tau = _as_matrix(tau)
    lam_min = _check_tau(tau)
    z = [complex(v) for v in (z or [0.0] * g)]
    z_shift = max(abs(v.imag) for v in z)
    radius = _pick_radius(lam_min, g, len(d_tau), len(d_z), z_shift, tol)
    eps, delta = char.eps, char.delta
    taus = [[complex(tau[i, j]) for j in range(g)] for i in range(g)]
    total = 0j
    pi_i = 1j * math.pi
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        m = [n[i] + eps[i] / 2.0 for i in range(g)]
        quad = 0j
        for i in range(g):
            mi = m[i]
            if not mi:
                continue
            quad += mi * mi * taus[i][i]
            for j in range(i + 1, g):
                quad += 2 * mi * m[j] * taus[i][j]
        lin = sum(2 * m[i] * (z[i] + delta[i] / 2.0) for i in range(g))
        term = cmath.exp(pi_i * (quad + lin))
        for (i, j) in d_tau:
            term *= pi_i * (2 - (i == j)) * m[i - 1] * m[j - 1]
        for i in d_z:
            term *= 2 * pi_i * m[i - 1]
        total += term
    return total


def _close(new, old):
    return abs(new - old) <= 1e-12 * max(1.0, abs(old))


KERNEL_POINTS = {
    1: ([[0.2 + 1.1j]], [0.1 + 0.07j]),
    2: ([[0.3 + 1.2j, 0.1 + 0.15j], [0.1 + 0.15j, -0.2 + 1.4j]], [0.1 + 0.07j, -0.2 - 0.1j]),
}


def _derivative_orders(g):
    pairs = [(i, j) for i in range(1, g + 1) for j in range(1, g + 1)]  # both index orders
    d_taus = [()] + [(p,) for p in pairs] + [(p, q) for p in pairs for q in pairs if p <= q]
    d_zs = [()] + [(i,) for i in range(1, g + 1)] + [(i, j) for i in range(1, g + 1)
                                                     for j in range(1, g + 1)]
    return d_taus, d_zs


@pytest.mark.parametrize("char", all_chars(1) + all_chars(2), ids=lambda c: f"g{c.g}-{c}")
def test_kernel_matches_per_point_loop(char):
    g = char.g
    tau, z = KERNEL_POINTS[g]
    d_taus, d_zs = _derivative_orders(g)
    for d_tau in d_taus:
        for d_z in d_zs:
            old = _reference_theta(g, char, tau, z, d_tau, d_z)
            new = theta_numeric(g, char, tau, z, d_tau=d_tau, d_z=d_z)
            assert _close(new, old), (d_tau, d_z, new, old)


# an even symmetric B added to Re tau and an integral k added to Re z
SHIFTS = {1: ([[-6]], [3]), 2: ([[2, -4], [-4, 6]], [1, -2])}


@pytest.mark.parametrize("char", all_chars(1) + all_chars(2), ids=lambda c: f"g{c.g}-{c}")
def test_real_parts_are_reduced_by_exact_identities(char):
    """theta(tau + B, z + k) = (-1)^(eps.k) i^(eps^T B eps / 2) theta(tau, z)
    for every derivative, and the kernel, which sums at the reduced point,
    agrees with the per-point loop at the shifted one."""
    g, eps = char.g, char.eps
    tau, z = KERNEL_POINTS[g]
    b, k = SHIFTS[g]
    tau_b = [[tau[i][j] + b[i][j] for j in range(g)] for i in range(g)]
    z_k = [v + s for v, s in zip(z, k)]
    quad = sum(eps[i] * eps[j] * b[i][j] for i in range(g) for j in range(g))
    phase = (-1) ** sum(e * s for e, s in zip(eps, k)) * 1j ** (quad // 2 % 4)
    d_taus, d_zs = _derivative_orders(g)
    for d_tau in d_taus:
        for d_z in d_zs:
            got = theta_numeric(g, char, tau_b, z_k, d_tau=d_tau, d_z=d_z)
            at = theta_numeric(g, char, tau, z, d_tau=d_tau, d_z=d_z)
            assert _close(got, phase * at), (d_tau, d_z, got, at)
            oracle = _reference_theta(g, char, tau_b, z_k, d_tau, d_z)
            assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle)), (d_tau, d_z)


@pytest.mark.parametrize("g", [1, 2])
def test_batch_radius_is_the_largest_request_radius(g):
    tau, z = KERNEL_POINTS[g]
    d_taus, d_zs = _derivative_orders(g)
    requests = [(char, d_tau, d_z) for char in all_chars(g)
                for d_tau in d_taus[::2] for d_z in d_zs[::2]]
    values, box = _lattice_sums(g, tau, z, requests)
    lam_min = _check_tau(_as_matrix(tau))
    z_shift = max(abs(v.imag) for v in z)
    singles = [_lattice_sums(g, tau, z, [req]) for req in requests]
    assert box.radius == max(_pick_radius(lam_min, g, len(dt), len(dz), z_shift, 1e-12)
                             for _, dt, dz in requests)
    assert all(box.radius >= single_box.radius for _, single_box in singles)
    assert box.points == (2 * box.radius + 1) ** g and box.tol == 1e-12
    for value, (single, _) in zip(values, singles):
        assert _close(value, single[0])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tnull_derivatives_match_the_per_point_loop(seed):
    """Every derivative of T of order <= 2, the (1,1),(1,1) one that the
    operator's jet does not read among them, against the Leibniz rule on
    oracle theta sums."""
    import random
    rng = random.Random(seed)
    y3 = rng.uniform(-0.2, 0.2)
    tau = [[complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.6)), complex(0.1, y3)],
           [complex(0.1, y3), complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.6))]]
    chars = even_chars(2)
    pairs = [(1, 1), (1, 2), (2, 2)]
    sym = {p: 0.5 if p[0] != p[1] else 1.0 for p in pairs}
    v = {c: _reference_theta(2, c, tau) for c in chars}
    d1 = {(c, p): sym[p] * _reference_theta(2, c, tau, d_tau=(p,)) for c in chars for p in pairs}

    def others(*skip):
        return math.prod(v[c] for c in chars if c not in skip)

    second = [(pa, pb) for pa in pairs for pb in pairs if pa <= pb]
    got, thetas, box = _tnull_derivatives(tau, [()] + [(p,) for p in pairs] + second)
    assert all(_close(t, v[c]) for t, c in zip(thetas, chars))
    assert _close(got[()], others())
    for p in pairs:
        assert _close(got[p,], sum(d1[c, p] * others(c) for c in chars))
    for pa, pb in second:
        want = sum(sym[pa] * sym[pb] * _reference_theta(2, c, tau, d_tau=(pa, pb)) * others(c)
                   for c in chars)
        want += sum(d1[c, pa] * d1[cc, pb] * others(c, cc)
                    for c in chars for cc in chars if c != cc)
        assert _close(got[pa, pb], want), (pa, pb)
    assert box.points == (2 * box.radius + 1) ** 2


@pytest.mark.parametrize("g, kwargs, name", [
    (2, {"d_tau": ((0, 0),)}, "d_tau"),
    (2, {"d_tau": ((1, 3),)}, "d_tau"),
    (1, {"d_tau": ((2, 2),)}, "d_tau"),
    (2, {"d_z": (0,)}, "d_z"),
    (2, {"d_z": (1, 3)}, "d_z"),
    (2, {"z": [0.1]}, "z"),
    (2, {"z": [0.1, 0.2, 0.3]}, "z"),
])
def test_theta_numeric_rejects_bad_indices_and_z(g, kwargs, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        theta_numeric(g, ThetaChar((0,) * g, (0,) * g), KERNEL_POINTS[g][0], **kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan), -math.inf])
@pytest.mark.parametrize("g", [1, 2])
def test_lattice_sums_reject_a_non_finite_tau_or_z(g, bad):
    """A NaN or infinite entry of tau or z is named as such, not reported as
    an asymmetric tau or summed into a NaN value."""
    tau, z = KERNEL_POINTS[g]
    request = [(ThetaChar((0,) * g, (0,) * g), (), ())]
    bad_tau = [row[:] for row in tau]
    bad_tau[-1][-1] = bad
    with pytest.raises(ValueError, match="^tau has a non-finite entry$"):
        _lattice_sums(g, bad_tau, z, request)
    with pytest.raises(ValueError, match="^z has a non-finite entry$"):
        _lattice_sums(g, tau, z[:-1] + [bad], request)
    with pytest.raises(ValueError, match="^z has a non-finite entry$"):
        theta_numeric(g, request[0][0], tau, z[:-1] + [bad])


def test_reports_state_radius_points_and_tail_tolerance():
    heat = check_heat(2, ThetaChar((0, 0), (1, 1)), [[2j, 0j], [0j, 3j]], [0.1j, 0])
    lam_min, z_shift = 2.0, 0.1
    box = heat.box
    assert box.radius == max(_pick_radius(lam_min, 2, nt, nz, z_shift, box.tol)
                             for nt, nz in ((0, 2), (1, 0)))
    assert box.points == (2 * box.radius + 1) ** 2 and box.tol == 1e-13

    tau = [[0.2 + 1.7j, 0.1 + 0.08j], [0.1 + 0.08j, -0.1 + 1.9j]]
    form = form_tnull(2)
    rep = check_modularity(form, gamma_J(2), tau)
    taup, _ = symplectic_act(gamma_J(2), tau)
    radii = [form.eval_box(t)[1].radius for t in (tau, (taup + taup.T) / 2)]
    assert rep.box.radius == max(radii) and rep.box.points == (2 * rep.box.radius + 1) ** 2
    assert rep.box.tol == 1e-12
    assert isinstance(form.eval(tau), complex)

    cond = check_condition_star([[1.1j, 0], [0, 1.7j]])
    assert cond.box == (_pick_radius(1.1, 2, 1, 0, 0.0, 1e-12),
                        (2 * cond.box.radius + 1) ** 2, 1e-12)


def test_schottky_vanishes_at_120():
    """The genus-2 degree-16 identity one truncation deeper than the N = 80
    checks of the acceptance tests."""
    assert schottky_qexp(2, 120).is_zero()


def test_schottky_vanishes_at_160():
    assert schottky_qexp(2, 160).is_zero()


# -- the numeric kernel's fixed costs -----------------------------------------------


def test_lattice_grid_is_built_once_and_read_only():
    n = _grid(2, 3)
    assert _grid(2, 3) is n and n.shape == (49, 2) and not n.flags.writeable
    with pytest.raises(ValueError):
        n[0, 0] = 5
    assert sorted(map(tuple, n.tolist())) == sorted(itertools.product(range(-3, 4), repeat=2))


def test_a_lattice_box_of_too_many_points_is_refused_before_its_grid(monkeypatch):
    """Genus 7 at radius 5 (19,487,171 points) is refused by name before
    _grid would allocate it; genus 6 at radius 5 (1,771,561) passes the cap
    and reaches _grid."""
    def no_grid(g, radius):
        raise AssertionError(f"_grid({g}, {radius}) called")

    def at_i(g):  # theta[0, 0] at tau = i times the identity
        return theta_numeric(g, ThetaChar((0,) * g, (0,) * g),
                             [[1j * (i == j) for j in range(g)] for i in range(g)])

    monkeypatch.setattr(theta, "_grid", no_grid)
    with pytest.raises(ValueError, match="^the genus-7 lattice box of radius 5 has 19487171 "
                                         "points, more than 2000000$"):
        at_i(7)
    with pytest.raises(AssertionError, match=r"^_grid\(6, 5\) called$"):
        at_i(6)


def test_each_evaluation_checks_tau_once(monkeypatch):
    """A form evaluation, a theta value and a condition check run _as_matrix
    once (the condition check in its one lattice batch), and a transformation
    check once per evaluation and once for gamma tau."""
    calls = []

    def counting(tau):
        calls.append(1)
        return _as_matrix(tau)

    monkeypatch.setattr(theta, "_as_matrix", counting)
    tau = [[0.2 + 1.3j, 0.1 + 0.08j], [0.1 + 0.08j, -0.1 + 1.4j]]
    for form in (form_tnull(2), form_operator_tnull(5)):
        calls.clear()
        form.eval(tau)
        assert len(calls) == 1
        calls.clear()
        assert not check_modularity(form, gamma_J(2), tau).inconclusive
        assert len(calls) == 3  # f(tau), gamma tau and f(gamma tau)
    calls.clear()
    theta_numeric(2, ThetaChar((0, 0), (0, 0)), tau, d_tau=((1, 2),))
    assert len(calls) == 1
    batches = []
    real = theta._lattice_sums

    def batch(*args):
        batches.append(1)
        return real(*args)

    monkeypatch.setattr(theta, "_lattice_sums", batch)
    calls.clear()
    check_condition_star([[1.1j, 0], [0, 1.7j]])
    assert len(calls) == len(batches) == 1


# -- the theta-null product as Gritsenko's lift of -64 eta^9 theta ------------------


def test_tnull_lift_equals_the_ten_theta_product():
    """The lift, term for term, at every truncation 0..64 and at 200."""
    for trunc in [*range(65), 200]:
        lift = tnull_qexp(trunc)
        assert lift == tnull_product(trunc), trunc
        assert (lift.weight, lift.character, lift.trunc) == (5, True, trunc)
    assert len(lift.terms) == 8750
    for make in (tnull_qexp, tnull_product):
        with pytest.raises(ValueError):
            make(-1)


@pytest.mark.slow
def test_tnull_lift_equals_the_ten_theta_product_at_400():
    lift = tnull_qexp(400)
    assert len(lift.terms) == 67638 and lift == tnull_product(400)


def test_first_fourier_jacobi_coefficient_is_minus_64_eta9_theta():
    """The gamma = 4 slice of the product, against -64 eta^9 theta multiplied
    out, at truncations on both sides of its first term (alpha = 4)."""
    for trunc in (0, 7, 8, 13, 120):
        want = minus_64_eta9_theta(trunc)
        assert tnull_product(trunc).fj_slice(Fraction(1, 2)) == want, trunc
    assert len(want) == 110 and want[4, 4] == -64 and want[4, -4] == 64


@pytest.mark.parametrize("trunc", [48, 200])
def test_minus_64_eta9_theta_is_the_lifts_gamma_4_slice(trunc):
    """minus_64_eta9_theta lists the Jacobi form the lift reads, so it is
    the lift's own first Fourier-Jacobi coefficient."""
    assert minus_64_eta9_theta(trunc) == tnull_qexp(trunc).fj_slice(Fraction(1, 2))


_C1, _C2 = ThetaChar((0,), (0,)), ThetaChar((0, 0), (0, 0))


_BUILDERS = pytest.mark.parametrize("build", [
    lambda n: qexp.QExp2({}, trunc=n), lambda n: qexp.QExp1({}, trunc=n),
    lambda n: qexp.QExp2.zero(trunc=n), lambda n: qexp.QExp1.zero(trunc=n),
    lambda n: qexp.QExp2.one(n), lambda n: qexp.QExp1.one(n),
    lambda n: tnull_qexp(48).truncate(n), lambda n: eis1_qexp(4, 48).truncate(n),
    lambda n: theta_qexp(2, _C2, n), lambda n: theta_qexp(1, _C1, n),
    lambda n: tnull_product(n), lambda n: tnull_qexp(n), lambda n: minus_64_eta9_theta(n),
    lambda n: theta_pow8_sum(n), lambda n: schottky_qexp(2, n), lambda n: schottky_qexp(1, n),
    lambda n: _arithmetic_lift(lambda m, l: 1, 4, 8, n),
    lambda n: eis1_qexp(4, n), lambda n: eis1_qexp(6, n), lambda n: eta_power_qexp(3, n),
    lambda n: delta1_qexp(n),
], ids=["QExp2", "QExp1", "QExp2.zero", "QExp1.zero", "QExp2.one", "QExp1.one",
        "truncate-2", "truncate-1", "theta_qexp-2", "theta_qexp-1", "tnull_product",
        "tnull_qexp", "minus_64_eta9_theta", "theta_pow8_sum", "schottky_qexp-2",
        "schottky_qexp-1", "arithmetic_lift", "eis1_qexp-4", "eis1_qexp-6", "eta_power_qexp",
        "delta1_qexp"])


@_BUILDERS
def test_every_builder_refuses_a_negative_truncation(build):
    with pytest.raises(ValueError) as err:
        build(-1)
    assert str(err.value) == "negative truncation -1"


@_BUILDERS
@pytest.mark.parametrize("trunc", [8.5, True], ids=["float", "bool"])
def test_every_builder_refuses_a_truncation_that_is_not_an_int(build, trunc):
    """A float or a bool truncation would be written to SMF1 as text the
    reader refuses; it is refused before any work."""
    with pytest.raises(ValueError) as err:
        build(trunc)
    assert str(err.value) == f"truncation {trunc} is not an integer"


def test_the_lift_at_weight_10_is_the_square_of_the_theta_null_product():
    """The lift over all (N, L, M), at weight 10 (d^9 in the divisor sum) and
    key step 8: Lift(eta^18 theta^2) = T^2 / 4096, Igusa's chi_10 up to normalization."""
    trunc = 64
    e18 = {k: int(c) for (k,), c in eta_power_qexp(18, trunc * trunc // 8).terms.items()}

    def phi(n, l):  # the coefficient of q^n r^l in eta^18 theta^2
        r = math.isqrt(8 * n)
        odd = [a for a in range(-r, r + 1) if a % 2]
        return sum((1 if a % 4 == 1 else -1) * (1 if (2 * l - a) % 4 == 1 else -1)
                   * e18.get(8 * n - a * a - (2 * l - a) ** 2, 0) for a in odd)

    lift = _arithmetic_lift(phi, 10, 8, trunc)
    square = tnull_qexp(trunc) ** 2
    assert len(lift.terms) == 280
    assert lift.scale_coeff(4096) == square.with_character(False)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_modularity_sums_its_tails_at_its_tolerance_times_1e4(tol):
    """check_modularity passes tol*1e-4 to both evaluations; at the default
    tol = 1e-8 that is the kernel's own default 1e-12."""
    tau = [[0.2 + 1.7j, 0.1 + 0.08j], [0.1 + 0.08j, -0.1 + 1.9j]]
    form = form_tnull(2)
    rep = check_modularity(form, gamma_J(2), tau, tol)
    taup, _ = symplectic_act(gamma_J(2), tau)
    boxes = [form.eval_box(t, tol * 1e-4)[1] for t in (tau, (taup + taup.T) / 2)]
    assert rep.box == max(boxes) and rep.box.tol == tol * 1e-4
    assert rep.value == form.eval_box(tau, tol * 1e-4)[0]
    default = check_modularity(form, gamma_J(2), tau)
    assert default.box.tol == 1e-12 and default.value == form.eval(tau)


_G1, _G2 = ThetaChar((0,), (0,)), ThetaChar((0, 0), (0, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: theta_qexp(3, ThetaChar((0,) * 3, (0,) * 3)),
     "^exact expansions are implemented for genus 1 and 2$"),
    (lambda: theta_qexp(2, _G1), "^characteristic genus 1 != 2$"),
    (lambda: schottky_qexp(3), "^expansions are implemented for genus 1 and 2$"),
    (lambda: theta_numeric(1, _G1, [[1j, 0]]), "^tau must be a square matrix$"),
    (lambda: theta_numeric(2, _G2, [[1j, 0.5], [0, 1j]]), "^tau must be symmetric$"),
    (lambda: theta_numeric(1, _G1, [[1e-4j]]), "^tail bound unsatisfiable at radius 60;"),
    (lambda: theta_numeric(2, _G2, [[1j]]), "^tau size does not match the genus$"),
    (lambda: theta_numeric(2, _G1, KERNEL_POINTS[2][0]), "^characteristic genus mismatch$"),
    (lambda: theta_numeric(1, _G1, [[1j]], d_z=(1, 1, 1)),
     "^derivatives are supported up to order 2$"),
    (lambda: gamma_translation([[1, 1], [0, 1]]), "^translation block must be symmetric$"),
    (lambda: gamma_gl([[2, 0], [0, 1]]), r"^block must be in GL\(g, Z\)$"),
], ids=["qexp-genus", "qexp-char-genus", "schottky-genus", "square", "symmetric", "tail",
        "tau-size", "char-genus", "order", "translation", "gl"])
def test_theta_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
