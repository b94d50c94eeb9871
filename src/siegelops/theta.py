"""Theta characteristics, exact theta-constant expansions, and float numerics.

The exact side (genus <= 2) produces lattice-sum Fourier expansions on the
integer exponent grid of qexp.py: for a characteristic (eps, delta) the
summand attached to n has scaled exponents

    alpha = (2 n1 + eps1)^2,   beta = 2 (2 n1 + eps1)(2 n2 + eps2),
    gamma = (2 n2 + eps2)^2,

and coefficient (-1)^(n . delta) i^(eps . delta), which is +-1 for even
characteristics (asserted), so even theta constants have integer expansions.
Odd theta constants vanish identically and are returned as flagged zeros.

The numeric side evaluates theta functions, their tau- and z-derivatives (up
to second order, term by term), and harnesses for the heat equation, the
modularity transformation law, and the nondegeneracy of the theta-null
gradient on its zero locus.  Double precision with explicit tail bounds;
nothing here is certified, tolerances are arguments with stated defaults.

Heat equation convention: the series satisfy

    d^2 theta / dz_i dz_j = 2 pi i (1 + delta_ij) d theta / dtau_ij,

validated analytically at genus 1 (both sides reduce to pi i n^2 summands).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable

import numpy as np

from .qexp import DEFAULT_TRUNC, QExp1, QExp2, product_balanced

TOL_HEAT = 1e-10
TOL_MODULARITY = 1e-8
TOL_ZERO = 1e-6


@dataclass(frozen=True, order=True)
class ThetaChar:
    """A characteristic: a pair of vectors in {0,1}^g."""

    eps: tuple
    delta: tuple

    def __post_init__(self):
        if len(self.eps) != len(self.delta):
            raise ValueError("characteristic halves have different lengths")
        if any(v not in (0, 1) for v in self.eps + self.delta):
            raise ValueError("characteristic entries must be 0 or 1")

    @property
    def g(self) -> int:
        return len(self.eps)

    def parity(self) -> int:
        return sum(e * d for e, d in zip(self.eps, self.delta)) % 2

    def is_even(self) -> bool:
        return self.parity() == 0

    def __str__(self):
        return "".join(map(str, self.eps)) + "," + "".join(map(str, self.delta))


def char_from_text(s: str, g: int | None = None) -> ThetaChar:
    e, _, d = s.partition(",")
    c = ThetaChar(tuple(int(v) for v in e.strip()), tuple(int(v) for v in d.strip()))
    if g is not None and c.g != g:
        raise ValueError(f"characteristic {s!r} has genus {c.g}, expected {g}")
    return c


def all_chars(g: int) -> list[ThetaChar]:
    bits = list(itertools.product((0, 1), repeat=g))
    return [ThetaChar(e, d) for e in bits for d in bits]


def even_chars(g: int) -> list[ThetaChar]:
    return [c for c in all_chars(g) if c.is_even()]


def odd_chars(g: int) -> list[ThetaChar]:
    return [c for c in all_chars(g) if not c.is_even()]


# -- exact expansions ---------------------------------------------------------


def _phase(char: ThetaChar, n: tuple) -> int:
    """The summand sign (-1)^(n.delta) i^(eps.delta); real for even chars."""
    ed = sum(e * d for e, d in zip(char.eps, char.delta))
    assert ed % 2 == 0, "phase is imaginary for an odd characteristic"
    s = (-1) ** (sum(ni * d for ni, d in zip(n, char.delta)) % 2)
    return s * (-1) ** ((ed // 2) % 2)


@lru_cache(maxsize=None)
def theta_qexp(g: int, char: ThetaChar, trunc: int = DEFAULT_TRUNC):
    """Exact expansion of a theta constant; flagged zero for odd characteristics."""
    if g not in (1, 2):
        raise ValueError("exact expansions are implemented for genus 1 and 2")
    if char.g != g:
        raise ValueError(f"characteristic genus {char.g} != {g}")
    half = Fraction(1, 2)
    if not char.is_even():
        if g == 1:
            return QExp1({}, half, trunc)
        return QExp2({}, half, trunc, label="identically zero (odd characteristic)")
    if g == 1:
        terms: dict = {}
        bound = isqrt(trunc) // 2 + 2
        for n in range(-bound, bound + 1):
            a = (2 * n + char.eps[0]) ** 2
            if a > trunc:
                continue
            terms[a] = terms.get(a, 0) + _phase(char, (n,))
        return QExp1({k: Fraction(v) for k, v in terms.items() if v}, half, trunc)
    terms = {}
    bound = isqrt(trunc) // 2 + 2
    for n1 in range(-bound, bound + 1):
        a = (2 * n1 + char.eps[0]) ** 2
        if a > trunc:
            continue
        for n2 in range(-bound, bound + 1):
            c = (2 * n2 + char.eps[1]) ** 2
            if a + c > trunc:
                continue
            b = 2 * (2 * n1 + char.eps[0]) * (2 * n2 + char.eps[1])
            key = (a, b, c)
            terms[key] = terms.get(key, 0) + _phase(char, (n1, n2))
    return QExp2({k: Fraction(v) for k, v in terms.items() if v}, half, trunc)


def tnull_qexp(trunc: int = DEFAULT_TRUNC) -> QExp2:
    """The theta-null product: all 10 even genus-2 theta constants, weight 5.

    Carries a character flag: only its even powers transform without sign.
    """
    forms = [theta_qexp(2, c, trunc) for c in even_chars(2)]
    return product_balanced(forms).with_character(True)


def theta_pow8_sum(trunc: int = DEFAULT_TRUNC) -> QExp2:
    """Sum of the eighth powers of the even theta constants (weight 4)."""
    total = None
    for c in even_chars(2):
        f = theta_qexp(2, c, trunc) ** 8
        total = f if total is None else total + f
    return total


def schottky_qexp(g: int, trunc: int = DEFAULT_TRUNC):
    """The degree-16 theta-constant combination of weight 8.

    Identically zero on the expansion lattice for g <= 2 (checked in tests at
    two truncation depths).  With e_i the 8th powers, it is
    2^-g sum e_i^2 - 2^-2g (sum e_i)^2: the square of the sum takes one
    product, not the squares and every cross term e_i e_j.
    """
    if g not in (1, 2):
        raise ValueError("expansions are implemented for genus 1 and 2")
    e8 = [theta_qexp(g, c, trunc) ** 8 for c in even_chars(g)]
    sum16 = e8[0] * e8[0]
    sum8 = e8[0]
    for f in e8[1:]:
        sum16 = sum16 + f * f
        sum8 = sum8 + f
    sumsq = sum8 * sum8
    return sum16.scale_coeff(Fraction(1, 2 ** g)) - sumsq.scale_coeff(Fraction(1, 2 ** (2 * g)))


# -- numeric lattice sums -------------------------------------------------------


def _as_matrix(tau) -> np.ndarray:
    m = np.asarray(tau, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("tau must be a square matrix")
    if not np.allclose(m, m.T, atol=1e-12):
        raise ValueError("tau must be symmetric")
    return m


def _check_tau(tau: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(tau.imag)
    if lam[0] <= 0:
        raise ValueError("Im(tau) is not positive definite")
    return float(lam[0])


def _pick_radius(lam_min: float, g: int, n_dtau: int, n_dz: int,
                 z_shift: float, tol: float) -> int:
    c = 0.5 + z_shift / lam_min
    for radius in range(2, 61):
        if radius <= c:
            continue
        count = float(2 * radius + 3) ** g
        deriv = (7.0 * (radius + 2) ** 2) ** n_dtau * (7.0 * (radius + 2)) ** n_dz
        if count * deriv * math.exp(-math.pi * lam_min * (radius - c) ** 2) < tol:
            return radius
    raise ValueError(
        "tail bound unsatisfiable at radius 60; increase Im(tau) or the "
        "tolerance (suggested radius > 60)")


def theta_numeric(g: int, char: ThetaChar, tau, z=None, d_tau=(), d_z=(),
                  radius: int | None = None, tol: float = 1e-12) -> complex:
    """Lattice-sum value of a theta function or of a derivative.

    d_tau is a sequence of index pairs (i, j), 1-based, each contributing the
    plain derivative d/dtau_ij (no symmetrization factor); d_z a sequence of
    1-based indices for z-derivatives.  At most order 2 in each group.
    """
    if char.g != g:
        raise ValueError("characteristic genus mismatch")
    if len(d_tau) > 2 or len(d_z) > 2:
        raise ValueError("derivatives are supported up to order 2")
    tau = _as_matrix(tau)
    if tau.shape[0] != g:
        raise ValueError("tau size does not match the genus")
    lam_min = _check_tau(tau)
    if z is None:
        z = [0.0] * g
    z = [complex(v) for v in z]
    if radius is None:
        z_shift = max((abs(v.imag) for v in z), default=0.0)
        radius = _pick_radius(lam_min, g, len(d_tau), len(d_z), z_shift, tol)
    eps = char.eps
    delta = char.delta
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


@dataclass
class HeatReport:
    max_residual: float
    entries: dict
    radius_tol: float


def check_heat(g: int, char: ThetaChar, tau, z, tol: float = TOL_HEAT) -> HeatReport:
    """Componentwise residual of the heat equation at one point.

    Residual for (i, j):  |d2theta/dz_i dz_j - 2 pi i (1+delta_ij) dtheta/dtau_ij|,
    both sides by lattice sum at tail tolerance tol*1e-3.
    """
    inner_tol = tol * 1e-3
    entries = {}
    for i in range(1, g + 1):
        for j in range(i, g + 1):
            zz = theta_numeric(g, char, tau, z, d_z=(i, j), tol=inner_tol)
            tt = theta_numeric(g, char, tau, z, d_tau=((i, j),), tol=inner_tol)
            entries[(i, j)] = abs(zz - 2j * math.pi * (1 + (i == j)) * tt)
    return HeatReport(max(entries.values()), entries, inner_tol)


# -- numeric forms and the transformation law -----------------------------------


@dataclass
class NumericForm:
    """A numeric modular-form evaluator over theta-constant leaves."""

    genus: int
    weight: int
    character: bool
    label: str
    fn: Callable[[np.ndarray], complex]

    def eval(self, tau) -> complex:
        return self.fn(_as_matrix(tau))


def form_theta_product(chars: list[ThetaChar], power: int = 1,
                       character: bool = False, label: str = "") -> NumericForm:
    g = chars[0].g
    weight = Fraction(len(chars) * power, 2)
    if weight.denominator != 1:
        raise ValueError("half-integral weights are not supported numerically")

    def fn(tau):
        out = 1.0 + 0j
        for c in chars:
            out *= theta_numeric(g, c, tau) ** power
        return out

    return NumericForm(g, int(weight), character,
                       label or f"theta product^{power}", fn)


def form_tnull(power: int = 1) -> NumericForm:
    """T^power for the genus-2 theta-null product T (weight 5, character)."""
    return form_theta_product(even_chars(2), power, character=power % 2 == 1,
                              label=f"tnull^{power}")


def _tnull_derivatives(tau: np.ndarray):
    """Value, symmetrized gradient, and symmetrized Hessian of the product.

    Aggregated through first and second logarithmic derivatives of the theta
    factors; valid away from the zero locus of every factor.
    """
    chars = even_chars(2)
    pairs = [(1, 1), (1, 2), (2, 2)]
    vals = {}
    d1 = {}
    d2 = {}
    for c in chars:
        vals[c] = theta_numeric(2, c, tau)
        for p in pairs:
            sym = 0.5 if p[0] != p[1] else 1.0
            d1[c, p] = sym * theta_numeric(2, c, tau, d_tau=(p,))
        for pa in pairs:
            for pb in pairs:
                if pa <= pb:
                    sa = 0.5 if pa[0] != pa[1] else 1.0
                    sb = 0.5 if pb[0] != pb[1] else 1.0
                    d2[c, pa, pb] = sa * sb * theta_numeric(2, c, tau, d_tau=(pa, pb))
    T = np.prod([vals[c] for c in chars])
    L = {p: sum(d1[c, p] / vals[c] for c in chars) for p in pairs}
    grad = {p: T * L[p] for p in pairs}
    hess = {}
    for pa in pairs:
        for pb in pairs:
            if pa <= pb:
                corr = sum(d2[c, pa, pb] / vals[c] - d1[c, pa] * d1[c, pb] / vals[c] ** 2
                           for c in chars)
                hess[pa, pb] = T * (L[pa] * L[pb] + corr)
    return T, grad, hess


def form_operator_tnull(a: int) -> NumericForm:
    """The quadratic operator output on the theta-null product, weight 2a+2.

    Evaluates det of the symmetrized gradient matrix plus the coefficient
    (2a/(1-2a)) times T times the second-order determinant operator, i.e. the
    degree-2 normalized operator attached to the genus-2 polynomial.
    """
    coeff = 2 * a / (1 - 2 * a)

    def fn(tau):
        T, grad, hess = _tnull_derivatives(tau)
        det_grad = grad[(1, 1)] * grad[(2, 2)] - grad[(1, 2)] ** 2
        det_op = hess[(1, 1), (2, 2)] - hess[(1, 2), (1, 2)]
        return det_grad + coeff * T * det_op

    return NumericForm(2, 2 * a + 2, False, f"operator output (a={a})", fn)


def gamma_J(g: int):
    z = np.zeros((g, g), dtype=int)
    i = np.eye(g, dtype=int)
    return (z, -i, i, z)


def gamma_translation(b) -> tuple:
    b = np.asarray(b, dtype=int)
    g = b.shape[0]
    if not np.array_equal(b, b.T):
        raise ValueError("translation block must be symmetric")
    i = np.eye(g, dtype=int)
    return (i, b, np.zeros((g, g), dtype=int), i)


def gamma_gl(u) -> tuple:
    u = np.asarray(u, dtype=int)
    if abs(round(np.linalg.det(u))) != 1:
        raise ValueError("block must be in GL(g, Z)")
    g = u.shape[0]
    uinv_t = np.linalg.inv(u).T
    return (u, np.zeros((g, g), dtype=int), np.zeros((g, g), dtype=int),
            np.rint(uinv_t).astype(int))


def symplectic_act(gamma, tau):
    a, b, c, d = (np.asarray(m, dtype=complex) for m in gamma)
    tau = _as_matrix(tau)
    num = a @ tau + b
    den = c @ tau + d
    return num @ np.linalg.inv(den), np.linalg.det(den)


@dataclass
class ModularityReport:
    rel_err: float
    sign: int
    inconclusive: bool
    value: complex


def check_modularity(form: NumericForm, gamma, tau,
                     tol: float = TOL_MODULARITY) -> ModularityReport:
    """Relative error of f(gamma tau) against det(C tau + D)^w f(tau).

    For forms with a character the sign is a free +-1 and the better match is
    reported.  Points where |f(tau)| is negligible are flagged inconclusive.
    """
    tau = _as_matrix(tau)
    f0 = form.eval(tau)
    if abs(f0) < 1e-12:
        return ModularityReport(float("nan"), +1, True, f0)
    taup, det = symplectic_act(gamma, tau)
    taup = (taup + taup.T) / 2  # symmetrize away roundoff
    f1 = form.eval(taup)
    target = det ** form.weight * f0
    rel_plus = abs(f1 - target) / abs(f0 * det ** form.weight)
    if not form.character:
        return ModularityReport(rel_plus, +1, False, f0)
    rel_minus = abs(f1 + target) / abs(f0 * det ** form.weight)
    if rel_minus < rel_plus:
        return ModularityReport(rel_minus, -1, False, f0)
    return ModularityReport(rel_plus, +1, False, f0)


# -- nondegeneracy of the theta-null gradient on its zero locus -------------------


@dataclass
class ConditionReport:
    det_value: complex
    vanishing_char: ThetaChar
    vanishing_abs: float


def check_condition_star(tau, tol_zero: float = TOL_ZERO) -> ConditionReport:
    """det of the normalized gradient of the theta-null product at a zero.

    Requires the point to lie on the zero locus (exactly one even theta
    constant negligible there); the vanishing factor is isolated
    analytically, so no 0/0 occurs:

        det(grad T)|_{theta_* = 0} = det(grad theta_*) * prod_{c != *} theta_c^2.

    The gradient is the symmetrized, (1/(2 pi i))-normalized matrix.
    """
    tau = _as_matrix(tau)
    chars = even_chars(2)
    vals = {c: theta_numeric(2, c, tau) for c in chars}
    star = min(chars, key=lambda c: abs(vals[c]))
    scale = max(abs(v) for v in vals.values())
    if abs(vals[star]) > tol_zero * max(scale, 1.0):
        raise ValueError(
            f"point is not on the theta-null locus: min |theta| = {abs(vals[star]):.3e}")
    two_pi_i = 2j * math.pi
    m = {}
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        sym = 0.5 if i != j else 1.0
        m[(i, j)] = sym * theta_numeric(2, star, tau, d_tau=((i, j),)) / two_pi_i
    det_star = m[(1, 1)] * m[(2, 2)] - m[(1, 2)] ** 2
    rest = 1.0 + 0j
    for c in chars:
        if c != star:
            rest *= vals[c] ** 2
    return ConditionReport(det_star * rest, star, abs(vals[star]))
