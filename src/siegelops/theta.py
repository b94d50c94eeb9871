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

Every lattice sum goes through one batched numpy kernel, _lattice_sums.  A
batch is a list of (characteristic, d_tau, d_z) requests at one (tau, z).
Its box [-r, r]^g is the largest that _pick_radius gives any request: r is
the least radius > 1/2 + max|Im z| / lambda_min(Im tau) at which

    (2r + 3)^g (7 (r + 2)^2)^#d_tau (7 (r + 2))^#d_z
        exp(-pi lambda_min (r - 1/2 - max|Im z| / lambda_min)^2) < tol,

so no request sums over a smaller box than it would alone.  The
exponentials are computed once per lattice point and eps class and shared by
every delta and derivative of the batch.  The checks report the radius, the
point count and the tail tolerance they used.

numpy is imported inside each numeric function, not by the module, so
importing theta (and siegelops) and every exact computation run without it;
the first numeric call loads it.  The functions stay here, where the span
recorder of perfbench finds theta's public functions.

Heat equation convention: the series satisfy

    d^2 theta / dz_i dz_j = 2 pi i (1 + delta_ij) d theta / dtau_ij,

validated analytically at genus 1 (both sides reduce to pi i n^2 summands).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING, Callable, NamedTuple

from .qexp import DEFAULT_TRUNC, QExp1, QExp2, product_balanced

if TYPE_CHECKING:
    import numpy as np

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


def char_from_text(s: str) -> ThetaChar:
    e, _, d = s.partition(",")
    return ThetaChar(tuple(int(v) for v in e.strip()), tuple(int(v) for v in d.strip()))


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
    cls = QExp1 if g == 1 else QExp2
    if not char.is_even():
        return cls({}, half, trunc, label="identically zero (odd characteristic)")
    terms: dict = {}
    bound = (isqrt(trunc) + 1) // 2  # every kept m = 2n + eps has |m| <= isqrt(trunc)
    for n in itertools.product(range(-bound, bound + 1), repeat=g):
        m = [2 * ni + e for ni, e in zip(n, char.eps)]
        if sum(x * x for x in m) > trunc:
            continue
        key = tuple((2 if i < j else 1) * m[i] * m[j] for i in range(g) for j in range(i, g))
        terms[key] = terms.get(key, 0) + _phase(char, n)
    return cls._from_ints(terms, half, trunc)


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
    import numpy as np
    m = np.asarray(tau, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("tau must be a square matrix")
    if not np.isfinite(m).all():
        raise ValueError("tau has a non-finite entry")
    if not np.allclose(m, m.T, atol=1e-12):
        raise ValueError("tau must be symmetric")
    return m


def _check_tau(tau: np.ndarray) -> float:
    import numpy as np
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


class _Box(NamedTuple):
    """The lattice box a batch summed over: radius, point count, tail tolerance."""

    radius: int
    points: int
    tol: float


def _check_index(name: str, k, g: int) -> None:
    if not 1 <= k <= g:
        raise ValueError(f"{name} index {k!r} is outside 1..{g}")


def _lattice_sums(g: int, tau, z, requests, tol: float = 1e-12,
                  radius: int | None = None) -> tuple[list[complex], _Box]:
    """Every (char, d_tau, d_z) request of a batch, summed on one shared grid.

    The grid is the box [-radius, radius]^g of n, with m = n + eps/2.  The
    exponential exp(pi i (m^T tau m + 2 m.z)) is computed once per point and
    eps class; delta only multiplies a term by (-1)^(n.delta) i^(eps.delta),
    and each requested derivative by its monomial in m, so a request is a real
    weight vector and the whole class is summed in one matrix product.
    """
    import numpy as np
    tau = _as_matrix(tau)
    if tau.shape[0] != g:
        raise ValueError("tau size does not match the genus")
    lam_min = _check_tau(tau)
    z = np.zeros(g, dtype=complex) if z is None else np.array([complex(v) for v in z])
    if z.shape != (g,):
        raise ValueError(f"z has {len(z)} entries, expected {g}")
    if not np.isfinite(z).all():
        raise ValueError("z has a non-finite entry")
    for char, d_tau, d_z in requests:
        if char.g != g:
            raise ValueError("characteristic genus mismatch")
        if len(d_tau) > 2 or len(d_z) > 2:
            raise ValueError("derivatives are supported up to order 2")
        for i, j in d_tau:
            _check_index("d_tau", i, g)
            _check_index("d_tau", j, g)
        for k in d_z:
            _check_index("d_z", k, g)
    if radius is None:
        z_shift = float(np.abs(z.imag).max())
        orders = {(len(d_tau), len(d_z)) for _, d_tau, d_z in requests}
        radius = max(_pick_radius(lam_min, g, nt, nz, z_shift, tol) for nt, nz in orders)
    axis = np.arange(-radius, radius + 1)
    n = np.stack(np.meshgrid(*[axis] * g, indexing="ij"), axis=-1).reshape(-1, g)
    upper = np.triu(tau) * (2.0 - np.eye(g))  # m^T tau m from the upper triangle
    pi_i = 1j * math.pi
    out = np.empty(len(requests), dtype=complex)
    for eps in sorted({char.eps for char, _, _ in requests}):
        m = n + np.array(eps) / 2.0
        expo = np.exp(pi_i * (np.einsum("pi,ij,pj->p", m, upper, m) + 2.0 * (m @ z)))
        rows = [r for r, (char, _, _) in enumerate(requests) if char.eps == eps]
        weights = np.empty((len(rows), len(n)))
        for w, r in zip(weights, rows):
            char, d_tau, d_z = requests[r]
            w[:] = 1 - 2 * ((n @ np.array(char.delta)) % 2)
            const = 1j ** (sum(e * d for e, d in zip(eps, char.delta)) % 4)
            for i, j in d_tau:
                w *= m[:, i - 1] * m[:, j - 1]
                const *= pi_i * (2 - (i == j))
            for i in d_z:
                w *= m[:, i - 1]
                const *= 2 * pi_i
            out[r] = const
        out[rows] *= weights @ expo
    return out.tolist(), _Box(radius, len(n), tol)


def theta_numeric(g: int, char: ThetaChar, tau, z=None, d_tau=(), d_z=(),
                  radius: int | None = None, tol: float = 1e-12) -> complex:
    """Lattice-sum value of a theta function or of a derivative.

    d_tau is a sequence of index pairs (i, j), 1-based, each contributing the
    plain derivative d/dtau_ij (no symmetrization factor); d_z a sequence of
    1-based indices for z-derivatives.  At most order 2 in each group.
    """
    values, _ = _lattice_sums(g, tau, z, [(char, tuple(d_tau), tuple(d_z))], tol, radius)
    return values[0]


@dataclass
class HeatReport:
    max_residual: float
    entries: dict
    radius_tol: float
    radius: int
    points: int


def check_heat(g: int, char: ThetaChar, tau, z, tol: float = TOL_HEAT) -> HeatReport:
    """Componentwise residual of the heat equation at one point.

    Residual for (i, j):  |d2theta/dz_i dz_j - 2 pi i (1+delta_ij) dtheta/dtau_ij|,
    both sides by lattice sum at tail tolerance tol*1e-3, on one grid.
    """
    pairs = [(i, j) for i in range(1, g + 1) for j in range(i, g + 1)]
    requests = [req for p in pairs for req in ((char, (), p), (char, (p,), ()))]
    values, box = _lattice_sums(g, tau, z, requests, tol * 1e-3)
    zz, tt = values[0::2], values[1::2]
    entries = {(i, j): abs(zz[k] - 2j * math.pi * (1 + (i == j)) * tt[k])
               for k, (i, j) in enumerate(pairs)}
    return HeatReport(max(entries.values()), entries, box.tol, box.radius, box.points)


# -- numeric forms and the transformation law -----------------------------------


@dataclass
class NumericForm:
    """A numeric modular-form evaluator over theta-constant leaves."""

    genus: int
    weight: int
    character: bool
    label: str
    fn: Callable[[np.ndarray], tuple[complex, _Box]]

    def eval(self, tau) -> complex:
        return self.eval_box(tau)[0]

    def eval_box(self, tau) -> tuple[complex, _Box]:
        """The value and the lattice box its theta sums used."""
        value, box = self.fn(_as_matrix(tau))
        return complex(value), box


def form_theta_product(chars: list[ThetaChar], power: int = 1,
                       character: bool = False, label: str = "") -> NumericForm:
    g = chars[0].g
    weight = Fraction(len(chars) * power, 2)
    if weight.denominator != 1:
        raise ValueError("half-integral weights are not supported numerically")

    def fn(tau):
        values, box = _lattice_sums(g, tau, None, [(c, (), ()) for c in chars])
        out = 1.0 + 0j
        for v in values:
            out *= v ** power
        return out, box

    return NumericForm(g, int(weight), character,
                       label or f"theta product^{power}", fn)


def form_tnull(power: int = 1) -> NumericForm:
    """T^power for the genus-2 theta-null product T (weight 5, character)."""
    return form_theta_product(even_chars(2), power, character=power % 2 == 1,
                              label=f"tnull^{power}")


def _tnull_derivatives(tau: np.ndarray):
    """Value, symmetrized gradient, symmetrized Hessian, and lattice box.

    Aggregated through first and second logarithmic derivatives of the theta
    factors; valid away from the zero locus of every factor.  Every theta
    value and derivative comes from one batch on one grid.
    """
    import numpy as np
    chars = even_chars(2)
    pairs = [(1, 1), (1, 2), (2, 2)]
    sym = {p: 0.5 if p[0] != p[1] else 1.0 for p in pairs}
    orders = [()] + [(p,) for p in pairs] + [(pa, pb) for pa in pairs for pb in pairs
                                             if pa <= pb]
    keys = [(c, d) for c in chars for d in orders]
    values, box = _lattice_sums(2, tau, None, [(c, d, ()) for c, d in keys])
    table = dict(zip(keys, values))
    vals = {c: table[c, ()] for c in chars}
    d1 = {(c, p): sym[p] * table[c, (p,)] for c in chars for p in pairs}
    d2 = {(c, pa, pb): sym[pa] * sym[pb] * table[c, (pa, pb)]
          for c in chars for pa, pb in orders[4:]}
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
    return T, grad, hess, box


def form_operator_tnull(a: int) -> NumericForm:
    """The quadratic operator output on the theta-null product, weight 2a+2.

    Evaluates det of the symmetrized gradient matrix plus the coefficient
    (2a/(1-2a)) times T times the second-order determinant operator, i.e. the
    degree-2 normalized operator attached to the genus-2 polynomial.
    """
    coeff = 2 * a / (1 - 2 * a)

    def fn(tau):
        T, grad, hess, box = _tnull_derivatives(tau)
        det_grad = grad[(1, 1)] * grad[(2, 2)] - grad[(1, 2)] ** 2
        det_op = hess[(1, 1), (2, 2)] - hess[(1, 2), (1, 2)]
        return det_grad + coeff * T * det_op, box

    return NumericForm(2, 2 * a + 2, False, f"operator output (a={a})", fn)


def gamma_J(g: int):
    import numpy as np
    z = np.zeros((g, g), dtype=int)
    i = np.eye(g, dtype=int)
    return (z, -i, i, z)


def gamma_translation(b) -> tuple:
    import numpy as np
    b = np.asarray(b, dtype=int)
    g = b.shape[0]
    if not np.array_equal(b, b.T):
        raise ValueError("translation block must be symmetric")
    i = np.eye(g, dtype=int)
    return (i, b, np.zeros((g, g), dtype=int), i)


def gamma_gl(u) -> tuple:
    import numpy as np
    u = np.asarray(u, dtype=int)
    if abs(round(np.linalg.det(u))) != 1:
        raise ValueError("block must be in GL(g, Z)")
    g = u.shape[0]
    uinv_t = np.linalg.inv(u).T
    return (u, np.zeros((g, g), dtype=int), np.zeros((g, g), dtype=int),
            np.rint(uinv_t).astype(int))


def symplectic_act(gamma, tau):
    import numpy as np
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
    radius: int
    points: int
    radius_tol: float


def check_modularity(form: NumericForm, gamma, tau,
                     tol: float = TOL_MODULARITY) -> ModularityReport:
    """Relative error of f(gamma tau) against det(C tau + D)^w f(tau).

    For forms with a character the sign is a free +-1 and the better match is
    reported.  Points where |f(tau)| is negligible are flagged inconclusive.
    The reported box is the larger of the two evaluations' boxes.
    """
    tau = _as_matrix(tau)
    f0, box = form.eval_box(tau)

    def report(rel_err, sign, inconclusive=False):
        return ModularityReport(rel_err, sign, inconclusive, f0, *box)

    if abs(f0) < 1e-12:
        return report(float("nan"), +1, True)
    taup, det = symplectic_act(gamma, tau)
    taup = (taup + taup.T) / 2  # symmetrize away roundoff
    f1, box1 = form.eval_box(taup)
    box = max(box, box1)  # radius is the first field
    target = det ** form.weight * f0
    rel_plus = abs(f1 - target) / abs(f0 * det ** form.weight)
    if not form.character:
        return report(rel_plus, +1)
    rel_minus = abs(f1 + target) / abs(f0 * det ** form.weight)
    if rel_minus < rel_plus:
        return report(rel_minus, -1)
    return report(rel_plus, +1)


# -- nondegeneracy of the theta-null gradient on its zero locus -------------------


@dataclass
class ConditionReport:
    det_value: complex
    vanishing_char: ThetaChar
    vanishing_abs: float
    radius: int
    points: int
    radius_tol: float


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
    values, box = _lattice_sums(2, tau, None, [(c, (), ()) for c in chars])
    vals = dict(zip(chars, values))
    star = min(chars, key=lambda c: abs(vals[c]))
    scale = max(abs(v) for v in vals.values())
    if abs(vals[star]) > tol_zero * max(scale, 1.0):
        raise ValueError(
            f"point is not on the theta-null locus: min |theta| = {abs(vals[star]):.3e}")
    two_pi_i = 2j * math.pi
    pairs = ((1, 1), (1, 2), (2, 2))
    grads, box1 = _lattice_sums(2, tau, None, [(star, (p,), ()) for p in pairs])
    m = {(i, j): (0.5 if i != j else 1.0) * v / two_pi_i
         for (i, j), v in zip(pairs, grads)}
    det_star = m[(1, 1)] * m[(2, 2)] - m[(1, 2)] ** 2
    rest = 1.0 + 0j
    for c in chars:
        if c != star:
            rest *= vals[c] ** 2
    return ConditionReport(det_star * rest, star, abs(vals[star]), *max(box, box1))
