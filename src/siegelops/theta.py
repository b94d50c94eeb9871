"""Theta characteristics, exact theta-constant expansions, and float numerics.

The exact side (genus <= 2) produces lattice-sum Fourier expansions on the
integer exponent grid of qexp.py: for a characteristic (eps, delta) the
summand attached to n has scaled exponents

    alpha = (2 n1 + eps1)^2,   beta = 2 (2 n1 + eps1)(2 n2 + eps2),
    gamma = (2 n2 + eps2)^2,

and coefficient (-1)^(n . delta) i^(eps . delta), which is +-1 for even
characteristics, so even theta constants have integer expansions.
Odd theta constants vanish identically and are returned as zeros.

The theta-null product T of the ten even genus-2 theta constants is defined
by that product, tnull_product, but tnull_qexp makes it with no product: T
is Gritsenko's arithmetic lift of the Jacobi form -64 eta^9 theta
(Gritsenko-Nikulin, Amer. J. Math. 119, 1997), whose eta^9 is a power of
Jacobi's eta^3.  The ten-theta product is the lift's exact certificate
(verify input-lift compares the product's first Fourier-Jacobi coefficient
with minus_64_eta9_theta, the Jacobi form the lift reads listed at T's
gamma = 4 keys, and then the two whole expansions); _arithmetic_lift is the
lift at any weight and key step, Maass's lift at step 8.  theta_pow8_sum
sums the 8th powers of the even theta constants from one theta constant per
orbit of the translations tau -> tau + S; the degree-16 combination
schottky_qexp sums those 8th powers and their squares the same way.

The numeric side evaluates theta functions, their tau- and z-derivatives (up
to second order, term by term), and harnesses for the heat equation, the
modularity transformation law, and the nondegeneracy of the theta-null
gradient on its zero locus.  Double precision with explicit tail bounds;
nothing here is certified, tolerances are arguments with stated defaults.
Each numeric form, and condition (*), is a jet on one function F read on
the derivatives of the theta-null product T: T^p is the jet F^p, the
operator output is jets.operator_jet, the jet that apply evaluates exactly,
and condition (*) is jets.jet_det_partial, det(dF), read at a zero of T.

Every lattice sum goes through one batched numpy kernel, _lattice_sums.  A
batch is a list of (characteristic, d_tau, d_z) requests at one (tau, z).
Its box [-r, r]^g is the largest that _pick_radius gives any request: r is
the least radius > 1/2 + max|Im z| / lambda_min(Im tau) at which

    (2r + 3)^g (7 (r + 2)^2)^#d_tau (7 (r + 2))^#d_z
        exp(-pi lambda_min (r - 1/2 - max|Im z| / lambda_min)^2) < tol,

so no request sums over a smaller box than it would alone.  A box of
more than _MAX_POINTS = 2,000,000 points is refused before its grid is
made (genus 6 at radius 5 holds 1,771,561, genus 7 19,487,171).  The
exponentials are computed once per lattice point and eps class and shared by
every delta and derivative of the batch.  Each check's report holds the
box it used, one _Box of the radius, the point count and the tail tolerance.

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
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import brackets, jets, opgen
from .poly import _index_pairs
from .qexp import DEFAULT_TRUNC, QExp1, QExp2, _check_trunc, _reduced, product_balanced

if TYPE_CHECKING:
    import numpy as np

TOL_HEAT = 1e-10
TOL_MODULARITY = 1e-8
TOL_ZERO = 1e-6
_MAX_POINTS = 2_000_000  # the most lattice points one numeric batch sums over


class _Char(NamedTuple):
    eps: tuple
    delta: tuple

    @property
    def g(self) -> int:
        return len(self.eps)

    def parity(self) -> int:
        return sum(e * d for e, d in zip(self.eps, self.delta)) % 2

    def is_even(self) -> bool:
        return self.parity() == 0

    def __str__(self):
        return "".join(map(str, self.eps)) + "," + "".join(map(str, self.delta))


class ThetaChar(_Char):
    """A characteristic: a pair of vectors in {0,1}^g, ordered by (eps, delta)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, eps: tuple, delta: tuple):
        if len(eps) != len(delta):
            raise ValueError("characteristic halves have different lengths")
        if any(v not in (0, 1) for v in eps + delta):
            raise ValueError("characteristic entries must be 0 or 1")
        return super().__new__(cls, eps, delta)


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


_EVEN2 = tuple(even_chars(2))  # the ten factors of the theta-null product


# -- exact expansions ---------------------------------------------------------


def theta_qexp(g: int, char: ThetaChar, trunc: int = DEFAULT_TRUNC):
    """Exact expansion of a theta constant; zero for odd characteristics.

    Its keys keep the invariants by construction (each is the matrix m m^T
    of an integer vector m with |m|^2 <= trunc), so it is built with no
    second check."""
    _check_trunc(trunc)
    if g not in (1, 2):
        raise ValueError("exact expansions are implemented for genus 1 and 2")
    if char.g != g:
        raise ValueError(f"characteristic genus {char.g} != {g}")
    half = Fraction(1, 2)
    cls = QExp1 if g == 1 else QExp2
    if not char.is_even():
        return cls._checked(1, {}, half, trunc, 0, False)
    # the summand sign (-1)^(n.delta) i^(eps.delta), with eps.delta even here
    unit = -1 if sum(e * d for e, d in zip(char.eps, char.delta)) % 4 else 1
    terms: dict = {}
    pairs = _index_pairs(g)
    bound = (isqrt(trunc) + 1) // 2  # every kept m = 2n + eps has |m| <= isqrt(trunc)
    for n in itertools.product(range(-bound, bound + 1), repeat=g):
        m = [2 * ni + e for ni, e in zip(n, char.eps)]
        if sum(x * x for x in m) > trunc:
            continue
        key = tuple((2 if i < j else 1) * m[i - 1] * m[j - 1] for i, j in pairs)
        sign = -unit if sum(ni * d for ni, d in zip(n, char.delta)) % 2 else unit
        terms[key] = terms.get(key, 0) + sign
    return cls._checked(1, {k: c for k, c in terms.items() if c}, half, trunc, 0, False)


def tnull_product(trunc: int = DEFAULT_TRUNC) -> QExp2:
    """The theta-null product as defined: the ten even genus-2 theta
    constants multiplied out.  The certificate of tnull_qexp."""
    return product_balanced([theta_qexp(2, c, trunc) for c in _EVEN2]).with_character(True)


def _arithmetic_lift(phi: Callable[[int, int], int], weight: int, step: int, trunc: int,
                     odd: bool = False) -> QExp2:
    """The arithmetic lift of a Jacobi form with coefficients phi(n, l).

    The term of key (step N, step L, step M), over N, M >= 1 and
    L^2 <= 4 N M (N, L, M odd if odd is set) within the truncation, is

        a(N, L, M) = sum_{d | gcd(N, L, M)} d^(weight - 1) phi(N M / d^2, L / d),

    Gritsenko's lift with trivial character.  tnull_qexp takes the odd
    (N, L, M) at step 4; every (N, L, M), with odd unset, at step 8 is
    Maass's lift, which a weight-12 check of the Maass relations would call.
    phi returns ints; the loop bounds keep the invariants of every key, so
    the expansion is built with no second check.
    """
    _check_trunc(trunc)
    stride = 2 if odd else 1
    top = trunc // step  # N + M <= top
    power = weight - 1
    terms = {}
    for N in range(1, top, stride):
        for M in range(1, top - N + 1, stride):
            r = isqrt(4 * N * M)
            lo = 1 - r if odd and r % 2 == 0 else -r  # the least L of the stride
            for L in range(lo, r + 1, stride):
                g = gcd(N, L, M)
                c = phi(N * M, L) if g == 1 else sum(
                    d ** power * phi(N * M // (d * d), L // d)
                    for d in range(1, g + 1) if g % d == 0)
                if c:
                    terms[(step * N, step * L, step * M)] = c
    return QExp2._checked(1, terms, Fraction(weight), trunc, 0, False)


def _tnull_jacobi(depth: int) -> Callable[[int, int], int]:
    """phi(n, l), the coefficient at q^(n/2) r^(l/2) of T's Jacobi form
    -64 eta^9 theta, theta(tau, z) = sum_{l odd} (-4/l) q^(l^2/8) r^(l/2),
    for 4n - l^2 <= depth: -64 (-4/l) times the coefficient of eta^9 at
    q^((4n - l^2)/8)."""
    eta9 = brackets.eta_power_qexp(9, depth)._nums  # integers over den = 1

    def phi(n: int, l: int) -> int:
        c = eta9.get((4 * n - l * l,), 0)
        return -64 * c if l % 4 == 1 else 64 * c

    return phi


def minus_64_eta9_theta(trunc: int = DEFAULT_TRUNC) -> dict:
    """The Jacobi form -64 eta^9 theta (_tnull_jacobi) keyed as the gamma = 4
    slice of the theta-null product, its first Fourier-Jacobi coefficient:
    the coefficient at q^(n/2) r^(l/2), nonzero only at n and l odd with
    l^2 < 4n, sits at (alpha, beta) = (4n, 4l), with alpha + 4 <= trunc."""
    _check_trunc(trunc)
    top = trunc - 4
    phi = _tnull_jacobi(max(top, 0))
    keys = [(n, m) for n in range(1, top // 4 + 1, 2)
            for l in range(1, isqrt(4 * n) + 1, 2) for m in (l, -l)]
    return {(4 * n, 4 * l): c for n, l in keys if (c := phi(n, l))}


def tnull_qexp(trunc: int = DEFAULT_TRUNC) -> QExp2:
    """The theta-null product T of the ten even genus-2 theta constants,
    weight 5, made as Gritsenko's lift of its Jacobi form -64 eta^9 theta
    (_tnull_jacobi): the lift's keys are (4N, 4L, 4M), N, L, M odd.  Equal
    to tnull_product, term for term.  Carries a character flag: only its
    even powers transform without sign.
    """
    _check_trunc(trunc)
    top = trunc // 4  # every key 4 N M - L^2 of eta^9 read is below (N + M)^2 <= top^2
    return _arithmetic_lift(_tnull_jacobi(top * top), 5, 4, trunc,
                            odd=True).with_character(True)


# The translation orbits of the even characteristics, one row per
# representative eps (with delta = 0): the orbit's size and the test of the
# keys where every character of the orbit is 1 (schottky_qexp).  At genus 2
# the orbit of eps = 01 is that of eps = 10 with alpha and gamma swapped.
_ORBITS = {
    1: (((0,), 2, lambda k: k[0] % 8 == 0),
        ((1,), 1, lambda k: True)),
    2: (((0, 0), 4, lambda k: k[0] % 8 == 0 == k[2] % 8),
        ((1, 0), 2, lambda k: k[2] % 8 == 0),
        ((1, 1), 2, lambda k: k[1] % 8 == 0)),
}


def _theta8(g: int, trunc: int) -> list:
    """theta[eps, 0]^8 for each orbit representative eps of _ORBITS[g]."""
    return [theta_qexp(g, ThetaChar(eps, (0,) * g), trunc) ** 8 for eps, _, _ in _ORBITS[g]]


def _orbit_sum(g: int, powers) -> QExp1 | QExp2:
    """sum theta_m^(8j) over the even characteristics m of genus g, from
    powers, the 8j-th powers of _theta8's representatives (schottky_qexp)."""
    total = None
    for (eps, size, kernel), f in zip(_ORBITS[g], powers):
        part = f._clone(*_reduced(f._den, {k: size * v for k, v in f._nums.items() if kernel(k)}))
        if eps == (1, 0):  # and the orbit of 01: alpha and gamma swapped
            part = part + part._clone(part._den, {k[::-1]: v for k, v in part._nums.items()})
        total = part if total is None else total + part
    return total


def theta_pow8_sum(trunc: int = DEFAULT_TRUNC) -> QExp2:
    """Sum of the eighth powers of the even theta constants (weight 4)."""
    return _orbit_sum(2, _theta8(2, trunc))


def schottky_qexp(g: int, trunc: int = DEFAULT_TRUNC):
    """The degree-16 theta-constant combination of weight 8.

    Identically zero on the expansion lattice for g <= 2 (checked in tests at
    several truncation depths).  With e_m = theta_m^8 over the even
    characteristics m, it is 2^-g sum e_m^2 - 2^-2g (sum e_m)^2: the square
    of the sum takes one product, not the squares and every cross term.

    Both sums come from one theta constant per orbit of the translations
    tau -> tau + S (_ORBITS): _theta8 makes each representative's 8th power,
    and _orbit_sum sums those powers, then their squares, over the orbits.
    Within one eps, theta[eps, delta] is theta[eps, 0] with the summand of n
    multiplied by (-1)^(n . delta) (the factor i^(eps . delta) is +-1 and
    its 8th power 1).  In a product of 8
    summands that sign is (-1)^(N . delta) with N the sum of the n, and N
    mod 2 is read off the key K of the product: with m = 2n + eps, an even
    m_i gives T_ii / 4 = sum n_i^2 = N_i mod 2, and at eps = 11,
    beta / 4 = 2 sum n_1 n_2 + N_1 + N_2 + 4 = N_1 + N_2 mod 2.  So
    theta[eps, delta]^8 = chi_delta theta[eps, 0]^8 with chi_delta(K) the
    sign (-1)^((alpha delta_1 + gamma delta_2) / 4) at eps = 00,
    (-1)^(gamma / 4) at eps = 10, (-1)^(alpha / 4) at eps = 01 and
    (-1)^(beta / 4) at eps = 11 for the even delta != 0 (at genus 1,
    (-1)^(n / 4) at eps = 0).  As chi_delta(K + K') = chi_delta(K)
    chi_delta(K'), the 16th powers obey the same rule.  Summed over the
    orbit's even delta, the characters give the orbit's size on the keys
    where they are all 1 and 0 elsewhere: 4 [alpha = gamma = 0 mod 8] at
    eps = 00, 2 [gamma = 0 mod 8] at 10, 2 [alpha = 0 mod 8] at 01,
    2 [beta = 0 mod 8] at 11, and at genus 1, 2 [n = 0 mod 8] at eps = 0
    and 1 at eps = 1.  theta[01, 00] is theta[10, 00] with m_1 and m_2, so
    alpha and gamma, swapped.  Three 8th powers (9 squarings, all that
    theta_pow8_sum makes), their squares and the square of the sum make 13
    products at genus 2; genus 1 takes 9.
    """
    if g not in (1, 2):
        raise ValueError("expansions are implemented for genus 1 and 2")
    e8 = _theta8(g, trunc)
    sum8 = _orbit_sum(g, e8)
    sum16 = _orbit_sum(g, (f * f for f in e8))
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


@lru_cache(maxsize=8)
def _grid(g: int, radius: int) -> np.ndarray:
    """The points n of the box [-radius, radius]^g, one row each, read-only."""
    import numpy as np
    axis = np.arange(-radius, radius + 1)
    n = np.stack(np.meshgrid(*[axis] * g, indexing="ij"), axis=-1).reshape(-1, g)
    n.flags.writeable = False
    return n


def _lattice_sums(g: int, tau, z, requests, tol: float = 1e-12) -> tuple[list[complex], _Box]:
    """Every (char, d_tau, d_z) request of a batch, summed on one shared grid.
    This is where every numeric evaluation checks its tau, once.

    The real parts are reduced first, by two identities that hold for every
    derivative in tau and z: theta(tau, z) = (-1)^(eps.k) theta(tau, z - k)
    for k in Z^g, and theta(tau, z) = i^(eps^T B eps / 2) theta(tau - B, z)
    for B symmetric with even entries.  With k = round(Re z) and
    B = 2 round(Re tau / 2), read from the upper triangle, the phase below
    is taken at |Re z_j| <= 1/2 and |Re tau_ij| <= 1, where it keeps its
    digits; a point already there (k = 0, B = 0) is summed as given.

    The grid is the box [-radius, radius]^g of n, with m = n + eps/2.  The
    exponential exp(pi i (m^T tau m + 2 m.z)) is computed once per point and
    eps class, and the sign vector (-1)^(n.delta) once per delta; delta only
    multiplies a term by that sign and by i^(eps.delta), and each requested
    derivative by its monomial in m, so a request is a real weight vector and
    the whole class is summed in one matrix product.
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
    # a sum that overflows names z too when z is nonzero
    too_large = "tau or z" if z.any() else "tau"
    z_shift = float(np.abs(z.imag).max())
    orders = {(len(d_tau), len(d_z)) for _, d_tau, d_z in requests}
    radius = max(_pick_radius(lam_min, g, nt, nz, z_shift, tol) for nt, nz in orders)
    if (points := (2 * radius + 1) ** g) > _MAX_POINTS:
        raise ValueError(f"the genus-{g} lattice box of radius {radius} has {points} points, "
                         f"more than {_MAX_POINTS}")
    re_tau = tau.real.tolist()
    k = [round(x) for x in z.real.tolist()]
    b = [[2 * round(re_tau[min(i, j)][max(i, j)] / 2) for j in range(g)] for i in range(g)]
    if any(k) or any(map(any, b)):
        z = z - np.array(k, dtype=float)
        tau = tau - np.array(b, dtype=float)
    n = _grid(g, radius)
    pi_i = 1j * math.pi
    signs = {d: 1.0 - 2.0 * ((n @ np.array(d)) % 2) for d in {c.delta for c, _, _ in requests}}
    out = np.empty(len(requests), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge tau is refused below
        upper = np.triu(tau) * (2.0 - np.eye(g))  # m^T tau m from the upper triangle
        for eps in sorted({char.eps for char, _, _ in requests}):
            m = n + np.array(eps) / 2.0
            expo = np.exp(pi_i * (np.einsum("pi,ij,pj->p", m, upper, m) + 2.0 * (m @ z)))
            rows = [r for r, (char, _, _) in enumerate(requests) if char.eps == eps]
            weights = np.empty((len(rows), len(n)))
            # the exponent of i the reduction multiplies by: 2 eps.k + eps^T B eps / 2
            shift = 2 * sum(e * v for e, v in zip(eps, k)) + sum(
                eps[i] * eps[j] * b[i][j] for i in range(g) for j in range(g)) // 2
            for w, r in zip(weights, rows):
                char, d_tau, d_z = requests[r]
                w[:] = signs[char.delta]
                const = 1j ** ((sum(e * d for e, d in zip(eps, char.delta)) + shift) % 4)
                for i, j in d_tau:
                    w *= m[:, i - 1] * m[:, j - 1]
                    const *= pi_i * (2 - (i == j))
                for i in d_z:
                    w *= m[:, i - 1]
                    const *= 2 * pi_i
                out[r] = const
            out[rows] *= weights @ expo
    if not np.isfinite(out).all():
        raise ValueError(f"{too_large} is too large: its lattice sum is not finite")
    return out.tolist(), _Box(radius, len(n), tol)


def theta_numeric(g: int, char: ThetaChar, tau, z=None, d_tau=(), d_z=(),
                  tol: float = 1e-12) -> complex:
    """Lattice-sum value of a theta function or of a derivative.

    d_tau is a sequence of index pairs (i, j), 1-based, each contributing the
    plain derivative d/dtau_ij (no symmetrization factor); d_z a sequence of
    1-based indices for z-derivatives.  At most order 2 in each group.
    """
    values, _ = _lattice_sums(g, tau, z, [(char, tuple(d_tau), tuple(d_z))], tol)
    return values[0]


class HeatReport(NamedTuple):
    """The heat residuals at one point and the lattice box they were summed on."""

    max_residual: float
    entries: dict
    box: _Box


def check_heat(g: int, char: ThetaChar, tau, z, tol: float = TOL_HEAT) -> HeatReport:
    """Componentwise residual of the heat equation at one point.

    Residual for (i, j):  |d2theta/dz_i dz_j - 2 pi i (1+delta_ij) dtheta/dtau_ij|,
    both sides by lattice sum at tail tolerance tol*1e-3, on one grid.
    """
    pairs = _index_pairs(g)
    requests = [req for p in pairs for req in ((char, (), p), (char, (p,), ()))]
    values, box = _lattice_sums(g, tau, z, requests, tol * 1e-3)
    zz, tt = values[0::2], values[1::2]
    entries = {(i, j): abs(zz[k] - 2j * math.pi * (1 + (i == j)) * tt[k])
               for k, (i, j) in enumerate(pairs)}
    return HeatReport(max(entries.values()), entries, box)


# -- numeric forms and the transformation law -----------------------------------


class NumericForm(NamedTuple):
    """A numeric modular form: a jet on one function F, read on the
    derivatives of the theta-null product T (T^p is the jet F^p).  Its
    lattice sums check tau."""

    weight: int
    character: bool
    label: str
    jet: jets.JetPoly

    def eval(self, tau) -> complex:
        return self.eval_box(tau)[0]

    def eval_box(self, tau, tol: float = 1e-12) -> tuple[complex, _Box]:
        """The value and the lattice box its theta sums used, at tail tolerance tol."""
        value, _, box = _read_on_tnull(self.jet, tau, tol)
        return complex(value), box


def _splits(d: tuple) -> list:
    """The product rule for a derivative tuple d: (left, right) for each
    subset of its positions, left the pairs in the subset."""
    return [(tuple(p for i, p in enumerate(d) if m >> i & 1),
             tuple(p for i, p in enumerate(d) if not m >> i & 1)) for m in range(1 << len(d))]


def _tnull_derivatives(tau, derivs, tol: float = 1e-12) -> tuple[dict, list, _Box]:
    """The derivative of the theta-null product T for each tuple of derivs
    (symmetrized, as a jet variable's), the ten theta values in _EVEN2
    order, and the lattice box.

    One batch asks each theta constant for the sub-tuples of derivs only;
    the product rule folds the factors in one at a time, with no division.
    """
    subs = sorted({left for d in derivs for left, _ in _splits(d)})
    n = len(subs)
    values, box = _lattice_sums(2, tau, None, [(c, d, ()) for c in _EVEN2 for d in subs],
                                tol)
    # each theta constant's derivatives, with the factor (1 + delta_ij)/2 per pair
    scale = [0.5 ** sum(i != j for i, j in d) for d in subs]
    factors = [{d: c * v for d, c, v in zip(subs, scale, values[k:k + n])}
               for k in range(0, len(values), n)]
    rules = {d: _splits(d) for d in subs}
    product = factors[0]
    for f in factors[1:]:
        product = {d: sum(product[left] * f[right] for left, right in rules[d]) for d in subs}
    return {d: product[d] for d in derivs}, [f[()] for f in factors], box


def _read_on_tnull(jet: jets.JetPoly, tau, tol: float = 1e-12) -> tuple[complex, list, _Box]:
    """A jet on F read on the theta-null product T at tau, each jet variable
    the derivative of T that one _tnull_derivatives batch gives; with the ten
    theta values and the lattice box of that batch."""
    terms = [(float(c), [d for _, d in mono]) for mono, c in jet.terms.items()]
    values, thetas, box = _tnull_derivatives(tau, {d for _, ds in terms for d in ds}, tol)
    return sum(c * math.prod(values[d] for d in ds) for c, ds in terms), thetas, box


def form_tnull(power: int = 1) -> NumericForm:
    """T^power for the genus-2 theta-null product T (weight 5, character):
    the jet F^power."""
    return NumericForm(5 * power, power % 2 == 1, f"tnull^{power}",
                       jets.JetPoly.symbol("F") ** power)


def form_operator_tnull(a: int) -> NumericForm:
    """The operator output on T, weight 2a+2: the jet jets.operator_jet of
    build_Q(2, a), which apply evaluates on expansions."""
    return NumericForm(2 * a + 2, False, f"operator output (a={a})",
                       jets.operator_jet(opgen.build_Q(2, a)))


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


class ModularityReport(NamedTuple):
    """The transformation law's error at one point, and its evaluations' larger box."""

    rel_err: float
    sign: int
    inconclusive: bool
    value: complex
    box: _Box


def check_modularity(form: NumericForm, gamma, tau,
                     tol: float = TOL_MODULARITY) -> ModularityReport:
    """Relative error of f(gamma tau) against det(C tau + D)^w f(tau).

    For forms with a character the sign is a free +-1 and the better match is
    reported.  Points where |f(tau)| is negligible are flagged inconclusive.
    Both evaluations sum at tail tolerance tol*1e-4; the reported box is the
    larger of their boxes.
    """
    f0, box = form.eval_box(tau, tol * 1e-4)  # its lattice sums check tau

    def report(rel_err, sign, inconclusive=False):
        return ModularityReport(rel_err, sign, inconclusive, f0, box)

    if abs(f0) < 1e-12:
        return report(float("nan"), +1, True)
    taup, det = symplectic_act(gamma, tau)
    taup = (taup + taup.T) / 2  # symmetrize away roundoff
    f1, box1 = form.eval_box(taup, tol * 1e-4)
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


class OffLocus(ValueError):
    """A point where no even theta constant vanishes: condition (*) does not apply."""


class ConditionReport(NamedTuple):
    """det(grad T) normalized, at a zero of T, and the lattice box of its batch."""

    det_value: complex
    vanishing_char: ThetaChar
    vanishing_abs: float
    box: _Box


def check_condition_star(tau, tol_zero: float = TOL_ZERO) -> ConditionReport:
    """det of the normalized gradient of the theta-null product T at a zero.

    Requires the point to lie on the zero locus (one even theta constant
    theta_* negligible there), and raises OffLocus elsewhere.  The value is
    the jet det(dF) of jets.jet_det_partial read on T's derivatives by the
    reader of the numeric forms, whose batch also gives the theta values.  Its
    product rule divides by nothing, so no 0/0 occurs, and on the locus
    every term of T_(ij) but theta_*,(ij) prod_{c != *} theta_c has the
    factor theta_*:

        det(grad T)|_{theta_* = 0} = det(grad theta_*) * prod_{c != *} theta_c^2.

    The gradient is the symmetrized, (1/(2 pi i))-normalized matrix.
    """
    det, thetas, box = _read_on_tnull(jets.jet_det_partial("F", 2), tau)
    vals = dict(zip(_EVEN2, thetas))
    star = min(_EVEN2, key=lambda c: abs(vals[c]))
    scale = max(abs(v) for v in vals.values())
    if abs(vals[star]) > tol_zero * max(scale, 1.0):
        raise OffLocus(
            f"point is not on the theta-null locus: min |theta| = {abs(vals[star]):.3e}")
    # each of the jet's two first derivatives carries one 2 pi i
    return ConditionReport(det / (2j * math.pi) ** 2, star, abs(vals[star]), box)
