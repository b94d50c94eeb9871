"""Vector-valued and scalar differential brackets, on jets and on expansions.

For forms F, G of weights k, h the vector bracket is the symmetric matrix

    {F, G} = h G dF - k F dG            (entrywise, symmetrized derivatives)

and the scalar bracket is its determinant, a form of weight g(k+h) + 2.
On jets the weights may be formal: they are carried as derivative-free
symbols, so identities such as antisymmetry or divisibility hold for all
weights at once while every coefficient stays in plain Q.  Weight symbols
are multiplied in only after differentiation (jet_diff differentiates every
symbol it sees).

On expansions each entry of vector_bracket_jet, at the operands' weights,
is evaluated by qexp.eval_jetpoly with the normalized derivative of qexp.py;
the stripped powers of 2 pi i sit in the tau_factor metadata and do not
affect boundary orders or slopes.  The scalar bracket is the determinant of
those entries (8 products at genus 2, where the scalar jet takes 12).
Delta is eta^24, a power of Jacobi's eta^3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import isqrt
from operator import mul

from .jets import JetPoly, jet_diff
from .poly import _signed_pairings
from .qexp import DEFAULT_TRUNC, QExp1, _check_trunc, eval_jetpoly


def _as_jet(x) -> JetPoly:
    if isinstance(x, JetPoly):
        return x
    if isinstance(x, str):
        return JetPoly.symbol(x)
    return JetPoly.const(x)


def vector_bracket_jet(f, k, g_form, h, genus: int) -> list[list[JetPoly]]:
    """The bracket matrix on jets; weights may be numbers or weight symbols."""
    f, g_form = _as_jet(f), _as_jet(g_form)
    k, h = _as_jet(k), _as_jet(h)
    return _symmetric(genus, lambda i, j: h * g_form * jet_diff(f, i, j)
                      - k * f * jet_diff(g_form, i, j))


def _symmetric(genus: int, entry) -> list[list]:
    """The symmetric matrix with entry(i, j) at 1 <= i <= j <= genus."""
    upper = {(i, j): entry(i, j) for i in range(1, genus + 1) for j in range(i, genus + 1)}
    return [[upper[min(i, j), max(i, j)] for j in range(1, genus + 1)]
            for i in range(1, genus + 1)]


def _det(matrix: list[list]):
    """The Leibniz determinant of a square matrix of jets or expansions:
    multiply the entries of each pairing, negate the odd terms, then sum."""
    n = len(matrix)
    total = None
    for sign, pairing in _signed_pairings(range(n), range(n)):
        term = reduce(mul, [matrix[i][j] for i, j in pairing])
        term = term if sign > 0 else -term
        total = term if total is None else total + term
    return total


def scalar_bracket_jet(f, k, g_form, h, genus: int) -> JetPoly:
    """det of the vector bracket as a jet polynomial."""
    return _det(vector_bracket_jet(f, k, g_form, h, genus))


def vector_bracket_q(f, g_form) -> list[list]:
    """The bracket matrix on expansions: each entry of vector_bracket_jet at
    the operands' weights, evaluated by eval_jetpoly on F = f and G = g_form."""
    if f.genus != g_form.genus:
        raise ValueError("bracket operands must share a genus")
    genus = f.genus
    jet = vector_bracket_jet("F", f.weight, "G", g_form.weight, genus)
    bind = {"F": f, "G": g_form}
    weight = f.weight + g_form.weight + Fraction(2, genus)

    def entry(i: int, j: int):
        e = jet[i - 1][j - 1]
        if not e.terms:  # both weights 0: the zero of d(F G), one derivative deep
            return (f.scale_coeff(0) * g_form).q_diff(i, j).with_weight(weight)
        return eval_jetpoly(e, bind)

    return _symmetric(genus, entry)


def scalar_bracket_q(f, g_form):
    """det of the bracket matrix; weight g(k+h) + 2, always boundary-vanishing."""
    return _det(vector_bracket_q(f, g_form))


def sigma_power_sum(power: int, n: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def eis1_qexp(weight: int, trunc: int = DEFAULT_TRUNC) -> QExp1:
    """Classical genus-1 Eisenstein expansions (exact integer coefficients,
    none zero, at keys 8n <= trunc: built with no second check)."""
    _check_trunc(trunc)
    if weight == 4:
        const, power = 240, 3
    elif weight == 6:
        const, power = -504, 5
    else:
        raise ValueError("only weights 4 and 6 are provided")
    terms = {(0,): 1}
    for n in range(1, trunc // QExp1.scale + 1):
        terms[(n * QExp1.scale,)] = const * sigma_power_sum(power, n)
    return QExp1._checked(1, terms, Fraction(weight), trunc, 0, False)


def delta1_qexp(trunc: int = DEFAULT_TRUNC) -> QExp1:
    """The weight-12 cusp form Delta = eta^24 (eta_power_qexp)."""
    return eta_power_qexp(24, trunc)


def eta_power_qexp(power: int, trunc: int = DEFAULT_TRUNC) -> QExp1:
    """eta^power for a power divisible by 3, weight power/2, as (eta^3)^(power/3).

    Jacobi's identity gives eta^3 = sum_{m > 0 odd} (-4/m) m q^(m^2/8), with
    (-4/m) = +-1 as m = +-1 mod 4, so its keys (exponents scaled by 8) are the
    odd squares m^2 <= trunc with coefficients +-m, built with no second
    check; the powers of eta^3 are exact products of that expansion.
    """
    if power <= 0 or power % 3:
        raise ValueError(f"eta^{power}: the power must be a positive multiple of 3")
    _check_trunc(trunc)
    terms = {(m * m,): m if m % 4 == 1 else -m for m in range(1, isqrt(trunc) + 1, 2)}
    return QExp1._checked(1, terms, Fraction(3, 2), trunc, 0, False) ** (power // 3)
