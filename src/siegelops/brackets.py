"""Vector-valued and scalar differential brackets, on jets and on expansions.

For forms F, G of weights k, h the vector bracket is the symmetric matrix

    {F, G} = h G dF - k F dG            (entrywise, symmetrized derivatives)

and the scalar bracket is its determinant, a form of weight g(k+h) + 2.
On jets the weights may be formal: they are carried as derivative-free
symbols, so identities such as antisymmetry or divisibility hold for all
weights at once while every coefficient stays in plain Q.  Weight symbols
are multiplied in only after differentiation (jet_diff differentiates every
symbol it sees).

On expansions the normalized derivative of qexp.py is used throughout; the
stripped powers of 2 pi i sit in the tau_factor metadata and do not affect
boundary orders or slopes.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import JetPoly, jet_diff
from .poly import _signed_pairings
from .qexp import DEFAULT_TRUNC, QExp1

WEIGHT_F = "k"
WEIGHT_G = "h"
WEIGHT_H = "ell"


def weight_symbol(name: str) -> JetPoly:
    """A formal scalar weight as a derivative-free jet symbol."""
    return JetPoly.symbol(name)


def _as_jet(x, field="Q") -> JetPoly:
    if isinstance(x, JetPoly):
        return x
    if isinstance(x, str):
        return JetPoly.symbol(x, field)
    return JetPoly.const(x, field)


def vector_bracket_jet(f, k, g_form, h, genus: int) -> list[list[JetPoly]]:
    """The bracket matrix on jets; weights may be numbers or weight symbols."""
    f, g_form = _as_jet(f), _as_jet(g_form)
    k, h = _as_jet(k), _as_jet(h)
    rows = []
    for i in range(1, genus + 1):
        row = []
        for j in range(1, genus + 1):
            if j < i:
                row.append(rows[j - 1][i - 1])
                continue
            row.append(h * g_form * jet_diff(f, i, j) - k * f * jet_diff(g_form, i, j))
        rows.append(row)
    return rows


def _jet_det(matrix: list[list[JetPoly]]) -> JetPoly:
    n = len(matrix)
    out = JetPoly.zero(matrix[0][0].field)
    for sign, pairing in _signed_pairings(range(n), range(n)):
        term = JetPoly.const(sign, matrix[0][0].field)
        for i, j in pairing:
            term = term * matrix[i][j]
        out = out + term
    return out


def scalar_bracket_jet(f, k, g_form, h, genus: int) -> JetPoly:
    """det of the vector bracket as a jet polynomial."""
    return _jet_det(vector_bracket_jet(f, k, g_form, h, genus))


def vector_bracket_q(f, g_form) -> list[list]:
    """The bracket matrix on expansions; weights are read from the operands."""
    if f.genus != g_form.genus:
        raise ValueError("bracket operands must share a genus")
    k, h = f.weight, g_form.weight
    genus = f.genus
    entry_weight = k + h + Fraction(2, genus)
    rows = []
    for i in range(1, genus + 1):
        row = []
        for j in range(1, genus + 1):
            if j < i:
                row.append(rows[j - 1][i - 1])
                continue
            e = g_form.scale_coeff(h) * f.q_diff(i, j) - f.scale_coeff(k) * g_form.q_diff(i, j)
            row.append(e.with_weight(entry_weight))
        rows.append(row)
    return rows


def scalar_bracket_q(f, g_form):
    """det of the bracket matrix; weight g(k+h) + 2, always boundary-vanishing."""
    m = vector_bracket_q(f, g_form)
    genus = f.genus
    if genus == 1:
        return m[0][0]
    if genus == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[0][1]
    raise ValueError("expansion brackets are implemented for genus 1 and 2")


def sigma_power_sum(power: int, n: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def eis1_qexp(weight: int, trunc: int = DEFAULT_TRUNC) -> QExp1:
    """Classical genus-1 Eisenstein expansions (exact integer coefficients)."""
    if weight == 4:
        const, power = 240, 3
    elif weight == 6:
        const, power = -504, 5
    else:
        raise ValueError("only weights 4 and 6 are provided")
    terms = {0: Fraction(1)}
    for n in range(1, trunc // QExp1.scale + 1):
        terms[n * QExp1.scale] = Fraction(const * sigma_power_sum(power, n))
    return QExp1(terms, Fraction(weight), trunc)


def delta1_qexp(trunc: int = DEFAULT_TRUNC) -> QExp1:
    """The weight-12 cusp expansion (E4^3 - E6^2)/1728."""
    e4 = eis1_qexp(4, trunc)
    e6 = eis1_qexp(6, trunc)
    diff = e4 ** 3 - e6 ** 2
    return diff.scale_coeff(Fraction(1, 1728))
