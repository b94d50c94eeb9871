"""Formal jet algebra: function symbols and their commuting symmetric partials.

A jet variable is a pair (symbol, derivs) where derivs is a sorted tuple of
index pairs (i, j) with i <= j; it stands for the symmetrized derivative

    prod over (i,j) of  ((1+delta_ij)/2) d/dtau_ij   applied to the symbol.

The empty tuple is the undifferentiated symbol.  The symmetrization factor is
part of the meaning of the variable itself, so determinant identities built
from the matrix (F_(ij)) can be compared verbatim against expansions produced
by applying polynomials in matrix entries.

Scalar parameters (weights appearing in bracket identities) are encoded as
ordinary derivative-free symbols, which keeps every JetPoly over plain Q;
they must only ever be multiplied in after all differentiations.

JetPoly is the second subclass of poly._SparsePoly, the sparse-dict ring
that MultiPoly also uses; its monomial product is sorted concatenation.
Every determinant here is a sum over poly._signed_pairings, the Leibniz
generator that also expands the pencil determinants of poly.py and the
bracket determinant of brackets.py.

operator_jet is the one definition of the operator's action on a function:
apply and the numeric D25T2 form of theta both evaluate it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .poly import (MultiPoly, _cleared, _coefficients, _field_one, _signed_pairings,
                   _SparsePoly)
from .scalars import _accumulate, _ptrim

JetVar = tuple  # (symbol: str, derivs: tuple[(i, j), ...])
JetMono = tuple  # sorted tuple of JetVar, repetitions allowed


def jet_var(symbol: str, derivs=()) -> JetVar:
    canon = tuple(sorted((min(i, j), max(i, j)) for i, j in derivs))
    return (symbol, canon)


def _mono(jvars) -> JetMono:
    return tuple(sorted(jvars))


class JetPoly(_SparsePoly):
    """Polynomial in jet variables with exact coefficients (Q or Q(a))."""

    __slots__ = ()

    @staticmethod
    def _mono_mul(m1: JetMono, m2: JetMono) -> JetMono:
        return _mono(m1 + m2)

    @classmethod
    def symbol(cls, name: str, field: str = "Q") -> "JetPoly":
        return cls({(jet_var(name),): _field_one(field)}, field)

    def symbols(self) -> set:
        return {v[0] for m in self.terms for v in m}

    def symbol_count(self, name: str) -> int:
        """Minimum multiplicity of a symbol (derived occurrences included) over monomials."""
        if not self.terms:
            return 0
        return min(sum(1 for v in m if v[0] == name) for m in self.terms)


def jet_apply(q: MultiPoly, assignment: dict[int, str], g: int) -> JetPoly:
    """Expand the constant-coefficient operator attached to q on g function slots.

    Each monomial prod_h prod_s r_{h; i_s j_s} becomes the product over all
    slots h = 1..g of the jet variable (assignment[h], pairs for slot h);
    slots without matrix entries contribute the bare symbol.  q must involve
    matrix entries only.

    The sums run on q's cleared form (poly._cleared): integer numerators
    over one denominator, integer polynomials in a for Q(a).  The
    numerators of the monomials that meet in one jet monomial are added
    as integers, and each distinct nonzero sum becomes one coefficient
    through poly._coefficient, so no field operation runs per term.
    """
    missing = set(range(1, g + 1)) - set(assignment)
    if missing:
        raise ValueError(f"matrix indices {sorted(missing)} have no assigned symbol")
    den, nums = _cleared(q.field, q.terms)
    sums: dict = {}
    for m, num in nums.items():
        per_slot: dict[int, list] = {}
        for v, e in m:
            if v[0] != "r":
                raise ValueError(f"operator polynomial mentions non-matrix variable {v}")
            per_slot.setdefault(v[1], []).extend([(v[2], v[3])] * e)
        unknown = set(per_slot) - set(range(1, g + 1))
        if unknown:
            raise ValueError(f"matrix indices {sorted(unknown)} exceed genus {g}")
        mono = _mono(jet_var(assignment[h], per_slot.get(h, ()))
                     for h in range(1, g + 1))
        sums.setdefault(mono, []).append(num)
    if isinstance(den, tuple):  # integer polynomials, low degree first
        sums = {m: _ptrim(list(map(sum, itertools.zip_longest(*parts, fillvalue=0))))
                for m, parts in sums.items()}
    else:
        sums = {m: sum(parts) for m, parts in sums.items()}
    coeff = _coefficients(den)
    return JetPoly._nonzero({m: coeff[s] for m, s in sums.items() if s}, q.field)


def operator_jet(spec) -> JetPoly:
    """The built operator's jet on one function F: jet_apply of spec.Q (an
    opgen.OperatorSpec) with every slot bound to F, divided by g!.  cli apply
    evaluates it on expansions, theta.form_operator_tnull on lattice sums."""
    g = spec.g
    jet = jet_apply(spec.Q, dict.fromkeys(range(1, g + 1), "F"), g)
    return jet.scale(Fraction(1, math.factorial(g)))


def _jet_leibniz(rows, cols, field: str, mono) -> JetPoly:
    """sum over the Leibniz terms of the rows x cols determinant of
    sign * mono(pairing), where mono maps a pairing to a jet monomial."""
    out: dict = {}
    for sign, pairing in _signed_pairings(list(rows), list(cols)):
        _accumulate(out, mono(pairing), sign)
    one = _field_one(field)
    return JetPoly({m: one * c for m, c in out.items()}, field)


def jet_det_partial(symbol: str, g: int, field: str = "Q") -> JetPoly:
    """det of the g x g matrix of first-derivative jet variables (F_(ij))."""
    return jet_minor_det_partial(symbol, range(1, g + 1), range(1, g + 1), field)


def jet_minor_det_partial(symbol: str, rows, cols, field: str = "Q") -> JetPoly:
    """det of the submatrix of (F_(ij)) with the given rows and columns."""
    return _jet_leibniz(rows, cols, field,
                        lambda pairing: _mono(jet_var(symbol, (p,)) for p in pairing))


def jet_det_operator(symbol: str, rows, cols, field: str = "Q") -> JetPoly:
    """The order-|rows| minor determinant operator applied to one symbol.

    Each Leibniz term is a single jet variable carrying all |rows| derivative
    pairs; rows == cols == 1..g gives the pure g-th order operator (det d)F,
    and empty rows and cols give the symbol itself.
    """
    return _jet_leibniz(rows, cols, field, lambda pairing: (jet_var(symbol, pairing),))


def jet_mod_symbol(p: JetPoly, symbol: str) -> JetPoly:
    """Drop every monomial containing the bare (underived) symbol.

    The result equals p on the zero locus of the function bound to symbol.
    """
    bare = jet_var(symbol)
    return JetPoly({m: c for m, c in p.terms.items() if bare not in m}, p.field)


def jet_diff(p: JetPoly, i: int, j: int) -> JetPoly:
    """Formal symmetrized derivative: Leibniz over factors, appending (i,j).

    Every symbol is differentiated; scalar parameter symbols must be
    multiplied in only after differentiation.
    """
    pair = (min(i, j), max(i, j))
    out: dict = {}
    for m, c in p.terms.items():
        for idx in range(len(m)):
            if idx > 0 and m[idx] == m[idx - 1]:
                continue  # identical factors: differentiate once, weight by count
            mult = sum(1 for v in m if v == m[idx])
            sym, derivs = m[idx]
            newvar = jet_var(sym, derivs + (pair,))
            _accumulate(out, _mono(m[:idx] + m[idx + 1:] + (newvar,)), c * mult)
    return JetPoly(out, p.field)


def diffresult_expand(g: int, n: tuple, symbol: str = "F") -> JetPoly:
    """Minor-sum expansion of the operator attached to B(n), for admissible n.

    Admissible shapes have one entry m >= 1, all other entries 0 or 1 (these
    are the only n with nonzero coefficient in the operator construction).
    The expansion is

        F^(m-1) * sum over |I|=|J|=m of
            eps(I,J) (g-m)! (minor-det-operator_{I,J} F) * det_{Ic,Jc}(dF)

    with eps(I,J) = (-1)^(sum I + sum J), subsets enumerated ascending.
    """
    shape = sorted(n, reverse=True)
    m = shape[0]
    if len(n) != g or sum(n) != g or any(v not in (0, 1) for v in shape[1:]):
        raise ValueError(f"multi-index {n} does not have an admissible shape")
    fact_gm = math.factorial(g - m)
    total = JetPoly.zero()
    universe = list(range(1, g + 1))
    for I in itertools.combinations(universe, m):
        for J in itertools.combinations(universe, m):
            eps = (-1) ** (sum(I) + sum(J))
            Ic = [v for v in universe if v not in I]
            Jc = [v for v in universe if v not in J]
            piece = jet_det_operator(symbol, I, J) * jet_minor_det_partial(symbol, Ic, Jc)
            total = total + piece.scale(Fraction(eps * fact_gm))
    bare = JetPoly.symbol(symbol)
    return total * bare ** (m - 1)
