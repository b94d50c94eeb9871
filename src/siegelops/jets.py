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
Every determinant here is poly._leibniz over one-term jets, the Leibniz
sum that is also the bracket determinant of brackets.py; its pairings
come from the generator that expands the pencil determinants of poly.py.

jet_apply reads the poly.PackedPoly of coeff_R and build_Q, with no decode.
operator_jet is the one definition of the operator's action on a function:
apply and the numeric D25T2 form of theta both evaluate it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import partial, reduce

from .poly import PackedPoly, _coefficients, _index_pairs, _leibniz, _packing, _SparsePoly
from .scalars import _accumulate, _Memo, _padd

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

    @staticmethod
    def _mono_fault(m) -> str | None:
        """Why m is not a JetMono, if so: a sorted tuple of jet variables,
        each a str symbol with int index pairs and equal to jet_var of itself."""
        if (type(m) is tuple and all(
                type(v) is tuple and len(v) == 2 and type(v[0]) is str and type(v[1]) is tuple
                and all(type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int
                        for p in v[1]) and jet_var(*v) == v
                for v in m) and m == _mono(m)):
            return None
        return f"jet monomial {m!r} is not a sorted tuple of canonical jet variables"

    @classmethod
    def symbol(cls, name: str) -> "JetPoly":
        return cls({(jet_var(name),): Fraction(1)})

    def symbols(self) -> set:
        return {v[0] for m in self.terms for v in m}


def _slot_var(symbol: str, pairs: list, bits: int) -> JetVar:
    """The jet variable of a slot whose R_h block of nibbles is bits."""
    return jet_var(symbol, [ij for p, ij in enumerate(pairs) for _ in range(bits >> 4 * p & 15)])


def jet_apply(q: PackedPoly, assignment: dict[int, str], g: int) -> JetPoly:
    """Expand the constant-coefficient operator attached to q on g function slots.

    Each monomial prod_h prod_s r_{h; i_s j_s} becomes the product over all
    slots h = 1..g of the jet variable (assignment[h], pairs for slot h);
    slots without matrix entries contribute the bare symbol.  q, a genus-g
    PackedPoly, must involve matrix entries only.

    Slot h's jet variable is read from the R_h block of each packed key,
    through one memo per block.  The integer numerators of the monomials
    that meet in one jet monomial are added (integer polynomials in a for
    Q(a)), and each distinct nonzero sum becomes one coefficient through
    poly._coefficient, so no field operation runs per term.
    """
    slots = set(range(1, g + 1))
    if missing := slots - set(assignment):
        raise ValueError(f"matrix indices {sorted(missing)} have no assigned symbol")
    if q.g != g:
        raise ValueError(f"operator polynomial of genus {q.g} on {g} slots")
    if t := reduce(operator.or_, q.nums, 0) & (1 << 4 * g) - 1:  # the t-block nibbles
        lowest = _packing(g).names[((t & -t).bit_length() - 1) // 4]
        raise ValueError(f"operator polynomial mentions non-matrix variable {lowest}")
    pairs = _index_pairs(g)
    mask = (1 << 4 * len(pairs)) - 1
    blocks = [(4 * (g + (h - 1) * len(pairs)), _Memo(partial(_slot_var, assignment[h], pairs)))
              for h in range(1, g + 1)]
    sums: dict = {}
    for key, num in q.nums.items():
        mono = _mono([memo[key >> shift & mask] for shift, memo in blocks])
        sums.setdefault(mono, []).append(num)
    sums = {m: reduce(_padd, parts) if isinstance(q.den, tuple) else sum(parts)
            for m, parts in sums.items()}  # integer polynomials in Q(a), ints in Q
    coeff = _coefficients(q.den)
    return JetPoly._nonzero({m: coeff[s] for m, s in sums.items() if s})


def operator_jet(spec) -> JetPoly:
    """The built operator's jet on one function F: jet_apply of spec.Q (an
    opgen.OperatorSpec) with every slot bound to F, divided by g!.  cli apply
    evaluates it on expansions, theta.form_operator_tnull on lattice sums."""
    g = spec.g
    jet = jet_apply(spec.Q, dict.fromkeys(range(1, g + 1), "F"), g)
    return jet.scale(Fraction(1, math.factorial(g)))


def jet_det_partial(symbol: str, g: int, field: str = "Q") -> JetPoly:
    """det of the g x g matrix of first-derivative jet variables (F_(ij)), promoted
    to Q(a) for field "Qa", an argument kept for callers that pass it by position."""
    det = jet_minor_det_partial(symbol, range(1, g + 1), range(1, g + 1))
    return det.promote() if field == "Qa" else det


def jet_minor_det_partial(symbol: str, rows, cols) -> JetPoly:
    """det of the submatrix of (F_(ij)) with the given rows and columns."""
    return _leibniz(rows, cols, lambda pairing: JetPoly._nonzero(
        {_mono(jet_var(symbol, (p,)) for p in pairing): Fraction(1)}))


def jet_det_operator(symbol: str, rows, cols) -> JetPoly:
    """The order-|rows| minor determinant operator applied to one symbol.

    Each Leibniz term is a single jet variable carrying all |rows| derivative
    pairs; rows == cols == 1..g gives the pure g-th order operator (det d)F,
    and empty rows and cols give the symbol itself.
    """
    return _leibniz(rows, cols, lambda ps: JetPoly._nonzero({(jet_var(symbol, ps),): Fraction(1)}))


def jet_mod_symbol(p: JetPoly, symbol: str) -> JetPoly:
    """Drop every monomial containing the bare (underived) symbol.

    The result equals p on the zero locus of the function bound to symbol.
    """
    bare = jet_var(symbol)
    return JetPoly._nonzero({m: c for m, c in p.terms.items() if bare not in m})


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
    return JetPoly._nonzero(out)


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
