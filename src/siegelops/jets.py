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
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .poly import MultiPoly, _perm_sign
from .scalars import RatFunc, _binpow, scalar_from_text, scalar_to_text

JetVar = tuple  # (symbol: str, derivs: tuple[(i, j), ...])
JetMono = tuple  # sorted tuple of JetVar, repetitions allowed


def jet_var(symbol: str, derivs=()) -> JetVar:
    canon = tuple(sorted((min(i, j), max(i, j)) for i, j in derivs))
    return (symbol, canon)


def _mono(jvars) -> JetMono:
    return tuple(sorted(jvars))


class JetPoly:
    """Polynomial in jet variables with exact coefficients (Q or Q(a))."""

    __slots__ = ("terms", "field")

    def __init__(self, terms: dict | None = None, field: str = "Q"):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self.field = field

    @classmethod
    def zero(cls, field: str = "Q") -> "JetPoly":
        return cls({}, field)

    @classmethod
    def const(cls, c, field: str = "Q") -> "JetPoly":
        if not isinstance(c, RatFunc):
            c = Fraction(c)
        return cls({(): c} if c else {}, field)

    @classmethod
    def symbol(cls, name: str, field: str = "Q") -> "JetPoly":
        one = RatFunc(1) if field == "Qa" else Fraction(1)
        return cls({(jet_var(name),): one}, field)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, JetPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _check_field(self, other: "JetPoly"):
        if self.field != other.field:
            raise ValueError(f"field tags differ: {self.field} vs {other.field}")

    def __add__(self, other: "JetPoly") -> "JetPoly":
        self._check_field(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return JetPoly(out, self.field)

    def __neg__(self) -> "JetPoly":
        return JetPoly({m: -c for m, c in self.terms.items()}, self.field)

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        return self + (-other)

    def __mul__(self, other: "JetPoly") -> "JetPoly":
        self._check_field(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono(m1 + m2)
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return JetPoly(out, self.field)

    def __pow__(self, n: int) -> "JetPoly":
        return _binpow(self, n) if n else JetPoly.const(1, self.field)

    def scale(self, c) -> "JetPoly":
        field = "Qa" if isinstance(c, RatFunc) else self.field
        if not c:
            return JetPoly.zero(field)
        return JetPoly({m: c * cm for m, cm in self.terms.items()}, field)

    def promote(self) -> "JetPoly":
        if self.field == "Qa":
            return self
        return JetPoly({m: RatFunc(c) for m, c in self.terms.items()}, "Qa")

    def symbols(self) -> set:
        return {v[0] for m in self.terms for v in m}

    def symbol_count(self, name: str) -> int:
        """Minimum multiplicity of a symbol (derived occurrences included) over monomials."""
        if not self.terms:
            return 0
        return min(sum(1 for v in m if v[0] == name) for m in self.terms)

    def __repr__(self):
        return f"JetPoly({len(self.terms)} terms, field={self.field})"


def jet_equal(p: JetPoly, q: JetPoly) -> bool:
    """Canonical forms are maintained by construction, so equality is structural."""
    p._check_field(q)
    return p.terms == q.terms


def jet_apply(q: MultiPoly, assignment: dict[int, str], g: int) -> JetPoly:
    """Expand the constant-coefficient operator attached to q on g function slots.

    Each monomial prod_h prod_s r_{h; i_s j_s} becomes the product over all
    slots h = 1..g of the jet variable (assignment[h], pairs for slot h);
    slots without matrix entries contribute the bare symbol.  q must involve
    matrix entries only.
    """
    missing = set(range(1, g + 1)) - set(assignment)
    if missing:
        raise ValueError(f"matrix indices {sorted(missing)} have no assigned symbol")
    out: dict = {}
    for m, c in q.terms.items():
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
        s = out.get(mono)
        s = c if s is None else s + c
        if s:
            out[mono] = s
        elif mono in out:
            del out[mono]
    return JetPoly(out, q.field)


def jet_det_partial(symbol: str, g: int, field: str = "Q") -> JetPoly:
    """det of the g x g matrix of first-derivative jet variables (F_(ij))."""
    one = RatFunc(1) if field == "Qa" else Fraction(1)
    out: dict = {}
    for sigma in itertools.permutations(range(1, g + 1)):
        sign = _perm_sign(sigma)
        m = _mono(jet_var(symbol, ((i, sigma[i - 1]),)) for i in range(1, g + 1))
        out[m] = out.get(m, 0) + sign
    return JetPoly({m: one * c for m, c in out.items() if c}, field)


def jet_minor_det_partial(symbol: str, rows, cols, field: str = "Q") -> JetPoly:
    """det of the submatrix of (F_(ij)) with the given rows and columns."""
    rows, cols = list(rows), list(cols)
    if not rows:
        return JetPoly.const(1, field)
    one = RatFunc(1) if field == "Qa" else Fraction(1)
    out: dict = {}
    for sigma in itertools.permutations(range(len(rows))):
        sign = _perm_sign(tuple(s + 1 for s in sigma))
        m = _mono(jet_var(symbol, ((r, cols[sigma[k]]),)) for k, r in enumerate(rows))
        out[m] = out.get(m, 0) + sign
    return JetPoly({m: one * c for m, c in out.items() if c}, field)


def jet_det_operator(symbol: str, rows, cols, field: str = "Q") -> JetPoly:
    """The order-|rows| minor determinant operator applied to one symbol.

    Each Leibniz term is a single jet variable carrying all |rows| derivative
    pairs; rows == cols == 1..g gives the pure g-th order operator (det d)F.
    """
    rows, cols = list(rows), list(cols)
    if not rows:
        return JetPoly.symbol(symbol, field)
    one = RatFunc(1) if field == "Qa" else Fraction(1)
    out: dict = {}
    for sigma in itertools.permutations(range(len(rows))):
        sign = _perm_sign(tuple(s + 1 for s in sigma))
        pairs = [(r, cols[sigma[k]]) for k, r in enumerate(rows)]
        m = (jet_var(symbol, pairs),)
        out[m] = out.get(m, 0) + sign
    return JetPoly({m: one * c for m, c in out.items() if c}, field)


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
            mono = _mono(m[:idx] + m[idx + 1:] + (newvar,))
            cc = c * mult
            s = out.get(mono)
            s = cc if s is None else s + cc
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
    return JetPoly(out, p.field)


def diffresult_expand(g: int, n: tuple, symbol: str = "F", field: str = "Q") -> JetPoly:
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
    one = RatFunc(1) if field == "Qa" else Fraction(1)
    fact_gm = 1
    for v in range(1, g - m + 1):
        fact_gm *= v
    total = JetPoly.zero(field)
    universe = list(range(1, g + 1))
    for I in itertools.combinations(universe, m):
        for J in itertools.combinations(universe, m):
            eps = (-1) ** (sum(I) + sum(J))
            Ic = [v for v in universe if v not in I]
            Jc = [v for v in universe if v not in J]
            piece = jet_det_operator(symbol, I, J, field) * \
                jet_minor_det_partial(symbol, Ic, Jc, field)
            total = total + piece.scale(one * (eps * fact_gm))
    bare = JetPoly.symbol(symbol, field)
    return total * bare ** (m - 1)


# -- JET1 text format ---------------------------------------------------------

def _jvar_to_text(v: JetVar) -> str:
    sym, derivs = v
    return sym + "{" + "".join(f"({i},{j})" for i, j in derivs) + "}"


def _jvar_from_text(s: str) -> JetVar:
    sym, _, body = s.partition("{")
    body = body.rstrip("}")
    derivs = []
    for chunk in body.split(")"):
        chunk = chunk.strip("(")
        if chunk:
            i, j = chunk.split(",")
            derivs.append((int(i), int(j)))
    return jet_var(sym, derivs)


def jet_to_text(p: JetPoly) -> str:
    """JET1: header line then one term per line, 'coeff | F{(1,1)(2,2)} G{} ...'."""
    lines = [f"JET1 field={p.field} terms={len(p.terms)}"]
    for m in sorted(p.terms):
        vars_txt = " ".join(_jvar_to_text(v) for v in m) if m else "1{}"
        lines.append(f"{scalar_to_text(p.terms[m])} | {vars_txt}")
    return "\n".join(lines) + "\n"


def jet_from_text(text: str) -> JetPoly:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "JET1":
        raise ValueError("not a JET1 block")
    field = head[1].split("=")[1]
    terms: dict = {}
    for ln in lines[1:]:
        coeff_txt, _, vars_txt = ln.partition("|")
        jvars = [_jvar_from_text(tok) for tok in vars_txt.split() if tok != "1{}"]
        terms[_mono(jvars)] = scalar_from_text(coeff_txt.strip())
    return JetPoly(terms, field)
