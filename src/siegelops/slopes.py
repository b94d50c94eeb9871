"""Exact divisor-class bookkeeping: classes a*lambda - b*delta and slopes.

All arithmetic is over exact rationals.  Class formulas that are computable
are computed; the handful of constants with no formula at this scale (the
genus-6 effective interval and the class of the weight-14 cusp form behind
it) are stored as cited constants with provenance strings and are never
recomputed.  Upper-bound and conjectural qualifiers are first-class data on
table entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .scalars import _rational, frac_to_text


class DivClass(NamedTuple):
    """A divisor class lam * lambda - delta * delta_boundary."""

    lam: Fraction
    delta: Fraction
    label: str = ""
    delta_lower_bound: bool = False  # the boundary coefficient is only a bound

    def __str__(self):
        return f"{frac_to_text(self.lam)}L - {frac_to_text(self.delta)}D"


def make_class(lam, delta, label: str = "") -> DivClass:
    return DivClass(_rational(lam), _rational(delta), label)


def slope(c) -> Fraction:
    """lam/delta (lam1/delta' of a CurveClass) exactly; delta = 0 has none."""
    lam, delta = c[:2]
    if delta == 0:
        raise ValueError(f"the class {c.label or c} has delta = 0 and so no slope")
    return lam / delta


def class_tnull(g: int) -> DivClass:
    """Class of the theta-null product: 2^(g-2)(2^g+1) lambda - 2^(2g-5) delta.

    The formula is uniform; at g = 2 it produces the half-integral boundary
    coefficient 1/2 (the class is integral only after doubling there).
    """
    if g < 2:
        raise ValueError("theta-null classes start at genus 2")
    lam = Fraction(2) ** (g - 2) * (2 ** g + 1)
    delta = Fraction(2) ** (2 * g - 5)
    return DivClass(lam, delta, label=f"theta-null g={g}")


def class_N0prime(g: int) -> DivClass:
    """Class of the residual singular-theta-divisor component (genus >= 4)."""
    if g < 4:
        raise ValueError("the residual component is a divisor only for g >= 4")
    lam = Fraction(math.factorial(g) * (g + 3), 4) - Fraction(2) ** (g - 3) * (2 ** g + 1)
    delta = Fraction(math.factorial(g + 1), 24) - Fraction(2) ** (2 * g - 6)
    return DivClass(lam, delta, label=f"N0' g={g}")


def _check_genus(g: int):
    if g < 1:
        raise ValueError(f"genus must be >= 1, found {g}")


def class_operator_output(g: int, c: DivClass) -> DivClass:
    """Class of the degree-g operator output: (g a + 2) lambda - (g b) delta.

    The boundary coefficient is a lower bound on the true vanishing order and
    the result is flagged accordingly.
    """
    _check_genus(g)
    return DivClass(g * c.lam + 2, g * c.delta,
                    label=f"operator output of ({c.label or c})",
                    delta_lower_bound=True)


def moving_bound(g: int, c: DivClass) -> Fraction:
    """Moving-slope upper bound a/b + 2/(b g) from a class a*lambda - b*delta:
    the slope of its operator output class."""
    if c.delta <= 0:
        raise ValueError("the bound needs a boundary-vanishing class")
    return slope(class_operator_output(g, c))


def hyperelliptic_bound(g: int) -> Fraction:
    """Slope threshold 8 + 4/g below which divisors contain the hyperelliptic locus."""
    if g < 3:
        raise ValueError("the hyperelliptic constraint needs genus >= 3")
    return Fraction(8) + Fraction(4, g)


class CurveClass(NamedTuple):
    """A divisor class on the one-node curve moduli space: lam1, delta'."""

    lam1: Fraction
    deltap: Fraction
    label: str = ""

    def slope(self) -> Fraction:
        return slope(self)


def torelli_pullback(c: DivClass) -> CurveClass:
    """Pull back along the Jacobian map: coefficients relabel unchanged."""
    return CurveClass(c.lam, c.delta, label=f"pullback of ({c.label or c})")


# -- cited constants ------------------------------------------------------------

CITED_GENUS6_FORM_CLASS = DivClass(
    Fraction(14), Fraction(2),
    label="cited: weight-14 lattice-theta cusp form on genus 6, class 14L-2D")

CITED_GENUS6_EFF_LOWER = Fraction(53, 10)  # cited lower bound for s_Eff, genus 6
CITED_GENUS1_EFF = Fraction(12)  # the discriminant cusp form, class 12L-D


# -- the known-slopes table -------------------------------------------------------


class SlopeEntry(NamedTuple):
    """One table cell: an exact value, an upper bound, or an interval."""

    value: Fraction | None = None
    interval: tuple | None = None
    qualifier: str = ""  # "", "upper-bound", "conjectural-upper"

    def render(self) -> str:
        if self.value is None and self.interval is None:
            return ""
        if self.interval is not None:
            body = f"[{frac_to_text(self.interval[0])}, {frac_to_text(self.interval[1])}]"
        else:
            body = frac_to_text(self.value)
        if self.qualifier == "upper-bound":
            return f"<= {body}"
        if self.qualifier == "conjectural-upper":
            return f"(?) <= {body}"
        return body


class TableRow(NamedTuple):
    genus: int
    eff: SlopeEntry
    mov: SlopeEntry


# genus -> (the class the operator is applied to, the qualifier of its bound)
OPERATOR_BASES = {
    2: (class_tnull(2), ""),
    3: (class_tnull(3), ""),
    4: (class_N0prime(4), ""),
    5: (class_N0prime(5), "upper-bound"),
    6: (CITED_GENUS6_FORM_CLASS, "conjectural-upper"),
}


def known_slopes_table() -> list[TableRow]:
    """Effective/moving slope table for genus 1..6.  Genus 1 is cited; each
    genus in OPERATOR_BASES has the slope of its base class as the effective
    entry (the upper end of the cited interval at genus 6) and the operator
    bound on that class as the moving entry."""
    rows = [TableRow(1, SlopeEntry(CITED_GENUS1_EFF), SlopeEntry())]
    for g, (base, qualifier) in OPERATOR_BASES.items():
        eff = (SlopeEntry(interval=(CITED_GENUS6_EFF_LOWER, slope(base))) if g == 6
               else SlopeEntry(slope(base)))
        rows.append(TableRow(g, eff, SlopeEntry(moving_bound(g, base), qualifier=qualifier)))
    return rows


def render_table() -> str:
    lines = ["genus | s_eff        | s_mov",
             "------+--------------+--------------"]
    for r in known_slopes_table():
        lines.append(f"{r.genus:>5} | {r.eff.render():<12} | {r.mov.render()}")
    return "\n".join(lines) + "\n"
