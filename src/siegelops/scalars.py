"""Exact scalar arithmetic: arbitrary-precision rationals and the field Q(a).

Two coefficient domains are used throughout the package:

  * plain rationals, represented by ``fractions.Fraction`` (exact, never
    rounded);
  * the univariate rational-function field Q(a) in the formal weight
    parameter ``a``, represented by :class:`RatFunc`.

A RatFunc is stored as a pair of coefficient tuples (numerator, denominator,
low degree first) in canonical form: the denominator is monic, the fraction
is reduced (polynomial gcd 1), and the zero function has an empty numerator.
Canonical form makes equality a structural comparison and zero-testing a
length check.

Text format: a rational is ``p/q`` (``q`` omitted when 1); a RatFunc is
``num ; den`` where each polynomial is a ``+``-joined list of ``c*a^e``
terms, e.g. ``2*a^1+-1*a^0 ; 1*a^0`` for 2a - 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Fraction

ScalarLike = Union[int, Fraction, "RatFunc"]


class PoleError(ZeroDivisionError):
    """Raised when a RatFunc is evaluated at a root of its denominator."""

    def __init__(self, a0: Fraction):
        super().__init__(f"pole: denominator vanishes at a = {a0}")
        self.a0 = a0


# -- low-level polynomial helpers (coefficient tuples, low degree first) --

def _ptrim(c: list[Fraction]) -> tuple[Fraction, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _ptrim(out)


def _pneg(p: tuple) -> tuple:
    return tuple(-c for c in p)


def _pmul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return _ptrim(out)


def _pdivmod(p: tuple, q: tuple) -> tuple[tuple, tuple]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    qlead = q[-1]
    while len(rem) >= len(q) and any(c != 0 for c in rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(q)
        factor = rem[-1] / qlead
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return _ptrim(quot), _ptrim(rem)


def _pgcd(p: tuple, q: tuple) -> tuple:
    while q:
        p, q = q, _pdivmod(p, q)[1]
    if p:
        lead = p[-1]
        p = tuple(c / lead for c in p)  # monic gcd
    return p


def _peval(p: tuple, a0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * a0 + c
    return acc


def _binpow(base, n: int):
    """base ** n for n >= 1 by left-to-right binary powering.

    The result starts from base, and each bit of n after the top one costs a
    squaring plus, for a set bit, one product with base: bit_length(n) - 1
    squarings and popcount(n) - 1 products in all.  Every ring class keeps
    its own __pow__, which handles n = 0 and calls this.
    """
    if n < 1:
        raise ValueError(f"binary powering needs an exponent >= 1, got {n}")
    out = base
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


def _accumulate(terms: dict, m, c):
    """terms[m] += c, dropping the key when the sum cancels.

    The one add-and-drop-zero step of every sparse dict in the package
    (polynomials, jets, expansions).
    """
    s = terms.get(m)
    if s is None:
        terms[m] = c
        return
    s = s + c
    if s:
        terms[m] = s
    else:
        del terms[m]


class RatFunc:
    """An element of Q(a), kept in canonical reduced/monic form."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = self._as_coeffs(num)
        den = self._as_coeffs(den)
        if not den:
            raise ZeroDivisionError("RatFunc with zero denominator")
        if not num:
            den = (Fraction(1),)
        else:
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                num = tuple(c / lead for c in num)
                den = tuple(c / lead for c in den)
        self.num = num
        self.den = den

    @staticmethod
    def _as_coeffs(v) -> tuple:
        if isinstance(v, tuple):
            return _ptrim([Fraction(c) for c in v])
        if isinstance(v, list):
            return _ptrim([Fraction(c) for c in v])
        if isinstance(v, (int, Fraction)):
            return _ptrim([Fraction(v)])
        raise TypeError(f"cannot build polynomial from {v!r}")

    @classmethod
    def var(cls) -> "RatFunc":
        """The generator a of Q(a)."""
        return cls((0, 1))

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(Fraction(c))

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(Fraction(other))
        return None

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                       _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num = _pneg(self.num)
        r.den = self.den
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar leaves the denominator and the gcd unchanged
            if not other:
                return RatFunc()
            r = RatFunc.__new__(RatFunc)
            r.num = tuple(c * other for c in self.num)
            r.den = self.den
            return r
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero in Q(a)")
        return RatFunc(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(1) / self ** (-n)
        return _binpow(self, n) if n else RatFunc(1)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def eval_at(self, a0) -> Fraction:
        """Exact value at a = a0; raises PoleError at denominator roots."""
        a0 = Fraction(a0)
        d = _peval(self.den, a0)
        if d == 0:
            raise PoleError(a0)
        return _peval(self.num, a0) / d

    def __repr__(self):
        return f"RatFunc({ratfunc_to_text(self)!r})"

    def __str__(self):
        return ratfunc_to_text(self)


A = RatFunc.var()


def frac_to_text(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def frac_from_text(s: str) -> Fraction:
    return Fraction(s.strip())


def _poly_to_text(p: tuple) -> str:
    if not p:
        return "0"
    return "+".join(f"{frac_to_text(c)}*a^{e}" for e, c in enumerate(p) if c != 0)


def _poly_from_text(s: str) -> tuple:
    s = s.strip()
    if s == "0":
        return ()
    coeffs: dict[int, Fraction] = {}
    for term in s.split("+"):
        c, _, e = term.partition("*a^")
        coeffs[int(e)] = coeffs.get(int(e), Fraction(0)) + Fraction(c)
    if not coeffs:
        return ()
    out = [Fraction(0)] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return _ptrim(out)


def ratfunc_to_text(f: RatFunc) -> str:
    return f"{_poly_to_text(f.num)} ; {_poly_to_text(f.den)}"


def ratfunc_from_text(s: str) -> RatFunc:
    num, _, den = s.partition(";")
    return RatFunc(_poly_from_text(num), _poly_from_text(den if den.strip() else "1*a^0"))


def scalar_to_text(c) -> str:
    """Serialize a coefficient from either field (Q or Q(a)), no spaces."""
    if isinstance(c, RatFunc):
        return ratfunc_to_text(c).replace(" ", "")
    return frac_to_text(c)


def scalar_from_text(s: str):
    if ";" in s:
        return ratfunc_from_text(s)
    return frac_from_text(s)
