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

An exact number is an int (not a bool) or a Fraction, with a RatFunc where
Q(a) is meant; every number a caller hands the package passes the one gate
_rational, and every term of a ring constructor's dict passes _admit (ring
results are not checked).  _padd, _pmul, _pdivmod and _pgcd are the one
polynomial arithmetic: int tuples stay int tuples under + and *, and
division is exact.

Text format: a rational is ``p/q`` in lowest terms (``q`` omitted when 1);
a RatFunc is ``num ; den``, each polynomial a ``+``-joined list of nonzero
``c*a^e`` terms, low degree first: ``-1*a^0+2*a^1 ; 1*a^0`` for 2a - 1.
The SMF1 reader takes a number only in this spelling (_number_from_text).
An OPSPEC1 file is read by rebuilding its operator (opgen), so no Q(a)
text is ever parsed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Number


class PoleError(ZeroDivisionError):
    """Raised when a RatFunc is evaluated at a root of its denominator."""

    def __init__(self, a0: Fraction):
        super().__init__(f"pole: denominator vanishes at a = {a0}")
        self.a0 = a0


# -- low-level polynomial helpers (coefficient tuples, low degree first) --

def _ptrim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    out = [0] * n
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
    out = [0] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return _ptrim(out)


def _pdivmod(p: tuple, q: tuple) -> tuple[tuple, tuple]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [0] * max(len(p) - len(q) + 1, 0)
    qlead = Fraction(q[-1])  # so each quotient coefficient is a Fraction
    for shift in reversed(range(len(quot))):  # cancel the top coefficient of rem
        factor = quot[shift] = rem.pop() / qlead
        for i, c in enumerate(q[:-1]):
            rem[shift + i] -= factor * c
    return _ptrim(quot), _ptrim(rem)


def _pgcd(p: tuple, q: tuple) -> tuple:
    while q:
        p, q = q, _pdivmod(p, q)[1]
    if p:
        lead = Fraction(p[-1])
        p = tuple(c / lead for c in p)  # monic gcd
    return p


def _horner(p, x):
    """p(x) by Horner's rule, for coefficients p low degree first, in the
    ring of x: the zero of that ring when p is empty."""
    acc = x * 0
    for c in reversed(p):
        acc = acc * x + c
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


def _rational(x) -> Fraction:
    """x, an int (not a bool) or a Fraction, as a Fraction: the one gate of
    a caller's number (module docstring).  Anything else is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and x.__class__ is not bool:
        return Fraction(x)
    raise TypeError(f"coefficient {x!r} is not an exact rational")


def _admit(terms: dict | None, fault, gate) -> dict:
    """A caller's nonzero terms: each key checked by fault, then each coefficient by gate."""
    terms = terms or {}
    for k in terms:
        if why := fault(k):
            raise ValueError(why)
    return {k: c for k, c in zip(terms, map(gate, terms.values())) if c}


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


class _Memo(dict):
    """A dict that fills a missing key with fn(key); a hit is one C-level lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# Kronecker substitution: integers as the signed S-bit digits of one integer.
# The expansion product kernels of qexp and the integer D_{h;11} kernel of
# opgen decode with the same _unpack.


def _pack(row: list, S: int) -> tuple[int, int]:
    """(lowest slot, packed integer) of a row of distinct (slot, coefficient)."""
    row.sort(reverse=True)
    P = 0
    prev = row[0][0]
    for i, c in row:
        P = (P << (S * (prev - i))) + c
        prev = i
    return prev, P


def _unpack(P: int, S: int, slots: int | None = None) -> list:
    """The nonzero signed S-bit digits of P as (slot, digit), lowest first;
    only the lowest `slots` slots when given (they do not depend on the rest)."""
    mask = (1 << S) - 1
    half = 1 << (S - 1)
    full = 1 << S
    out = []
    k = 0
    while P and k != slots:
        r = P & mask
        P >>= S
        if r:
            if r >= half:
                r -= full
                P += 1
            out.append((k, r))
        k += 1
    return out


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
        if isinstance(v, (tuple, list)):
            return _ptrim([_rational(c) for c in v])
        if isinstance(v, Number):
            return _ptrim([_rational(v)])
        raise TypeError(f"cannot build polynomial from {v!r}")

    @classmethod
    def var(cls) -> "RatFunc":
        """The generator a of Q(a)."""
        return cls((0, 1))

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)) and other.__class__ is not bool:
            return RatFunc(other)
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

    def __hash__(self):  # a constant, zero included, hashes as the Fraction it equals
        return hash((self.num or (0,))[0] if self.is_constant() else (self.num, self.den))

    def eval_at(self, a0) -> Fraction:
        """Exact value at a = a0; raises PoleError at denominator roots."""
        a0 = _rational(a0)
        d = _horner(self.den, a0)
        if d == 0:
            raise PoleError(a0)
        return _horner(self.num, a0) / d

    def __repr__(self):
        return f"RatFunc({ratfunc_to_text(self)!r})"

    def __str__(self):
        return ratfunc_to_text(self)


def frac_to_text(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _int_from_text(s: str) -> int:
    """An integer as str writes it: a sign +, a leading zero, a point, an
    exponent, an underscore or a space is an error."""
    n = int(s)
    if str(n) != s:
        raise ValueError(f"{s!r} is not an integer as str writes it")
    return n


def _number_from_text(s: str) -> tuple[int, int]:
    """(p, q) of a rational as frac_to_text writes it, each part as
    _int_from_text reads it: p (q = 1), or p/q in lowest terms with q >= 2."""
    p, slash, q = s.partition("/")
    num, den = _int_from_text(p), _int_from_text(q) if slash else 1
    if slash and (den < 2 or gcd(num, den) != 1):
        raise ValueError(f"{s!r} is not p/q in lowest terms with q >= 2")
    return num, den


def frac_from_text(s: str) -> Fraction:
    """A rational as frac_to_text writes it (_number_from_text)."""
    return Fraction(*_number_from_text(s))


def _poly_to_text(p: tuple) -> str:
    if not p:
        return "0"
    return "+".join(f"{frac_to_text(c)}*a^{e}" for e, c in enumerate(p) if c != 0)


def ratfunc_to_text(f: RatFunc) -> str:
    return f"{_poly_to_text(f.num)} ; {_poly_to_text(f.den)}"


def scalar_to_text(c) -> str:
    """Serialize a coefficient from either field (Q or Q(a)), no spaces."""
    if isinstance(c, RatFunc):
        return ratfunc_to_text(c).replace(" ", "")
    return frac_to_text(c)


def _line_reader(lines: list, fmt: str):
    """(fail, value) for the parsers of the text formats.  fail(idx, msg)
    raises ValueError naming line idx + 1 of a fmt block; value(idx, key,
    conv) reads the header line 'key <value>' at idx through conv, which
    for a number is _int_from_text or frac_from_text."""

    def fail(idx: int, msg: str):
        raise ValueError(f"{fmt} line {idx + 1}: {msg}")

    def value(idx: int, key: str, conv=str):
        parts = lines[idx].split() if idx < len(lines) else []
        if len(parts) != 2 or parts[0] != key:
            fail(idx, f"expected '{key} <value>', found {' '.join(parts)!r}")
        try:
            return conv(parts[1])
        except (ValueError, ZeroDivisionError):
            fail(idx, f"bad {key} value {parts[1]!r}")

    return fail, value
