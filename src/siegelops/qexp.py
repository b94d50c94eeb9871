"""Truncated Fourier expansions of genus-1 and genus-2 forms, exact arithmetic.

Genus-2 expansions live on an integer exponent lattice: writing the period
matrix in block coordinates with q1 = exp(2 pi i tau11), zeta = exp(2 pi i
tau12), q2 = exp(2 pi i tau22), every theta-constant exponent lies in
(1/8)Z x (1/4)Z x (1/8)Z, so all three exponents are scaled by a global
factor of 8 and stored as integers (alpha, beta, gamma).  Invariants:

  * alpha >= 0, gamma >= 0 and alpha + gamma <= trunc for every stored term;
  * beta^2 <= 4 alpha gamma (positive semidefiniteness of the exponent
    form, preserved under multiplication);
  * no zero coefficients; coefficients are exact rationals.

Truncation by the scaled weight alpha + gamma is a ring congruence, so every
computed coefficient inside the window is exact.

Differentiation is normalized: the operator stored per index pair is
(1/(2 pi i)) (1+delta_ij)/2 d/dtau_ij, which keeps all coefficients rational;
the stripped power of 2 pi i is tracked in the tau_factor field so numeric
cross-checks can reinstate it.

The multiplication kernel packs exponent triples into single integers and
clears denominators so the inner loop is pure integer arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .jets import JetPoly
from .scalars import RatFunc, _binpow, frac_from_text, frac_to_text

SCALE = 8
DEFAULT_TRUNC = 48

_BOFF = 1 << 20
_CORR = _BOFF << 21
_M21 = (1 << 21) - 1


def _pack(a: int, b: int, c: int) -> int:
    return (a << 42) | ((b + _BOFF) << 21) | c


def _unpack(key: int) -> tuple[int, int, int]:
    return (key >> 42, ((key >> 21) & _M21) - _BOFF, key & _M21)


def _prep(terms: dict) -> tuple[int, list]:
    """Clear denominators; return (common denominator, weight-sorted items)."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if d != 1:
            from math import gcd
            den = den * d // gcd(den, d)
    items = [(a + g2, _pack(a, b, g2), int(c * den))
             for (a, b, g2), c in terms.items()]
    items.sort(key=lambda t: t[0])
    return den, items


def _mul_terms(ta: dict, tb: dict, trunc: int) -> dict:
    """Truncated convolution of two canonical term dicts."""
    if not ta or not tb:
        return {}
    if trunc >= _BOFF:
        raise ValueError(f"truncation {trunc} exceeds the packed-key range")
    da, ia = _prep(ta)
    db, ib = _prep(tb)
    if len(ia) > len(ib):
        ia, ib = ib, ia
    bw = [t[0] for t in ib]
    bk = [t[1] - _CORR for t in ib]
    bc = [t[2] for t in ib]
    out: dict[int, int] = {}
    get = out.get
    prev_w = -1
    bks = bcs = []
    for wa, ka, ca in ia:
        if wa != prev_w:
            prev_w = wa
            lim = bisect_right(bw, trunc - wa)
            if lim == 0:
                break
            bks = bk[:lim]
            bcs = bc[:lim]
        for kb, cb in zip(bks, bcs):
            kk = ka + kb
            v = get(kk)
            cc = ca * cb
            out[kk] = cc if v is None else v + cc
    den = da * db
    return {_unpack(k): Fraction(v, den) for k, v in out.items() if v}


class QExp2:
    """Truncated genus-2 Fourier expansion on the scale-8 exponent lattice."""

    __slots__ = ("weight", "trunc", "terms", "tau_factor", "character", "label")

    genus = 2
    scale = SCALE

    def __init__(self, terms: dict | None = None, weight=Fraction(0),
                 trunc: int = DEFAULT_TRUNC, tau_factor: int = 0,
                 character: bool = False, label: str = ""):
        self.terms = {k: v for k, v in (terms or {}).items() if v}
        self.weight = Fraction(weight)
        self.trunc = trunc
        self.tau_factor = tau_factor
        self.character = character
        self.label = label
        self._check()

    def _check(self):
        for (a, b, g2), c in self.terms.items():
            if a < 0 or g2 < 0:
                raise ValueError(f"negative diagonal exponent in term {(a, b, g2)}")
            if a + g2 > self.trunc:
                raise ValueError(f"term {(a, b, g2)} exceeds truncation {self.trunc}")
            if b * b > 4 * a * g2:
                raise ValueError(f"term {(a, b, g2)} violates beta^2 <= 4*alpha*gamma")
            if not isinstance(c, Fraction):
                raise TypeError(f"coefficient {c!r} is not an exact rational")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, weight=Fraction(0), trunc: int = DEFAULT_TRUNC, **kw) -> "QExp2":
        return cls({}, weight, trunc, **kw)

    @classmethod
    def one(cls, trunc: int = DEFAULT_TRUNC) -> "QExp2":
        return cls({(0, 0, 0): Fraction(1)}, Fraction(0), trunc)

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff=1, weight=Fraction(0),
                 trunc: int = DEFAULT_TRUNC) -> "QExp2":
        return cls({(a, b, c): Fraction(coeff)}, weight, trunc)

    def _clone(self, terms: dict, weight=None, trunc=None, tau_factor=None,
               character=None) -> "QExp2":
        return QExp2(terms,
                     self.weight if weight is None else weight,
                     self.trunc if trunc is None else trunc,
                     self.tau_factor if tau_factor is None else tau_factor,
                     self.character if character is None else character)

    def with_weight(self, weight) -> "QExp2":
        return self._clone(self.terms, weight=Fraction(weight))

    def with_character(self, flag: bool) -> "QExp2":
        return self._clone(self.terms, character=flag)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, QExp2):
            return NotImplemented
        return (self.terms == other.terms and self.weight == other.weight
                and self.trunc == other.trunc and self.tau_factor == other.tau_factor)

    def __repr__(self):
        return (f"QExp2(weight={self.weight}, trunc={self.trunc}, "
                f"terms={len(self.terms)}, taupow={self.tau_factor})")

    # -- ring operations -------------------------------------------------------

    def _compat_add(self, other: "QExp2"):
        if self.scale != other.scale:
            raise ValueError("scale mismatch")
        if self.weight != other.weight:
            raise ValueError(f"weight mismatch: {self.weight} vs {other.weight}")
        if self.tau_factor != other.tau_factor:
            raise ValueError("tau-factor mismatch")
        if self.character != other.character:
            raise ValueError("character mismatch")

    def __add__(self, other: "QExp2") -> "QExp2":
        self._compat_add(other)
        trunc = min(self.trunc, other.trunc)
        out = {k: v for k, v in self.terms.items() if k[0] + k[2] <= trunc}
        for k, v in other.terms.items():
            if k[0] + k[2] > trunc:
                continue
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return QExp2(out, self.weight, trunc, self.tau_factor, self.character)

    def __neg__(self) -> "QExp2":
        return self._clone({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "QExp2") -> "QExp2":
        return self + (-other)

    def __mul__(self, other: "QExp2") -> "QExp2":
        if self.scale != other.scale:
            raise ValueError("scale mismatch")
        trunc = min(self.trunc, other.trunc)
        return QExp2(_mul_terms(self.terms, other.terms, trunc),
                     self.weight + other.weight, trunc,
                     self.tau_factor + other.tau_factor,
                     self.character != other.character)

    def __pow__(self, n: int) -> "QExp2":
        if n < 0:
            raise ValueError("negative powers are not defined on expansions")
        return _binpow(self, n) if n else QExp2.one(self.trunc)

    def scale_coeff(self, c) -> "QExp2":
        c = Fraction(c)
        if not c:
            return self._clone({})
        return self._clone({k: c * v for k, v in self.terms.items()})

    def truncate(self, trunc: int) -> "QExp2":
        trunc = min(trunc, self.trunc)
        return QExp2({k: v for k, v in self.terms.items() if k[0] + k[2] <= trunc},
                     self.weight, trunc, self.tau_factor, self.character)

    # -- differentiation and boundary order -------------------------------------

    def q_diff(self, i: int, j: int) -> "QExp2":
        """Normalized symmetrized derivative for the index pair (i, j).

        Multiplies a term by alpha/8 for (1,1), beta/16 for (1,2) (the
        off-diagonal carries the symmetrization factor 1/2), gamma/8 for
        (2,2), and records one stripped power of 2 pi i.
        """
        pair = (min(i, j), max(i, j))
        out = {}
        if pair == (1, 1):
            for k, v in self.terms.items():
                if k[0]:
                    out[k] = v * Fraction(k[0], SCALE)
        elif pair == (2, 2):
            for k, v in self.terms.items():
                if k[2]:
                    out[k] = v * Fraction(k[2], SCALE)
        elif pair == (1, 2):
            for k, v in self.terms.items():
                if k[1]:
                    out[k] = v * Fraction(k[1], 2 * SCALE)
        else:
            raise ValueError(f"index pair {pair} out of range for genus 2")
        return self._clone(out, tau_factor=self.tau_factor + 1)

    def fj_order(self) -> Fraction:
        """Boundary vanishing order: minimal gamma/8 over stored terms."""
        if not self.terms:
            raise ValueError("order undetermined at this truncation (zero expansion)")
        return Fraction(min(k[2] for k in self.terms), SCALE)

    def fj_slice(self, r) -> dict:
        """Terms with gamma/8 = r, reindexed by (alpha, beta)."""
        target = Fraction(r) * SCALE
        if target.denominator != 1:
            return {}
        g2 = int(target)
        return {(k[0], k[1]): v for k, v in self.terms.items() if k[2] == g2}

    # -- numerics ----------------------------------------------------------------

    def eval_numeric(self, tau) -> complex:
        """Evaluate at a period matrix (the stripped (2 pi i)-power is NOT
        reinstated; multiply by (2 pi i)**tau_factor to compare with true
        derivative values)."""
        import cmath
        t11, t12, t22 = complex(tau[0][0]), complex(tau[0][1]), complex(tau[1][1])
        total = 0j
        for (a, b, g2), c in sorted(self.terms.items()):
            total += float(c) * cmath.exp(
                2j * cmath.pi * (a * t11 + b * t12 + g2 * t22) / SCALE)
        return total

    # -- SMF1 text format -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            "SMF1",
            "genus 2",
            f"weight {frac_to_text(self.weight)}",
            f"scale {SCALE}",
            f"trunc {self.trunc}",
            f"taupow {self.tau_factor}",
            f"character {int(self.character)}",
            f"terms {len(self.terms)}",
        ]
        for (a, b, g2) in sorted(self.terms):
            lines.append(f"{a} {b} {g2} {frac_to_text(self.terms[(a, b, g2)])}")
        return "\n".join(lines) + "\n"


def qexp2_from_text(text: str) -> QExp2:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0].strip() != "SMF1":
        raise ValueError("not an SMF1 block")
    head = {}
    idx = 1
    while not lines[idx].startswith("terms"):
        k, v = lines[idx].split()
        head[k] = v
        idx += 1
    if head["genus"] != "2":
        raise ValueError("genus-1 block passed to the genus-2 parser")
    nterms = int(lines[idx].split()[1])
    terms = {}
    for ln in lines[idx + 1: idx + 1 + nterms]:
        a, b, g2, c = ln.split()
        terms[(int(a), int(b), int(g2))] = frac_from_text(c)
    return QExp2(terms, frac_from_text(head["weight"]), int(head["trunc"]),
                 int(head["taupow"]), bool(int(head.get("character", "0"))))


class QExp1:
    """Truncated genus-1 expansion; exponents scaled by 8 like the genus-2 lattice."""

    __slots__ = ("weight", "trunc", "terms", "tau_factor")

    genus = 1
    scale = SCALE

    def __init__(self, terms: dict | None = None, weight=Fraction(0),
                 trunc: int = DEFAULT_TRUNC, tau_factor: int = 0):
        self.terms = {k: v for k, v in (terms or {}).items() if v}
        self.weight = Fraction(weight)
        self.trunc = trunc
        self.tau_factor = tau_factor
        for n, c in self.terms.items():
            if n < 0 or n > self.trunc:
                raise ValueError(f"exponent {n} outside [0, {self.trunc}]")
            if not isinstance(c, Fraction):
                raise TypeError(f"coefficient {c!r} is not an exact rational")

    @classmethod
    def zero(cls, weight=Fraction(0), trunc: int = DEFAULT_TRUNC) -> "QExp1":
        return cls({}, weight, trunc)

    @classmethod
    def one(cls, trunc: int = DEFAULT_TRUNC) -> "QExp1":
        return cls({0: Fraction(1)}, Fraction(0), trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, QExp1):
            return NotImplemented
        return (self.terms == other.terms and self.weight == other.weight
                and self.trunc == other.trunc and self.tau_factor == other.tau_factor)

    def __repr__(self):
        return f"QExp1(weight={self.weight}, trunc={self.trunc}, terms={len(self.terms)})"

    def __add__(self, other: "QExp1") -> "QExp1":
        if self.weight != other.weight or self.tau_factor != other.tau_factor:
            raise ValueError("weight/tau-factor mismatch")
        trunc = min(self.trunc, other.trunc)
        out = {k: v for k, v in self.terms.items() if k <= trunc}
        for k, v in other.terms.items():
            if k > trunc:
                continue
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return QExp1(out, self.weight, trunc, self.tau_factor)

    def __neg__(self) -> "QExp1":
        return QExp1({k: -v for k, v in self.terms.items()},
                     self.weight, self.trunc, self.tau_factor)

    def __sub__(self, other: "QExp1") -> "QExp1":
        return self + (-other)

    def __mul__(self, other: "QExp1") -> "QExp1":
        trunc = min(self.trunc, other.trunc)
        out: dict = {}
        for n1, c1 in self.terms.items():
            if n1 > trunc:
                continue
            for n2, c2 in other.terms.items():
                n = n1 + n2
                if n > trunc:
                    continue
                s = out.get(n)
                cc = c1 * c2
                out[n] = cc if s is None else s + cc
        return QExp1({k: v for k, v in out.items() if v},
                     self.weight + other.weight, trunc,
                     self.tau_factor + other.tau_factor)

    def __pow__(self, n: int) -> "QExp1":
        return _binpow(self, n) if n else QExp1.one(self.trunc)

    def scale_coeff(self, c) -> "QExp1":
        c = Fraction(c)
        return QExp1({k: c * v for k, v in self.terms.items()} if c else {},
                     self.weight, self.trunc, self.tau_factor)

    def with_weight(self, weight) -> "QExp1":
        return QExp1(self.terms, Fraction(weight), self.trunc, self.tau_factor)

    def q_diff(self, i: int = 1, j: int = 1) -> "QExp1":
        """Normalized derivative (1/(2 pi i)) d/dtau: term n picks up n/8."""
        if (i, j) != (1, 1):
            raise ValueError("genus-1 expansions have a single index pair (1,1)")
        return QExp1({n: c * Fraction(n, SCALE) for n, c in self.terms.items() if n},
                     self.weight, self.trunc, self.tau_factor + 1)

    def order(self) -> Fraction:
        if not self.terms:
            raise ValueError("order undetermined at this truncation (zero expansion)")
        return Fraction(min(self.terms), SCALE)

    def coefficient(self, n_unscaled) -> Fraction:
        key = Fraction(n_unscaled) * SCALE
        if key.denominator != 1:
            return Fraction(0)
        return self.terms.get(int(key), Fraction(0))

    def to_text(self) -> str:
        lines = [
            "SMF1",
            "genus 1",
            f"weight {frac_to_text(self.weight)}",
            f"scale {SCALE}",
            f"trunc {self.trunc}",
            f"taupow {self.tau_factor}",
            f"terms {len(self.terms)}",
        ]
        for n in sorted(self.terms):
            lines.append(f"{n} {frac_to_text(self.terms[n])}")
        return "\n".join(lines) + "\n"


def qexp1_from_text(text: str) -> QExp1:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0].strip() != "SMF1":
        raise ValueError("not an SMF1 block")
    head = {}
    idx = 1
    while not lines[idx].startswith("terms"):
        k, v = lines[idx].split()
        head[k] = v
        idx += 1
    nterms = int(lines[idx].split()[1])
    terms = {}
    for ln in lines[idx + 1: idx + 1 + nterms]:
        n, c = ln.split()
        terms[int(n)] = frac_from_text(c)
    return QExp1(terms, frac_from_text(head["weight"]), int(head["trunc"]),
                 int(head["taupow"]))


def qexp_from_text(text: str):
    for ln in text.splitlines():
        if ln.startswith("genus"):
            return qexp1_from_text(text) if ln.split()[1] == "1" else qexp2_from_text(text)
    raise ValueError("missing genus header")


def product_balanced(factors: list):
    """Balanced-tree product; exact arithmetic makes it agree with a left fold."""
    if not factors:
        raise ValueError("empty product")
    layer = list(factors)
    while len(layer) > 1:
        nxt = [layer[i] * layer[i + 1] if i + 1 < len(layer) else layer[i]
               for i in range(0, len(layer), 2)]
        layer = nxt
    return layer[0]


def eval_jetpoly(p: JetPoly, bind: dict, weight=None):
    """Realize a jet polynomial on actual expansions.

    Every symbol occurring in p must be bound to an expansion; derivative
    pairs are applied through q_diff with per-prefix caching.  All monomials
    must carry the same total symbol weight and the same derivative count;
    the result weight follows the sum rule (symbol weights) + 2*order/genus
    unless overridden.
    """
    if not p.terms:
        if weight is None:
            raise ValueError("cannot infer the weight of an empty jet polynomial")
        return QExp2.zero(weight=weight)
    unbound = p.symbols() - set(bind)
    if unbound:
        raise ValueError(f"unbound symbol(s) {sorted(unbound)!r}")
    cache: dict = {}

    def factor(sym: str, derivs: tuple):
        key = (sym, derivs)
        got = cache.get(key)
        if got is None:
            if derivs:
                prev = factor(sym, derivs[:-1])
                i, j = derivs[-1]
                got = prev.q_diff(i, j)
            else:
                if sym not in bind:
                    raise ValueError(f"unbound symbol {sym!r}")
                got = bind[sym]
            cache[key] = got
        return got

    genus = next(iter(bind.values())).genus
    total = None
    sym_weight = None
    order = None
    for mono, coeff in sorted(p.terms.items()):
        if isinstance(coeff, RatFunc):
            if not coeff.is_constant():
                raise ValueError("bind a numeric weight before evaluating")
            coeff = coeff.eval_at(0)
        mw = sum((bind[s].weight for s, _ in mono), Fraction(0))
        morder = sum(len(d) for _, d in mono)
        if sym_weight is None:
            sym_weight, order = mw, morder
        elif (mw, morder) != (sym_weight, order):
            raise ValueError("jet polynomial is not weight/order homogeneous")
        parts = sorted((factor(s, d) for s, d in mono), key=lambda f: len(f.terms))
        acc = parts[0]
        for f in parts[1:]:
            acc = acc * f
        acc = acc.scale_coeff(coeff)
        total = acc if total is None else total + acc
    if weight is None:
        weight = sym_weight + Fraction(2 * order, genus)
    return total.with_weight(weight)
