"""Truncated Fourier expansions of genus-1 and genus-2 forms, exact arithmetic.

QExp2 (genus 2) and QExp1 (genus 1) are thin subclasses of one private base,
_Expansion, which holds the constructor and its term check, the ring
operations, scaling, truncation, equality, the boundary order and the SMF1
header.  A subclass gives only what depends on its exponent key: the key's
truncation weight, its term check, its product kernel, differentiation and
its SMF1 term lines.

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

Products use Kronecker substitution along beta.  The kernel clears each
operand's denominators, groups its terms by (alpha, gamma) and packs each
group's beta-row into one integer, one slot of S bits per step of the stride
s (the gcd of the beta differences of both operands; 8 for theta constants,
which makes their rows dense).  Multiplying two packed rows convolves them;
every group pair whose weights sum to at most trunc adds its product into
the output group (alpha1 + alpha2, gamma1 + gamma2).  A coefficient of the
product is a sum of at most min(len a, len b) terms, each at most
max|a| * max|b| in size, so S = bits(max|a|) + bits(max|b|) +
bits(min(len a, len b)) + 2 holds every output digit with its sign for any
input, and each output integer is decoded once with signed digits (take the
low S bits r; if r >= 2^(S-1), the digit is r - 2^S and it borrows one from
the rest).  Genus-1 products use the same packing with the whole series as
one row along n, and decoding stops at the truncation.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .jets import JetPoly
from .scalars import (RatFunc, _accumulate, _binpow, _line_reader, _pack, _unpack,
                      frac_from_text, frac_to_text)

SCALE = 8
DEFAULT_TRUNC = 48


def _cleared(terms: dict, keep) -> tuple[int, dict]:
    """(common denominator d, {key: d * coefficient}) over the kept keys."""
    terms = {k: c for k, c in terms.items() if keep(k)}
    den = lcm(*[c.denominator for c in terms.values()]) if terms else 1
    if den == 1:
        return 1, {k: c.numerator for k, c in terms.items()}
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _slot_width(ca: dict, cb: dict) -> int:
    """Bits per slot that hold any coefficient of the product with its sign."""
    return (max(map(abs, ca.values())).bit_length()
            + max(map(abs, cb.values())).bit_length()
            + min(len(ca), len(cb)).bit_length() + 2)


def _stride(*cols) -> int:
    """The gcd of the differences within each collection (1 if all are 0)."""
    s = 0
    for col in cols:
        x0 = next(iter(col))
        s = gcd(s, *[x - x0 for x in col])
    return s or 1


def _mul_terms(ta: dict, tb: dict, trunc: int) -> dict:
    """Truncated convolution of two canonical term dicts (alpha, gamma >= 0)."""
    da, ca = _cleared(ta, lambda k: k[0] + k[2] <= trunc)
    db, cb = _cleared(tb, lambda k: k[0] + k[2] <= trunc)
    if not ca or not cb:
        return {}
    S = _slot_width(ca, cb)
    s = _stride([k[1] for k in ca], [k[1] for k in cb])
    ba = next(iter(ca))[1]
    bb = next(iter(cb))[1]
    K = trunc + 1

    def groups(cx: dict, b0: int) -> list:
        rows: dict = {}
        for (a, b, g2), c in cx.items():
            rows.setdefault(a * K + g2, []).append(((b - b0) // s, c))
        out = [(key // K + key % K, key, *_pack(row, S)) for key, row in rows.items()]
        out.sort()
        return out

    ga, gb = groups(ca, ba), groups(cb, bb)
    wb = [t[0] for t in gb]
    acc: dict = {}
    get = acc.get
    for wa, ka, oa, Pa in ga:
        for _, kb, ob, Pb in gb[:bisect_right(wb, trunc - wa)]:
            key = ka + kb
            o = oa + ob
            cur = get(key)
            if cur is None:
                acc[key] = [o, Pa * Pb]
            elif o >= cur[0]:
                cur[1] += (Pa * Pb) << (S * (o - cur[0]))
            else:
                cur[1] = (cur[1] << (S * (cur[0] - o))) + Pa * Pb
                cur[0] = o
    den = da * db
    base = ba + bb
    out = {}
    for key, (o, P) in acc.items():
        a, g2 = divmod(key, K)
        for i, v in _unpack(P, S):
            out[(a, base + s * (o + i), g2)] = Fraction(v, den)
    return out


def _mul_series(ta: dict, tb: dict, trunc: int) -> dict:
    """Truncated product of two genus-1 term dicts (exponents >= 0)."""
    da, ca = _cleared(ta, lambda n: n <= trunc)
    db, cb = _cleared(tb, lambda n: n <= trunc)
    if not ca or not cb:
        return {}
    S = _slot_width(ca, cb)
    s = _stride(ca, cb)
    na, nb = min(ca), min(cb)
    base = na + nb
    if base > trunc:
        return {}
    _, Pa = _pack([((n - na) // s, c) for n, c in ca.items()], S)
    _, Pb = _pack([((n - nb) // s, c) for n, c in cb.items()], S)
    den = da * db
    return {base + s * i: Fraction(v, den)
            for i, v in _unpack(Pa * Pb, S, (trunc - base) // s + 1)}


def _term2_fault(k: tuple, trunc: int) -> str | None:
    """Why (alpha, beta, gamma) cannot be a term of a genus-2 expansion, if so."""
    a, b, g2 = k
    if a < 0 or g2 < 0:
        return f"negative diagonal exponent in term {k}"
    if a + g2 > trunc:
        return f"term {k} exceeds truncation {trunc}"
    if b * b > 4 * a * g2:
        return f"term {k} violates beta^2 <= 4*alpha*gamma"
    return None


def _term1_fault(n: int, trunc: int) -> str | None:
    """Why n cannot be an exponent of a genus-1 expansion, if so."""
    return None if 0 <= n <= trunc else f"exponent {n} outside [0, {trunc}]"


class _Expansion:
    """A truncated expansion with exact rational coefficients: the ring code
    shared by QExp2 and QExp1.

    terms maps exponent keys to nonzero Fractions, and every key's weight is
    at most trunc.  weight is the modular weight, tau_factor the number of
    stripped powers of 2 pi i, character the sign-character flag and label a
    note for the reader (set by the constructor; no operation carries it on).
    A subclass supplies its key's data (_origin, _cut, _boundary), its term
    check (_fault), its product kernel (_kernel), q_diff and to_text, and
    lists the shared methods in its own class body.
    """

    __slots__ = ("weight", "trunc", "terms", "tau_factor", "character", "label")

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
        fault = self._fault
        for k, c in self.terms.items():
            why = fault(k, trunc)
            if why:
                raise ValueError(why)
            if not isinstance(c, Fraction):
                raise TypeError(f"coefficient {c!r} is not an exact rational")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, weight=Fraction(0), trunc: int = DEFAULT_TRUNC):
        return cls({}, weight, trunc)

    @classmethod
    def one(cls, trunc: int = DEFAULT_TRUNC):
        return cls({cls._origin: Fraction(1)}, Fraction(0), trunc)

    def _clone(self, terms: dict, weight=None, trunc=None, tau_factor=None,
               character=None):
        return type(self)(terms,
                          self.weight if weight is None else weight,
                          self.trunc if trunc is None else trunc,
                          self.tau_factor if tau_factor is None else tau_factor,
                          self.character if character is None else character)

    def with_weight(self, weight):
        return self._clone(self.terms, weight=Fraction(weight))

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.terms == other.terms and self.weight == other.weight
                and self.trunc == other.trunc and self.tau_factor == other.tau_factor)

    def __repr__(self):
        return (f"{type(self).__name__}(weight={self.weight}, trunc={self.trunc}, "
                f"terms={len(self.terms)}, taupow={self.tau_factor})")

    # -- ring operations -------------------------------------------------------

    def _check_genus(self, other):
        if self.genus != other.genus:
            raise ValueError(f"genus mismatch: {self.genus} vs {other.genus}")

    def __add__(self, other):
        self._check_genus(other)
        if self.weight != other.weight:
            raise ValueError(f"weight mismatch: {self.weight} vs {other.weight}")
        if self.tau_factor != other.tau_factor:
            raise ValueError("tau-factor mismatch")
        if self.character != other.character:
            raise ValueError("character mismatch")
        trunc = min(self.trunc, other.trunc)
        # only the operand with the larger truncation has terms to drop
        out = self._cut(self.terms, trunc) if self.trunc > trunc else dict(self.terms)
        rest = self._cut(other.terms, trunc) if other.trunc > trunc else other.terms
        for k, v in rest.items():
            _accumulate(out, k, v)
        return type(self)(out, self.weight, trunc, self.tau_factor, self.character)

    def __neg__(self):
        return self._clone({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_genus(other)
        trunc = min(self.trunc, other.trunc)
        return type(self)(self._kernel(self.terms, other.terms, trunc),
                          self.weight + other.weight, trunc,
                          self.tau_factor + other.tau_factor,
                          self.character != other.character)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on expansions")
        return _binpow(self, n) if n else self.one(self.trunc)

    def scale_coeff(self, c):
        c = Fraction(c)
        return self._clone({k: c * v for k, v in self.terms.items()} if c else {})

    def truncate(self, trunc: int):
        trunc = min(trunc, self.trunc)
        return self._clone(self._cut(self.terms, trunc), trunc=trunc)

    # -- boundary order and SMF1 text -------------------------------------------

    def fj_order(self) -> Fraction:
        """Boundary vanishing order: the least boundary exponent / 8 over
        stored terms (gamma/8 in genus 2, n/8 in genus 1)."""
        if not self.terms:
            raise ValueError("order undetermined at this truncation (zero expansion)")
        return Fraction(min(map(self._boundary, self.terms)), SCALE)

    def _smf1(self, term_lines: list, *extra: str) -> str:
        """The SMF1 block: the header (with the subclass's extra header lines
        before the term count), then one line per term."""
        head = ["SMF1", f"genus {self.genus}", f"weight {frac_to_text(self.weight)}",
                f"scale {SCALE}", f"trunc {self.trunc}", f"taupow {self.tau_factor}",
                *extra, f"terms {len(term_lines)}"]
        return "\n".join(head + term_lines) + "\n"


# (index into the key, divisor) of the normalized derivative per index pair;
# the off-diagonal divisor carries the symmetrization factor 1/2
_DIFF2 = {(1, 1): (0, SCALE), (1, 2): (1, 2 * SCALE), (2, 2): (2, SCALE)}


class QExp2(_Expansion):
    """Truncated genus-2 Fourier expansion on the scale-8 exponent lattice;
    keys are (alpha, beta, gamma) of weight alpha + gamma."""

    __slots__ = ()

    genus = 2
    _origin = (0, 0, 0)
    _boundary = itemgetter(2)
    _fault = staticmethod(_term2_fault)
    _kernel = staticmethod(_mul_terms)

    # The shared methods are entries of each subclass's own namespace, so a
    # wrapper set on one class's method (as the span recorder of perfbench
    # installs) leaves the other class's method alone.
    __add__ = _Expansion.__add__
    __neg__ = _Expansion.__neg__
    __sub__ = _Expansion.__sub__
    __mul__ = _Expansion.__mul__
    __pow__ = _Expansion.__pow__
    scale_coeff = _Expansion.scale_coeff
    truncate = _Expansion.truncate

    @staticmethod
    def _cut(terms: dict, trunc: int) -> dict:
        return {k: v for k, v in terms.items() if k[0] + k[2] <= trunc}

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff=1, weight=Fraction(0),
                 trunc: int = DEFAULT_TRUNC) -> "QExp2":
        return cls({(a, b, c): Fraction(coeff)}, weight, trunc)

    def with_character(self, flag: bool) -> "QExp2":
        return self._clone(self.terms, character=flag)

    def q_diff(self, i: int, j: int) -> "QExp2":
        """Normalized symmetrized derivative for the index pair (i, j).

        Multiplies a term by alpha/8 for (1,1), beta/16 for (1,2) (the
        off-diagonal carries the symmetrization factor 1/2), gamma/8 for
        (2,2), and records one stripped power of 2 pi i.
        """
        pair = (min(i, j), max(i, j))
        if pair not in _DIFF2:
            raise ValueError(f"index pair {pair} out of range for genus 2")
        idx, div = _DIFF2[pair]
        out = {k: v * Fraction(k[idx], div) for k, v in self.terms.items() if k[idx]}
        return self._clone(out, tau_factor=self.tau_factor + 1)

    def fj_slice(self, r) -> dict:
        """Terms with gamma/8 = r, reindexed by (alpha, beta)."""
        target = Fraction(r) * SCALE
        if target.denominator != 1:
            return {}
        g2 = int(target)
        return {(k[0], k[1]): v for k, v in self.terms.items() if k[2] == g2}

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

    def to_text(self) -> str:
        terms = self.terms
        return self._smf1([f"{a} {b} {g2} {frac_to_text(terms[a, b, g2])}"
                           for a, b, g2 in sorted(terms)],
                          f"character {int(self.character)}")


class QExp1(_Expansion):
    """Truncated genus-1 expansion; the key is the exponent n, scaled by 8
    like the genus-2 lattice, and is its own weight."""

    __slots__ = ()

    genus = 1
    _origin = 0
    _boundary = int  # the exponent n is its own boundary exponent
    _fault = staticmethod(_term1_fault)
    _kernel = staticmethod(_mul_series)

    __add__ = _Expansion.__add__
    __neg__ = _Expansion.__neg__
    __sub__ = _Expansion.__sub__
    __mul__ = _Expansion.__mul__
    __pow__ = _Expansion.__pow__
    scale_coeff = _Expansion.scale_coeff

    @staticmethod
    def _cut(terms: dict, trunc: int) -> dict:
        return {n: v for n, v in terms.items() if n <= trunc}

    def q_diff(self, i: int = 1, j: int = 1) -> "QExp1":
        """Normalized derivative (1/(2 pi i)) d/dtau: term n picks up n/8."""
        if (i, j) != (1, 1):
            raise ValueError("genus-1 expansions have a single index pair (1,1)")
        return self._clone({n: c * Fraction(n, SCALE) for n, c in self.terms.items() if n},
                           tau_factor=self.tau_factor + 1)

    def coefficient(self, n_unscaled) -> Fraction:
        key = Fraction(n_unscaled) * SCALE
        if key.denominator != 1:
            return Fraction(0)
        return self.terms.get(int(key), Fraction(0))

    def to_text(self) -> str:
        terms = self.terms
        return self._smf1([f"{n} {frac_to_text(terms[n])}" for n in sorted(terms)])


def _smf1_from_text(text: str, genus: int):
    """Read an SMF1 block of the given genus; a malformed block raises
    ValueError naming its line."""
    lines = text.splitlines()
    fail, value = _line_reader(lines, "SMF1")
    if not lines or lines[0].strip() != "SMF1":
        fail(0, "not an SMF1 block")
    g = value(1, "genus", int)
    if g != genus:
        fail(1, f"genus-{g} block passed to the genus-{genus} reader")
    weight = value(2, "weight", frac_from_text)
    if value(3, "scale", int) != SCALE:
        fail(3, f"scale must be {SCALE}")
    trunc = value(4, "trunc", int)
    if trunc < 0:
        fail(4, "negative truncation")
    taupow = value(5, "taupow", int)
    idx = 6
    character = 0
    if genus == 2 and idx < len(lines) and lines[idx].startswith("character"):
        character = value(idx, "character", int)
        if character not in (0, 1):
            fail(idx, "character must be 0 or 1")
        idx += 1
    declared = value(idx, "terms", int)
    cls = QExp2 if genus == 2 else QExp1
    fault = cls._fault
    terms: dict = {}
    count = 0
    for j in range(idx + 1, len(lines)):
        parts = lines[j].split()
        if not parts:
            continue
        count += 1
        try:
            if len(parts) != 2 * genus:
                raise ValueError(f"expected {2 * genus} fields")
            exps = tuple(int(v) for v in parts[:-1])
            c = frac_from_text(parts[-1])
        except (ValueError, ZeroDivisionError) as exc:
            fail(j, f"cannot parse {lines[j]!r} ({exc})")
        key = exps if genus == 2 else exps[0]
        why = fault(key, trunc) or ("zero coefficient" if not c else None)
        if why:
            fail(j, why)
        if key in terms:
            fail(j, "duplicate exponent")
        terms[key] = c
    if count != declared:
        fail(idx, f"declares {declared} terms, found {count}")
    return cls(terms, weight, trunc, taupow, bool(character))


def qexp2_from_text(text: str) -> QExp2:
    return _smf1_from_text(text, 2)


def qexp1_from_text(text: str) -> QExp1:
    return _smf1_from_text(text, 1)


def qexp_from_text(text: str):
    """Read an SMF1 block of either genus, as its second line declares."""
    lines = text.splitlines()
    if len(lines) > 1 and lines[1].split() == ["genus", "1"]:
        return qexp1_from_text(text)
    return qexp2_from_text(text)


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
    unless overridden.  An empty p gives the zero of the bound expansions'
    class at their least truncation.
    """
    if not p.terms:
        if weight is None:
            raise ValueError("cannot infer the weight of an empty jet polynomial")
        shortest = min(bind.values(), key=lambda f: f.trunc)
        return shortest.zero(weight=weight, trunc=shortest.trunc)
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
