"""Sparse multivariate polynomials over Q or Q(a), and determinant expansions.

Variables (VarId, a plain tuple):

  ("t", h)        auxiliary expansion variable t_h,        1 <= h <= g
  ("r", h, i, j)  entry (i,j) of the symmetric matrix R_h,  stored with i <= j
  ("x", i, nu)    entry of the concatenated rectangular matrix X = (X_1..X_g)

A monomial is a tuple of (VarId, exponent) pairs sorted by the global
variable order (t's first, then matrix entries by (h,i,j), then x-entries);
a polynomial is a dict mapping monomials to nonzero coefficients, plus a
coefficient-field tag ("Q" for Fraction coefficients, "Qa" for RatFunc).
The ring code on such dicts lives once, in the private base _SparsePoly:
MultiPoly and the JetPoly of jets.py are its two subclasses and differ only
in their monomial product and their own constructors and methods.

The central objects built here are the coefficients of

    det(t_1 R_1 + ... + t_g R_g) = sum over n of  B(n) * t^n,

with n running over nonnegative integer vectors summing to g, together with
the same expansion for first minors.  One Leibniz generator,
_signed_pairings, yields the signed row-column pairings of a determinant
over permutations; it serves both expansions here and every determinant of
jets.py and brackets.py (for g <= 6 there are at most 720 permutations, so
no elimination strategy is needed).

Packed monomials.  A monomial is packed into one int with 4 bits per
variable, laid out in the global variable order: t_h takes nibble h - 1
and r_{h;ij} a nibble of the h-th block of g(g+1)/2 nibbles after the t's.
The Leibniz pass sums the entries r_{h;i,sigma(i)} of each permutation one
matrix row at a time, over h = 1..g, so a term's key is the sum of its g
entry ints (no exponent exceeds g, far below 15 for any feasible g, so
nibbles never carry), and its place among the partial sums spells its
row-to-h assignment, whose counts are its t-exponents n.  So _t_split
deals each permutation's keys to the buckets B(n) by place, with no
t-unit in any key, and det_expand and minor_det_expand add each bucket's
t-block back.  _Packing holds the layout (at most _MAX_EXP per
nibble), its decoder and encoder, and the POLY1 text of packed keys.
The operator Q of opgen.py and its integer D_{h;11} kernel use the same
keys, as a cleared form: one denominator over integer numerators
(_packed_poly and _cleared convert between such a form and a MultiPoly).
POLY1, the body of an OPSPEC1 file, has one writer, _packed_lines, on that
form, and no reader of its own: an OPSPEC1 file is a function of its genus
and weight, and opgen.opspec_from_text reads one by building its operator
and comparing the writer's lines with the text.  The writer puts the terms
in increasing order of their keys, the order of the ints themselves
(exponent vectors compared from the last variable r_{g;gg} down).

Decoding is lazy: det_expand, minor_det_expand, coeff_R and minor_coeff_R
decode packed keys to Monos only when called (the genus <= 4 callers of
jets.py and the derivative lemma), and spec.Q of opgen.py on first access.
A key is decoded, and written as POLY1 text, in two halves cut at a block
boundary, each looked up in a memo of one call that is filled from
per-block memos (_Packing).  Every cleared-form coefficient, in
_packed_poly and jets.jet_apply, is made by _coefficient, one object per
distinct (numerator, denominator) in a process: two views of one form
share their coefficient objects, and each is reduced once.  The tests
check the split against a pass whose keys carry their t-units, split key
by key.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial

from .scalars import (RatFunc, _accumulate, _binpow, _Memo, _pdivmod, _pgcd, _pmul,
                      scalar_to_text)

VarId = tuple
Mono = tuple  # tuple of (VarId, exponent) pairs, sorted by _var_key

_KIND_ORDER = {"t": 0, "r": 1, "x": 2}


@lru_cache(maxsize=None)
def _var_key(v: VarId):
    return (_KIND_ORDER[v[0]],) + v[1:]


def t_var(h: int) -> VarId:
    return ("t", h)


def r_var(h: int, i: int, j: int) -> VarId:
    if i > j:
        i, j = j, i
    return ("r", h, i, j)


def x_var(i: int, nu: int) -> VarId:
    return ("x", i, nu)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items(), key=lambda p: _var_key(p[0])))


def _mono_times(m: Mono, v: VarId, e: int = 1) -> Mono:
    """m * v^e, inserting v at its place in the variable order."""
    if not e:
        return m
    key = _var_key(v)
    for idx, (w, f) in enumerate(m):
        if w == v:
            rest = m[idx + 1:]
            return m[:idx] + ((v, f + e),) + rest if f + e else m[:idx] + rest
        if _var_key(w) > key:
            return m[:idx] + ((v, e),) + m[idx:]
    return m + ((v, e),)


def _mono_lower(m: Mono, idx: int, e: int = 1) -> Mono:
    """m with the exponent of its idx-th variable lowered by e (dropped at 0)."""
    v, f = m[idx]
    if f > e:
        return m[:idx] + ((v, f - e),) + m[idx + 1:]
    return m[:idx] + m[idx + 1:]


class FieldMismatch(ValueError):
    pass


def _field_one(field: str):
    """The unit coefficient of a field tag: 1 in Q or in Q(a)."""
    return RatFunc(1) if field == "Qa" else Fraction(1)


class _SparsePoly:
    """A sparse dict polynomial over Q or Q(a): the ring code shared by
    MultiPoly and JetPoly.

    terms maps monomials to nonzero coefficients, and field is the
    coefficient-field tag.  A subclass supplies _mono_mul, the product of two
    of its monomials.
    """

    __slots__ = ("terms", "field")

    def __init_subclass__(cls):
        # The shared methods are entries of each subclass's own namespace, so a
        # wrapper set on one class's method (as the span recorder of perfbench
        # installs) leaves the other class's method alone.
        for name in ("__add__", "__neg__", "__sub__", "__mul__", "__pow__", "scale",
                     "promote"):
            setattr(cls, name, vars(_SparsePoly)[name])

    def __init__(self, terms: dict | None = None, field: str = "Q"):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self.field = field

    @classmethod
    def _nonzero(cls, terms: dict, field: str):
        """The polynomial of terms, taken as is: no coefficient may be zero."""
        out = cls.__new__(cls)
        out.terms, out.field = terms, field
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: str = "Q"):
        return cls({}, field)

    @classmethod
    def const(cls, c, field: str = "Q"):
        if not isinstance(c, RatFunc):
            c = RatFunc.const(c) if field == "Qa" else Fraction(c)
        return cls({(): c} if c else {}, field)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"field tags differ: {self.field} vs {other.field}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_field(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return type(self)(out, self.field)

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()}, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_field(other)
        mono_mul = self._mono_mul
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, mono_mul(m1, m2), c1 * c2)
        return type(self)(out, self.field)

    def __pow__(self, n: int):
        return _binpow(self, n) if n else self.const(1, self.field)

    def scale(self, c):
        """Multiply by a scalar; promotes the field tag when c is a RatFunc."""
        field = "Qa" if isinstance(c, RatFunc) else self.field
        if not c:
            return self.zero(field)
        return type(self)({m: c * cm for m, cm in self.terms.items()}, field)

    def promote(self):
        """View a Q-polynomial as a Q(a)-polynomial."""
        if self.field == "Qa":
            return self
        return type(self)({m: RatFunc(c) for m, c in self.terms.items()}, "Qa")

    def __repr__(self):
        return f"{type(self).__name__}({len(self.terms)} terms, field={self.field})"


class MultiPoly(_SparsePoly):
    """Sparse exact multivariate polynomial; immutable by convention."""

    __slots__ = ()

    _mono_mul = staticmethod(_mono_mul)

    @classmethod
    def var(cls, v: VarId, field: str = "Q") -> "MultiPoly":
        return cls({((v, 1),): _field_one(field)}, field)

    # -- calculus and substitution ----------------------------------------

    def diff_sym(self, h: int, i: int, j: int) -> "MultiPoly":
        """Symmetrized partial derivative ((1+delta_ij)/2) d/dr_{h;ij}."""
        return self._diff(r_var(h, i, j), Fraction(1, 2) if i != j else 1)

    def diff_plain(self, v: VarId) -> "MultiPoly":
        """Plain partial derivative d/dv (no symmetrization; used for x-vars)."""
        return self._diff(v, 1)

    def _diff(self, v: VarId, factor) -> "MultiPoly":
        """factor * d/dv."""
        out: dict = {}
        for m, c in self.terms.items():
            for idx, (vm, e) in enumerate(m):
                if vm == v:
                    _accumulate(out, _mono_lower(m, idx), c * (e * factor))
                    break
        return MultiPoly(out, self.field)

    def mul_var(self, v: VarId, e: int = 1) -> "MultiPoly":
        return MultiPoly({_mono_times(m, v, e): c for m, c in self.terms.items()},
                         self.field)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Substitute some variables by polynomials (others are kept)."""
        out = MultiPoly.zero(self.field)
        for m, c in self.terms.items():
            term = MultiPoly.const(c, self.field)
            for v, e in m:
                if v in mapping:
                    term = term * mapping[v] ** e
                else:
                    term = term.mul_var(v, e)
            out = out + term
        return out

    def vars_used(self) -> set:
        return {v for m in self.terms for v, _ in m}

    def t_coefficient(self, n: tuple) -> "MultiPoly":
        """Coefficient of t^n (the t-variables are removed from the result)."""
        g = len(n)
        out: dict = {}
        for m, c in self.terms.items():
            texp = [0] * g
            rest = []
            for v, e in m:
                if v[0] == "t":
                    texp[v[1] - 1] = e
                else:
                    rest.append((v, e))
            if tuple(texp) == tuple(n):
                out[tuple(rest)] = c
        return MultiPoly(out, self.field)

    def __repr__(self):
        return f"MultiPoly({len(self.terms)} terms, field={self.field})"


# -- multi-indices ----------------------------------------------------------

def multi_indices(g: int, total: int) -> list[tuple]:
    """All nonnegative integer g-vectors with the given coordinate sum."""
    if g == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in multi_indices(g - 1, total - first):
            out.append((first,) + rest)
    return out


def index_set_N(g: int) -> list[tuple]:
    """The index set for the degree-g determinant expansion (sum = g)."""
    return multi_indices(g, g)


def index_set_Nprime(g: int) -> list[tuple]:
    """The minor index set (sum = g - 1)."""
    return multi_indices(g, g - 1)


# -- determinant expansions --------------------------------------------------

def _signed_pairings(rows: list, cols: list):
    """The Leibniz terms of the determinant of a rows x cols matrix.

    Yields (sign, [(row, col), ...]) once per bijection: the k-th row is
    paired with column cols[sigma(k)], over the permutations sigma in
    lexicographic order, and sign is the parity of sigma.  Empty rows and
    cols yield the single term (1, []).
    """
    for sigma in itertools.permutations(range(len(cols))):
        inversions = sum(1 for s, t in itertools.combinations(sigma, 2) if s > t)
        yield (-1) ** inversions, [(r, cols[s]) for r, s in zip(rows, sigma)]


_MAX_EXP = 14  # the largest exponent of a packed variable (a nibble holds 15)


_NIBBLE_SUMS = bytes((b & 15) + (b >> 4) for b in range(256))  # byte -> its nibble sum


def _nibble_sum(key: int) -> int:
    """The sum of the nibbles of key: the degree of a packed monomial."""
    return sum(key.to_bytes((key.bit_length() + 7) // 8, "little").translate(_NIBBLE_SUMS))


class _Packing:
    """The packed-int monomial layout of the module docstring, for genus g.

    names[p] is the variable of nibble p and unit[v] the int with a 1 in the
    nibble of v, for every t_h and r_{h;ij} (i <= j) of genus g.  A key is
    cut at a block boundary into two halves:
    the low half key & low holds the t-block and R_1 .. R_{g//2}, the high
    half key >> cut the other blocks.  term_lines writes keys in the order
    of the ints.  decode and term_lines look a key up by its two halves, in C-level maps, and build each distinct half once
    per call from per-block memos (the t's, then one block per R_h) of the
    decoded pairs and the POLY1 text, which see few distinct values and
    persist.  At g = 5 the 111,275 keys of Q have 6,167 distinct low and
    30,415 distinct high halves.  The half memos last one call: kept, they
    would hold some 13 MB at g = 5 that a later call rarely reuses.
    """

    def __init__(self, g: int):
        pairs = [(i, j) for i in range(1, g + 1) for j in range(i, g + 1)]
        blocks = [[t_var(h) for h in range(1, g + 1)]]
        blocks += [[r_var(h, i, j) for i, j in pairs] for h in range(1, g + 1)]
        self.g = g
        self.names = [v for names in blocks for v in names]
        self.unit = {v: 1 << 4 * p for p, v in enumerate(self.names)}
        first = g + g // 2 * len(pairs)  # the lowest nibble of the high half
        self.cut, self.low = 4 * first, (1 << 4 * first) - 1
        # per half, the (shift within the half, mask, memo) of each block: the
        # block's pairs in _monos, its POLY1 text in _texts
        monos, texts = ([], []), ([], [])
        p = 0
        for names in blocks:
            half = p >= first
            shift, mask = 4 * (p - half * first), (1 << 4 * len(names)) - 1
            block = _Memo(partial(self._decode_block, p))
            monos[half].append((shift, mask, block))
            texts[half].append((shift, mask, _Memo(partial(self._text_block, block))))
            p += len(names)
        self._monos, self._texts = monos, texts

    def _decode_block(self, first: int, bits: int) -> Mono:
        """(variable, exponent) per set nibble of a block value whose lowest
        nibble is position first."""
        out = []
        for p in range(first, first + bits.bit_length() // 4 + 1):
            if bits & 15:
                out.append((self.names[p], bits & 15))
            bits >>= 4
        return tuple(out)

    @staticmethod
    def _text_block(monos: _Memo, bits: int) -> str:
        return "".join([f" {_var_to_text(v)}^{e}" for v, e in monos[bits]])

    @staticmethod
    def _join(blocks: list, out, bits: int):
        """out followed by each block memo's entry for its part of a half."""
        for shift, mask, memo in blocks:
            out += memo[bits >> shift & mask]
        return out

    def _halves(self, memos: tuple, empty, keys) -> map:
        """Per key (keys is iterated twice), its low half's entry followed by
        its high half's: two lookups in C-level maps, each distinct half
        built once per call from the per-block memos of memos."""
        low, high = (_Memo(partial(self._join, blocks, empty)) for blocks in memos)
        return map(operator.add, map(low.__getitem__, map(self.low.__and__, keys)),
                   map(high.__getitem__, map(self.cut.__rrshift__, keys)))

    def decode(self, keys) -> map:
        """The Mono of each key (keys is iterated twice), whose exponents are
        its nibbles."""
        return self._halves(self._monos, (), keys)

    def term_lines(self, terms: dict, coeff) -> list:
        """The POLY1 term lines 'c | var^e var^e ...' of terms (packed key ->
        value), c = coeff(value), in increasing order of the key: exponent
        vectors compared from the last variable down."""
        keys = sorted(terms)
        lines = list(map("{} |{}".format, map(coeff, map(terms.__getitem__, keys)),
                         self._halves(self._texts, "", keys)))
        if keys and not keys[0]:  # the constant monomial, the least key, is written 'c | '
            lines[0] += " "
        return lines

    def encode(self, mono: Mono) -> int:
        """The packed key of mono, the inverse of decode."""
        key = 0
        for v, e in mono:
            if v not in self.unit or not 0 < e <= _MAX_EXP:
                raise ValueError(f"factor {v}^{e} is not a genus-{self.g} variable "
                                 f"to a power up to {_MAX_EXP}")
            key += e * self.unit[v]
        return key


@lru_cache(maxsize=None)
def _packing(g: int) -> _Packing:
    return _Packing(g)


@lru_cache(maxsize=None)
def _coefficient(num, den):
    """The coefficient num / den of a cleared form (see _packed_poly), one
    object per distinct (num, den) in a process: each is reduced once, and
    two views of one form hold the same objects, so comparing them takes
    the identity shortcut of dict equality."""
    return RatFunc(num, den) if isinstance(den, tuple) else Fraction(num, den)


def _coefficients(den) -> _Memo:
    """numerator -> _coefficient(numerator, den)."""
    return _Memo(lambda num: _coefficient(num, den))


def _packed_poly(g: int, den, nums: dict) -> MultiPoly:
    """The MultiPoly sum of nums[key] / den * (key decoded).

    A cleared form: den is a positive int and each numerator an int (field
    Q), or den and each numerator an integer polynomial in a, a tuple of
    ints low degree first (field Q(a)); no numerator is zero.  Each distinct
    numerator becomes one coefficient object, shared by its terms.
    """
    coeffs = map(_coefficients(den).__getitem__, nums.values())
    return MultiPoly._nonzero(dict(zip(_packing(g).decode(nums), coeffs)),
                              "Qa" if isinstance(den, tuple) else "Q")


def _cleared(field: str, terms: dict) -> tuple:
    """(den, nums) with nums[key] / den == terms[key]: the cleared form of
    _packed_poly for coefficients of the field tagged field.

    In Q, den is the lcm of the coefficient denominators; in Q(a), the lcm L
    of the denominator polynomials, times the least integer that makes L
    and every numerator polynomial integral, divided by their content.
    Either way no prime, and no factor of L, divides den and every
    numerator, so the form is canonical (den > 0, or with a positive
    leading coefficient).  Each distinct coefficient object is cleared once.
    """
    distinct = {id(c): c for c in terms.values()}
    if field == "Q":
        den = math.lcm(*(c.denominator for c in distinct.values()))
        ints = {i: c.numerator * (den // c.denominator) for i, c in distinct.items()}
    else:
        funcs = {i: c if isinstance(c, RatFunc) else RatFunc(c) for i, c in distinct.items()}
        L = (Fraction(1),)
        for d in {f.den for f in funcs.values()}:
            L = _pmul(L, _pdivmod(d, _pgcd(L, d))[0])
        polys = {i: _pmul(f.num, _pdivmod(L, f.den)[0]) for i, f in funcs.items()}
        D = math.lcm(*(c.denominator for P in (L, *polys.values()) for c in P))
        G = math.gcd(*(int(c * D) for P in (L, *polys.values()) for c in P))
        den = tuple(int(c * D) // G for c in L)
        ints = {i: tuple(int(c * D) // G for c in P) for i, P in polys.items()}
    return den, {key: ints[id(c)] for key, c in terms.items()}


def _minor_rows(g: int, minor: tuple) -> tuple[list, list]:
    """The rows and columns of the full pencil (minor == ()) or of its
    (k, l) first minor (minor == (k, l))."""
    rows = list(range(1, g + 1))
    if not minor:
        return rows, rows
    k, l = minor
    if not (1 <= k <= g and 1 <= l <= g):
        raise ValueError(f"minor indices ({k},{l}) out of range for g={g}")
    return [i for i in rows if i != k], [j for j in rows if j != l]


@lru_cache(maxsize=None)
def _t_split(g: int, minor: tuple) -> dict:
    """{n: {packed r-part key: nonzero int}}: B(n), the coefficient of t^n in
    the pencil's determinant (minor == ()) or its (k, l) first minor (minor
    == (k, l)), from one Leibniz pass dealt by place (module docstring).

    No key comes from both parities: it fixes the multiset of the pairs
    {i, sigma(i)}, the edges of a graph on 1..g whose components are the
    cycles of sigma (of sigma extended by k -> l, for a minor), so it fixes
    their lengths and sigma's parity.  So B(n) is the even permutations'
    counts beside the odd ones' negated, none of them zero.
    """
    rows, cols = _minor_rows(g, minor)
    unit = _packing(g).unit
    places: dict = {}  # n -> the places of the row-to-h assignments with counts n
    for i, hs in enumerate(itertools.product(range(g), repeat=len(rows))):
        places.setdefault(tuple(map(hs.count, range(g))), []).append(i)
    picks = [(n, operator.itemgetter(*p) if p[1:] else operator.itemgetter(slice(p[0], p[0] + 1)))
             for n, p in places.items()]  # a lone place as a slice, so a list comes back
    counts = {n: (Counter(), Counter()) for n in places}
    for sign, pairing in _signed_pairings(rows, cols):
        # last a row in no 2-cycle: its nibble is still empty, so | adds it and
        # leaves each key an int of its own size, where + leaves a spare digit
        pairs = set(pairing)
        pairing.sort(key=lambda rc: rc[0] == rc[1] or rc[::-1] not in pairs)
        keys = [0]
        for i, (r, c) in enumerate(pairing, 1 - len(pairing)):  # i = 0 on the last row
            row = [unit[r_var(h, r, c)] for h in range(1, g + 1)]
            if i or r != c and (c, r) in pairs:
                keys = [k + e for k in keys for e in row]
            else:
                keys = [k | e for k in keys for e in row]
        for n, pick in picks:
            counts[n][sign < 0].update(pick(keys))
    for n, (even, odd) in counts.items():  # each n's counters go as its bucket comes
        counts[n] = bucket = dict(even)
        bucket.update(zip(odd, map(operator.neg, odd.values())))
    return counts


def _t_keyed(g: int, minor: tuple) -> dict:
    """_t_split(g, minor) as packed key -> int, each bucket's t-block added back."""
    return {key | t: c for n, bucket in _t_split(g, minor).items()
            for t in [sum(e << 4 * i for i, e in enumerate(n))] for key, c in bucket.items()}


@lru_cache(maxsize=None)
def det_expand(g: int) -> MultiPoly:
    """det(t_1 R_1 + ... + t_g R_g) as a polynomial in all t_h and r_{h;ij}.

    Homogeneous of degree g in the t's and of degree g in matrix entries.
    Expanded by Leibniz over permutations, with each matrix entry of the
    pencil distributed over its g summands t_h r_{h;i,sigma(i)}.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    return _packed_poly(g, 1, _t_keyed(g, ()))


@lru_cache(maxsize=None)
def minor_det_expand(g: int, k: int, l: int) -> MultiPoly:
    """det of the pencil t_1 R_1 + ... with row k and column l deleted."""
    return _packed_poly(g, 1, _t_keyed(g, (k, l)))


@lru_cache(maxsize=None)
def coeff_R(g: int, n: tuple) -> MultiPoly:
    """The basis polynomial B(n): coefficient of t^n in det(t_1 R_1 + ...)."""
    if len(n) != g or sum(n) != g or any(k < 0 for k in n):
        raise ValueError(f"multi-index {n} is not a composition of {g} into {g} parts")
    return _packed_poly(g, 1, _t_split(g, ()).get(tuple(n), {}))


def minor_coeff_R(g: int, k: int, l: int, nprime: tuple) -> MultiPoly:
    """Coefficient of t^nprime in the (k,l) first-minor expansion."""
    if len(nprime) != g or sum(nprime) != g - 1 or any(v < 0 for v in nprime):
        raise ValueError(f"multi-index {nprime} is not a composition of {g-1} into {g} parts")
    return _packed_poly(g, 1, _t_split(g, (k, l)).get(tuple(nprime), {}))


# -- POLY1 text format --------------------------------------------------------

def _var_to_text(v: VarId) -> str:
    """The POLY1 name of a t- or r-variable, the variables of the layout."""
    return f"t[{v[1]}]" if v[0] == "t" else f"r[{v[1]};{v[2]},{v[3]}]"


def _packed_lines(g: int, den, nums: dict) -> list:
    """The lines of the POLY1 block of the cleared packed form (den, nums)
    of _packed_poly, without their newlines: header line, then the term
    lines of _Packing.term_lines, each distinct numerator formatted once."""
    coeff = _Memo(lambda num: scalar_to_text(_coefficient(num, den)))
    return [f"POLY1 field={'Qa' if isinstance(den, tuple) else 'Q'} terms={len(nums)}",
            *_packing(g).term_lines(nums, coeff.__getitem__)]
