"""Sparse multivariate polynomials over Q or Q(a), and determinant expansions.

Variables (VarId, a plain tuple):

  ("t", h)        auxiliary expansion variable t_h,        1 <= h <= g
  ("r", h, i, j)  entry (i,j) of the symmetric matrix R_h,  stored with i <= j
  ("x", i, nu)    entry of the concatenated rectangular matrix X = (X_1..X_g)

A monomial is a tuple of (VarId, exponent) pairs sorted by the global
variable order (t's first, then matrix entries by (h,i,j), then x-entries);
a polynomial is a dict mapping monomials to nonzero coefficients, which
say its field: it is in Q(a) when one of them is a RatFunc, and in Q when
all are Fractions.
The ring code on such dicts lives once, in the private base _SparsePoly:
MultiPoly and the JetPoly of jets.py are its two subclasses and differ only
in their monomial product and its check, which with scalars._admit is all
the public constructor checks, and in their own constructors and methods.

The central objects built here are the coefficients of

    det(t_1 R_1 + ... + t_g R_g) = sum over n of  B(n) * t^n,

with n running over nonnegative integer vectors summing to g, and the
coefficients M_kl(n') of the pencil's first minors, which Jacobi's formula
reads off the B(n) (minor_coeff_R).  One Leibniz generator,
_signed_pairings, yields the signed row-column pairings of a determinant
over permutations; it serves the one pass of the pencil here, and
_leibniz, the sum of sign * term over those pairings in the ring of the
terms, is every determinant of jets.py and brackets.py (for g <= 6 there
are at most 720 permutations, so no elimination strategy is needed).

Packed monomials.  A monomial is packed into one int with 4 bits per
variable, laid out in the global variable order: t_h takes nibble h - 1
and r_{h;ij} a nibble of the h-th block of g(g+1)/2 nibbles after the t's.
The Leibniz pass makes each monomial of the pencil once, with its
coefficient in closed form, sign(sigma) times 2 per cycle of length >= 3
and per 2-cycle whose rows carry different labels: a key, the labelled
edges (h_i, {i, sigma(i)}) of a term, fixes sigma up to the orientation of
those cycles and the labels up to the swap within those 2-cycles
(_t_split).  Its steps, a 2-cycle over its label pairs h <= h' or another
row over h, OR entry ints into nibbles still empty (no exponent exceeds g,
far below 15), and a key's place among them spells its labels, whose
counts are its t-exponents n.  So _t_split deals each permutation's keys
to the buckets B(n) by place, with no t-unit in any key, and det_expand
adds each bucket's t-block back; it is the one Leibniz pass of a genus,
and a minor coefficient is the packed derivative of one of its buckets
along one r-variable.
_Packing holds the layout, its decoder and the POLY1 text of packed keys.
PackedPoly, a cleared form on those keys, is the one polynomial of what
the pencil makes: det_expand, coeff_R and minor_coeff_R, each read from
_t_split, and the operator Q of opgen.py are one, and its D_{h;11} kernel
takes and returns one.  Only the substitution oracle and the tests decode
one, to the MultiPoly ring of the x-variables, substitute and diff_plain.
POLY1, the body of an OPSPEC1 file, has one writer, _packed_chunks, on
that form, and no reader of its own: opgen.opspec_from_text builds the
operator of a file's genus and weight and compares the file with the
writer's chunks, one at a time at its offset.  The writer puts the terms
in increasing order of their keys, the order of the ints themselves
(exponent vectors compared from the last variable r_{g;gg} down), sorted
once, and yields them as text chunks of _CHUNK_TERMS lines, each made by
one join, with no string per line.

A key is decoded, and written as POLY1 text, in two halves cut at a block
boundary, each looked up in a memo of one call that is filled from
per-block memos (_Packing).  Every cleared-form coefficient, in the
view PackedPoly.terms and jets.jet_apply, is made by _coefficient, one
object per distinct (numerator, denominator) in a process: two views of
one form share their coefficient objects, and each is reduced once.  The
tests check the split against a pass that counts every Leibniz term, one
whose keys carry their t-units, and each minor against such a pass.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, partial, reduce

from .scalars import (RatFunc, _accumulate, _admit, _binpow, _Memo, _pdivmod, _pgcd,
                      _pmul, _rational, scalar_to_text)

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


def _is_var(v) -> bool:
    """v is a t, r or x VarId of int indices, with i <= j for an r."""
    return (type(v) is tuple and v[:1] + (len(v),) in (("t", 2), ("r", 4), ("x", 3))
            and all(type(n) is int for n in v[1:]) and (v[0] != "r" or v[2] <= v[3]))


def _mono_fault(m) -> str | None:
    """Why m is not a Mono as _mono_mul makes it, if so: distinct VarIds in
    _var_key order, each with an int exponent >= 1."""
    if (type(m) is tuple and all(type(p) is tuple and len(p) == 2 and _is_var(p[0])
                                 and type(p[1]) is int and p[1] >= 1 for p in m)
            and all(_var_key(u) < _var_key(v) for (u, _), (v, _) in zip(m, m[1:]))):
        return None
    return (f"monomial {m!r} is not distinct t, r or x variables in order, "
            "each to an int power >= 1")


def _scalar(c):
    """c as a coefficient: a RatFunc as is, else through scalars._rational."""
    return c if isinstance(c, RatFunc) else _rational(c)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items(), key=lambda p: _var_key(p[0])))


def _mono_lower(m: Mono, idx: int, e: int = 1) -> Mono:
    """m with the exponent of its idx-th variable lowered by e (dropped at 0)."""
    v, f = m[idx]
    if f > e:
        return m[:idx] + ((v, f - e),) + m[idx + 1:]
    return m[:idx] + m[idx + 1:]


class _SparsePoly:
    """A sparse dict polynomial over Q or Q(a): the ring code shared by
    MultiPoly and JetPoly.

    terms maps monomials to nonzero Fractions or RatFuncs, which coerce in
    every ring operation (a Fraction beside a RatFunc is a constant of Q(a)).
    A subclass supplies _mono_mul, the product of two of its monomials, and
    _mono_fault, why a caller's key is not such a product: the constructor
    admits a caller's terms by it and _scalar; ring results come by _nonzero.
    """

    __slots__ = ("terms",)

    def __init_subclass__(cls):
        # The shared methods are entries of each subclass's own namespace, so a
        # wrapper set on one class's method (as the span recorder of perfbench
        # installs) leaves the other class's method alone.
        for name in ("__add__", "__neg__", "__sub__", "__mul__", "__pow__", "scale",
                     "promote"):
            setattr(cls, name, vars(_SparsePoly)[name])

    def __init__(self, terms: dict | None = None):
        self.terms = _admit(terms, self._mono_fault, _scalar)

    @classmethod
    def _nonzero(cls, terms: dict):
        """The polynomial of terms, taken as is: no coefficient may be zero."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, c):
        return cls({(): c})

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

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return self._nonzero(out)

    def __neg__(self):
        return self._nonzero({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        mono_mul = self._mono_mul
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, mono_mul(m1, m2), c1 * c2)
        return self._nonzero(out)

    def __pow__(self, n: int):
        return _binpow(self, n) if n else self.const(1)

    def scale(self, c):
        """Multiply by a scalar, a Fraction or a RatFunc."""
        c = _scalar(c)
        return self._nonzero({m: c * cm for m, cm in self.terms.items()} if c else {})

    def promote(self):
        """The same polynomial with every coefficient a RatFunc: in Q(a)."""
        return self._nonzero({m: c if isinstance(c, RatFunc) else RatFunc(c)
                              for m, c in self.terms.items()})

    def __repr__(self):
        return f"{type(self).__name__}({len(self.terms)} terms)"


class MultiPoly(_SparsePoly):
    """Sparse exact multivariate polynomial; immutable by convention."""

    __slots__ = ()

    _mono_mul = staticmethod(_mono_mul)
    _mono_fault = staticmethod(_mono_fault)

    @classmethod
    def var(cls, v: VarId) -> "MultiPoly":
        return cls({((v, 1),): Fraction(1)})

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
        return MultiPoly._nonzero(out)

    def mul_var(self, v: VarId, e: int = 1) -> "MultiPoly":
        mono = ((v, e),) if e else ()  # _mono_mul would keep a zero exponent
        return MultiPoly._nonzero({_mono_mul(m, mono): c for m, c in self.terms.items()})

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Substitute some variables by polynomials (others are kept)."""
        out = MultiPoly.zero()
        for m, c in self.terms.items():
            term = MultiPoly.const(c)
            for v, e in m:
                if v in mapping:
                    term = term * mapping[v] ** e
                else:
                    term = term.mul_var(v, e)
            out = out + term
        return out

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
        return MultiPoly._nonzero(out)


# -- multi-indices ----------------------------------------------------------

def _index_pairs(g: int) -> list[tuple]:
    """The entries (i, j), 1 <= i <= j <= g, of a symmetric matrix, row by
    row: the order of the r_{h;ij} of each R_h and of an expansion's T_ij."""
    return [(i, j) for i in range(1, g + 1) for j in range(i, g + 1)]


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


def _leibniz(rows, cols, term):
    """The sum of sign * term(pairing) over _signed_pairings(rows, cols), in
    the ring of the terms: the determinant with those Leibniz terms."""
    return reduce(operator.add, (term(p) if sign > 0 else -term(p)
                                 for sign, p in _signed_pairings(list(rows), list(cols))))


_NIBBLE_SUMS = bytes((b & 15) + (b >> 4) for b in range(256))  # byte -> its nibble sum


def _nibble_sum(key: int) -> int:
    """The sum of the nibbles of key: the degree of a packed monomial."""
    return sum(key.to_bytes((key.bit_length() + 7) // 8, "little").translate(_NIBBLE_SUMS))


_CHUNK_TERMS = 4096  # the term lines of one POLY1 text chunk (_Packing.term_chunks)


class _Packing:
    """The packed-int monomial layout of the module docstring, for genus g.

    names[p] is the variable of nibble p and unit[v] the int with a 1 in the
    nibble of v, for every t_h and r_{h;ij} (i <= j) of genus g.  A key is
    cut at a block boundary into two halves:
    the low half key & low holds the t-block and R_1 .. R_{g//2}, the high
    half key >> cut the other blocks.  decode and term_chunks look a key up
    by its two halves, in C-level maps, and build each distinct half once
    per call from per-block memos (the t's, then one block per R_h) of the
    decoded pairs and the POLY1 text, which see few distinct values and
    persist.  At g = 5 the 111,275 keys of Q have 6,167 distinct low and
    30,415 distinct high halves.  The half memos last one call (the
    high-half text memo of term_chunks one run of keys): kept, they would
    hold some 13 MB at g = 5 that a later call rarely reuses.
    """

    def __init__(self, g: int):
        pairs = _index_pairs(g)
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

    def decode(self, keys) -> map:
        """The Mono of each key (keys is iterated twice), whose exponents are
        its nibbles: its low half's pairs followed by its high half's, each
        distinct half built once per call from the per-block memos."""
        low, high = (_Memo(partial(self._join, blocks, ())) for blocks in self._monos)
        return map(operator.add, map(low.__getitem__, map(self.low.__and__, keys)),
                   map(high.__getitem__, map(self.cut.__rrshift__, keys)))

    def term_chunks(self, terms: dict, coeff):
        """The POLY1 term lines 'c | var^e var^e ...' of terms (packed key ->
        value) in increasing order of the key (exponent vectors compared from
        the last variable down), one text per run of _CHUNK_TERMS keys, each
        joined from four pieces per key: 'c |' = coeff(value), its low half's
        text, its high half's and a newline.  The low-half memo lasts the
        call and the high-half memo one run: sorted keys hold each high half
        in one run, so at most one half per run boundary is built twice."""
        keys = sorted(terms)
        low = _Memo(partial(self._join, self._texts[0], ""))
        for start in range(0, len(keys), _CHUNK_TERMS):
            run = keys[start:start + _CHUNK_TERMS]
            high = _Memo(partial(self._join, self._texts[1], ""))
            parts = ["\n"] * (4 * len(run))
            parts[0::4] = map(coeff, map(terms.__getitem__, run))
            parts[1::4] = map(low.__getitem__, map(self.low.__and__, run))
            parts[2::4] = map(high.__getitem__, map(self.cut.__rrshift__, run))
            if not run[0]:  # the constant monomial, the least key, is written 'c | '
                parts[1] = " "
            yield "".join(parts)


@lru_cache(maxsize=None)
def _packing(g: int) -> _Packing:
    return _Packing(g)


@lru_cache(maxsize=None)
def _coefficient(num, den):
    """The coefficient num / den of a cleared form (see PackedPoly), one
    object per distinct (num, den) in a process: each is reduced once, and
    two views of one form hold the same objects, so comparing them takes
    the identity shortcut of dict equality."""
    return RatFunc(num, den) if isinstance(den, tuple) else Fraction(num, den)


def _coefficients(den) -> _Memo:
    """numerator -> _coefficient(numerator, den)."""
    return _Memo(lambda num: _coefficient(num, den))


class PackedPoly:
    """A polynomial in the t_h and r_{h;ij} of genus g as a cleared form on
    packed keys: nums[key] / den is the coefficient of the monomial key.

    den is a positive int and each numerator a nonzero int (field Q), or den
    and each numerator an integer polynomial in a, a tuple of ints low
    degree first (field Q(a)).  The form is canonical, as _cleared makes it:
    no prime, and no factor of den, divides den and every numerator, and the
    zero polynomial is (g, 1, {}).  A form in Q, (d, {key: n}), is compared
    with one in Q(a) as ((d,), {key: (n,)}), its canonical form there (no
    integer divides d and every n), so == is polynomial equality, across
    the two fields as MultiPoly's is.  Unhashable, and immutable by
    convention.
    """

    __slots__ = ("g", "den", "nums")

    def __init__(self, g: int, den, nums: dict):
        self.g, self.den, self.nums = g, den, nums

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.g == other.g and self._beside(other) == other._beside(self)

    def _beside(self, other) -> tuple:
        """(den, nums), lifted to its canonical Q(a) form when self is in Q
        and other in Q(a)."""
        if isinstance(self.den, int) and isinstance(other.den, tuple):
            return (self.den,), {key: (n,) for key, n in self.nums.items()}
        return self.den, self.nums

    __hash__ = None

    def __repr__(self):
        return f"PackedPoly(g={self.g}, {len(self.nums)} terms)"

    @property
    def terms(self) -> _Terms:
        """{packed key: coefficient} as a read-only view of nums, with no key
        decoded and no coefficient made until one is read."""
        return _Terms(self.nums, self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def decode(self) -> MultiPoly:
        """The MultiPoly of the form: each key decoded to its Mono, whose
        coefficient objects are those of terms."""
        terms = self.terms
        return MultiPoly._nonzero(dict(zip(_packing(self.g).decode(terms), terms.values())))


class _Terms(Mapping):
    """PackedPoly.terms: nums[key] / den, made by the _coefficients memo as
    it is read; len and a lookup cost O(1)."""

    __slots__ = ("nums", "coefficient")

    def __init__(self, nums: dict, den):
        self.nums, self.coefficient = nums, _coefficients(den)

    def __getitem__(self, key):
        return self.coefficient[self.nums[key]]

    def __iter__(self):
        return iter(self.nums)

    def __len__(self):
        return len(self.nums)


def _cleared(terms: dict) -> tuple:
    """(den, nums) with nums[key] / den == terms[key]: the cleared form of
    PackedPoly for the coefficients of terms, in Q(a) when one of them
    is a RatFunc and in Q otherwise.

    In Q, den is the lcm of the coefficient denominators; in Q(a), the lcm L
    of the denominator polynomials, times the least integer that makes L
    and every numerator polynomial integral, divided by their content.
    Either way no prime, and no factor of L, divides den and every
    numerator, so the form is canonical (den > 0, or with a positive
    leading coefficient).  Each distinct coefficient object is cleared once.
    """
    distinct = {id(c): c for c in terms.values()}
    if not any(isinstance(c, RatFunc) for c in distinct.values()):
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


@lru_cache(maxsize=None)
def _t_split(g: int) -> dict:
    """{n: {packed r-part key: nonzero int}}: B(n), the coefficient of t^n in
    the pencil's determinant, each monomial made once with its coefficient
    in closed form (module docstring).  It is the one pass of a genus:
    det_expand, coeff_R, the operator Q and, by Jacobi's formula,
    minor_coeff_R read it.

    A Leibniz term, a permutation sigma and a label h_i per row i, has as
    its key the multiset of labelled edges (h_i, {i, sigma(i)}) of a graph
    on 1..g whose components are the cycles of sigma.  So a key fixes sigma
    up to the orientation of each cycle of length >= 3 (its labelled edges
    stay) and the labels up to the swap within each 2-cycle.  Both keep the
    cycle type, so the sign: no key comes from both parities, and a key's
    coefficient is sign(sigma) * 2^(cycles of length >= 3) * 2^(2-cycles
    whose rows carry different labels).  The pass keeps sigma only when
    sigma(s) < sigma^-1(s) at the least element s of each long cycle, and
    takes each 2-cycle (i j) as one step over the label pairs h <= h'.
    """
    rows = list(range(1, g + 1))
    unit = _packing(g).unit
    pairs = list(itertools.combinations_with_replacement(rows, 2))  # a 2-cycle's labels h <= h'
    # a key's place among its steps (m 2-cycles, then g - 2m rows) spells its t^n and,
    # from nibble g on, its number d of pairs h < h': its bucket and the 2^d of its value
    t = [unit[t_var(h)] for h in rows]
    doubles = [t[h - 1] + t[k - 1] + ((h < k) << 4 * g) for h, k in pairs]
    deals = {}  # m -> (picks of the places by n, the spell of each place)
    for m in range(g // 2 + 1):
        spells = [0]
        for step in [doubles] * m + [t] * (g - 2 * m):
            spells = [s + e for s in spells for e in step]
        places: dict = {}
        for i, s in enumerate(spells):
            places.setdefault(s & (1 << 4 * g) - 1, []).append(i)
        deals[m] = [(tuple(n >> 4 * i & 15 for i in range(g)), operator.itemgetter(*p) if p[1:]
                     else operator.itemgetter(slice(p[0], p[0] + 1)))  # a lone place: a list
                    for n, p in places.items()], spells
    values = _Memo(lambda mc: [mc[1] << (s >> 4 * g) for s in deals[mc[0]][1]])  # c 2^d by place
    split = {n: {} for n, _ in deals[0][0]}  # with no 2-cycle, every n has a place
    for c, m, steps in _pencil_steps(g, pairs):
        keys = [0]
        for step in steps:  # the edges of the steps differ: each ORs into empty nibbles
            keys = [k | e for k in keys for e in step]
        picks, _ = deals[m]
        value = values[m, c]
        for n, pick in picks:
            split[n].update(zip(pick(keys), pick(value)))
    return split


def _pencil_steps(g: int, pairs: list):
    """(sign(sigma) 2^(cycles of length >= 3), m, steps) per permutation sigma
    that _t_split keeps, with m 2-cycles: the entry ints of each 2-cycle
    (i j), r_{h;ij} r_{h';ij} per (h, h') of pairs, then of each other row."""
    rows = list(range(1, g + 1))
    unit = _packing(g).unit
    for sign, pairing in _signed_pairings(rows, rows):
        to, back = dict(pairing), {c: r for r, c in pairing}
        cycles = {frozenset(itertools.accumulate(rows, lambda r, _: to[r], initial=s))
                  for s in rows}  # s, sigma(s), ..., sigma^g(s): the cycle of s
        longs = [min(cycle) for cycle in cycles if len(cycle) > 2]
        if any(to[s] > back[s] for s in longs):
            continue
        twos = sorted(sorted(cycle) for cycle in cycles if len(cycle) == 2)
        steps = [[unit[r_var(h, i, j)] + unit[r_var(k, i, j)] for h, k in pairs] for i, j in twos]
        steps += [[unit[r_var(h, r, to[r])] for h in rows] for r in rows
                  if to[r] == r or to[to[r]] != r]  # the rows in no 2-cycle
        yield sign << len(longs), len(twos), steps


_MAX_GENUS = 5  # the largest genus whose Leibniz pass is run, Q built and operator file read


def _leibniz_args(g: int, n: tuple | None = None, total: int = 0):
    """Refuse, before a Leibniz pass, a genus that is not an int in
    1.._MAX_GENUS (the pass grows like g! g^g: 13.8M terms at g = 6), then a
    multi-index n, if given, that is not g ints >= 0 summing to total."""
    if type(g) is not int:
        raise ValueError(f"genus {g!r} is not an integer")
    if not 1 <= g <= _MAX_GENUS:
        raise ValueError("genus must be >= 1" if g < 1
                         else f"genus must be <= {_MAX_GENUS}, found {g}")
    if n is not None and (list(map(type, n)) != [int] * g or min(n) < 0 or sum(n) != total):
        raise ValueError(f"multi-index {n} is not a composition of {total} into {g} parts")


@lru_cache(maxsize=None, typed=True)
def det_expand(g: int) -> PackedPoly:
    """det(t_1 R_1 + ... + t_g R_g) as a polynomial in all t_h and r_{h;ij}.

    Homogeneous of degree g in the t's and of degree g in matrix entries.
    Expanded by Leibniz over permutations, with each matrix entry of the
    pencil distributed over its g summands t_h r_{h;i,sigma(i)}.  The cache
    is typed, so det_expand(True) is checked, not read as det_expand(1).
    """
    _leibniz_args(g)
    return PackedPoly(g, 1, {key | t: c for n, bucket in _t_split(g).items()
                             for t in [sum(e << 4 * i for i, e in enumerate(n))]
                             for key, c in bucket.items()})


@lru_cache(maxsize=None)
def _coeff_R(g: int, n: tuple) -> PackedPoly:
    return PackedPoly(g, 1, _t_split(g).get(n, {}))


def coeff_R(g: int, n: tuple) -> PackedPoly:
    """The basis polynomial B(n): coefficient of t^n in det(t_1 R_1 + ...).

    The arguments are checked before the cache is read, which takes
    (True, True) or (1.0, 1.0) for (1, 1); coeff_R has its cache's handles.
    """
    _leibniz_args(g, n, g)
    return _coeff_R(g, tuple(n))


coeff_R.cache_info, coeff_R.cache_clear = _coeff_R.cache_info, _coeff_R.cache_clear


def minor_coeff_R(g: int, k: int, l: int, nprime: tuple) -> PackedPoly:
    """M_kl(nprime), the coefficient of t^nprime in the pencil's (k,l) first
    minor, by Jacobi's formula from the bucket B(nprime + e_1) of _t_split.

    The variable r_{1;kl} sits at (k, l) and at (l, k) of the pencil, and
    M_kl = M_lk, so d det / d r_{1;kl} = t_1 (-1)^(k+l) (2 - delta_kl) M_kl.
    Its coefficient of t^(nprime + e_1) gives M_kl(nprime) as (-1)^(k+l)
    d B(nprime + e_1) / d r_{1;kl}, halved when k != l, where every
    coefficient of that derivative is even.  Slot 1 is one choice: r_{h;kl}
    and B(nprime + e_h) give the same minor for every h.
    """
    _leibniz_args(g, nprime, g - 1)
    if not all(type(i) is int and 1 <= i <= g for i in (k, l)):
        raise ValueError(f"minor indices ({k},{l}) out of range for g={g}")
    u, sign, half = _packing(g).unit[r_var(1, k, l)], (-1) ** (k + l), 2 - (k == l)
    bucket = _t_split(g).get((nprime[0] + 1, *nprime[1:]), {})
    return PackedPoly(g, 1, {key - u: sign * c * e // half for key, c in bucket.items()
                             if (e := key // u & 15)})


# -- POLY1 text format --------------------------------------------------------

def _var_to_text(v: VarId) -> str:
    """The POLY1 name of a t- or r-variable, the variables of the layout."""
    return f"t[{v[1]}]" if v[0] == "t" else f"r[{v[1]};{v[2]},{v[3]}]"


def _packed_chunks(p: PackedPoly):
    """The POLY1 block of p as text chunks: its header line, then the runs
    of _Packing.term_chunks, each distinct numerator formatted once."""
    coeff = _Memo(lambda num: scalar_to_text(_coefficient(num, p.den)) + " |")
    yield f"POLY1 field={'Qa' if isinstance(p.den, tuple) else 'Q'} terms={len(p.nums)}\n"
    yield from _packing(p.g).term_chunks(p.nums, coeff.__getitem__)
