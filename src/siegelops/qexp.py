"""Truncated Fourier expansions of genus-g forms, exact arithmetic.

One private class, _Expansion, holds every piece that depends on the
exponent key: the term check, the ring operations and their product kernel,
truncation, differentiation, the boundary order and the SMF1 codec.  QExp1
and QExp2 are its genus-1 and genus-2 cases.

Keys.  A term c * exp(2 pi i sum_{i<=j} T_ij tau_ij / 8) is stored under its
g(g+1)/2 scaled exponents T_ij (i <= j), row by row: (alpha, beta, gamma) =
(T_11, T_12, T_22) at genus 2 and (n,) at genus 1.  Theta-constant exponents
lie in (1/8)Z on the diagonal and (1/4)Z off it, so the factor 8 makes every
key integral.  Only data from outside is checked: the public constructor
checks each term (scalars._admit), the SMF1 reader every key, by column (when a
check fails it reads the block again line by line, checking each key as it
is read, and names the first faulty line).  Ring operations keep the
invariants, and the builders of theta and brackets keep them by their loop
bounds (a test rebuilds each builder's output through the public
constructor), so their results skip the check:

  * every diagonal T_ii >= 0, and the weight T_11 + ... + T_gg <= trunc;
  * beta^2 <= 4 alpha gamma for each off-diagonal beta = T_ij, with
    alpha = T_ii and gamma = T_jj (positive semidefiniteness, preserved
    under multiplication);
  * no zero coefficients; coefficients are exact rationals.

Coefficients.  An expansion stores one common denominator and integer
numerators: the coefficient of key k is nums[k] / den, with den >= 1, every
nums[k] a nonzero int and gcd(den, *nums.values()) == 1.  That form is
canonical (the zero expansion is den = 1 and no terms), so equality and the
SMF1 bytes follow from it, and every operation runs on plain ints: a sum
scales both sides to the lcm of their denominators, a product multiplies
numerators and denominators, a scalar or a derivative multiplies both, and
each result is reduced by one gcd when its denominator exceeds 1.  The
terms attribute is a read-only {key: Fraction} view of the same data, built
on first use.

Truncation by the weight is a ring congruence, so every computed
coefficient inside the window is exact.  Differentiation is normalized: the
operator per index pair is (1/(2 pi i)) (1+delta_ij)/2 d/dtau_ij, so a term
picks up T_ij/8 on the diagonal and T_ij/16 off it; the stripped power of
2 pi i is tracked in tau_factor so numeric cross-checks can reinstate it.

Products use one Kronecker-substitution kernel on the numerators.  It
groups each operand's terms by all key entries but the packed one (the last
off-diagonal T_{g-1,g}, beta at genus 2; n at genus 1) and packs each
group's row into one integer, one slot of S bits per step of the stride s
(the gcd of the packed entries' differences; 8 for theta constants, which
makes their rows dense).  Multiplying two packed rows convolves them; every
group pair whose weights sum to at most trunc adds its product into the
output group.  A product coefficient sums at most min(len a, len b) terms,
each at most max|a| * max|b|, so S = bits(max|a|) + bits(max|b|) +
bits(min(len a, len b)) + 2 holds every output digit with its sign, and each
output integer is decoded once with signed digits (take the low S bits r; if
r >= 2^(S-1), the digit is r - 2^S and it borrows one from the rest).  At
genus 1 the packed entry is the weight itself: the series is one row, and
decoding stops at the truncation.  The grouping depends only on an operand
and the truncation, so an expansion keeps its own per truncation (apply's
F F and F times its derivatives group F once); S and s depend on both
operands, so the rows are packed anew for each product.

A square (one dict as both operands: x * x, and every squaring of binary
powering) visits each unordered group pair once, which costs about half a
product.  A group with itself is Pa * Pa, which CPython computes by its
squaring routine; every other pair in reach adds Pa * 2 Pb (each row is
doubled once, before the loop), the terms of the pairs (a, b) and (b, a) at
once.  The diagonal pair is found by its position in the group list, not by
identity of the packed ints, since equal small ints are one object.  Each
output integer is the same sum of the same convolution terms as in the
general path, so S still bounds every digit.

A genus-2 modular form is +-itself under the swap tau_11 <-> tau_22 (U in
GL_2(Z) swapping the basis, F(U tau U^T) = det(U)^k F(tau) up to its
character): a(alpha, beta, gamma) = s a(gamma, beta, alpha), s = +-1.
_mirror_sign finds s on the packed rows (the row at (alpha, gamma) is s
times the row at (gamma, alpha), from the same lowest slot) in O(groups).
If both operands have one, the mirror, a bijection of the pairs of terms
that keeps the weight, makes the product s_a s_b-symmetric exactly, so only
pairs whose output group has alpha <= gamma are multiplied, and a group
with alpha < gamma is decoded with its mirror.  Other operands (theta[10,00]
alone, say) and genus 1 take the general path.

Jet polynomials are evaluated in two steps.  First, by the Leibniz rule,
each monomial c D_p F D_q F of two factors of one symbol with one
derivative pair each becomes c/2 D_p D_q (F F) - c F D_p D_q F when
another monomial has F itself as a factor; this is exact, since q_diff is
a derivation and truncation a ring congruence.  F F is made once as a
square, and its derivatives come from the same factor cache as F's.  With
no F factor to share F D_p D_q F's product, the rewrite would cost a square
and a product where the monomial costs one product (one square if p = q),
so the monomial stays as it is.  Then the monomials are evaluated factor
first: the monomials that share a factor are summed before that factor
multiplies them, and a factor whose only cofactor is itself is squared.
Once every monomial left has one factor, they form a linear combination of
derivatives of a few base expansions (F, F F), and the terms of one base
and one order are applied in one pass over it (_diff): each numerator is
multiplied by sum_j c_j prod(its key entries at pairs_j), the c_j and the
factors 1/8 and 1/16 brought over one common denominator.  The genus-2
operator, at every weight, is c1 F D F + c2 (F_11 F_22 - F_12^2) with
D F = F_{11,22} - F_{12,12}, which becomes c2/2 D (F F) + (c1 - c2) F D F,
so it costs one square, one product, two derivative passes (D on F, D on
F F) and one sum, where the terms as they stand cost 3 products.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress, islice, repeat
from math import gcd, lcm
from operator import add, floordiv, itemgetter, le, lt, mul
from types import MappingProxyType

from .jets import JetPoly
from .poly import _cleared, _index_pairs
from .scalars import (RatFunc, _accumulate, _admit, _binpow, _int_from_text, _line_reader,
                      _Memo, _number_from_text, _pack, _rational, _unpack, frac_from_text,
                      frac_to_text)

SCALE = 8
DEFAULT_TRUNC = 48


def _check_trunc(trunc: int) -> None:
    """Refuse a truncation that is not an int (a bool too) or is negative."""
    if type(trunc) is not int:
        raise ValueError(f"truncation {trunc!r} is not an integer")
    if trunc < 0:
        raise ValueError(f"negative truncation {trunc}")


class _Layout:
    """Where each T_ij sits in a genus-g key: pairs lists the (i, j) of the
    entries in key order and at maps each (i, j) to its position, diag(key)
    gives the diagonal entries (their sum is the weight), off holds
    (n, ii, jj) per off-diagonal entry n and its two diagonal partners; the
    kernel packs along entry pack and groups by rest(key), whose diagonal
    entries sit at rest_diag.  The diagonal entries of a key sit at diag_at,
    and body_pattern matches the SMF1 term lines to_text writes."""

    def __init__(self, g: int):
        self.genus = g
        self.pairs = pairs = _index_pairs(g)
        self.at = at = {p: n for n, p in enumerate(pairs)}
        self.off = [(at[i, j], at[i, i], at[j, j]) for i, j in pairs if i < j]
        self.pack = self.off[-1][0] if self.off else 0
        others = [n for n in range(len(pairs)) if n != self.pack]
        self.rest_diag = [m for m, n in enumerate(others) if pairs[n][0] == pairs[n][1]]
        self.diag_at = [at[i, i] for i in range(1, g + 1)]
        # a genus-1 key is all diagonal, and nothing is left beside its packed entry
        self.diag = itemgetter(*self.diag_at) if g > 1 else tuple
        self.rest = itemgetter(*others) if g > 1 else (lambda k: ())
        # the key entries as str writes them, the diagonal ones >= 0, then a
        # nonzero p or p/q; re compiles it on the first read and keeps it
        entry = {True: "(?:0|[1-9][0-9]*) ", False: "(?:0|-?[1-9][0-9]*) "}
        self.body_pattern = "(?:%s-?[1-9][0-9]*(?:/[1-9][0-9]*)?\n)*" % "".join(
            entry[i == j] for i, j in pairs)

    def shape_fault(self, k) -> str | None:
        """Why k is not a tuple of len(pairs) ints, if so."""
        if (type(k) is not tuple or len(k) != len(self.pairs)
                or not all(type(v) is int for v in k)):
            return f"key {k!r} is not a genus-{self.genus} key of {len(self.pairs)} integers"
        return None

    def fault(self, k: tuple, trunc: int) -> str | None:
        """Why a key of the right shape breaks an invariant of the module
        docstring at truncation trunc, if so."""
        d = self.diag(k)
        if min(d) < 0:
            return f"negative diagonal exponent in term {k}"
        if sum(d) > trunc:
            return f"term {k} exceeds truncation {trunc}"
        for n, i, j in self.off:
            if k[n] * k[n] > 4 * k[i] * k[j]:
                return f"term {k} violates beta^2 <= 4*alpha*gamma"
        return None


def _reduced(den: int, nums: dict) -> tuple[int, dict]:
    """(den, nums) divided by gcd(den, *nums): the canonical form."""
    if den > 1:
        g = gcd(den, *nums.values())
        if g > 1:
            return den // g, {k: v // g for k, v in nums.items()}
    return den, nums


def _rows(nums: dict, trunc: int, lay: _Layout) -> tuple[dict, dict]:
    """The terms within the truncation, and their keys grouped by their
    rest, the key without its packed entry, as {rest: (its weight, [key, ...])}."""
    grouped: dict = {}
    rest = lay.rest
    for k in nums:
        grouped.setdefault(rest(k), []).append(k)
    rows = {}
    kept = 0
    for r, keys in grouped.items():
        w = sum([r[i] for i in lay.rest_diag])
        if lay.genus == 1:  # the packed entry n is the weight itself
            keys = [k for k in keys if k[0] <= trunc - w]
        if keys and w <= trunc:
            rows[r] = (w, keys)
            kept += len(keys)
    if kept < len(nums):
        nums = {k: nums[k] for _, keys in rows.values() for k in keys}
    return nums, rows


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


def _mirror_sign(groups: list) -> int:
    """s = +1 or -1 if the packed row of every genus-2 group at rest
    (alpha, gamma) is s times the row at (gamma, alpha), from the same lowest
    slot, else 0: then a(alpha, beta, gamma) = s a(gamma, beta, alpha)."""
    rows = {r: (o, P) for _, _, r, o, P in groups}
    sign = 0
    for r, (o, P) in rows.items():
        mo, mP = rows.get(r[::-1], (None, 0))
        s = 0 if mo != o else 1 if mP == P else -1 if mP == -P else 0
        if not s or s == -sign:
            return 0
        sign = s
    return sign


def _mul_terms(x, y, trunc: int) -> dict:
    """Truncated convolution of the numerators of two expansions of one
    genus, each grouped by its own _grouping; the result is {key: nonzero int}."""
    if not x._nums or not y._nums:
        return {}
    square = x._nums is y._nums  # x * x, or x times a clone of x
    lay = x._layout
    ca, ra = x._grouping(trunc)
    cb, rb = (ca, ra) if square else y._grouping(trunc)
    if not ca or not cb:
        return {}
    p = lay.pack
    S = _slot_width(ca, cb)
    s = _stride({k[p] for k in ca}, {k[p] for k in cb})
    # a rest is coded as one int in base R = 2 trunc + 1 with digits in
    # [-trunc, trunc], which holds every entry of a kept key (|T_ij| <= T_ii + T_jj),
    # so the code of a product's rest is the sum of its factors' codes
    R = 2 * trunc + 1

    def groups(rows: dict, cx: dict) -> tuple[int, list]:
        x0 = next(iter(cx))[p]
        out = [(w, sum(v * R ** t for t, v in enumerate(r)), r,
                *_pack([((k[p] - x0) // s, cx[k]) for k in keys], S))
               for r, (w, keys) in rows.items()]
        out.sort()  # by weight, then code: no two groups share a code
        return x0, out

    xa, ga = groups(ra, ca)
    xb, gb = (xa, ga) if square else groups(rb, cb)
    # the sign of the product under the mirror alpha <-> gamma, when both
    # operands have one; then only output groups with alpha <= gamma are made
    sign = _mirror_sign(ga) if lay.genus == 2 else 0
    if sign:
        sign *= sign if square else _mirror_sign(gb)
    if sign:  # alpha - gamma of each partner's rest
        db = [r[0] - r[1] for _, _, r, _, _ in gb]
    wb = [t[0] for t in gb]
    if square:  # each unordered pair once, found by position
        doubled = [(*t[:4], t[4] << 1) for t in ga]
    acc: dict = {}
    get = acc.get
    for i, (wa, ka, rest_a, oa, Pa) in enumerate(ga):
        reach = bisect_right(wb, trunc - wa)
        if not square:
            lo, partners = 0, gb[:reach]
        elif i < reach:  # the group with itself (Pa * Pa), then later rows doubled
            lo, partners = i, [ga[i], *doubled[i + 1:reach]]
        else:  # weight > trunc / 2, and every later group's too
            break
        if sign:  # alpha_a + alpha_b <= gamma_a + gamma_b
            partners = compress(partners, map((rest_a[1] - rest_a[0]).__ge__, db[lo:reach]))
        for _, kb, rest_b, ob, Pb in partners:
            key = ka + kb
            o = oa + ob
            cur = get(key)
            if cur is None:
                acc[key] = [o, Pa * Pb, rest_a, rest_b]
            elif o >= cur[0]:
                cur[1] += (Pa * Pb) << (S * (o - cur[0]))
            else:
                cur[1] = (cur[1] << (S * (cur[0] - o))) + Pa * Pb
                cur[0] = o
    out = {}
    for o, P, rest_a, rest_b in acc.values():
        r = tuple(map(add, rest_a, rest_b))
        head, tail, first = r[:p], r[p:], xa + xb + s * o
        # at genus 1, decode only the slots within the truncation
        slots = max(0, (trunc - first) // s + 1) if lay.genus == 1 else None
        digits = _unpack(P, S, slots)
        for i, v in digits:
            out[(*head, first + s * i, *tail)] = v
        if sign and r[0] != r[1]:  # the mirror group (gamma, alpha)
            for i, v in digits:
                out[(r[1], first + s * i, r[0])] = sign * v
    return out


class _Expansion:
    """A truncated expansion with exact rational coefficients: the code
    shared by QExp2 and QExp1.

    _den and _nums hold the coefficients in the canonical form of the module
    docstring, and terms is their {key: Fraction} view; every key's weight
    is at most trunc.  weight is the modular weight, tau_factor the number
    of stripped powers of 2 pi i and character the sign-character flag.  A
    subclass sets genus, which fixes the key layout.
    """

    __slots__ = ("weight", "trunc", "_den", "_nums", "_terms", "_grouped", "tau_factor",
                 "character")

    scale = SCALE

    def __init_subclass__(cls):
        cls._layout = _Layout(cls.genus)
        # the shared methods, in each subclass's own namespace (see
        # poly._SparsePoly.__init_subclass__)
        for name in ("__add__", "__neg__", "__sub__", "__mul__", "__pow__", "scale_coeff",
                     "truncate", "q_diff", "to_text"):
            setattr(cls, name, vars(_Expansion)[name])

    def __init__(self, terms: dict | None = None, weight=Fraction(0),
                 trunc: int = DEFAULT_TRUNC, tau_factor: int = 0,
                 character: bool = False):
        """Every term's key and exact coefficient is checked, then zeros dropped."""
        _check_trunc(trunc)
        lay = self._layout
        checked = _admit(terms, lambda k: lay.shape_fault(k) or lay.fault(k, trunc), _rational)
        self._set(*_cleared(checked), _rational(weight), trunc, tau_factor, character)

    def _set(self, den, nums, weight, trunc, tau_factor, character):
        self._den, self._nums, self._terms, self._grouped = den, nums, None, None
        self.weight, self.trunc = weight, trunc
        self.tau_factor, self.character = tau_factor, character

    @classmethod
    def _checked(cls, den: int, nums: dict, weight: Fraction, trunc: int, tau_factor: int,
                 character: bool):
        """An expansion of canonical (den, nums) whose keys already keep the
        invariants (read and checked, computed from checked operands, or
        built within them by a builder's loop bounds): no second check."""
        out = cls.__new__(cls)
        out._set(den, nums, weight, trunc, tau_factor, character)
        return out

    @property
    def terms(self):
        """{key: Fraction coefficient}, a read-only view built on first use."""
        view = self._terms
        if view is None:
            den = self._den
            view = self._terms = MappingProxyType(
                {k: Fraction(v, den) for k, v in self._nums.items()} if den > 1
                else {k: Fraction(v) for k, v in self._nums.items()})
        return view

    def _grouping(self, trunc: int) -> tuple[dict, dict]:
        """_rows of the numerators at truncation trunc, for the product
        kernel; made once and kept for the next product at that truncation."""
        if self._grouped is None or self._grouped[0] != trunc:
            self._grouped = (trunc, *_rows(self._nums, trunc, self._layout))
        return self._grouped[1:]

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, weight=Fraction(0), trunc: int = DEFAULT_TRUNC):
        return cls({}, weight, trunc)

    @classmethod
    def one(cls, trunc: int = DEFAULT_TRUNC):
        return cls({(0,) * len(cls._layout.pairs): Fraction(1)}, Fraction(0), trunc)

    def _clone(self, den: int, nums: dict, weight=None, trunc=None, tau_factor=None,
               character=None):
        return self._checked(den, nums,
                             self.weight if weight is None else weight,
                             self.trunc if trunc is None else trunc,
                             self.tau_factor if tau_factor is None else tau_factor,
                             self.character if character is None else character)

    def with_weight(self, weight):
        return self._clone(self._den, self._nums, weight=_rational(weight))

    def with_character(self, flag: bool):
        return self._clone(self._den, self._nums, character=flag)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self._den == other._den and self._nums == other._nums
                and self.weight == other.weight and self.trunc == other.trunc
                and self.tau_factor == other.tau_factor and self.character == other.character)

    def __repr__(self):
        return (f"{type(self).__name__}(weight={self.weight}, trunc={self.trunc}, "
                f"terms={len(self._nums)}, taupow={self.tau_factor})")

    # -- ring operations -------------------------------------------------------

    def _check_genus(self, other):
        if self.genus != other.genus:
            raise ValueError(f"genus mismatch: {self.genus} vs {other.genus}")

    def _cut(self, trunc: int) -> dict:
        """The numerators of the terms of weight at most trunc."""
        if self.trunc <= trunc:  # nothing to drop
            return self._nums
        diag = self._layout.diag
        return {k: v for k, v in self._nums.items() if sum(diag(k)) <= trunc}

    def __add__(self, other):
        self._check_genus(other)
        if self.weight != other.weight:
            raise ValueError(f"weight mismatch: {self.weight} vs {other.weight}")
        if self.tau_factor != other.tau_factor:
            raise ValueError("tau-factor mismatch")
        if self.character != other.character:
            raise ValueError("character mismatch")
        trunc = min(self.trunc, other.trunc)
        da, db = self._den, other._den
        den = lcm(da, db)
        fa, fb = den // da, den // db
        out = {k: v * fa for k, v in self._cut(trunc).items()}
        for k, v in other._cut(trunc).items():
            v = out.get(k, 0) + v * fb
            if v:
                out[k] = v
            else:
                del out[k]
        den, out = _reduced(den, out)
        return self._checked(den, out, self.weight, trunc, self.tau_factor, self.character)

    def __neg__(self):
        return self._clone(self._den, {k: -v for k, v in self._nums.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_genus(other)
        trunc = min(self.trunc, other.trunc)
        den, nums = _reduced(self._den * other._den,
                             _mul_terms(self, other, trunc))
        return self._checked(den, nums, self.weight + other.weight, trunc,
                             self.tau_factor + other.tau_factor,
                             self.character != other.character)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on expansions")
        return _binpow(self, n) if n else self.one(self.trunc)

    def scale_coeff(self, c):
        c = _rational(c)
        if not c:
            return self._clone(1, {})
        p = c.numerator
        nums = {k: p * v for k, v in self._nums.items()} if p != 1 else self._nums
        return self._clone(*_reduced(self._den * c.denominator, nums))

    def truncate(self, trunc: int):
        _check_trunc(trunc)
        trunc = min(trunc, self.trunc)
        return self._clone(*_reduced(self._den, self._cut(trunc)), trunc=trunc)

    def q_diff(self, i: int = 1, j: int = 1):
        """Normalized symmetrized derivative for the index pair (i, j), by
        default (1, 1), the one pair at genus 1.

        Multiplies a term by T_ij/8 on the diagonal and by T_ij/16 off it
        (the off-diagonal carries the symmetrization factor 1/2), and
        records one stripped power of 2 pi i.
        """
        return self._diff([(1, ((i, j),))])

    def _diff(self, terms: list):
        """The sum of c times q_diff for each index pair of pairs in turn,
        over the (c, pairs) of terms, whose pairs are all of one length (the
        order), in one pass.  Each c and its pairs' factors 1/8 or 1/16 are
        brought over one common denominator D as an integer weight w, and a
        term's numerator is multiplied by sum w * (the product of its key
        entries at pairs) at once."""
        at = self._layout.at
        rows = []
        for c, pairs in terms:
            c = Fraction(c)
            den, idx = c.denominator, []
            for i, j in pairs:
                pair = (min(i, j), max(i, j))
                n = at.get(pair)
                if n is None:
                    raise ValueError(f"index pair {pair} out of range for genus {self.genus}")
                idx.append(n)
                den *= SCALE if i == j else 2 * SCALE
            rows.append((c.numerator, den, idx))
        orders = {len(idx) for _, _, idx in rows}
        if len(orders) != 1:
            raise ValueError("the derivative terms must be of one order")
        D = lcm(*[den for _, den, _ in rows])
        # the multipliers column by column: the key entries at each term's
        # pairs multiplied into its weight, and the terms added
        keys = self._nums
        cols = list(zip(*keys)) or [()] * len(at)
        products = [reduce(partial(map, mul), [cols[n] for n in idx], repeat(p * (D // den)))
                    for p, den, idx in rows]
        multipliers = reduce(partial(map, add), products)
        nums = {k: v * w for k, v, w in zip(keys, keys.values(), multipliers) if w}
        return self._clone(*_reduced(self._den * D, nums),
                           tau_factor=self.tau_factor + orders.pop())

    # -- boundary order and SMF1 text -------------------------------------------

    def fj_order(self) -> Fraction:
        """Boundary vanishing order: the least T_gg / 8 over stored terms
        (gamma/8 at genus 2, n/8 at genus 1)."""
        if not self._nums:
            raise ValueError("order undetermined at this truncation (zero expansion)")
        return Fraction(min(map(itemgetter(-1), self._nums)), SCALE)

    def to_text(self) -> str:
        """The SMF1 block: the header (with a character line from genus 2
        on), then one line per term, its key entries and its coefficient
        (an integer, or p/q in lowest terms)."""
        den, nums = self._den, self._nums
        keys = sorted(nums)
        ps = list(map(nums.__getitem__, keys))
        line = "%d " * len(self._layout.pairs) + "%d"
        if den == 1:
            cells = map(add, keys, zip(ps))
        else:  # p / den is (p / g) / (den / g) in lowest terms, g = gcd(p, den)
            gs = list(map(gcd, ps, repeat(den)))
            suffix = {g: "" if g == den else f"/{den // g}" for g in set(gs)}
            cells = map(add, keys, zip(map(floordiv, ps, gs), map(suffix.__getitem__, gs)))
            line += "%s"
        head = ["SMF1", f"genus {self.genus}", f"weight {frac_to_text(self.weight)}",
                f"scale {SCALE}", f"trunc {self.trunc}", f"taupow {self.tau_factor}"]
        if self.genus > 1:
            head.append(f"character {int(self.character)}")
        head.append(f"terms {len(keys)}\n")
        # every term line in one format call
        return "\n".join(head) + (line + "\n") * len(keys) % tuple(chain.from_iterable(cells))


class QExp2(_Expansion):
    """Truncated genus-2 Fourier expansion; keys are (alpha, beta, gamma) of
    weight alpha + gamma."""

    __slots__ = ()

    genus = 2

    def fj_slice(self, r) -> dict:
        """Terms with gamma/8 = r, reindexed by (alpha, beta)."""
        target = _rational(r) * SCALE
        if target.denominator != 1:
            return {}
        g2 = int(target)
        return {(k[0], k[1]): v for k, v in self.terms.items() if k[2] == g2}


class QExp1(_Expansion):
    """Truncated genus-1 expansion; keys are (n,), the exponent scaled by 8
    like the genus-2 lattice, which is its own weight."""

    __slots__ = ()

    genus = 1

    def coefficient(self, n_unscaled) -> Fraction:
        key = _rational(n_unscaled) * SCALE
        if key.denominator != 1:
            return Fraction(0)
        return self.terms.get((int(key),), Fraction(0))


def _spacing_fault(line: str) -> str | None:
    """Why line is not fields joined by single spaces, if so."""
    if line != " ".join(line.split()):
        return f"{line!r} has whitespace other than single spaces between fields"
    return None


def _smf1_from_text(text: str, cls):
    """Read an SMF1 block of the class's genus.  It takes only what to_text
    writes: every line is fields joined by single spaces, with no other
    whitespace, and ends in one newline.  A malformed block raises
    ValueError naming its line."""
    genus = cls.genus
    # the header's eight lines (the eighth is a term line at genus 1), then the rest
    lines = text.split("\n", 8)
    fail, value = _line_reader(lines, "SMF1")
    if text and text[-1] != "\n":
        fail(text.count("\n"), "the block does not end in a newline")
    lines.pop()  # the rest, or the empty text after the last newline
    for j, line in enumerate(lines):
        why = _spacing_fault(line)
        if why:
            fail(j, why)
    if not lines or lines[0] != "SMF1":
        fail(0, "not an SMF1 block")
    g = value(1, "genus", _int_from_text)
    if g != genus:
        fail(1, f"genus-{g} block passed to the genus-{genus} reader")
    weight = value(2, "weight", frac_from_text)
    if value(3, "scale", _int_from_text) != SCALE:
        fail(3, f"scale must be {SCALE}")
    trunc = value(4, "trunc", _int_from_text)
    if trunc < 0:
        fail(4, "negative truncation")
    taupow = value(5, "taupow", _int_from_text)
    idx = 6
    character = 0
    if genus > 1:  # the writer writes the character line from genus 2 on
        character = value(idx, "character", _int_from_text)
        if character not in (0, 1):
            fail(idx, "character must be 0 or 1")
        idx += 1
    declared = value(idx, "terms", _int_from_text)
    lay = cls._layout
    body = text[sum(map(len, lines[:idx + 1])) + idx + 1:]
    try:
        read = _smf1_columns(body, lay, trunc, declared)
    except ValueError:  # an int past the digit limit
        read = None
    if read is None:
        read = _smf1_lines(body, idx, lay, trunc, declared, fail)
    return cls._checked(*read, weight, trunc, taupow, bool(character))


def _smf1_columns(body: str, lay: _Layout, trunc: int, declared: int) -> tuple | None:
    """(den, nums) of an SMF1 body read column by column, or None if any
    check fails: then _smf1_lines reads it again and names the fault.  One
    pattern takes the lines to_text writes (diagonal entries >= 0, integers
    as str writes them, a nonzero coefficient p or p/q with q >= 1); then
    the key columns are read through one int memo, and the term count, the
    key order, the weights, beta^2 <= 4 alpha gamma and q >= 2 in lowest
    terms are checked over whole columns."""
    if not re.fullmatch(lay.body_pattern, body):
        return None
    fields = len(lay.pairs) + 1
    words = body.split()
    if len(words) != fields * declared:
        return None
    entries = _Memo(int)
    cols = [list(map(entries.__getitem__, words[n::fields])) for n in range(fields - 1)]
    keys = list(zip(*cols))
    if not all(map(lt, keys, islice(keys, 1, None))):
        return None
    if max(reduce(partial(map, add), [cols[n] for n in lay.diag_at]), default=0) > trunc:
        return None
    for n, i, j in lay.off:  # beta^2 <= 4 alpha gamma
        bound = map(mul, map((4).__mul__, cols[i]), cols[j])
        if not all(map(le, map(mul, cols[n], cols[n]), bound)):
            return None
    coeffs = words[fields - 1::fields]
    if "/" not in body:
        return 1, dict(zip(keys, map(int, coeffs)))
    ps, _, qs = zip(*map(str.partition, coeffs, repeat("/")))
    dens = {q: int(q) if q else 1 for q in set(qs)}  # "" for an integer
    ps = list(map(int, ps))
    if min(dens[q] for q in dens if q) < 2 or max(map(gcd, ps, map(dens.__getitem__, qs))) > 1:
        return None
    # reduced fractions over the lcm of their denominators are canonical
    den = lcm(*dens.values())
    scale = {q: den // d for q, d in dens.items()}
    return den, dict(zip(keys, map(mul, ps, map(scale.__getitem__, qs))))


def _smf1_lines(body: str, idx: int, lay: _Layout, trunc: int, declared: int,
                fail) -> tuple:
    """(den, nums) of the term lines of body, which follow header line idx,
    read line by line: the reference reader, which names the first faulty
    line through fail (ValueError).  Each line is parsed and its key checked
    before the next line is read."""
    fields = len(lay.pairs) + 1
    terms: dict = {}  # {key: (p, q)}
    last = ()  # the previous line's key (below every key): the writer sorts the keys
    for j, line in enumerate(body.split("\n")[:-1], idx + 1):
        parts = line.split(" ")
        try:
            if len(parts) != fields:
                raise ValueError(f"expected {fields} fields")
            key = tuple(map(_int_from_text, parts[:-1]))
            p, q = _number_from_text(parts[-1])
        except ValueError as exc:
            if not line:
                fail(j, "blank line")
            fail(j, _spacing_fault(line) or f"cannot parse {line!r} ({exc})")
        why = lay.fault(key, trunc)
        if why:
            fail(j, why)
        if not p:
            fail(j, "zero coefficient")
        if key <= last:
            fail(j, "duplicate exponent" if key in terms else
                 f"term {key} comes after {last}; the terms are sorted by exponent")
        terms[key] = p, q
        last = key
    if len(terms) != declared:
        fail(idx, f"declares {declared} terms, found {len(terms)}")
    # reduced fractions over the lcm of their denominators are canonical
    den = lcm(*[q for _, q in terms.values()])
    return den, {k: p * (den // q) for k, (p, q) in terms.items()}


def qexp2_from_text(text: str) -> QExp2:
    return _smf1_from_text(text, QExp2)


def qexp1_from_text(text: str) -> QExp1:
    return _smf1_from_text(text, QExp1)


def qexp_from_text(text: str):
    """Read an SMF1 block of either genus, as its second line declares."""
    if text.split("\n", 2)[1:2] == ["genus 1"]:
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


def eval_jetpoly(p: JetPoly, bind: dict):
    """Realize a jet polynomial on actual expansions.

    Every symbol occurring in p must be bound to an expansion, all of one
    genus (the bindings of other symbols are not read); a linear
    combination of derivatives of one base expansion (F or F F) is applied
    in one pass (_diff), as the q_diff chains would sum, and each expansion
    that a product takes is made once.  All monomials must carry the same
    total symbol weight and the same derivative count; the result weight
    follows the sum rule (symbol weights) + 2*order/genus.  An empty p,
    which carries neither, and a p with a constant term are refused.

    Each monomial c D_p F D_q F (two factors of one symbol, one derivative
    pair each) is rewritten by the Leibniz rule of the module docstring,
    when another monomial has the factor F, before _sum_of_products sums
    the monomials.
    """
    if not p.terms:
        raise ValueError("cannot infer the weight of an empty jet polynomial")
    if () in p.terms:
        raise ValueError("jet polynomial has a constant term")
    used = p.symbols()
    unbound = used - set(bind)
    if unbound:
        raise ValueError(f"unbound symbol(s) {sorted(unbound)!r}")
    genera = {bind[sym].genus for sym in used}
    if len(genera) > 1:
        raise ValueError("jet symbols bound to expansions of different genera: " + ", ".join(
            f"{sym} genus {bind[sym].genus}" for sym in sorted(used)))
    genus = genera.pop()
    cache: dict = {}

    def factor(key: tuple):
        """The expansion of a jet variable (symbol, derivative pairs), or of
        (symbol, derivative pairs, 2), those derivatives of the symbol's
        square; all the pairs of a variable are taken in one pass."""
        got = cache.get(key)
        if got is None:
            sym, derivs = key[:2]
            if derivs:
                got = factor(_base(key))._diff([(1, derivs)])
            elif len(key) == 3:
                f = factor((sym, ()))
                got = f * f  # one object as both operands: the kernel's square path
            else:
                got = bind[sym]
            cache[key] = got
        return got

    def linear(terms: list):
        """The sum of c * factor(x) over the (c, x) of terms: the terms of
        one base expansion (F or F F) and one order take one _diff."""
        groups: dict = {}
        for c, key in terms:
            groups.setdefault((_base(key), len(key[1])), []).append((c, key[1]))
        parts = [factor(b)._diff(group) for (b, _), group in groups.items()]
        return sum(parts[1:], parts[0])

    bare = {sym for mono in p.terms for sym, d in mono if not d}  # the symbols F with F a factor
    monos: dict = {}
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
        (sym, dp), (other, dq) = mono[0], mono[-1]
        if len(mono) == 2 and sym == other and len(dp) == len(dq) == 1 and sym in bare:
            # the Leibniz rule: c D_p F D_q F = c/2 D_p D_q (F F) - c F D_p D_q F
            pq = tuple(sorted(dp + dq))
            _accumulate(monos, ((sym, pq, 2),), Fraction(coeff) / 2)
            _accumulate(monos, ((sym, ()), (sym, pq)), -coeff)
        else:
            _accumulate(monos, mono, coeff)
    return _sum_of_products([(c, m) for m, c in monos.items()], factor,
                            linear).with_weight(sym_weight + Fraction(2 * order, genus))


def _base(key: tuple) -> tuple:
    """The jet variable key without its derivative pairs."""
    return (key[0], (), *key[2:])


def _sum_of_products(monos: list, factor, linear):
    """The sum of c * factor(x_1) * ... * factor(x_n) over (c, (x_1, ..., x_n))
    in monos (each tuple nonempty), with each shared factor multiplied once.

    The factor in the most monomials comes out first: it multiplies the sum
    of its cofactors, which is evaluated the same way.  Once every monomial
    left has one factor, linear(terms) makes their sum, the sum of
    c * factor(x) over the (c, x) of terms.  Exact arithmetic and truncation
    (a ring congruence) make this equal to the term-by-term sum, with fewer
    products.
    """
    parts = []
    while monos:
        if all(len(xs) == 1 for _, xs in monos):
            parts.append(linear([(c, xs[0]) for c, xs in monos]))
            break
        counts = Counter(x for _, xs in monos for x in set(xs))
        pivot = min(counts, key=lambda x: (-counts[x], x))
        inner, const, rest = [], None, []
        for c, xs in monos:
            if pivot not in xs:
                rest.append((c, xs))
            elif len(xs) == 1:
                const = c if const is None else const + c
            else:
                i = xs.index(pivot)
                inner.append((c, xs[:i] + xs[i + 1:]))
        f = factor(pivot)
        if len(inner) == 1 and inner[0][1] == (pivot,):  # c f f alone: one square
            parts.append((f * f).scale_coeff(inner[0][0]))
        elif inner:
            parts.append(f * _sum_of_products(inner, factor, linear))
        if const is not None:
            parts.append(f.scale_coeff(const))
        monos = rest
    return sum(parts[1:], parts[0])
