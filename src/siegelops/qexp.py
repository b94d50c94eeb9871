"""Truncated Fourier expansions of genus-g forms, exact arithmetic.

One private class, _Expansion, holds every piece that depends on the
exponent key: the term check, the ring operations and their product kernel,
truncation, differentiation, the boundary order and the SMF1 codec.  QExp1
and QExp2 are its genus-1 and genus-2 cases.

Keys.  A term c * exp(2 pi i sum_{i<=j} T_ij tau_ij / 8) is stored under its
g(g+1)/2 scaled exponents T_ij (i <= j), row by row: (alpha, beta, gamma) =
(T_11, T_12, T_22) at genus 2 and (n,) at genus 1.  Theta-constant exponents
lie in (1/8)Z on the diagonal and (1/4)Z off it, so the factor 8 makes every
key integral.  The public constructor and the SMF1 reader check each term,
and ring operations keep the invariants, so their results skip the check:

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
decoding stops at the truncation.

A square (one dict as both operands: x * x, and every squaring of binary
powering) visits each unordered group pair once, which costs about half a
product.  A group with itself is Pa * Pa, which CPython computes by its
squaring routine; every other pair in reach adds Pa * 2 Pb (each row is
doubled once, before the loop), the terms of the pairs (a, b) and (b, a) at
once.  The diagonal pair is found by its position in the group list, not by
identity of the packed ints, since equal small ints are one object.  Each
output integer is the same sum of the same convolution terms as in the
general path, so S still bounds every digit.

Jet polynomials are evaluated factor first: the monomials that share a
factor are summed before that factor multiplies them, so the weight-5
genus-2 operator costs 3 products, not 4.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter
from types import MappingProxyType

from .jets import JetPoly
from .scalars import (RatFunc, _accumulate, _binpow, _line_reader, _pack, _unpack,
                      frac_to_text)

SCALE = 8
DEFAULT_TRUNC = 48


class _Layout:
    """Where each T_ij sits in a genus-g key: pairs lists the (i, j) of the
    entries in key order, diag(key) gives the diagonal entries (their sum is
    the weight), off holds (n, ii, jj) per off-diagonal entry n and its two
    diagonal partners; the kernel packs along entry pack and groups by
    rest(key), whose diagonal entries sit at rest_diag."""

    def __init__(self, g: int):
        self.genus = g
        self.pairs = pairs = [(i, j) for i in range(1, g + 1) for j in range(i, g + 1)]
        at = {p: n for n, p in enumerate(pairs)}
        self.off = [(at[i, j], at[i, i], at[j, j]) for i, j in pairs if i < j]
        self.pack = self.off[-1][0] if self.off else 0
        others = [n for n in range(len(pairs)) if n != self.pack]
        self.rest_diag = [m for m, n in enumerate(others) if pairs[n][0] == pairs[n][1]]
        # a genus-1 key is all diagonal, and nothing is left beside its packed entry
        self.diag = itemgetter(*(at[i, i] for i in range(1, g + 1))) if g > 1 else tuple
        self.rest = itemgetter(*others) if g > 1 else (lambda k: ())

    def fault(self, k, trunc: int) -> str | None:
        """Why k cannot be a key of an expansion truncated at trunc, if so."""
        if (type(k) is not tuple or len(k) != len(self.pairs)
                or not all(type(v) is int for v in k)):
            return f"key {k!r} is not a genus-{self.genus} key of {len(self.pairs)} integers"
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


def _mul_terms(na: dict, nb: dict, trunc: int) -> dict:
    """Truncated convolution of two {key: int} dicts of one genus; the
    result is {key: nonzero int}."""
    if not na or not nb:
        return {}
    square = na is nb
    lay = _LAYOUTS[len(next(iter(na)))]
    ca, ra = _rows(na, trunc, lay)
    cb, rb = (ca, ra) if square else _rows(nb, trunc, lay)
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
    wb = [t[0] for t in gb]
    if square:  # each unordered pair once, found by position
        doubled = [(*t[:4], t[4] << 1) for t in ga]
    acc: dict = {}
    get = acc.get
    for i, (wa, ka, rest_a, oa, Pa) in enumerate(ga):
        reach = bisect_right(wb, trunc - wa)
        if not square:
            partners = gb[:reach]
        elif i < reach:  # the group with itself (Pa * Pa), then later rows doubled
            partners = [ga[i], *doubled[i + 1:reach]]
        else:  # weight > trunc / 2, and every later group's too
            break
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
        for i, v in _unpack(P, S, slots):
            out[(*head, first + s * i, *tail)] = v
    return out


def _smf1_number(s: str) -> tuple[int, int]:
    """(p, q) of an SMF1 rational as to_text writes it: an integer p (q = 1),
    or p/q in lowest terms with q >= 2.  Each part must be the decimal form
    of its value, so a leading + or zero, a decimal point, an exponent and an
    underscore are all errors."""
    p, slash, q = s.partition("/")
    num = int(p)
    den = int(q) if slash else 1
    if str(num) != p or slash and (str(den) != q or den < 2 or gcd(num, den) != 1):
        raise ValueError(f"{s!r} is not an integer or p/q in lowest terms with q >= 2")
    return num, den


class _Expansion:
    """A truncated expansion with exact rational coefficients: the code
    shared by QExp2 and QExp1.

    _den and _nums hold the coefficients in the canonical form of the module
    docstring, and terms is their {key: Fraction} view; every key's weight
    is at most trunc.  weight is the modular weight, tau_factor the number
    of stripped powers of 2 pi i, character the sign-character flag and
    label a note for the reader (set by the constructor; no operation
    carries it on).  A subclass sets genus, which fixes the key layout, and
    lists the shared methods in its own class body.
    """

    __slots__ = ("weight", "trunc", "_den", "_nums", "_terms", "tau_factor", "character",
                 "label")

    scale = SCALE

    def __init_subclass__(cls):
        cls._layout = _Layout(cls.genus)

    def __init__(self, terms: dict | None = None, weight=Fraction(0),
                 trunc: int = DEFAULT_TRUNC, tau_factor: int = 0,
                 character: bool = False, label: str = ""):
        terms = {k: v for k, v in (terms or {}).items() if v}
        fault = self._layout.fault
        for k, c in terms.items():
            why = fault(k, trunc)
            if why:
                raise ValueError(why)
            if not isinstance(c, Fraction):
                raise TypeError(f"coefficient {c!r} is not an exact rational")
        # reduced fractions over the lcm of their denominators are canonical
        den = lcm(*{c.denominator for c in terms.values()})
        self._set(den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()},
                  Fraction(weight), trunc, tau_factor, character, label)

    def _set(self, den, nums, weight, trunc, tau_factor, character, label):
        self._den, self._nums, self._terms = den, nums, None
        self.weight, self.trunc = weight, trunc
        self.tau_factor, self.character, self.label = tau_factor, character, label

    @classmethod
    def _checked(cls, den: int, nums: dict, weight: Fraction, trunc: int, tau_factor: int,
                 character: bool):
        """An expansion of canonical (den, nums) whose keys already keep the
        invariants (read and checked, or computed from checked operands): no
        second check."""
        out = cls.__new__(cls)
        out._set(den, nums, weight, trunc, tau_factor, character, "")
        return out

    @classmethod
    def _from_ints(cls, nums: dict, weight, trunc: int):
        """An expansion of integer coefficients, each key checked as the
        public constructor checks it; zero coefficients are dropped."""
        nums = {k: v for k, v in nums.items() if v}
        fault = cls._layout.fault
        for k, v in nums.items():
            why = fault(k, trunc)
            if why:
                raise ValueError(why)
            if type(v) is not int:
                raise TypeError(f"coefficient {v!r} is not an int")
        return cls._checked(1, nums, Fraction(weight), trunc, 0, False)

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
        return self._clone(self._den, self._nums, weight=Fraction(weight))

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
            _accumulate(out, k, v * fb)
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
                             _mul_terms(self._nums, other._nums, trunc))
        return self._checked(den, nums, self.weight + other.weight, trunc,
                             self.tau_factor + other.tau_factor,
                             self.character != other.character)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on expansions")
        return _binpow(self, n) if n else self.one(self.trunc)

    def scale_coeff(self, c):
        c = Fraction(c)
        if not c:
            return self._clone(1, {})
        p = c.numerator
        nums = {k: p * v for k, v in self._nums.items()} if p != 1 else self._nums
        return self._clone(*_reduced(self._den * c.denominator, nums))

    def truncate(self, trunc: int):
        trunc = min(trunc, self.trunc)
        return self._clone(*_reduced(self._den, self._cut(trunc)), trunc=trunc)

    def q_diff(self, i: int = 1, j: int = 1):
        """Normalized symmetrized derivative for the index pair (i, j), by
        default (1, 1), the one pair at genus 1.

        Multiplies a term by T_ij/8 on the diagonal and by T_ij/16 off it
        (the off-diagonal carries the symmetrization factor 1/2), and
        records one stripped power of 2 pi i.
        """
        pair = (min(i, j), max(i, j))
        pairs = self._layout.pairs
        if pair not in pairs:
            raise ValueError(f"index pair {pair} out of range for genus {self.genus}")
        n = pairs.index(pair)
        den = self._den * (SCALE if i == j else 2 * SCALE)
        nums = {k: v * k[n] for k, v in self._nums.items() if k[n]}
        return self._clone(*_reduced(den, nums), tau_factor=self.tau_factor + 1)

    # -- boundary order and SMF1 text -------------------------------------------

    def fj_order(self) -> Fraction:
        """Boundary vanishing order: the least T_gg / 8 over stored terms
        (gamma/8 at genus 2, n/8 at genus 1)."""
        if not self._nums:
            raise ValueError("order undetermined at this truncation (zero expansion)")
        return Fraction(min(k[-1] for k in self._nums), SCALE)

    def to_text(self) -> str:
        """The SMF1 block: the header (with a character line from genus 2
        on), then one line per term, its key entries and its coefficient
        (an integer, or p/q in lowest terms)."""
        den, nums = self._den, self._nums
        line = "%d " * len(self._layout.pairs) + "%d"
        lines = []
        for k in sorted(nums):
            g = gcd(nums[k], den)
            lines.append(line % (*k, nums[k] // g) + ("" if g == den else f"/{den // g}"))
        head = ["SMF1", f"genus {self.genus}", f"weight {frac_to_text(self.weight)}",
                f"scale {SCALE}", f"trunc {self.trunc}", f"taupow {self.tau_factor}"]
        if self.genus > 1:
            head.append(f"character {int(self.character)}")
        head.append(f"terms {len(lines)}")
        return "\n".join(head + lines) + "\n"


class QExp2(_Expansion):
    """Truncated genus-2 Fourier expansion; keys are (alpha, beta, gamma) of
    weight alpha + gamma."""

    __slots__ = ()

    genus = 2

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
    q_diff = _Expansion.q_diff
    to_text = _Expansion.to_text

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff=1, weight=Fraction(0),
                 trunc: int = DEFAULT_TRUNC) -> "QExp2":
        return cls({(a, b, c): Fraction(coeff)}, weight, trunc)

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


class QExp1(_Expansion):
    """Truncated genus-1 expansion; keys are (n,), the exponent scaled by 8
    like the genus-2 lattice, which is its own weight."""

    __slots__ = ()

    genus = 1

    __add__ = _Expansion.__add__
    __neg__ = _Expansion.__neg__
    __sub__ = _Expansion.__sub__
    __mul__ = _Expansion.__mul__
    __pow__ = _Expansion.__pow__
    scale_coeff = _Expansion.scale_coeff
    q_diff = _Expansion.q_diff
    to_text = _Expansion.to_text

    def coefficient(self, n_unscaled) -> Fraction:
        key = Fraction(n_unscaled) * SCALE
        if key.denominator != 1:
            return Fraction(0)
        return self.terms.get((int(key),), Fraction(0))


# the layout of each key length, for the product kernel
_LAYOUTS = {len(cls._layout.pairs): cls._layout for cls in (QExp1, QExp2)}


def _smf1_from_text(text: str, cls):
    """Read an SMF1 block of the class's genus; a malformed block raises
    ValueError naming its line."""
    genus = cls.genus
    lines = text.splitlines()
    fail, value = _line_reader(lines, "SMF1")
    if not lines or lines[0].strip() != "SMF1":
        fail(0, "not an SMF1 block")
    g = value(1, "genus", int)
    if g != genus:
        fail(1, f"genus-{g} block passed to the genus-{genus} reader")
    weight = value(2, "weight", lambda s: Fraction(*_smf1_number(s)))
    if value(3, "scale", int) != SCALE:
        fail(3, f"scale must be {SCALE}")
    trunc = value(4, "trunc", int)
    if trunc < 0:
        fail(4, "negative truncation")
    taupow = value(5, "taupow", int)
    idx = 6
    character = 0
    if genus > 1 and idx < len(lines) and lines[idx].startswith("character"):
        character = value(idx, "character", int)
        if character not in (0, 1):
            fail(idx, "character must be 0 or 1")
        idx += 1
    declared = value(idx, "terms", int)
    fault = cls._layout.fault
    fields = len(cls._layout.pairs) + 1
    nums: dict = {}
    dens: dict = {}  # the denominator of each non-integer coefficient
    count = 0
    for j in range(idx + 1, len(lines)):
        parts = lines[j].split()
        if not parts:
            continue
        count += 1
        try:
            if len(parts) != fields:
                raise ValueError(f"expected {fields} fields")
            key = tuple(map(int, parts[:-1]))
            p, q = _smf1_number(parts[-1])
        except ValueError as exc:
            fail(j, f"cannot parse {lines[j]!r} ({exc})")
        why = fault(key, trunc) or ("zero coefficient" if not p else None)
        if why:
            fail(j, why)
        if key in nums:
            fail(j, "duplicate exponent")
        nums[key] = p
        if q > 1:
            dens[key] = q
    if count != declared:
        fail(idx, f"declares {declared} terms, found {count}")
    # reduced fractions over the lcm of their denominators are canonical
    den = lcm(*set(dens.values()))
    if den > 1:
        nums = {k: v * (den // dens.get(k, 1)) for k, v in nums.items()}
    return cls._checked(den, nums, weight, trunc, taupow, bool(character))


def qexp2_from_text(text: str) -> QExp2:
    return _smf1_from_text(text, QExp2)


def qexp1_from_text(text: str) -> QExp1:
    return _smf1_from_text(text, QExp1)


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

    def factor(key: tuple):
        """The expansion of a jet variable (symbol, derivative pairs)."""
        got = cache.get(key)
        if got is None:
            sym, derivs = key
            if derivs:
                got = factor((sym, derivs[:-1])).q_diff(*derivs[-1])
            else:
                if sym not in bind:
                    raise ValueError(f"unbound symbol {sym!r}")
                got = bind[sym]
            cache[key] = got
        return got

    genus = next(iter(bind.values())).genus
    monos = []
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
        monos.append((coeff, mono))
    if weight is None:
        weight = sym_weight + Fraction(2 * order, genus)
    return _sum_of_products(monos, factor).with_weight(weight)


def _sum_of_products(monos: list, factor):
    """The sum of c * factor(x_1) * ... * factor(x_n) over (c, (x_1, ..., x_n))
    in monos (each tuple nonempty), with each shared factor multiplied once.

    The factor in the most monomials comes out first: it multiplies the sum
    of its cofactors, which is evaluated the same way.  Exact arithmetic and
    truncation (a ring congruence) make this equal to the term-by-term sum,
    with fewer products.
    """
    total = None
    while monos:
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
        parts = [f * _sum_of_products(inner, factor)] if inner else []
        if const is not None:
            parts.append(f.scale_coeff(const))
        for part in parts:
            total = part if total is None else total + part
        monos = rest
    return total
