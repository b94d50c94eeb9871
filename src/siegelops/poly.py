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
no elimination strategy is needed).  The pencil expansion packs a monomial
into one int with 4 bits per variable, laid out in the global variable
order: t_h takes nibble h - 1 and r_{h;ij} a nibble of the h-th block of
g(g+1)/2 nibbles after the t's.  A pencil entry t_h r_{h;i,sigma(i)} is
then an int with two set nibbles, and a Leibniz term's key is the sum of
its g entry ints (no exponent exceeds g, far below 16 for any feasible g,
so nibbles never carry).  Keys are counted, one counter per permutation
parity, and each distinct key is decoded to a Mono once, block by block
through a memo of block values.  _packing holds this layout and its
decoder; the integer D_{h;11} kernel of opgen.py packs monomials the same
way.  The B(n) are read from one cached split of an expansion by
t-exponent, made in a single scan, and share their term dicts with it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .scalars import (RatFunc, _accumulate, _binpow, _line_reader, scalar_from_text,
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


def _mono_from_pairs(pairs) -> Mono:
    """Collect (var, exp) pairs (possibly repeated vars) into a canonical monomial."""
    acc: dict[VarId, int] = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in acc.items() if e != 0),
                        key=lambda p: _var_key(p[0])))


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    return _mono_from_pairs(list(m1) + list(m2))


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
    of its monomials, and lists the shared methods in its own class body.
    """

    __slots__ = ("terms", "field")

    def __init__(self, terms: dict | None = None, field: str = "Q"):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self.field = field

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

    # The shared methods are entries of each subclass's own namespace, so a
    # wrapper set on one class's method (as the span recorder of perfbench
    # installs) leaves the other class's method alone.
    __add__ = _SparsePoly.__add__
    __neg__ = _SparsePoly.__neg__
    __sub__ = _SparsePoly.__sub__
    __mul__ = _SparsePoly.__mul__
    __pow__ = _SparsePoly.__pow__
    scale = _SparsePoly.scale
    promote = _SparsePoly.promote
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


def _packing(g: int):
    """The packed-int monomial layout of the module docstring, for genus g.

    Returns (unit, decode): unit[v] is the int with a 1 in the nibble of v,
    for every t_h and r_{h;ij} (i <= j) of genus g, and decode(key) is the
    Mono whose exponents are the nibbles of key.
    """
    pairs = [(i, j) for i in range(1, g + 1) for j in range(i, g + 1)]
    # the t-block, then one block per R_h
    blocks = [[t_var(h) for h in range(1, g + 1)]]
    blocks += [[r_var(h, i, j) for i, j in pairs] for h in range(1, g + 1)]
    unit, layout, shift = {}, [], 0
    for names in blocks:
        for s, v in enumerate(names):
            unit[v] = 1 << shift + 4 * s
        layout.append((shift, (1 << 4 * len(names)) - 1, names, {}))
        shift += 4 * len(names)

    def decode(key: int) -> Mono:
        mono = ()
        for shift, mask, names, memo in layout:
            bits = key >> shift & mask
            part = memo.get(bits)
            if part is None:
                part, b = [], bits
                for v in names:
                    if b & 15:
                        part.append((v, b & 15))
                    b >>= 4
                part = memo[bits] = tuple(part)
            mono += part
        return mono

    return unit, decode


def _leibniz(g: int, rows: list, cols: list) -> MultiPoly:
    """det of the pencil t_1 R_1 + ... + t_g R_g restricted to rows x cols.

    Every monomial is packed into one int (see the module docstring); the
    sum over permutations and over the g summands of each entry runs on
    packed keys only.
    """
    unit, decode = _packing(g)

    def entry(h: int, i: int, j: int) -> int:
        return unit[t_var(h)] | unit[r_var(h, i, j)]

    counts = (Counter(), Counter())  # even and odd permutations
    for sign, pairing in _signed_pairings(rows, cols):
        entries = [[entry(h, r, c) for h in range(1, g + 1)] for r, c in pairing]
        counts[sign < 0].update(map(sum, itertools.product(*entries)))
    total = counts[0]
    total.subtract(counts[1])

    fracs: dict = {}
    out = {}
    for key, c in total.items():
        if c:
            f = fracs.get(c)
            if f is None:
                f = fracs[c] = Fraction(c)
            out[decode(key)] = f
    return MultiPoly(out, "Q")


@lru_cache(maxsize=None)
def det_expand(g: int) -> MultiPoly:
    """det(t_1 R_1 + ... + t_g R_g) as a polynomial in all t_h and r_{h;ij}.

    Homogeneous of degree g in the t's and of degree g in matrix entries.
    Expanded by Leibniz over permutations, with each matrix entry of the
    pencil distributed over its g summands t_h r_{h;i,sigma(i)}.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    rows = list(range(1, g + 1))
    return _leibniz(g, rows, rows)


@lru_cache(maxsize=None)
def minor_det_expand(g: int, k: int, l: int) -> MultiPoly:
    """det of the pencil t_1 R_1 + ... with row k and column l deleted."""
    if not (1 <= k <= g and 1 <= l <= g):
        raise ValueError(f"minor indices ({k},{l}) out of range for g={g}")
    return _leibniz(g, [i for i in range(1, g + 1) if i != k],
                    [j for j in range(1, g + 1) if j != l])


@lru_cache(maxsize=None)
def _t_split(g: int, minor: tuple) -> dict:
    """{n: coefficient of t^n} for the full expansion (minor == ()) or the
    (k, l) first minor (minor == (k, l)), from one scan of the expansion."""
    p = minor_det_expand(g, *minor) if minor else det_expand(g)
    buckets: dict = {}
    for m, c in p.terms.items():
        j = 0
        for v, _ in m:
            if v[0] != "t":
                break
            j += 1
        bucket = buckets.get(m[:j])
        if bucket is None:
            bucket = buckets[m[:j]] = {}
        bucket[m[j:]] = c
    out = {}
    for tpart, bucket in buckets.items():
        n = [0] * g
        for v, e in tpart:
            n[v[1] - 1] = e
        out[tuple(n)] = MultiPoly(bucket, "Q")
    return out


@lru_cache(maxsize=None)
def coeff_R(g: int, n: tuple) -> MultiPoly:
    """The basis polynomial B(n): coefficient of t^n in det(t_1 R_1 + ...)."""
    if len(n) != g or sum(n) != g or any(k < 0 for k in n):
        raise ValueError(f"multi-index {n} is not a composition of {g} into {g} parts")
    return _t_split(g, ()).get(tuple(n)) or MultiPoly.zero()


def minor_coeff_R(g: int, k: int, l: int, nprime: tuple) -> MultiPoly:
    """Coefficient of t^nprime in the (k,l) first-minor expansion."""
    if len(nprime) != g or sum(nprime) != g - 1 or any(v < 0 for v in nprime):
        raise ValueError(f"multi-index {nprime} is not a composition of {g-1} into {g} parts")
    return _t_split(g, (k, l)).get(tuple(nprime)) or MultiPoly.zero()
# -- POLY1 text format --------------------------------------------------------

def _var_to_text(v: VarId) -> str:
    if v[0] == "t":
        return f"t[{v[1]}]"
    if v[0] == "r":
        return f"r[{v[1]};{v[2]},{v[3]}]"
    return f"x[{v[1]},{v[2]}]"


def _var_from_text(s: str) -> VarId:
    kind, body = s[0], s[s.index("[") + 1:-1]
    if kind == "t":
        return t_var(int(body))
    if kind == "r":
        h, ij = body.split(";")
        i, j = ij.split(",")
        return r_var(int(h), int(i), int(j))
    i, nu = body.split(",")
    return x_var(int(i), int(nu))


def poly_to_text(p: MultiPoly) -> str:
    """POLY1: header line then one term per line, 'coeff | var^e var^e ...'.

    Terms are sorted by total degree, then by their (variable, exponent)
    pairs in the global variable order.
    """
    rank = {v: i for i, v in enumerate(sorted(p.vars_used(), key=_var_key))}
    pairs: dict = {}  # (var, exp) -> ((rank, exp), 'var^exp')
    for m in p.terms:
        for pair in m:
            if pair not in pairs:
                pairs[pair] = ((rank[pair[0]], pair[1]), f"{_var_to_text(pair[0])}^{pair[1]}")
    # keyed by id: p.terms keeps every coefficient alive while this runs
    coeffs: dict = {}

    def line(m: Mono) -> str:
        c = p.terms[m]
        txt = coeffs.get(id(c))
        if txt is None:
            txt = coeffs[id(c)] = scalar_to_text(c)
        return f"{txt} | {' '.join([pairs[pair][1] for pair in m])}"

    def sort_key(m: Mono) -> tuple:
        return (sum([e for _, e in m]), *[pairs[pair][0] for pair in m])

    lines = [f"POLY1 field={p.field} terms={len(p.terms)}"]
    lines += [line(m) for m in sorted(p.terms, key=sort_key)]
    return "\n".join(lines) + "\n"


def poly_from_text(text: str) -> MultiPoly:
    """Read a POLY1 block; a malformed block raises ValueError naming its line."""
    return _poly_from_lines(text.splitlines(), 0, "POLY1")


def _poly_from_lines(lines: list, start: int, fmt: str, variables=None) -> MultiPoly:
    """The POLY1 block that begins at lines[start]; error messages name the
    line (1-based within lines) and the format being read (fmt).  Every
    coefficient must belong to the declared field, and, when variables is
    given, every variable to that set."""
    fail, _ = _line_reader(lines, fmt)
    if start >= len(lines):
        fail(start, "missing POLY1 header")
    head = lines[start].split()
    fields = dict(tok.split("=", 1) for tok in head[1:] if "=" in tok)
    if not head or head[0] != "POLY1" or fields.get("field") not in ("Q", "Qa"):
        fail(start, f"expected 'POLY1 field=Q|Qa terms=N', found {lines[start]!r}")
    try:
        declared = int(fields["terms"])
    except (KeyError, ValueError):
        fail(start, f"missing or bad term count in {lines[start]!r}")
    field = fields["field"]
    tokens: dict = {}  # 'var^exp' -> ((var, exp), _var_key(var))
    scalars: dict = {}
    terms: dict = {}
    count = 0
    for idx in range(start + 1, len(lines)):
        ln = lines[idx]
        if not ln.strip():
            continue
        count += 1
        coeff_txt, bar, vars_txt = ln.partition("|")
        if not bar:
            fail(idx, f"expected 'coeff | var^e ...', found {ln!r}")
        try:
            c = scalars.get(coeff_txt)
            if c is None:
                c = scalars[coeff_txt] = scalar_from_text(coeff_txt.strip(), field)
            pairs, keys = [], []
            for tok in vars_txt.split():
                hit = tokens.get(tok)
                if hit is None:
                    name, _, exp = tok.rpartition("^")
                    v, e = _var_from_text(name), int(exp)
                    if e < 1:
                        raise ValueError(f"exponent of {name} is not positive")
                    if variables is not None and v not in variables:
                        raise ValueError(f"variable {name} is not allowed here")
                    hit = tokens[tok] = ((v, e), _var_key(v))
                pairs.append(hit[0])
                keys.append(hit[1])
        except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            fail(idx, f"cannot parse {ln!r} ({exc})")
        # a written block lists each monomial's variables in order already
        m = tuple(pairs) if sorted(set(keys)) == keys else _mono_from_pairs(pairs)
        if m in terms:
            fail(idx, "duplicate monomial")
        terms[m] = c
    if count != declared:
        fail(start, f"declares {declared} terms, found {count}")
    return MultiPoly(terms, field)
