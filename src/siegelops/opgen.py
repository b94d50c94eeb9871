"""Construction of the pluriharmonic determinant-pencil operator polynomial.

For genus g and weight parameter a (symbolic in Q(a) or an exact rational
with a >= g/2) the polynomial

    Q = (1/C(1)) * sum over n of c(n) B(n)

is assembled from the determinant-expansion basis B(n) of poly.py, with

    C(1) = (g-1) prod_{i=1..g-1} (2a - i),
    C(m) = (-1)^(m-1) (m-1)! (2a)^(m-1) prod_{i=m..g-1} (2a - i),  2 <= m <= g,

and c(n) = C(m) exactly when n is a permutation of (m, 1, ..., 1, 0, ..., 0)
(c = C(1) for all ones, c = 0 whenever two entries exceed 1).

Pluriharmonicity is verified three independent ways:

  * the combinatorial identity sum_h (k - n'_h) c(n' + e_h) = 0 on the
    g - 1 shapes of minor multi-index n' that carry a term, each left side
    an integer polynomial in k = 2a: a recurrence between C(j) and C(j+1)
    that holds at every genus (verify_harmonic_condition);
  * the symbolic second-order operator D_{h;11} on the r-variables summed
    over h annihilating Q (verify_pluriharmonic);
  * a brute-force substitution oracle: r_{h;uw} -> row products of a g x k
    matrix X_h, followed by the literal Laplacian in the first row of the
    concatenated matrix (xspace_oracle).

Normalization note.  The implemented operator is

    D_{h;ij} = k * d_{h;ij} + 2 * sum_{u,w} r_{h;uw} d_{h;iu} d_{h;jw}

with symmetrized d.  The relative factor 2 on the second-order part is fixed
by the X-space oracle: the pullback Laplacian satisfies
Delta_ij(P(XX^t)) = 2 [k d_ij P + 2 sum r_uw d_iu d_jw P](XX^t), and only the
relative weight of the two parts affects the vanishing condition.  Setting
the factor to 1 makes the genus-2 verification fail (see tests), which is
what pins the convention.

Packed operator.  build_Q never leaves the packed monomials of poly.py.
Every key of the Leibniz pass determines its n (the degree in R_h is the
t_h-exponent n_h), so C(1) Q is the union of the packed B(n) with
c(n) != 0, each scaled by c(n) = C(m).  spec.Q is one poly.PackedPoly:
integer numerators over one denominator, both integers at a numeric weight
a = p/q (q^(g-1) C(m) is an integer) and integer polynomials in a in Q(a)
(C(m) is an integer polynomial in k = 2a).  Each C(m) is computed once,
the numerators of B(n) are multiplied by it in one pass, and the form is
divided by the integer content.  Only the substitution oracle decodes it
to a MultiPoly.  The OPSPEC1 writer works on the packed keys directly and
yields the file as text chunks, the POLY1 block in runs of key-ordered
term lines.  A file is a function of its genus and weight, so the reader
builds build_Q(g, a) again and compares the file with the writer's chunks,
each at its offset, with no second copy of the file.

Integer proof.  verify_pluriharmonic runs on integers, in one kernel shared
with apply_D11, which takes and returns a PackedPoly.  Let
Q = sum over packed keys of P(a) / L(a) times a monomial, the cleared form:
L and every P are integer polynomials (constants for a numeric weight).
Likewise k = kn(a) / kd(a) with integer polynomials.  Then 4 kd L times
sum_h D_{h;11} Q has integer-polynomial coefficients R(a): each move of
D_{h;11} multiplies a coefficient P by an integer times kn (the first-order
term) or times kd (the second-order terms, whose 1/2 symmetrization factors
the 4 clears).  A monomial is a packed int key, so a move is one integer
addition to the key, and every P is evaluated at a = 2^S (once per distinct
P), so the kernel multiplies and adds plain ints: a residual coefficient is
R(2^S).  The moves of a monomial depend only on its row-1 class, its key
masked to the nibbles of r_{h;11}, .., r_{h;1g} of every R_h.  So the
kernel makes each class's moves once and touches only the keys of classes
with moves (at g = 5, 42,835 of 111,275 keys, in 55 of 215 classes).

The bound behind S.  Let N be the sum of |c| over every coefficient c of
every P, over all terms of Q, and d the largest row-1 degree of a
monomial, the largest nibble sum of a row-1 class.  A monomial with row-1
exponents E_h in R_h (sum_h E_h <= d) spreads its P over moves whose
multipliers have coefficient sums |.| at most 4 E_h |kn| (first
order) and 4 |f| (E_h^2 - E_h) |kd| (second order), f the second-order
factor.  So every coefficient of R is at most N M in size,
M = 4 d |kn| + 4 |f| d^2 |kd|.  With S = bitlength(N M) + 1, every
coefficient lies strictly inside (-2^(S-1), 2^(S-1)), so R(2^S) is R's
coefficients written as balanced base-2^S digits: R(2^S) = 0 exactly when
R = 0, which proves the identity for every a at once, with no weight
sampling.  For a numeric weight every polynomial is a constant and the
evaluation changes nothing.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property, reduce

from .poly import (_MAX_GENUS, MultiPoly, PackedPoly, _cleared, _leibniz_args, _nibble_sum,
                   _packed_chunks, _packing, _scalar, _t_split, coeff_R, index_set_N,
                   minor_coeff_R, r_var, x_var)
from .scalars import (RatFunc, _horner, _int_from_text, _line_reader, _padd, _pmul,
                      _rational, _unpack, frac_from_text, frac_to_text, scalar_to_text)

SECOND_ORDER_FACTOR = 2
ORACLE_MAX_VARS = 80  # the most substitution variables, g * k * g, xspace_oracle takes


def symbolic_weight() -> RatFunc:
    """The formal weight parameter a as an element of Q(a)."""
    return RatFunc.var()


def _as_weight(a):
    """a as a weight: the generator a of Q(a) itself, or a rational.  A
    constant of Q(a) is its rational; any other element of Q(a) is refused,
    since a weight is a number or the formal a, not a function of it."""
    if not isinstance(a, RatFunc):
        return _rational(a)
    if a.is_constant():
        return a.eval_at(0)
    if a != symbolic_weight():
        raise ValueError(f"weight {a} is neither a rational nor the symbolic weight a")
    return a


def _constant_C_k(g: int, m: int) -> list:
    """C(m) as an integer polynomial in k = 2a, coefficients low degree first."""
    if not 1 <= m <= g:
        raise ValueError(f"m={m} out of range 1..{g}")
    if m == 1:
        out, first = (g - 1,), 1
    else:
        out, first = (0,) * (m - 1) + ((-1) ** (m - 1) * math.factorial(m - 1),), m
    return list(reduce(_pmul, [(-i, 1) for i in range(first, g)], out))  # times (k - i)


def constant_C(g: int, a, m: int):
    """The coefficient constants; exact in Q(a) or Q."""
    return _horner(_constant_C_k(g, m), 2 * _as_weight(a))


def _stratum(n) -> int:
    """The m with c(n) = C(m), or 0 where c(n) vanishes."""
    big = [v for v in n if v > 1]
    if len(big) >= 2:
        return 0
    return big[0] if big else 1


class OperatorSpec:
    """A built operator polynomial for genus g and weight a, a Fraction or
    the RatFunc a; specs compare by (g, a, Q) and are unhashable.

    Q is the operator's poly.PackedPoly (module docstring).  The rest
    follows: k = 2a, symbolic and the coefficient table coeffs (made on
    first access).
    """

    def __init__(self, g: int, a, Q: PackedPoly):
        self.g, self.a, self.Q = g, a, Q

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.g, self.a, self.Q) == (other.g, other.a, other.Q)

    __hash__ = None

    def __repr__(self):
        return f"OperatorSpec(g={self.g!r}, a={self.a!r})"

    @property
    def k(self):
        return 2 * self.a

    @property
    def symbolic(self) -> bool:
        return isinstance(self.a, RatFunc)

    @cached_property
    def coeffs(self) -> dict:
        """The normalized coefficient table {n: c(n)/C(1)}, c(n) != 0."""
        return _coefficient_table(self.g, self.a)


def _integer_C(g: int, a) -> dict:
    """m -> C(m) times one common factor that makes every C(m) integral:
    an integer polynomial in a (a tuple, low degree first) in Q(a), and
    q^(g-1) C(m), an int, at a numeric weight with 2a = p/q."""
    if isinstance(a, RatFunc):  # the coefficient of k^j times 2^j
        return {m: tuple(c << j for j, c in enumerate(_constant_C_k(g, m)))
                for m in range(1, g + 1)}
    scale = (2 * a).denominator ** (g - 1)
    return {m: int(scale * constant_C(g, a, m)) for m in range(1, g + 1)}


def _coefficient_table(g: int, a) -> dict:
    """The normalized coefficient table {n: c(n)/C(1)} over the n with
    c(n) != 0, in Q(a) or Q: what build_Q stores and an OPSPEC1 file lists."""
    C = _integer_C(g, a)
    ratio = RatFunc if isinstance(a, RatFunc) else Fraction
    return {n: ratio(C[m], C[1]) for n in index_set_N(g) if (m := _stratum(n))}


def build_Q(g: int, a) -> OperatorSpec:
    """Assemble the normalized operator polynomial for genus g and weight a,
    on packed keys (module docstring).  A genus outside 2.._MAX_GENUS is
    refused before anything is built: the Leibniz pass grows like g! g^g."""
    if type(g) is not int or not 2 <= g <= _MAX_GENUS:
        raise ValueError(f"genus must be 2..{_MAX_GENUS}")
    a = _as_weight(a)
    symbolic = isinstance(a, RatFunc)
    if not symbolic and 2 * a < g:
        raise ValueError(f"weight a={a} violates a >= g/2 = {Fraction(g, 2)}")
    C = _integer_C(g, a)

    def content(x) -> int:  # of an integer or an integer polynomial
        return math.gcd(*x) if symbolic else x

    split = _t_split(g)
    strata = {n: m for n in index_set_N(g) if (m := _stratum(n))}
    # divide the whole form by its integer content G
    G = math.gcd(content(C[1]), *(content(C[m]) * math.gcd(*split[n].values())
                                  for n, m in strata.items()))
    nums = {}
    for n, m in strata.items():
        bucket, Cm = split[n], C[m]
        if symbolic:
            scaled = {b: tuple(b * c // G for c in Cm) for b in set(bucket.values())}
        else:
            scaled = {b: b * Cm // G for b in set(bucket.values())}
        nums.update(zip(bucket, map(scaled.__getitem__, bucket.values())))
    den = tuple(c // G for c in C[1]) if symbolic else C[1] // G
    return OperatorSpec(g, a, PackedPoly(g, den, nums))


# -- the integer D_{h;11} kernel (see "Integer proof" above) -----------------


class _IntegerForm:
    """A PackedPoly p and k (a RatFunc or through _rational) over one integer
    denominator, for the D_{h;11} kernel with an integer second-order factor.

    terms maps each packed key to the integer P(2^S) of its numerator, and
    classes each row-1 class to its keys; kn and kd are 4 kn(2^S) and
    4 kd(2^S).  Keys may hold the t_h and r_{h;ij} of genus p.g.
    """

    def __init__(self, p: PackedPoly, k, factor):
        factor = _rational(factor)
        if factor.denominator != 1:
            raise ValueError(f"second-order factor {factor} is not an integer")
        g, den, nums = p.g, p.den, p.nums
        self.g, self.factor = g, int(factor)
        symbolic = isinstance(den, tuple)
        kd, kn = _cleared({0: _scalar(k)})
        self.symbolic = symbolic or isinstance(kd, tuple)
        self.packing = _packing(g)

        def poly(x) -> tuple:  # an int as a constant polynomial
            return x if isinstance(x, tuple) else (x,)

        kn, kd, L = poly(kn[0]), poly(kd), poly(den)
        row1 = sum(((1 << 4 * g) - 1) * self.packing.unit[r_var(h, 1, 1)] for h in range(1, g + 1))
        self.classes = defaultdict(list)
        for key in nums:
            self.classes[key & row1].append(key)
        d = max(map(_nibble_sum, self.classes), default=0)
        spread = 4 * d * sum(map(abs, kn)) + 4 * abs(self.factor) * d * d * sum(map(abs, kd))
        if symbolic:
            counts = Counter(nums.values())
            size = sum(n * sum(map(abs, P)) for P, n in counts.items())
        else:
            size = sum(map(abs, nums.values()))
        self.s = (size * spread).bit_length() + 1
        point = 1 << self.s  # a = 2^S
        if symbolic:
            value = {P: _horner(P, point) for P in counts}
            self.terms = {key: value[P] for key, P in nums.items()}
        else:
            self.terms = nums
        self.kn, self.kd = 4 * _horner(kn, point), 4 * _horner(kd, point)
        self.den = _pmul(tuple(4 * c for c in kd), L)

    def d11(self, hs) -> dict:
        """4 kd L sum_{h in hs} D_{h;11} p at a = 2^S: packed key -> int
        (cancelled keys are kept with the value 0), one class at a time."""
        terms, out = self.terms, {}
        get = out.get
        for bits, keys in self.classes.items():
            for h in hs:
                for delta, mult in self._moves(h, bits):
                    for key in keys:
                        k2 = key + delta
                        out[k2] = get(k2, 0) + terms[key] * mult
        return out

    def _moves(self, h: int, bits: int) -> list:
        """(key change, multiplier) of each term of D_{h;11} on a monomial of
        the row-1 class bits."""
        unit, f, kd = self.packing.unit, self.factor, self.kd
        hits = [(u, bits // unit[r_var(h, 1, u)] & 15) for u in range(1, self.g + 1)]
        hits = [(u, e, unit[r_var(h, 1, u)]) for u, e in hits if e]
        acc: dict = {}

        def add(delta, mult):
            acc[delta] = acc.get(delta, 0) + mult

        # d_{h;1u} carries the symmetrization factor 1/2 for u != 1
        for i, (u, eu, bu) in enumerate(hits):
            if u == 1:  # k d_{h;11}
                add(-bu, self.kn * eu)
            if eu > 1:  # f r_{h;uu} d_{h;1u}^2
                add(unit[r_var(h, u, u)] - 2 * bu,
                    f * eu * (eu - 1) * kd // (1 if u == 1 else 4))
            for w, ew, bw in hits[i + 1:]:  # 2 f r_{h;uw} d_{h;1u} d_{h;1w}, u < w
                add(unit[r_var(h, u, w)] - bu - bw,
                    2 * f * eu * ew * kd // (2 if u == 1 else 4))
        return [(delta, mult) for delta, mult in acc.items() if mult]

    def to_poly(self, residual: dict) -> PackedPoly:
        """A kernel residual divided back into the field of p and k, made
        canonical; in Q(a) a value R(2^S) is read as R's balanced base-2^S
        digits."""
        nums = {key: v for key, v in residual.items() if v}
        den = self.den if self.symbolic else self.den[0]
        if self.symbolic:
            for key, v in nums.items():
                digits = dict(_unpack(v, self.s))
                nums[key] = tuple(digits.get(j, 0) for j in range(max(digits) + 1))
        return PackedPoly(self.g, *_cleared(PackedPoly(self.g, den, nums).terms))


def apply_D11(g: int, h: int, p: PackedPoly, k,
              second_order_factor: int = SECOND_ORDER_FACTOR) -> PackedPoly:
    """The row-(1,1) second-order operator on the R_h variables.

    D_{h;11} P = k d_{h;11} P + factor * sum_{u,w} r_{h;uw} d_{h;1u} d_{h;1w} P
    with symmetrized derivatives d.  The default factor 2 matches the
    pullback Laplacian up to an irrelevant global constant.

    Runs the integer kernel of verify_pluriharmonic on p, a genus-g
    PackedPoly, for this h alone and divides its residual back into the
    field: Q(a) when p or k is there.  A move raises an exponent by at most
    1, so p may hold exponents up to 14 and no nibble of a key carries.
    """
    _leibniz_args(g)
    if type(h) is not int or not 1 <= h <= g:
        raise ValueError(f"slot h={h!r} is outside 1..{g}")
    if p.g != g:
        raise ValueError(f"polynomial of genus {p.g} is not of genus {g}")
    ones = sum(_packing(g).unit.values())  # the lowest bit of every nibble
    if any(key & key >> 1 & key >> 2 & key >> 3 & ones for key in p.nums):
        raise ValueError("polynomial has an exponent of 15, above the 14 apply_D11 takes")
    form = _IntegerForm(p, k, second_order_factor)
    return form.to_poly(form.d11((h,)))


def verify_pluriharmonic(spec: OperatorSpec,
                         second_order_factor: int = SECOND_ORDER_FACTOR) -> bool:
    """Check that sum_h D_{h;11} Q is the zero polynomial, exactly.

    One scan of Q by the integer kernel for every h at once; in Q(a) a
    zero residual proves the identity for every a (module docstring).
    """
    form = _IntegerForm(spec.Q, spec.k, second_order_factor)
    return not any(form.d11(range(1, spec.g + 1)).values())


def verify_harmonic_condition(g: int, a) -> bool:
    """The coefficient identity sum_h (k - n'_h) c(n' + e_h) = 0 for every
    minor multi-index n' (sum g - 1), checked on its g - 1 shapes.

    c(n) != 0 only when n is a permutation of (m, 1^(g-m), 0^(m-1)), so
    n' + e_h is in the support only when n' is, up to order, one of
    s_j = (j, 1^(g-1-j), 0^j), j = 1..g-1; at any other n' every term
    vanishes.  c is symmetric, so one n' per shape is enough.  At s_1 (g - 1
    ones and a 0) raising a 1 gives C(2) and raising the 0 gives C(1):

        (g - 1)(k - 1) C(2) + k C(1) = 0.

    At s_j, j >= 2, raising the j gives C(j + 1), raising a 0 gives C(j)
    and raising a 1 leaves two entries above 1, so c = 0:

        (k - j) C(j + 1) + j k C(j) = 0.

    Each C(m) is an integer polynomial in k = 2a (_constant_C_k), so each
    side is one too.  By the C(m) of the module docstring,
    (g - 1)(k - 1) C(2) = -k C(1) and (k - j) C(j + 1) = -j k C(j) as
    polynomials in k (both sides are one product of factors k and k - i),
    so every side is the zero polynomial: the identity holds at every genus
    g >= 2 for every a.  In Q(a) each side must be the zero polynomial; at a numeric
    weight it must vanish at that k.  A genus below 2 is refused: g = 0 has
    no minor index, and at g = 1 C(1) = 0, so Q is undefined.
    """
    if type(g) is not int or g < 2:
        raise ValueError(f"genus must be >= 2, found {g}")
    a = _as_weight(a)
    C = [()] + [_constant_C_k(g, m) for m in range(1, g + 1)]
    sides = [_padd(_pmul((1 - g, g - 1), C[2]), _pmul((0, 1), C[1]))]
    sides += [_padd(_pmul((-j, 1), C[j + 1]), _pmul((0, j), C[j])) for j in range(2, g)]
    return not any(side if isinstance(a, RatFunc) else _horner(side, 2 * a) for side in sides)


def verify_deriv_lemma(g: int, n: tuple, h: int) -> bool:
    """Check D_{h;11} B(n) = (k - n_h + 1) * minor-coefficient(n - e_h).

    Under the implemented normalization of D the stated identity holds with
    no extra constant (a global factor 2 relative to the raw Laplacian is
    shared by both sides and cancels from the convention).  For n_h = 0 the
    derivative vanishes identically and the check is vacuous.  k = 2a, a the
    generator of Q(a).  minor_coeff_R reads the minor by Jacobi's formula
    as a derivative of B(n - e_h + e_1), so for h != 1 the two sides come
    from different buckets of the one Leibniz pass.
    """
    k = 2 * RatFunc.var()
    lhs = apply_D11(g, h, coeff_R(g, n), k)
    if n[h - 1] == 0:
        return lhs.is_zero()
    nminus = list(n)
    nminus[h - 1] -= 1
    factor, minor = k - n[h - 1] + 1, minor_coeff_R(g, 1, 1, tuple(nminus)).terms
    return lhs == PackedPoly(g, *_cleared({key: factor * c for key, c in minor.items()}))


def _oracle_fault(g: int, k, den=1) -> str | None:
    """Why xspace_oracle refuses genus g, k = 2a (any exact number) and a form
    over den: a weight not numeric, 2a odd or <= 0, or too many variables."""
    if isinstance(k, RatFunc) or isinstance(den, tuple):
        return "the substitution oracle needs a numeric weight"
    if (k := _rational(k)) <= 0 or k.denominator != 1 or k % 2:
        return "the substitution oracle needs an even integer 2a"
    if (nvars := g * int(k) * g) > ORACLE_MAX_VARS:
        return (f"the substitution oracle takes at most {ORACLE_MAX_VARS} variables, "
                f"and genus {g} at 2a = {k} needs {nvars}")
    return None


def xspace_oracle(g: int, k, p: PackedPoly) -> MultiPoly:
    """Brute-force pluriharmonicity oracle in the matrix-space variables.

    Substitutes r_{h;uw} = sum_nu x_{u,(h-1)k+nu} x_{w,(h-1)k+nu} (row
    products of a g x k block X_h inside the concatenated g x gk matrix) and
    applies the literal first-row Laplacian sum_col d^2/dx_{1,col}^2.  The
    result is the zero polynomial iff p is pluriharmonic in the first slot,
    which suffices for polynomials with the determinant scaling symmetry.
    p, a genus-g PackedPoly, is decoded: the substitution needs MultiPoly.
    """
    if p.g != g:
        raise ValueError(f"polynomial of genus {p.g} is not of genus {g}")
    if why := _oracle_fault(g, k, p.den):
        raise ValueError(why)
    k, p = int(k), p.decode()
    mapping = {}
    for v in {v for m in p.terms for v, _ in m}:
        if v[0] != "r":
            raise ValueError(f"oracle input mentions non-matrix variable {v}")
        _, h, u, w = v
        acc = MultiPoly.zero()
        for nu in range(1, k + 1):
            col = (h - 1) * k + nu
            acc = acc + MultiPoly.var(x_var(u, col)) * MultiPoly.var(x_var(w, col))
        mapping[v] = acc
    tilde = p.substitute(mapping)
    out = MultiPoly.zero()
    for col in range(1, g * k + 1):
        out = out + tilde.diff_plain(x_var(1, col)).diff_plain(x_var(1, col))
    return out


# -- operator spec serialization ----------------------------------------------

NORMALIZATION_LINE = (f"normalization second-order-factor={SECOND_ORDER_FACTOR} "
                      "leading-coefficient=1")

def _opspec_chunks(spec: OperatorSpec):
    """The OPSPEC1 file of spec as text chunks: its header and coefficient
    lines, then the chunks of the POLY1 block of its cleared form, each line
    ended by a newline."""
    head = ["OPSPEC1", f"genus {spec.g}", f"mode {'symbolic' if spec.symbolic else 'numeric'}",
            f"a {'a' if spec.symbolic else frac_to_text(spec.a)}", NORMALIZATION_LINE,
            f"coeffs {len(spec.coeffs)}"]
    head += [f"n={','.join(map(str, n))} | {scalar_to_text(spec.coeffs[n])}"
             for n in sorted(spec.coeffs)]
    yield "\n".join(head) + "\n"
    yield from _packed_chunks(spec.Q)


def _opspec_text(spec: OperatorSpec) -> str:
    """The OPSPEC1 file of spec as one text."""
    return "".join(_opspec_chunks(spec))


def opspec_to_text(spec: OperatorSpec) -> str:
    """The OPSPEC1 file of spec: the text the reader compares a file with."""
    return _opspec_text(spec)


def _found(text: str, pos: int) -> str:
    """The line of text that starts at pos, as an error message shows it
    (its first 200 characters: a file with no newline is one line)."""
    if pos >= len(text):
        return "end of file"
    end = text.find("\n", pos)
    line = text[pos:end] if end >= 0 else text[pos:]
    shown = repr(line[:200]) + ("..." if len(line) > 200 else "")
    return shown if end >= 0 else f"{shown} with no newline"


def _first_difference(text: str, want: str) -> str:
    """The reader's message for a text that is not the file want: the first
    line where they part, the line expected (or the end of file) and the
    line found."""
    got, lines = text.split("\n"), want.split("\n")
    last = min(len(got), len(lines)) - 1  # the last line both have, ended or not
    i = next((i for i in range(last) if got[i] != lines[i]), last)
    expected = "end of file" if i == len(lines) - 1 else repr(lines[i])
    pos = sum(map(len, lines[:i])) + i  # the start of line i + 1 in both texts
    return f"OPSPEC1 line {i + 1}: expected {expected}, found {_found(text, pos)}"


def opspec_from_text(text: str) -> OperatorSpec:
    """Read an OPSPEC1 file; a malformed file raises ValueError naming its line.

    The file is a function of its genus and weight, so the reader takes
    those from lines 2-4, builds build_Q(g, a), and checks that the text is
    the writer's text for that spec, byte for byte: each of the writer's
    chunks must start the text where the one before it ended, and the last
    must end it.  Only a file that differs is compared with the writer's
    whole text, by _first_difference, which names the line where they part.
    A genus outside 2.._MAX_GENUS, a mode other than symbolic and numeric,
    and a weight that frac_from_text refuses or that violates a >= g/2 are
    errors at their line, found before anything is built."""
    if not text.startswith("OPSPEC1\n"):
        raise ValueError(f"OPSPEC1 line 1: expected 'OPSPEC1', found {_found(text, 0)}")
    end = -1
    for _ in range(4):  # the end of the first four lines
        end = text.find("\n", end + 1)
        if end < 0:
            end = len(text)
            break
    fail, value = _line_reader(text[:end].split("\n"), "OPSPEC1")
    g = value(1, "genus", _int_from_text)
    if not 2 <= g <= _MAX_GENUS:
        fail(1, f"genus must be 2..{_MAX_GENUS}, found {g}")
    mode = value(2, "mode")
    if mode not in ("symbolic", "numeric"):
        fail(2, f"mode must be symbolic or numeric, found {mode!r}")
    if mode == "symbolic":
        if value(3, "a") != "a":
            fail(3, "a symbolic operator has the weight 'a'")
        a = RatFunc.var()
    else:
        a = value(3, "a", frac_from_text)
        if 2 * a < g:
            fail(3, f"weight a={frac_to_text(a)} violates a >= g/2 = "
                    f"{frac_to_text(Fraction(g, 2))}")
    spec = build_Q(g, a)
    pos = 0
    for piece in _opspec_chunks(spec):
        if not text.startswith(piece, pos):
            break
        pos += len(piece)
    else:
        if pos == len(text):
            return spec
    raise ValueError(_first_difference(text, _opspec_text(spec)))
