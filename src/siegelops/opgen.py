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

  * the combinatorial identity sum_h (k - n'_h) c(n' + e_h) = 0 over all
    minor multi-indices n' (verify_harmonic_condition);
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
c(n) != 0, each scaled by c(n) = C(m).  OperatorSpec stores Q as one
cleared form:
integer numerators over one denominator, both integers at a numeric weight
a = p/q (q^(g-1) C(m) is an integer) and integer polynomials in a in Q(a)
(C(m) is an integer polynomial in k = 2a).  Each C(m) is computed once,
the numerators of B(n) are multiplied by it in one pass, and the form is
divided by the integer content.  spec.Q decodes a MultiPoly on first
access.  The OPSPEC1 writer works on the packed keys directly.  A file is
a function of its genus and weight, so the reader builds build_Q(g, a)
again and compares the writer's lines with the text.

Integer proof.  verify_pluriharmonic runs on integers, in one kernel shared
with apply_D11, which packs and clears its MultiPoly argument first.  Let
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

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property

from .poly import (MultiPoly, _cleared, _nibble_sum, _packed_lines, _packed_poly, _packing,
                   _t_split, coeff_R, index_set_N, index_set_Nprime, minor_coeff_R, r_var,
                   x_var)
from .scalars import (RatFunc, _int_from_text, _line_reader, _pmul, _unpack, frac_from_text,
                      frac_to_text, scalar_to_text)

SECOND_ORDER_FACTOR = 2


def symbolic_weight() -> RatFunc:
    """The formal weight parameter a as an element of Q(a)."""
    return RatFunc.var()


def _as_weight(a):
    """a as a weight: the generator a of Q(a) itself, or a rational.  A
    constant of Q(a) is its rational; any other element of Q(a) is refused,
    since a weight is a number or the formal a, not a function of it."""
    if not isinstance(a, RatFunc):
        return Fraction(a)
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
        out, first = [g - 1], 1
    else:
        out, first = [0] * (m - 1) + [(-1) ** (m - 1) * math.factorial(m - 1)], m
    for i in range(first, g):  # times (k - i)
        out = [lo - i * hi for lo, hi in zip([0] + out, out + [0])]
    return out


def constant_C(g: int, a, m: int):
    """The coefficient constants; exact in Q(a) or Q."""
    k = 2 * _as_weight(a)
    out = k * 0
    for c in reversed(_constant_C_k(g, m)):
        out = out * k + c
    return out


def _stratum(n) -> int:
    """The m with c(n) = C(m), or 0 where c(n) vanishes."""
    big = [v for v in n if v > 1]
    if len(big) >= 2:
        return 0
    return big[0] if big else 1


def coeff_c(g: int, a, n: tuple):
    """c(n): C(1) for all ones, C(m) on the admissible shapes, else 0."""
    m = _stratum(n)
    return constant_C(g, a, m) if m else _as_weight(a) * 0


class OperatorSpec:
    """A built operator polynomial for genus g and weight a, a Fraction or
    the RatFunc a; specs compare by (g, a, den, nums) and are unhashable.

    Q is stored as its cleared packed form (module docstring): nums maps
    each packed monomial key to its numerator, and nums[key] / den is its
    coefficient; den and the numerators are ints for a numeric weight and
    integer polynomials in a (tuples, low degree first) in Q(a), with no
    common integer factor and den > 0 (or a positive leading coefficient).
    The rest follows: k = 2a, symbolic, the coefficient table coeffs and Q,
    the read-only MultiPoly view (the last two made on first access).
    """

    def __init__(self, g: int, a, den, nums: dict):
        self.g, self.a, self.den, self.nums, self._Q = g, a, den, nums, None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.g, self.a, self.den, self.nums) == (other.g, other.a, other.den, other.nums)

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

    @property
    def Q(self) -> MultiPoly:
        if self._Q is None:
            self._Q = _packed_poly(self.g, self.den, self.nums)
        return self._Q


def _integer_C(g: int, a) -> dict:
    """m -> C(m) times one common factor that makes every C(m) integral:
    an integer polynomial in a (a tuple, low degree first) in Q(a), and
    q^(g-1) C(m), an int, at a numeric weight with 2a = p/q."""
    if isinstance(a, RatFunc):  # the coefficient of k^j times 2^j
        return {m: tuple(c << j for j, c in enumerate(_constant_C_k(g, m)))
                for m in range(1, g + 1)}
    p, q = (2 * a).numerator, (2 * a).denominator
    return {m: sum(c * p ** j * q ** (g - 1 - j) for j, c in enumerate(_constant_C_k(g, m)))
            for m in range(1, g + 1)}


def _coefficient_table(g: int, a) -> dict:
    """The normalized coefficient table {n: c(n)/C(1)} over the n with
    c(n) != 0, in Q(a) or Q: what build_Q stores and an OPSPEC1 file lists."""
    C = _integer_C(g, a)
    ratio = RatFunc if isinstance(a, RatFunc) else Fraction
    return {n: ratio(C[m], C[1]) for n in index_set_N(g) if (m := _stratum(n))}


_MAX_GENUS = 5  # the largest genus whose Q is built and whose operator file is read


def build_Q(g: int, a) -> OperatorSpec:
    """Assemble the normalized operator polynomial for genus g and weight a,
    on packed keys (module docstring).  A genus outside 2.._MAX_GENUS is
    refused before anything is built: the Leibniz pass grows like g! g^g."""
    if not 2 <= g <= _MAX_GENUS:
        raise ValueError(f"genus must be 2..{_MAX_GENUS}")
    a = _as_weight(a)
    symbolic = isinstance(a, RatFunc)
    if not symbolic and 2 * a < g:
        raise ValueError(f"weight a={a} violates a >= g/2 = {Fraction(g, 2)}")
    C = _integer_C(g, a)

    def content(x) -> int:  # of an integer or an integer polynomial
        return math.gcd(*x) if symbolic else x

    split = _t_split(g, ())
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
    return OperatorSpec(g, a, den, nums)


# -- the integer D_{h;11} kernel (see "Integer proof" above) -----------------


class _IntegerForm:
    """A cleared packed form (den, nums) and k, over one integer
    denominator, for the D_{h;11} kernel.

    terms maps each packed key to the integer P(2^S) of its numerator, and
    classes each row-1 class to its keys; kn and kd are 4 kn(2^S) and
    4 kd(2^S).  Keys may hold the t_h and r_{h;ij} of genus g, with
    exponents up to poly._MAX_EXP.
    """

    def __init__(self, g: int, den, nums: dict, k, factor: int):
        self.g, self.factor = g, factor
        symbolic = isinstance(den, tuple)
        self.field = "Qa" if symbolic or isinstance(k, RatFunc) else "Q"
        self.packing = _packing(g)
        kd, kn = _cleared("Qa" if isinstance(k, RatFunc) else "Q", {0: k})

        def poly(x) -> tuple:  # an int as a constant polynomial
            return x if isinstance(x, tuple) else (x,)

        kn, kd, L = poly(kn[0]), poly(kd), poly(den)
        row1 = sum(((1 << 4 * g) - 1) * self.packing.unit[r_var(h, 1, 1)] for h in range(1, g + 1))
        self.classes = defaultdict(list)
        for key in nums:
            self.classes[key & row1].append(key)
        d = max(map(_nibble_sum, self.classes), default=0)
        spread = 4 * d * sum(map(abs, kn)) + 4 * abs(factor) * d * d * sum(map(abs, kd))
        if symbolic:
            counts = Counter(nums.values())
            size = sum(n * sum(map(abs, P)) for P, n in counts.items())
        else:
            size = sum(map(abs, nums.values()))
        self.s = s = (size * spread).bit_length() + 1

        def at_2s(P):
            return sum(c << s * j for j, c in enumerate(P))

        if symbolic:
            value = {P: at_2s(P) for P in counts}
            self.terms = {key: value[P] for key, P in nums.items()}
        else:
            self.terms = nums
        self.kn, self.kd = 4 * at_2s(kn), 4 * at_2s(kd)
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

    def to_poly(self, residual: dict) -> MultiPoly:
        """A kernel residual divided back into the field of p and k; in Q(a)
        a value R(2^S) is read as R's balanced base-2^S digits."""
        nums = {key: v for key, v in residual.items() if v}
        if self.field == "Q":
            return _packed_poly(self.g, self.den[0], nums)
        for key, v in nums.items():
            digits = dict(_unpack(v, self.s))
            nums[key] = tuple(digits.get(j, 0) for j in range(max(digits) + 1))
        return _packed_poly(self.g, self.den, nums)


def apply_D11(g: int, h: int, p: MultiPoly, k,
              second_order_factor: int = SECOND_ORDER_FACTOR) -> MultiPoly:
    """The row-(1,1) second-order operator on the R_h variables.

    D_{h;11} P = k d_{h;11} P + factor * sum_{u,w} r_{h;uw} d_{h;1u} d_{h;1w} P
    with symmetrized derivatives d.  The default factor 2 matches the
    pullback Laplacian up to an irrelevant global constant.

    Packs and clears p, runs the integer kernel of verify_pluriharmonic for
    this h alone and divides its residual back into the field: Q(a) when p
    or k is there.
    """
    encode = _packing(g).encode
    den, nums = _cleared(p.field, {encode(m): c for m, c in p.terms.items()})
    form = _IntegerForm(g, den, nums, k, second_order_factor)
    return form.to_poly(form.d11((h,)))


def verify_pluriharmonic(spec: OperatorSpec,
                         second_order_factor: int = SECOND_ORDER_FACTOR) -> bool:
    """Check that sum_h D_{h;11} Q is the zero polynomial, exactly.

    One scan of Q by the integer kernel for every h at once; in Q(a) a
    zero residual proves the identity for every a (module docstring).
    """
    form = _IntegerForm(spec.g, spec.den, spec.nums, spec.k, second_order_factor)
    return not any(form.d11(range(1, spec.g + 1)).values())


def verify_harmonic_condition(g: int, a) -> bool:
    """The coefficient identity sum_h (k - n'_h) c(n' + e_h) = 0 for all n'.

    Checked on integers, with the values of _integer_C.  With every C(m) an
    integer polynomial of degree g - 1 in k = 2a, the left side is one of
    degree g.  A numeric k = p/q enters as q^g times its value.  In Q(a) the
    left side is evaluated at k = 2^S, where 2^(S-1) exceeds
    (2g - 1) max_m |C(m)|, a bound on its coefficients (|.| the sum of
    |coefficients|), so a zero value proves it zero for every a.
    """
    a = _as_weight(a)
    if isinstance(a, RatFunc):  # a = 2^(S-1), k = 2^S
        bound = max(sum(map(abs, _constant_C_k(g, m))) for m in range(1, g + 1))
        a = Fraction(1 << ((2 * g - 1) * bound).bit_length())
    kn, kd = (2 * a).numerator, (2 * a).denominator
    value = {0: 0, **_integer_C(g, a)}
    for nprime in index_set_Nprime(g):
        n = list(nprime)
        total = 0
        for h in range(g):
            n[h] += 1
            total += (kn - nprime[h] * kd) * value[_stratum(n)]
            n[h] -= 1
        if total:
            return False
    return True


def verify_deriv_lemma(g: int, n: tuple, h: int, k=None) -> bool:
    """Check D_{h;11} B(n) = (k - n_h + 1) * minor-coefficient(n - e_h).

    Under the implemented normalization of D the stated identity holds with
    no extra constant (a global factor 2 relative to the raw Laplacian is
    shared by both sides and cancels from the convention).  For n_h = 0 the
    derivative vanishes identically and the check is vacuous.
    """
    if k is None:
        k = 2 * RatFunc.var()
    lhs = apply_D11(g, h, coeff_R(g, n), k)
    if n[h - 1] == 0:
        return lhs.is_zero()
    nminus = list(n)
    nminus[h - 1] -= 1
    return lhs == minor_coeff_R(g, 1, 1, tuple(nminus)).scale(k - n[h - 1] + 1)


def xspace_oracle(g: int, k: int, p: MultiPoly) -> MultiPoly:
    """Brute-force pluriharmonicity oracle in the matrix-space variables.

    Substitutes r_{h;uw} = sum_nu x_{u,(h-1)k+nu} x_{w,(h-1)k+nu} (row
    products of a g x k block X_h inside the concatenated g x gk matrix) and
    applies the literal first-row Laplacian sum_col d^2/dx_{1,col}^2.  The
    result is the zero polynomial iff p is pluriharmonic in the first slot,
    which suffices for polynomials with the determinant scaling symmetry.
    """
    if k <= 0 or k % 2:
        raise ValueError("k must be an even positive integer")
    nvars = g * k * g
    if nvars > 80:
        raise ValueError(
            f"{nvars} substitution variables exceed desk scale; "
            "build the operator at a small numeric weight instead")
    if p.field != "Q":
        raise ValueError("oracle needs numeric (Q) coefficients")
    mapping = {}
    for v in p.vars_used():
        if v[0] != "r":
            raise ValueError(f"oracle input mentions non-matrix variable {v}")
        _, h, u, w = v
        acc = MultiPoly.zero("Q")
        for nu in range(1, k + 1):
            col = (h - 1) * k + nu
            acc = acc + MultiPoly.var(x_var(u, col)) * MultiPoly.var(x_var(w, col))
        mapping[v] = acc
    tilde = p.substitute(mapping)
    out = MultiPoly.zero("Q")
    for col in range(1, g * k + 1):
        out = out + tilde.diff_plain(x_var(1, col)).diff_plain(x_var(1, col))
    return out


# -- operator spec serialization ----------------------------------------------

NORMALIZATION_LINE = "normalization second-order-factor=2 leading-coefficient=1"

def _opspec_lines(spec: OperatorSpec):
    """The lines of the OPSPEC1 file of spec, without their newlines."""
    yield "OPSPEC1"
    yield f"genus {spec.g}"
    yield f"mode {'symbolic' if spec.symbolic else 'numeric'}"
    yield f"a {'a' if spec.symbolic else frac_to_text(spec.a)}"
    yield NORMALIZATION_LINE
    yield f"coeffs {len(spec.coeffs)}"
    for n in sorted(spec.coeffs):
        yield f"n={','.join(map(str, n))} | {scalar_to_text(spec.coeffs[n])}"
    yield from _packed_lines(spec.g, spec.den, spec.nums)


def opspec_to_text(spec: OperatorSpec) -> str:
    return "\n".join(_opspec_lines(spec)) + "\n"


def _found(text: str, pos: int) -> str:
    """The line of text that starts at pos, as an error message shows it
    (its first 200 characters: a file with no newline is one line)."""
    if pos >= len(text):
        return "end of file"
    end = text.find("\n", pos)
    line = text[pos:end] if end >= 0 else text[pos:]
    shown = repr(line[:200]) + ("..." if len(line) > 200 else "")
    return shown if end >= 0 else f"{shown} with no newline"


def _match_lines(text: str, lines) -> None:
    """Check that text is lines, each ended by a newline, and nothing more.
    The lines are compared in place at a running offset, a batch of 1024
    joined at a time, so no second text and no list of the lines of text
    is made.  The first line that differs raises ValueError naming it, the
    line expected and the line found."""
    pos, idx, lines = 0, 1, iter(lines)  # idx: the number of the next line
    while batch := list(itertools.islice(lines, 1024)):
        chunk = "\n".join(batch) + "\n"
        if not text.startswith(chunk, pos):
            for want in batch:  # the first line that differs
                if not text.startswith(want + "\n", pos):
                    raise ValueError(f"OPSPEC1 line {idx}: expected {want!r}, "
                                     f"found {_found(text, pos)}")
                pos, idx = pos + len(want) + 1, idx + 1
        pos, idx = pos + len(chunk), idx + len(batch)
    if pos < len(text):
        raise ValueError(f"OPSPEC1 line {idx}: expected end of file, found {_found(text, pos)}")


def opspec_from_text(text: str) -> OperatorSpec:
    """Read an OPSPEC1 file; a malformed file raises ValueError naming its line.

    The file is a function of its genus and weight, so the reader takes
    those from lines 2-4, builds build_Q(g, a), and checks that the text is
    the writer's lines for that spec, byte for byte (_match_lines).  A
    genus outside 2.._MAX_GENUS, a mode other than symbolic and
    numeric, and a weight that frac_from_text refuses or that violates
    a >= g/2 are errors at their line, found before anything is built."""
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
    _match_lines(text, _opspec_lines(spec))
    return spec
