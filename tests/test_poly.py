"""Tests for the sparse polynomial ring and the determinant-pencil expansion."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelops.jets import JetPoly
from siegelops.poly import (MultiPoly, FieldMismatch, _cleared, _leibniz, _minor_rows,
                            _packed_from_lines, _packed_poly, _packed_to_text, _packing,
                            _t_split, coeff_R, det_expand, index_set_N, index_set_Nprime,
                            minor_coeff_R, minor_det_expand, r_var, t_var)
from siegelops.scalars import scalar_to_text


def V(v):
    return MultiPoly.var(v)


def leibniz_det(entries):
    """Independent determinant: Leibniz expansion over a matrix of polynomials."""
    n = len(entries)
    total = MultiPoly.zero()
    for sigma in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        term = MultiPoly.const(sign)
        for i in range(n):
            term = term * entries[i][sigma[i]]
        total = total + term
    return total


def test_det_expand_genus1():
    assert det_expand(1) == V(t_var(1)) * V(r_var(1, 1, 1))


def test_det_expand_genus2_by_hand():
    # 2x2 determinant of the pencil, expanded by hand
    d = det_expand(2)
    detR1 = V(r_var(1, 1, 1)) * V(r_var(1, 2, 2)) - V(r_var(1, 1, 2)) ** 2
    detR2 = V(r_var(2, 1, 1)) * V(r_var(2, 2, 2)) - V(r_var(2, 1, 2)) ** 2
    mixed = (V(r_var(1, 1, 1)) * V(r_var(2, 2, 2))
             + V(r_var(2, 1, 1)) * V(r_var(1, 2, 2))
             - V(r_var(1, 1, 2)) * V(r_var(2, 1, 2)).scale(Fraction(2)))
    expect = (V(t_var(1)) ** 2 * detR1 + V(t_var(1)) * V(t_var(2)) * mixed
              + V(t_var(2)) ** 2 * detR2)
    assert d == expect


def test_genus3_t1_cube_coefficient_is_det_R1():
    got = coeff_R(3, (3, 0, 0))
    entries = [[V(r_var(1, i, j)) for j in range(1, 4)] for i in range(1, 4)]
    assert got == leibniz_det(entries)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_det_expand_at_t_equal_one(g):
    """Specializing every t to 1 matches an independent Leibniz determinant."""
    subs = {t_var(h): MultiPoly.const(1) for h in range(1, g + 1)}
    lhs = det_expand(g).substitute(subs)
    entries = [[sum((V(r_var(h, i, j)) for h in range(1, g + 1)),
                    MultiPoly.zero()) for j in range(1, g + 1)]
               for i in range(1, g + 1)]
    assert lhs == leibniz_det(entries)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_collapsed_sum_scales_like_det_of_gR(g):
    """R_1 = ... = R_g = R and t = 1 turns the expansion into det(gR) = g^g det R."""
    subs = {t_var(h): MultiPoly.const(1) for h in range(1, g + 1)}
    for h in range(2, g + 1):
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                subs[r_var(h, i, j)] = V(r_var(1, i, j))
    collapsed = det_expand(g).substitute(subs)
    entries = [[V(r_var(1, i, j)) for j in range(1, g + 1)] for i in range(1, g + 1)]
    assert collapsed == leibniz_det(entries).scale(Fraction(g ** g))


@pytest.mark.parametrize("g", [2, 3])
def test_congruence_scaling(g):
    """B(n)(A R A^t, ...) = det(A)^2 B(n): the degree-2 scaling property."""
    rng = random.Random(20240 + g)
    det_a = 0
    while det_a == 0:
        a = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
        det_a = round(leibniz_det([[MultiPoly.const(a[i][j]) for j in range(g)]
                                   for i in range(g)]).terms.get((), 0))
    subs = {}
    for h in range(1, g + 1):
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                acc = MultiPoly.zero()
                for p in range(1, g + 1):
                    for q in range(1, g + 1):
                        c = a[i - 1][p - 1] * a[j - 1][q - 1]
                        if c:
                            acc = acc + V(r_var(h, p, q)).scale(Fraction(c))
                subs[r_var(h, i, j)] = acc
    for n in [(1,) * g, (g,) + (0,) * (g - 1)]:
        b = coeff_R(g, n)
        assert b.substitute(subs) == b.scale(Fraction(det_a ** 2))


def test_coeff_R_examples():
    detR1 = V(r_var(1, 1, 1)) * V(r_var(1, 2, 2)) - V(r_var(1, 1, 2)) ** 2
    assert coeff_R(2, (2, 0)) == detR1
    mixed = (V(r_var(1, 1, 1)) * V(r_var(2, 2, 2))
             + V(r_var(2, 1, 1)) * V(r_var(1, 2, 2))
             - V(r_var(1, 1, 2)) * V(r_var(2, 1, 2)).scale(Fraction(2)))
    assert coeff_R(2, (1, 1)) == mixed


def test_index_sets():
    assert len(index_set_N(3)) == 10
    assert all(sum(n) == 3 for n in index_set_N(3))
    assert len(index_set_Nprime(3)) == 6
    with pytest.raises(ValueError):
        coeff_R(2, (2, 1))


def test_minor_coefficients():
    assert minor_coeff_R(2, 1, 1, (0, 1)) == V(r_var(2, 2, 2))
    assert minor_coeff_R(2, 1, 1, (1, 0)) == V(r_var(1, 2, 2))
    # deleting row 1, column 2 leaves the (2,1) entry of the pencil
    assert minor_coeff_R(2, 1, 2, (1, 0)) == V(r_var(1, 1, 2))


def test_sym_diff():
    p = V(r_var(1, 1, 1)) ** 2
    assert p.diff_sym(1, 1, 1) == V(r_var(1, 1, 1)).scale(Fraction(2))
    q = V(r_var(1, 1, 2)) ** 2
    assert q.diff_sym(1, 1, 2) == V(r_var(1, 1, 2))
    assert V(r_var(2, 1, 2)).diff_sym(1, 1, 2).is_zero()


def test_field_mismatch_raises():
    p = V(r_var(1, 1, 1))
    q = p.promote()
    with pytest.raises(FieldMismatch):
        _ = p + q
    jet = JetPoly.symbol("F")
    with pytest.raises(FieldMismatch):
        _ = jet * jet.promote()


def test_qa_constant_has_a_ratfunc_coefficient():
    from siegelops.scalars import RatFunc
    p = MultiPoly.const(1, "Qa") + MultiPoly.var(r_var(1, 1, 1), "Qa")
    assert all(isinstance(c, RatFunc) for c in p.terms.values())
    assert all(isinstance(c, RatFunc) for c in (JetPoly.const(3, "Qa").terms.values()))
    assert _write(p).splitlines()[1:] == ["1*a^0;1*a^0 | ", "1*a^0;1*a^0 | r[1;1,1]^1"]
    assert _read(_write(p)) == p


def test_poly1_round_trip():
    p = (V(r_var(1, 1, 2)) * V(r_var(2, 2, 2)).scale(Fraction(-3, 7))
         + V(r_var(1, 1, 1)) ** 3 + MultiPoly.const(Fraction(5, 2)))
    assert _read(_write(p)) == p
    q = p.promote()
    assert _read(_write(q)) == q


_vars = [r_var(1, 1, 1), r_var(1, 1, 2), r_var(2, 2, 2), t_var(1)]


def polys():
    term = st.tuples(st.sampled_from(_vars), st.integers(1, 2))
    return st.builds(
        lambda ts, cs: sum((MultiPoly.var(v).scale(Fraction(c)) ** e
                            for (v, e), c in zip(ts, cs) if c),
                           MultiPoly.zero()),
        st.lists(term, max_size=3),
        st.lists(st.integers(-4, 4), min_size=3, max_size=3))


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_product_reassociation_random_order():
    """Products of determinant-expansion pieces agree under any association."""
    rng = random.Random(7)
    parts = [coeff_R(2, n) for n in index_set_N(2)]
    ordered = parts[0] * parts[1] * parts[2]
    shuffled = parts[:]
    rng.shuffle(shuffled)
    other = shuffled[0] * (shuffled[1] * shuffled[2])
    assert ordered == other


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_t_split_matches_t_coefficient(g):
    """The cached split by t-exponent agrees with a scan for each n."""
    full = det_expand(g)
    for n in index_set_N(g):
        assert coeff_R(g, n) == full.t_coefficient(n)
    for k in range(1, g + 1):
        for l in range(1, g + 1):
            minor = minor_det_expand(g, k, l)
            for n in index_set_Nprime(g):
                assert minor_coeff_R(g, k, l, n) == minor.t_coefficient(n), (k, l, n)


# -- POLY1: the packed writer and reader --------------------------------------


def _write(p, g=2):
    """The POLY1 text of a genus-g MultiPoly, packed and cleared first."""
    encode = _packing(g).encode
    return _packed_to_text(g, *_cleared(p.field, {encode(m): c for m, c in p.terms.items()}))


def _read(text, g=2):
    _, den, nums = _packed_from_lines(text.splitlines(), 0, "POLY1", g)
    return _packed_poly(g, den, nums)


def _poly1_lines():
    p = (V(r_var(1, 1, 2)) * V(r_var(2, 2, 2)).scale(Fraction(-3, 7))
         + V(r_var(1, 1, 1)) ** 3 + MultiPoly.const(Fraction(5, 2)))
    return _write(p).splitlines()


def test_poly1_rejects_truncated_block():
    lines = _poly1_lines()
    assert lines[0] == "POLY1 field=Q terms=3"
    with pytest.raises(ValueError, match="POLY1 line 1: declares 3 terms, found 2"):
        _read("\n".join(lines[:-1]))


def test_poly1_rejects_duplicate_monomials():
    lines = ["POLY1 field=Q terms=2", "1 | r[1;1,2]^1", "2 | r[1;1,2]^1"]
    with pytest.raises(ValueError, match="POLY1 line 3: duplicate monomial"):
        _read("\n".join(lines))


def test_poly1_rejects_the_swapped_spelling_of_an_r_variable():
    """The writer spells r_{h;ij} as r[h;i,j] with i <= j, and only so."""
    assert _read("POLY1 field=Q terms=1\n1 | r[1;1,2]^1\n") == V(r_var(1, 1, 2))
    with pytest.raises(ValueError, match=r"POLY1 line 2: .*variable r\[1;2,1\] is not allowed"):
        _read("POLY1 field=Q terms=1\n1 | r[1;2,1]^1\n")


def test_poly1_rejects_bad_header():
    lines = _poly1_lines()
    for head in ("POLY1 field=Z terms=3", "POLY1 field=Q", "POLY2 field=Q terms=3"):
        with pytest.raises(ValueError, match="POLY1 line 1: "):
            _read("\n".join([head] + lines[1:]))


def test_poly1_rejects_malformed_term_lines():
    head = "POLY1 field=Q terms=1"
    for term in ("1 r[1;1,1]^1", "1 | r[1;1,1]^x", "1 | q[1]^1", "1/0 | t[1]^1"):
        with pytest.raises(ValueError, match="POLY1 line 2: "):
            _read(f"{head}\n{term}\n")


def test_poly1_rejects_non_positive_exponents():
    with pytest.raises(ValueError, match="POLY1 line 2: .*not positive"):
        _read("POLY1 field=Q terms=1\n1 | t[1]^0\n")


def test_poly1_reads_unsorted_variables_canonically():
    p = _read("POLY1 field=Q terms=1\n3 | r[2;1,1]^2 r[1;2,2]^1\n")
    assert p == (V(r_var(1, 2, 2)) * V(r_var(2, 1, 1)) ** 2).scale(Fraction(3))


def test_poly1_rejects_coefficients_of_the_other_field():
    """field=Q takes only rational text and field=Qa only 'num ; den' text,
    which is all the writer writes."""
    for text in ("POLY1 field=Q terms=1\n1*a^1;1*a^0 | r[1;1,1]^1\n",
                 "POLY1 field=Q terms=2\n1 | r[1;1,2]^1\n1*a^0 ; 1*a^0 | r[1;1,1]^1\n",
                 "POLY1 field=Qa terms=1\n3/2 | r[1;1,1]^1\n"):
        line = len(text.splitlines())
        with pytest.raises(ValueError, match=f"POLY1 line {line}: .*not a coefficient of field"):
            _read(text)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_leibniz_parities_share_no_key(g):
    """No packed key of a pencil's Leibniz terms, full or minor, comes from
    permutations of both parities, so _leibniz keeps every key, with the
    sign of its parity and no zero coefficient."""
    unit = _packing(g).unit
    for minor in [()] + [(k, l) for k in range(1, g + 1) for l in range(1, g + 1)]:
        rows, cols = _minor_rows(g, minor)
        parities: dict = {}
        for sigma in itertools.permutations(range(len(cols))):
            sign = (-1) ** sum(s > t for s, t in itertools.combinations(sigma, 2))
            for hs in itertools.product(range(1, g + 1), repeat=len(rows)):
                key = sum(unit[t_var(h)] + unit[r_var(h, r, cols[s])]
                          for h, r, s in zip(hs, rows, sigma))
                parities.setdefault(key, set()).add(sign)
        assert all(len(signs) == 1 for signs in parities.values()), minor
        got = _leibniz(g, rows, cols)
        assert set(got) == set(parities)
        assert all(c * parities[key].pop() > 0 for key, c in got.items())


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_packed_split_decodes_to_the_t_coefficient_oracle(g):
    """Each packed B(n) and minor coefficient of the split, decoded, is the
    coefficient of t^n that MultiPoly.t_coefficient scans out of the decoded
    Leibniz pass; the split keeps no t-variable in its keys."""
    tmask = (1 << 4 * g) - 1
    for minor in [()] + [(k, l) for k in range(1, g + 1) for l in range(1, g + 1)]:
        full = minor_det_expand(g, *minor) if minor else det_expand(g)
        split = _t_split(g, minor)
        ns = index_set_Nprime(g) if minor else index_set_N(g)
        assert set(split) <= set(ns)
        for n in ns:
            bucket = split.get(n, {})
            assert not any(key & tmask for key in bucket)
            assert _packed_poly(g, 1, bucket) == full.t_coefficient(n), (minor, n)


def _random_keys(rng, g, count, first=0):
    """Packed genus-g keys with random variables from nibble first on (g:
    the r-variables) and exponents 1..14."""
    names = _packing(g).names
    keys = set()
    while len(keys) < count:
        picked = rng.sample(range(first, len(names)), rng.randint(0, 4))
        keys.add(sum(rng.randint(1, 14) << 4 * p for p in picked))
    return sorted(keys)


def _var_text(v) -> str:
    return f"t[{v[1]}]" if v[0] == "t" else f"r[{v[1]};{v[2]},{v[3]}]"


def poly_to_text(p) -> str:
    """An independent POLY1 writer on decoded monomials: the terms sorted by
    total degree, then by their (variable, exponent) pairs in the variable
    order (t_h by h, then r_{h;ij} by (h, i, j))."""
    def order(m):
        return (sum(e for _, e in m), *[((v[0] == "r",) + v[1:], e) for v, e in m])

    lines = [f"POLY1 field={p.field} terms={len(p.terms)}"]
    for m in sorted(p.terms, key=order):
        body = " ".join(f"{_var_text(v)}^{e}" for v, e in m)
        lines.append(f"{scalar_to_text(p.terms[m])} | {body}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("g", [2, 3])
def test_packed_text_is_poly_to_text_of_the_decoded_form(g):
    """The packed POLY1 writer orders and renders keys byte for byte as the
    reference writer poly_to_text does the decoded polynomial, in both
    fields, on random keys with exponents up to 14, t-variables and the
    constant monomial."""
    rng = random.Random(g)
    keys = _random_keys(rng, g, 300) + [0]
    nums = {key: rng.choice([-3, -1, 1, 2, 6]) for key in keys}
    polys = {key: (rng.randint(-4, 4), rng.choice([-1, 1])) for key in keys}
    for den, form in ((6, nums), ((-1, 0, 2), polys)):
        p = _packed_poly(g, den, form)
        assert _packed_to_text(g, den, form) == poly_to_text(p)


@pytest.mark.parametrize("g", [2, 3])
def test_packed_reader_round_trips_the_writer(g):
    """Reading the packed text back onto packed keys gives the cleared form
    that _cleared makes of the decoded polynomial."""
    rng = random.Random(10 + g)
    packing = _packing(g)
    keys = _random_keys(rng, g, 200, first=g)
    nums = {key: rng.choice([-5, -1, 1, 3]) for key in keys}
    lines = _packed_to_text(g, 15, nums).splitlines()
    field, den, back = _packed_from_lines(lines, 0, "POLY1", g)
    p = _packed_poly(g, 15, nums)
    assert field == "Q"
    assert (den, back) == _cleared("Q", {packing.encode(m): c for m, c in p.terms.items()})
    assert _packed_poly(g, den, back) == p


@pytest.mark.parametrize("term", [
    "r[1;1,1]^1 r[1;2,2]^1 r[1;1,1]^2",
    " ".join(["r[2;2,2]^1"] * 14),
])
def test_packed_reader_rejects_a_repeated_variable(term):
    """The writer writes each variable of a monomial once, so a variable
    written twice (r^1 r^2 for r^3), also in more tokens than the layout
    has variables, is a line-numbered error."""
    var = term.split()[-1].rpartition("^")[0]
    text = f"POLY1 field=Q terms=2\n1 | r[1;2,2]^1\n-2 | {term}\n"
    with pytest.raises(ValueError, match=rf"POLY1 line 3: cannot parse .*\(variable "
                                         rf"{re.escape(var)} is written twice\)"):
        _read(text)


@pytest.mark.parametrize("term,what", [
    ("r[1;1,1]^15", "exponent of r[1;1,1] is 15, above 14"),
    ("r[1;2,2]^1 r[2;2,2]^99", "exponent of r[2;2,2] is 99, above 14"),
    ("r[1;1,1]^7 r[1;1,1]^8", "exponents of r[1;1,1] add up to 15, above 14"),
    ("r[2;2,2]^8 r[2;2,2]^8", "exponents of r[2;2,2] add up to 16, above 14"),
    ("r[1;1,2]^2 " + " ".join(["r[1;1,2]^1"] * 13), "exponents of r[1;1,2] add up to 15"),
])
def test_packed_reader_rejects_nibble_overflow(term, what):
    """An exponent above 14, or exponents of one variable that add up past
    14, is a line-numbered error: a packed nibble would carry into the next
    variable.  Exponents are never added: a variable written twice is
    rejected as such."""
    var = term.split()[-1].rpartition("^")[0]
    error = f"variable {var} is written twice" if what.startswith("exponents") else what
    text = f"POLY1 field=Q terms=2\n1 | r[1;1,1]^1\n-2 | {term}\n"
    with pytest.raises(ValueError, match=rf"POLY1 line 3: cannot parse .*\({re.escape(error)}\)"):
        _read(text)


@pytest.mark.parametrize("var", ["t[1]", "x[1,1]", "r[3;1,1]", "r[1;1,3]"])
def test_packed_reader_takes_only_the_r_variables_of_its_genus(var):
    text = f"POLY1 field=Q terms=2\n1 | r[1;1,1]^1\n-2 | {var}^1\n"
    with pytest.raises(ValueError, match=rf"POLY1 line 3: .*variable {re.escape(var)} is not allowed"):
        _read(text)


def test_packed_reader_rejects_two_orderings_of_one_monomial():
    text = "POLY1 field=Q terms=2\n1 | r[1;1,1]^1 r[2;1,2]^1\n2 | r[2;1,2]^1 r[1;1,1]^1\n"
    with pytest.raises(ValueError, match="POLY1 line 3: duplicate monomial"):
        _read(text)


@pytest.mark.parametrize("coeff", ["0", "0*a^0;1*a^0"])
def test_poly1_rejects_a_zero_coefficient(coeff):
    field = "Qa" if ";" in coeff else "Q"
    text = f"POLY1 field={field} terms=2\n1{'*a^0;1*a^0' if field == 'Qa' else ''} | " \
        f"r[1;1,1]^1\n{coeff} | r[1;2,2]^1\n"
    with pytest.raises(ValueError, match=r"POLY1 line 3: cannot parse .*\(zero coefficient"):
        _read(text)
