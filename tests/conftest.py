import pytest

from siegelops.opgen import build_Q, symbolic_weight
from siegelops.poly import PackedPoly, _cleared, _packing
from siegelops.theta import tnull_qexp

MAX_EXP = 14  # the largest exponent of a packed variable (a nibble holds 15)


def encode(mono, g):
    """The packed genus-g key of the monomial mono, the inverse of
    poly._Packing.decode."""
    unit = _packing(g).unit
    key = 0
    for v, e in mono:
        if v not in unit or not 0 < e <= MAX_EXP:
            raise ValueError(f"factor {v}^{e} is not a genus-{g} variable to a power up to "
                             f"{MAX_EXP}")
        key += e * unit[v]
    return key


def packed(p, g):
    """The canonical genus-g PackedPoly of the MultiPoly p."""
    return PackedPoly(g, *_cleared({encode(m, g): c for m, c in p.terms.items()}))


def symbol_count(p, name):
    """The least multiplicity of a symbol (derived occurrences included)
    over the monomials of the JetPoly p; 0 for the zero jet."""
    if not p.terms:
        return 0
    return min(sum(1 for v in m if v[0] == name) for m in p.terms)


@pytest.fixture(scope="session")
def t2_48():
    return tnull_qexp(48)


@pytest.fixture(scope="session")
def spec2_symbolic():
    return build_Q(2, symbolic_weight())


@pytest.fixture(scope="session")
def spec3_symbolic():
    return build_Q(3, symbolic_weight())


@pytest.fixture(scope="session")
def spec4_symbolic():
    return build_Q(4, symbolic_weight())
