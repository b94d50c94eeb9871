"""Seeded one-character mutation fuzz of the file readers.

Every reader accepts exactly what its writer writes: a file with one
character deleted, inserted or replaced is either rejected with a
ValueError that names a line, or it loads to an object whose writer
returns the edited text byte for byte.
"""

import random
import re
from fractions import Fraction

import pytest

from siegelops.brackets import eis1_qexp
from siegelops.opgen import build_Q, opspec_from_text, opspec_to_text, symbolic_weight
from siegelops.qexp import qexp_from_text
from siegelops.theta import tnull_qexp

EXTRA = "\r\t 0123456789+-/.^;*|,=_ax\n"


def _edits(text: str, count: int, seed: int):
    """count seeded one-character edits of text: a deletion, an insertion
    or a replacement at a random offset, with characters drawn from text
    and from EXTRA."""
    rng = random.Random(seed)
    alphabet = sorted(set(text) | set(EXTRA))
    for _ in range(count):
        pos = rng.randrange(len(text) + 1)
        kind = rng.choice(("delete", "insert", "replace")) if pos < len(text) else "insert"
        char = rng.choice(alphabet)
        if kind == "delete":
            yield text[:pos] + text[pos + 1:]
        elif kind == "insert":
            yield text[:pos] + char + text[pos:]
        else:
            yield text[:pos] + char + text[pos + 1:]


def _check(read, write, fmt: str, text: str, count: int, seed: int) -> list:
    """The fuzz property over count edits of text; returns the edited texts
    that loaded."""
    named = re.compile(rf"{fmt} line \d+: ")
    loaded = []
    for edited in _edits(text, count, seed):
        try:
            obj = read(edited)
        except ValueError as exc:
            assert named.match(str(exc)), (edited, exc)
            continue
        assert write(obj) == edited, edited
        loaded.append(edited)
    return loaded


@pytest.mark.parametrize("a", [Fraction(5), symbolic_weight()], ids=["Q", "Qa"])
def test_opspec_one_character_edits(a):
    """An operator file is a function of its genus and weight, and at
    genus 2 a change to either changes a later line; so only the edits
    that leave the text as it was (a character replaced by itself) load."""
    text = opspec_to_text(build_Q(2, a))
    loaded = _check(opspec_from_text, opspec_to_text, "OPSPEC1", text, 2000, seed=17)
    assert set(loaded) <= {text}


@pytest.mark.parametrize("make", [
    lambda: eis1_qexp(4, 24).scale_coeff(Fraction(1, 240)), lambda: tnull_qexp(16),
    lambda: tnull_qexp(16).scale_coeff(Fraction(-2, 3)).with_character(False)],
    ids=["genus1", "genus2", "genus2-fractions"])
def test_smf1_one_character_edits(make):
    text = make().to_text()
    _check(qexp_from_text, lambda f: f.to_text(), "SMF1", text, 3000, seed=23)

