"""The benchmark's span recorder must still install on the expansion classes.

perfbench/spans.py wraps ``cls.__dict__[name]`` on each class it traces, so a
method that a class inherits without binding it in its own body breaks traced
runs.  This runs the recorder in a fresh interpreter, because installing it
rewraps the library for the rest of the process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
from fractions import Fraction
import spans
from siegelops.qexp import QExp1, QExp2

rec = spans.Recorder()
spans.install(rec)
f1 = QExp1({0: Fraction(1), 8: Fraction(2)}, Fraction(0), 16)
f2 = QExp2({(0, 0, 0): Fraction(1), (8, 0, 8): Fraction(3)}, Fraction(0), 16)
assert (f1 * f1 + f1).terms == {0: 2, 8: 6, 16: 4}
assert (f2 * f2 + f2).terms == {(0, 0, 0): 2, (8, 0, 8): 9}
print(" ".join(sorted({s[0] for s in rec.spans})))
"""


def test_span_recorder_wraps_both_expansion_classes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", PROGRAM], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = set(done.stdout.split())
    for cls in ("QExp1", "QExp2"):
        assert {f"qexp.{cls}.__mul__", f"qexp.{cls}.__add__"} <= names
