"""The benchmark's span recorder must still find the spans its metrics read.

perfbench/spans.py wraps ``cls.__dict__[name]`` on each class it traces, so a
method that a class inherits without binding it in its own body breaks traced
runs, as does a method removed from its class; and it sums self time by
function name, so a renamed theta or opgen entry point would silently zero a
per-layer metric.  Each test runs the recorder in a
fresh interpreter, because installing it rewraps the library for the rest of
the process.
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
f1 = QExp1({(0,): Fraction(1), (8,): Fraction(2)}, Fraction(0), 16)
f2 = QExp2({(0, 0, 0): Fraction(1), (8, 0, 8): Fraction(3)}, Fraction(0), 16)
assert (f1 * f1 + f1).terms == {(0,): 2, (8,): 6, (16,): 4}
assert (f2 * f2 + f2).terms == {(0, 0, 0): 2, (8, 0, 8): 9}
print(" ".join(sorted({s[0] for s in rec.spans})))
"""


def _span_names(program: str) -> set:
    """The span names a program prints after installing the recorder."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", program], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_span_recorder_wraps_both_expansion_classes():
    names = _span_names(PROGRAM)
    for cls in ("QExp1", "QExp2"):
        assert {f"qexp.{cls}.__mul__", f"qexp.{cls}.__add__"} <= names


THETA_PROGRAM = """
import spans
from siegelops import theta

rec = spans.Recorder()
spans.install(rec)
tau = [[0.2 + 1.7j, 0.1 + 0.08j], [0.1 + 0.08j, -0.1 + 1.9j]]
c = theta.ThetaChar((0, 0), (0, 0))
theta.theta_numeric(2, c, tau)
assert theta.check_heat(2, c, tau, [0.1, 0.2]).max_residual < theta.TOL_HEAT
assert theta.check_modularity(theta.form_tnull(2), theta.gamma_J(2), tau).rel_err < 1e-8
print(" ".join(sorted({s[0] for s in rec.spans})))
"""


def test_span_recorder_wraps_the_theta_numerics():
    """perfbench/spans.py reads these three span names for its theta metrics."""
    names = _span_names(THETA_PROGRAM)
    assert {"theta.theta_numeric", "theta.check_heat", "theta.check_modularity"} <= names


OPGEN_PROGRAM = """
from fractions import Fraction
import spans
from siegelops import opgen

missing = [f"{cls.__name__}.{name}" for cls, names in spans.METHODS.items()
           for name in names if name not in cls.__dict__]
assert not missing, f"spans.METHODS names methods the classes do not bind: {missing}"
rec = spans.Recorder()
spans.install(rec)
spec = opgen.build_Q(2, Fraction(5))
assert opgen.verify_harmonic_condition(2, Fraction(5))
assert opgen.opspec_from_text(opgen.opspec_to_text(spec)).Q == spec.Q
print(" ".join(sorted({s[0] for s in rec.spans})))
"""


def test_span_recorder_wraps_the_operator_layer():
    """Every METHODS entry is bound in its class's own body (install indexes
    cls.__dict__, so MultiPoly.t_coefficient, say, must stay), and the
    operator spans the opgen metrics read are recorded."""
    names = _span_names(OPGEN_PROGRAM)
    assert {"opgen.build_Q", "opgen.verify_harmonic_condition", "opgen.opspec_to_text",
            "opgen.opspec_from_text"} <= names


COUNTER_PROGRAM = """
import spans
from siegelops import theta

rec = spans.Recorder()
spans.install(rec)
f = theta.tnull_qexp(24)
g = f.q_diff(1, 2)
before = dict(rec.counts)
h = f * g
grew = {k: rec.counts[k] - before.get(k, 0) for k in ("qexp.mul.terms_out", "qexp.mul.pair_ops")}
pairs = sum(1 for a in f.terms for b in g.terms if a[0] + a[2] + b[0] + b[2] <= 24)
assert len(h.terms) > 0 and pairs > 0
assert grew == {"qexp.mul.terms_out": len(h.terms), "qexp.mul.pair_ops": pairs}, grew
print("qexp.QExp2.__mul__" if "qexp.QExp2.__mul__" in {s[0] for s in rec.spans} else "")
"""


def test_span_recorder_counts_products_from_the_terms_view():
    """perfbench/spans.py counts qexp.mul.terms_out and qexp.mul.pair_ops
    from the public terms view of a traced QExp2 product; both must equal
    the counts made here from that view."""
    assert "qexp.QExp2.__mul__" in _span_names(COUNTER_PROGRAM)
