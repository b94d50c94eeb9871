"""The benchmark's workloads: seeded inputs and the checked jobs of one pass.

Each workload is a list of jobs run back to back in one fresh interpreter.
A job does its computation, checks the exact result, and returns the list
of (check name, passed) pairs; the time of a job includes its checks.  Each
job belongs to a part of its workload, whose time a traced run reports on
its own (``<part>_s``) so that a change to a small part is not diluted by a
large one:

  operator-proof    proof_symbolic = the Q(a) proof (g <= 4), jets, oracle,
                                     g=4 I/O
                    proof_g5       = genus 5 at a numeric weight: build,
                                     verify, I/O
  genus2-pipeline   pipeline       = every truncation
  theta-identities  numeric        = heat, modularity and condition checks
                    exact          = degree-16 vanishing and the bracket

Jobs call the library through module attributes (``opgen.build_Q``), never
through names bound at import time, so the span recorder sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction

from siegelops import brackets, cli, jets, opgen, poly, qexp, scalars, slopes, theta

WORKLOADS = ("operator-proof", "genus2-pipeline", "theta-identities")

# Sizes no algorithm change can alter: a later change may not shrink a genus
# or a truncation unnoticed.
Q_TERMS = {2: 7, 3: 108, 4: 2822, 5: 111275}
PIPELINE_TERMS = {48: 117, 80: 547, 120: 1843, 160: 4342, 200: 8444}
SCHOTTKY_TRUNCS = (48, 64, 80)
SCHOTTKY_GENUS1_TRUNC = 400
BRACKET_TRUNC = 1600

PARTS = ("proof_symbolic", "proof_g5", "pipeline", "exact", "numeric")

# the repository's stated tolerances (tests/test_acceptance.py)
TOL_MODULARITY = 1e-8
TOL_HEAT = 1e-10
TOL_COND = 1e-6


# -- seeded inputs (made by run.py; a pass receives only these) ---------------


def _c(z: complex) -> list:
    return [z.real, z.imag]


def _tau2(rng: random.Random, ylo: float, yhi: float, x12: float) -> list:
    y3 = rng.uniform(-0.2, 0.2)
    return [[_c(complex(rng.uniform(-0.3, 0.3), rng.uniform(ylo, yhi))), _c(complex(x12, y3))],
            [_c(complex(x12, y3)), _c(complex(rng.uniform(-0.3, 0.3), rng.uniform(ylo, yhi)))]]


def make_inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one workload, as JSON-ready data.

    Ranges follow the acceptance tests, where every check holds at its
    stated tolerance.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "operator-proof":
        return {"g5_weight": str(Fraction(rng.randint(5, 16), 2)),
                "oracle_weight": rng.choice((1, 2))}
    if workload == "genus2-pipeline":
        return {"trunc_ladder": sorted(PIPELINE_TERMS), "weight": 5}
    if workload == "theta-identities":
        heat = []
        for g in (1, 2):
            nchars = len(theta.even_chars(g))
            for _ in range(10):
                if g == 1:
                    tau = [[_c(complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.8)))]]
                    z = [_c(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)))]
                else:
                    tau = _tau2(rng, 1.0, 1.8, 0.1)
                    z = [_c(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15)))
                         for _ in range(2)]
                heat.append({"g": g, "tau": tau, "z": z, "char": rng.randrange(nchars)})
        modularity = [_tau2(rng, 1.2, 1.9, 0.08) for _ in range(5)]
        # Diagonal period matrices lie on the theta-null locus.  The gradient
        # determinant decays like exp(-c (Im tau11 + Im tau22)); below 1.45
        # it stays over ten times the absolute 1e-6 threshold of the check.
        cond = [[[_c(complex(rng.uniform(-0.35, 0.35), rng.uniform(0.9, 1.45))), [0.0, 0.0]],
                 [[0.0, 0.0], _c(complex(rng.uniform(-0.35, 0.35), rng.uniform(0.9, 1.45)))]]
                for _ in range(4)]
        return {"heat": heat, "modularity": modularity, "cond": cond}
    raise ValueError(f"unknown workload {workload!r}")


def _matrix(rows) -> list:
    return [[complex(re, im) for re, im in row] for row in rows]


# -- jobs ------------------------------------------------------------------------


class Job:
    def __init__(self, name: str, part: str, fn, *args):
        self.name, self.part, self.fn, self.args = name, part, fn, args

    def run(self, ctx: dict) -> list:
        return self.fn(ctx, *self.args)


def _all_F(g: int) -> dict:
    return {h: "F" for h in range(1, g + 1)}


def _cli(argv: list) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(v) for v in argv])
    return rc, buf.getvalue()


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


# operator-proof --------------------------------------------------------------


def job_harmonic_condition(ctx):
    a = opgen.symbolic_weight()
    return [(f"harmonic condition g={g}", opgen.verify_harmonic_condition(g, a))
            for g in range(2, 7)]


def job_symbolic_proof(ctx):
    checks = []
    for g in (2, 3, 4):
        spec = opgen.build_Q(g, opgen.symbolic_weight())
        ctx.setdefault("spec", {})[g] = spec
        checks.append((f"Q terms g={g}", len(spec.Q.terms) == Q_TERMS[g]))
        checks.append((f"pluriharmonic g={g} in Q(a)", opgen.verify_pluriharmonic(spec)))
    checks.append(("factor-1 control fails in Q(a)",
                   not opgen.verify_pluriharmonic(ctx["spec"][2], second_order_factor=1)))
    return checks


def job_jet_identities(ctx):
    checks = []
    for g in (2, 3, 4):
        fact = math.factorial(g)
        direct = jets.jet_apply(poly.coeff_R(g, (1,) * g), _all_F(g), g)
        checks.append((f"g! det identity g={g}",
                       direct == jets.jet_det_partial("F", g).scale(Fraction(fact))))
        restricted = jets.jet_mod_symbol(jets.jet_apply(ctx["spec"][g].Q, _all_F(g), g), "F")
        checks.append((f"mod-F restriction g={g}",
                       restricted == jets.jet_det_partial("F", g, "Qa").scale(
                           scalars.RatFunc(fact))))
        for n in poly.index_set_N(g):
            if any(v not in (0, 1) for v in sorted(n, reverse=True)[1:]):
                continue
            checks.append((f"Laplace cross-check g={g} n={n}",
                           jets.diffresult_expand(g, n)
                           == jets.jet_apply(poly.coeff_R(g, n), _all_F(g), g)))
    return checks


def job_oracle(ctx, a: int):
    spec = opgen.build_Q(2, Fraction(a))
    return [
        (f"x-space oracle exact zero a={a}", opgen.xspace_oracle(2, 2 * a, spec.Q).is_zero()),
        (f"pluriharmonic g=2 a={a}", opgen.verify_pluriharmonic(spec)),
        (f"factor-1 control fails a={a}",
         not opgen.verify_pluriharmonic(spec, second_order_factor=1)),
    ]


def _opspec_round_trip(spec, path: str, byte_identical: bool) -> list:
    _write(path, opgen.opspec_to_text(spec))
    text = _read(path)
    back = opgen.opspec_from_text(text)
    checks = [(f"OPSPEC1 g={spec.g} reads back",
               (back.g, back.a, back.coeffs) == (spec.g, spec.a, spec.coeffs)
               and back.Q == spec.Q)]
    if byte_identical:
        checks.append((f"OPSPEC1 g={spec.g} byte-identical",
                       opgen.opspec_to_text(back) == text))
    os.remove(path)
    return checks


def job_opspec_g4(ctx):
    return _opspec_round_trip(ctx["spec"][4], os.path.join(ctx["workdir"], "q4a.opspec"),
                              byte_identical=True)


def job_g5_build(ctx, a: str):
    spec = opgen.build_Q(5, Fraction(a))
    ctx["spec5"] = spec
    return [("Q terms g=5", len(spec.Q.terms) == Q_TERMS[5])]


def job_g5_verify(ctx):
    return [("pluriharmonic g=5", opgen.verify_pluriharmonic(ctx["spec5"]))]


def job_g5_io(ctx):
    return _opspec_round_trip(ctx["spec5"], os.path.join(ctx["workdir"], "q5.opspec"),
                              byte_identical=False)


# genus2-pipeline ---------------------------------------------------------------


def job_pipeline_rung(ctx, trunc: int, weight: int):
    """form tnull -> opgen -> apply at one truncation, as the README runs it."""
    wd = ctx["workdir"]
    t_path, q_path, o_path = (os.path.join(wd, f"{s}{trunc}") for s in ("t.smf", "q.opspec", "o.smf"))
    checks = []
    rc, _ = _cli(["form", "--name", "tnull", "--trunc", trunc, "--out", t_path])
    t_text = _read(t_path)
    t2 = qexp.qexp_from_text(t_text)
    checks.append((f"form N={trunc}", rc == 0 and t2.weight == weight
                   and t2.fj_order() == Fraction(1, 2)))
    checks.append((f"SMF1 input N={trunc} byte-identical", t2.to_text() == t_text))
    rc, _ = _cli(["opgen", "--genus", 2, "--weight", weight, "--out", q_path])
    q_text = _read(q_path)
    checks.append((f"opgen N={trunc}", rc == 0))
    checks.append((f"OPSPEC1 N={trunc} byte-identical",
                   opgen.opspec_to_text(opgen.opspec_from_text(q_text)) == q_text))
    rc, report = _cli(["apply", "--operator", q_path, "--input", t_path, "--out", o_path])
    o_text = _read(o_path)
    out = qexp.qexp_from_text(o_text)
    order = out.fj_order()
    cls = slopes.DivClass(out.weight, order)
    checks.append((f"apply N={trunc}", rc == 0
                   and "# output class: 12L - 1D  slope: 12" in report))
    checks.append((f"output N={trunc} weight 12, order 1, class 12L - 1D, slope 12",
                   out.weight == 12 and order == 1 and (cls.lam, cls.delta) == (12, 1)
                   and slopes.slope(cls) == 12))
    checks.append((f"output N={trunc} terms", len(out.terms) == PIPELINE_TERMS[trunc]))
    checks.append((f"SMF1 output N={trunc} byte-identical", out.to_text() == o_text))
    prev = ctx.get("prev_output")
    if prev is not None:
        window = {k: v for k, v in out.terms.items() if k[0] + k[2] <= prev.trunc}
        checks.append((f"N={trunc} restricts to N={prev.trunc}", window == prev.terms))
    ctx["prev_output"] = out
    for path in (t_path, q_path, o_path):
        os.remove(path)
    return checks


# theta-identities --------------------------------------------------------------


def job_schottky(ctx, g: int, trunc: int):
    checks = [(f"degree-16 vanishing g={g} N={trunc}", theta.schottky_qexp(g, trunc).is_zero())]
    if g == 2 and trunc == SCHOTTKY_TRUNCS[0]:
        checks += [(f"odd theta constant {c} vanishes", theta.theta_qexp(2, c, trunc).is_zero())
                   for c in theta.odd_chars(2)]
    return checks


def job_bracket(ctx, trunc: int):
    e4, e6 = brackets.eis1_qexp(4, trunc), brackets.eis1_qexp(6, trunc)
    br = brackets.scalar_bracket_q(e4, e6)
    delta = brackets.delta1_qexp(trunc)
    return [(f"{{E4, E6}} = 3456 Delta at N={trunc}",
             br.weight == 12 == delta.weight and len(delta.terms) == trunc // 8
             and br.terms == {k: 3456 * v for k, v in delta.terms.items()})]


def _residual(ctx, value: float, tol: float):
    ctx["residual_ratio"] = max(ctx.get("residual_ratio", 0.0), value / tol)


def job_heat(ctx, points: list):
    checks = []
    for i, p in enumerate(points):
        g = p["g"]
        char = theta.even_chars(g)[p["char"]]
        z = [complex(re, im) for re, im in p["z"]]
        rep = theta.check_heat(g, char, _matrix(p["tau"]), z, TOL_HEAT)
        _residual(ctx, rep.max_residual, TOL_HEAT)
        checks.append((f"heat g={g} point {i}", rep.max_residual < TOL_HEAT))
    return checks


def job_modularity(ctx, taus: list):
    import numpy as np
    gammas = [("J", theta.gamma_J(2)),
              ("T_B", theta.gamma_translation(np.array([[1, 1], [1, 0]]))),
              ("U", theta.gamma_gl(np.array([[1, 1], [0, 1]])))]
    checks = []
    for form in (theta.form_tnull(2), theta.form_operator_tnull(5)):
        for i, tau in enumerate(taus):
            for gname, gamma in gammas:
                rep = theta.check_modularity(form, gamma, _matrix(tau), TOL_MODULARITY)
                ok = not rep.inconclusive and rep.rel_err < TOL_MODULARITY
                if not rep.inconclusive:
                    _residual(ctx, rep.rel_err, TOL_MODULARITY)
                checks.append((f"modularity {form.label} {gname} point {i}", ok))
    return checks


def job_condition(ctx, taus: list):
    checks = []
    for i, tau in enumerate(taus):
        rep = theta.check_condition_star(_matrix(tau), theta.TOL_ZERO)
        checks.append((f"gradient determinant point {i}", abs(rep.det_value) > TOL_COND))
    return checks


def jobs(workload: str, inputs: dict) -> list[Job]:
    if workload == "operator-proof":
        return [
            Job("harmonic condition g=2..6", "proof_symbolic", job_harmonic_condition),
            Job("build and verify Q(a) g=2,3,4", "proof_symbolic", job_symbolic_proof),
            Job("jet identities g<=4", "proof_symbolic", job_jet_identities),
            Job("x-space oracle g=2", "proof_symbolic", job_oracle, inputs["oracle_weight"]),
            Job("OPSPEC1 round trip g=4", "proof_symbolic", job_opspec_g4),
            Job("build Q g=5", "proof_g5", job_g5_build, inputs["g5_weight"]),
            Job("verify Q g=5", "proof_g5", job_g5_verify),
            Job("OPSPEC1 write and read g=5", "proof_g5", job_g5_io),
        ]
    if workload == "genus2-pipeline":
        return [Job(f"pipeline N={n}", "pipeline", job_pipeline_rung, n, inputs["weight"])
                for n in inputs["trunc_ladder"]]
    if workload == "theta-identities":
        return ([Job("heat equation", "numeric", job_heat, inputs["heat"]),
                 Job("modularity", "numeric", job_modularity, inputs["modularity"]),
                 Job("gradient determinant", "numeric", job_condition, inputs["cond"])]
                + [Job(f"degree-16 vanishing g=2 N={n}", "exact", job_schottky, 2, n)
                   for n in SCHOTTKY_TRUNCS]
                + [Job("degree-16 vanishing g=1", "exact", job_schottky, 1,
                       SCHOTTKY_GENUS1_TRUNC),
                   Job("bracket {E4, E6}", "exact", job_bracket, BRACKET_TRUNC)])
    raise ValueError(f"unknown workload {workload!r}")
