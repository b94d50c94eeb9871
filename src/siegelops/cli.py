"""Command-line interface: operator generation, application, and verification.

Subcommands: opgen, apply, theta, form, bracket, slope, verify.  Every run
prints its effective configuration header; identical configurations produce
byte-identical outputs (all serializers iterate in sorted order and all
randomness is derived from the seed).  Exit status is the number of failed
checks (0 = everything passed); bad input (an unreadable or malformed
file, a bad option value) prints 'error: ...' to stderr and exits 2.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import brackets, opgen, slopes, theta
from .jets import jet_apply
from .qexp import eval_jetpoly, qexp_from_text
from .scalars import frac_to_text
from .slopes import DivClass, make_class, render_table, slope as class_slope

DEFAULTS = {
    "trunc": 48,
    "seed": 0,
    "tol_modularity": theta.TOL_MODULARITY,
    "tol_heat": theta.TOL_HEAT,
    "tol_zero": theta.TOL_ZERO,
}


@dataclass
class RunConfig:
    genus: int = 2
    symbolic: bool = False
    weight: Fraction | None = None
    trunc: int = DEFAULTS["trunc"]
    seed: int = DEFAULTS["seed"]
    tol_modularity: float = DEFAULTS["tol_modularity"]
    tol_heat: float = DEFAULTS["tol_heat"]
    tol_zero: float = DEFAULTS["tol_zero"]
    out: str | None = None

    def header(self) -> str:
        wt = "a (symbolic)" if self.symbolic else (
            frac_to_text(self.weight) if self.weight is not None else "-")
        return (f"# config: genus={self.genus} weight={wt} trunc={self.trunc} "
                f"seed={self.seed} tol-modularity={self.tol_modularity:g} "
                f"tol-heat={self.tol_heat:g} tol-zero={self.tol_zero:g}")


def _config(args) -> RunConfig:
    cfg = RunConfig()
    for name in ("genus", "trunc", "seed", "tol_modularity", "tol_heat",
                 "tol_zero", "out"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "symbolic", False):
        cfg.symbolic = True
    elif getattr(args, "weight", None) is not None:
        cfg.weight = _rational(args.weight, "--weight")
    return cfg


def _rational(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} {text!r} is not a rational number") from None


def _parse_tau(spec: str):
    """A period matrix from 'diag:y1,y2' (pure imaginary diagonal) or a file
    of whitespace-separated 're,im' entries, one matrix row per line."""
    try:
        if spec.startswith("diag:"):
            ys = [float(v) for v in spec[5:].split(",")]
            return [[(1j * ys[i] if i == j else 0j) for j in range(len(ys))]
                    for i in range(len(ys))]
        rows = []
        with open(spec) as fh:
            for line in fh:
                if not line.strip():
                    continue
                row = []
                for tok in line.split():
                    re, _, im = tok.partition(",")
                    row.append(complex(float(re), float(im or 0)))
                rows.append(row)
        return rows
    except ValueError as exc:
        raise ValueError(f"bad --tau {spec!r} ({exc})") from None


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status(name: str, ok: bool, detail: str = "") -> int:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    return 0 if ok else 1


# -- subcommands -----------------------------------------------------------------


def cmd_opgen(args) -> int:
    cfg = _config(args)
    print(cfg.header())
    a = opgen.symbolic_weight() if cfg.symbolic else cfg.weight
    if a is None:
        print("error: give --symbolic or --weight A", file=sys.stderr)
        return 2
    spec = opgen.build_Q(cfg.genus, a)
    failures = 0
    failures += _status(f"harmonic-condition g={cfg.genus}",
                        opgen.verify_harmonic_condition(cfg.genus, a)) != 0
    failures += _status(f"pluriharmonic g={cfg.genus}",
                        opgen.verify_pluriharmonic(spec)) != 0
    if args.oracle_x:
        if cfg.symbolic:
            print("note: the substitution oracle needs a numeric weight; skipped")
        else:
            k = 2 * cfg.weight
            if k.denominator != 1 or int(k) % 2:
                print("note: the substitution oracle needs an even integer 2a; skipped")
            else:
                failures += _status(
                    "matrix-space oracle",
                    opgen.xspace_oracle(cfg.genus, int(k), spec.Q).is_zero()) != 0
    text = opgen.opspec_to_text(spec)
    if cfg.out:
        _emit(text, cfg.out)
        print(f"# wrote operator spec to {cfg.out}")
    else:
        sys.stdout.write(text)
    return failures


def cmd_apply(args) -> int:
    cfg = _config(args)
    print(cfg.header())
    with open(args.operator) as fh:
        spec = opgen.opspec_from_text(fh.read())
    with open(args.input) as fh:
        f = qexp_from_text(fh.read())
    if f.genus != spec.g:
        print(f"error: operator genus {spec.g} vs input genus {f.genus}",
              file=sys.stderr)
        return 2
    if spec.symbolic:
        print("error: apply needs an operator built at a numeric weight",
              file=sys.stderr)
        return 2
    if f.weight != spec.a:
        print(f"error: operator weight a={spec.a} does not match the input "
              f"weight {f.weight}", file=sys.stderr)
        return 2
    jet = jet_apply(spec.Q, {h: "F" for h in range(1, spec.g + 1)}, spec.g)
    result = eval_jetpoly(jet, {"F": f}).scale_coeff(Fraction(1, math.factorial(spec.g)))
    print(f"# output weight: {frac_to_text(result.weight)}")
    if result.is_zero():
        print("# output is the zero expansion at this truncation")
    else:
        b_in = f.fj_order()
        order = result.fj_order()
        cls = DivClass(spec.g * spec.a + 2, spec.g * b_in, delta_lower_bound=True)
        actual = DivClass(result.weight, order)
        print(f"# input boundary order: {frac_to_text(b_in)}")
        print(f"# output boundary order: {frac_to_text(order)} "
              f"(lower bound {frac_to_text(spec.g * b_in)})")
        print(f"# output class: {actual}  slope: {frac_to_text(class_slope(actual))}"
              + ("" if actual.delta == cls.delta else "  [exceeds the generic bound]"))
    _emit(result.to_text(), cfg.out)
    return 0


def cmd_theta(args) -> int:
    cfg = _config(args)
    if args.action == "qexp":
        c = theta.char_from_text(args.char, args.genus)
        f = theta.theta_qexp(args.genus, c, cfg.trunc)
        _emit(f.to_text(), cfg.out)
        if f.label:
            print(f"# {f.label}")
        return 0
    if args.action == "eval":
        if args.tau is None:
            print("error: theta eval needs --tau", file=sys.stderr)
            return 2
        c = theta.char_from_text(args.char)
        tau = _parse_tau(args.tau)
        z = [complex(v) for v in (args.z.split(",") if args.z else [])] or None
        val = theta.theta_numeric(c.g, c, tau, z)
        print(f"{val.real!r} {val.imag!r}")
        return 0
    print("error: unknown theta action", file=sys.stderr)
    return 2


def cmd_form(args) -> int:
    cfg = _config(args)
    name = args.name
    if name == "tnull":
        f = theta.tnull_qexp(cfg.trunc)
    elif name == "tnull-sq":
        t = theta.tnull_qexp(cfg.trunc)
        f = t * t
    elif name == "schottky":
        f = theta.schottky_qexp(args.genus or 2, cfg.trunc)
    elif name == "theta8sum":
        f = theta.theta_pow8_sum(cfg.trunc)
    elif name in ("eis4", "eis6"):
        f = brackets.eis1_qexp(4 if name == "eis4" else 6, cfg.trunc)
    elif name == "delta":
        f = brackets.delta1_qexp(cfg.trunc)
    else:
        print(f"error: unknown form {name!r}", file=sys.stderr)
        return 2
    _emit(f.to_text(), cfg.out)
    return 0


def cmd_bracket(args) -> int:
    cfg = _config(args)
    with open(args.forms[0]) as fh:
        f = qexp_from_text(fh.read())
    with open(args.forms[1]) as fh:
        g_form = qexp_from_text(fh.read())
    if args.weights:
        f = f.with_weight(_rational(args.weights[0], "--weights"))
        g_form = g_form.with_weight(_rational(args.weights[1], "--weights"))
    result = brackets.scalar_bracket_q(f, g_form)
    print(f"# scalar bracket: weight {frac_to_text(result.weight)}")
    if not result.is_zero():
        print(f"# boundary order: {frac_to_text(result.fj_order())}")
    _emit(result.to_text(), cfg.out)
    return 0


def cmd_slope(args) -> int:
    if args.action == "table":
        sys.stdout.write(render_table())
        return 0
    if args.action == "class":
        g = args.genus
        if args.name == "tnull":
            c = slopes.class_tnull(g)
        elif args.name == "n0prime":
            c = slopes.class_N0prime(g)
        elif args.name == "operator-tnull":
            c = slopes.class_operator_output(g, slopes.class_tnull(g))
        else:
            print(f"error: unknown class {args.name!r}", file=sys.stderr)
            return 2
        s = class_slope(c)
        print(f"{c}  slope {frac_to_text(s) if s != slopes.INF else 'infinite'}")
        return 0
    if args.action == "bound":
        g = args.genus
        if args.hyperelliptic:
            print(frac_to_text(slopes.hyperelliptic_bound(g)))
            return 0
        lam, delta = (Fraction(v) for v in args.cls.split(","))
        c = make_class(lam, delta)
        if args.op:
            # slope of the flagged operator-output class; coincides with the
            # moving bound exactly when the order lower bound is attained
            out = slopes.class_operator_output(g, c)
            print(f"{out}  slope {frac_to_text(class_slope(out))}")
            return 0
        print(frac_to_text(slopes.moving_bound(g, c)))
        return 0
    print("error: unknown slope action", file=sys.stderr)
    return 2


EXPECTED_TABLE = {
    1: ("12", ""),
    2: ("10", "12"),
    3: ("9", "28/3"),
    4: ("8", "17/2"),
    5: ("54/7", "<= 271/35"),
    6: ("[53/10, 7]", "(?) <= 43/6"),
}


def _random_tau(rng: random.Random, g: int):
    if g == 1:
        return [[complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.8))]]
    y1, y2 = rng.uniform(0.9, 1.8), rng.uniform(0.9, 1.8)
    y3 = rng.uniform(-0.25, 0.25)
    x1, x2, x3 = (rng.uniform(-0.4, 0.4) for _ in range(3))
    return [[complex(x1, y1), complex(x3, y3)], [complex(x3, y3), complex(x2, y2)]]


def _random_z(rng: random.Random, g: int):
    return [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)) for _ in range(g)]


def cmd_verify(args) -> int:
    cfg = _config(args)
    print(cfg.header())
    rng = random.Random(cfg.seed)
    failures = 0
    what = args.what

    if what == "pluriharmonic":
        a = opgen.symbolic_weight() if cfg.symbolic or cfg.weight is None else cfg.weight
        spec = opgen.build_Q(cfg.genus, a)
        failures += _status(f"harmonic-condition g={cfg.genus}",
                            opgen.verify_harmonic_condition(cfg.genus, a)) != 0
        failures += _status(f"pluriharmonic g={cfg.genus}",
                            opgen.verify_pluriharmonic(spec)) != 0

    elif what == "heat":
        for g in (1, 2):
            for i in range(5):
                tau = _random_tau(rng, g)
                z = _random_z(rng, g)
                chars = theta.even_chars(g)
                c = chars[rng.randrange(len(chars))]
                rep = theta.check_heat(g, c, tau, z, cfg.tol_heat)
                failures += _status(f"heat g={g} point {i + 1}",
                                    rep.max_residual < cfg.tol_heat,
                                    f"residual {rep.max_residual:.2e}") != 0

    elif what == "modularity":
        forms = {"T2SQ": theta.form_tnull(2), "D25T2": theta.form_operator_tnull(5)}
        wanted = [args.form] if args.form else list(forms)
        import numpy as np
        gammas = [("J", theta.gamma_J(2)),
                  ("T_B", theta.gamma_translation(np.array([[1, 1], [1, 0]]))),
                  ("U", theta.gamma_gl(np.array([[1, 1], [0, 1]])))]
        for name in wanted:
            form = forms[name]
            for i in range(3):
                tau = _random_tau(rng, 2)
                for gname, gam in gammas:
                    rep = theta.check_modularity(form, gam, tau, cfg.tol_modularity)
                    ok = (not rep.inconclusive) and rep.rel_err < cfg.tol_modularity
                    failures += _status(f"modularity {name} {gname} point {i + 1}",
                                        ok, f"rel {rep.rel_err:.2e}") != 0

    elif what == "cond":
        taus = [args.tau] if args.tau else ["diag:1.1,1.7", "diag:0.9,1.45"]
        for spec_txt in taus:
            tau = _parse_tau(spec_txt)
            try:
                rep = theta.check_condition_star(tau, cfg.tol_zero)
            except ValueError as exc:
                failures += _status(f"gradient determinant at {spec_txt}", False,
                                    str(exc)) != 0
                continue
            failures += _status(f"gradient determinant at {spec_txt}",
                                abs(rep.det_value) > 1e-6,
                                f"|det| {abs(rep.det_value):.2e}") != 0

    elif what == "schottky-vanishing":
        failures += _status(f"genus-2 vanishing at trunc {cfg.trunc}",
                            theta.schottky_qexp(2, cfg.trunc).is_zero()) != 0
        failures += _status(f"genus-1 vanishing at trunc {cfg.trunc}",
                            theta.schottky_qexp(1, cfg.trunc).is_zero()) != 0

    elif what == "table":
        for row in slopes.known_slopes_table():
            want = EXPECTED_TABLE[row.genus]
            got = (row.eff.render(), row.mov.render())
            failures += _status(f"table row g={row.genus}", got == want,
                                f"{got}") != 0

    else:
        print(f"error: unknown verification {what!r}", file=sys.stderr)
        return 2
    print(f"# {failures} failure(s)")
    return failures


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="siegelops")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--trunc", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--tol-modularity", dest="tol_modularity", type=float)
        sp.add_argument("--tol-heat", dest="tol_heat", type=float)
        sp.add_argument("--tol-zero", dest="tol_zero", type=float)
        sp.add_argument("--out")

    sp = sub.add_parser("opgen", help="build the operator polynomial and verify it")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--symbolic", action="store_true")
    sp.add_argument("--weight")
    sp.add_argument("--oracle-x", dest="oracle_x", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_opgen)

    sp = sub.add_parser("apply", help="apply a built operator to an expansion")
    sp.add_argument("--operator", required=True)
    sp.add_argument("--input", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_apply)

    sp = sub.add_parser("theta", help="theta-constant expansions and values")
    sp.add_argument("action", choices=["qexp", "eval"])
    sp.add_argument("--genus", type=int, default=2)
    sp.add_argument("--char", required=True)
    sp.add_argument("--tau")
    sp.add_argument("--z")
    common(sp)
    sp.set_defaults(fn=cmd_theta)

    sp = sub.add_parser("form", help="write a named form as an SMF1 expansion")
    sp.add_argument("--name", required=True)
    sp.add_argument("--genus", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_form)

    sp = sub.add_parser("bracket", help="scalar bracket of two expansions")
    sp.add_argument("--scalar", dest="forms", nargs=2, required=True,
                    metavar=("F.smf", "G.smf"))
    sp.add_argument("--weights", nargs=2)
    common(sp)
    sp.set_defaults(fn=cmd_bracket)

    sp = sub.add_parser("slope", help="divisor classes, slopes, and the table")
    sp.add_argument("action", choices=["table", "class", "bound"])
    sp.add_argument("--name")
    sp.add_argument("--genus", type=int, default=2)
    sp.add_argument("--cls")
    sp.add_argument("--op", action="store_true")
    sp.add_argument("--hyperelliptic", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_slope)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("what", choices=["pluriharmonic", "heat", "modularity",
                                     "cond", "schottky-vanishing", "table"])
    sp.add_argument("--genus", type=int)
    sp.add_argument("--symbolic", action="store_true")
    sp.add_argument("--weight")
    sp.add_argument("--form", choices=["T2SQ", "D25T2"])
    sp.add_argument("--tau")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
