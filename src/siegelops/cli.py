"""Command-line interface: operator generation, application, and verification.

Subcommands: opgen, apply, theta, form, bracket, slope, verify.  Each one
registers only the options its code reads, with their defaults, so the
parsed arguments are the run configuration; theta and slope have one
subcommand per action and verify one per check, each with the options of
that action or check alone.  opgen, apply and each verify check print the
settings they used as a '# config:' header ('-' for a check that reads none).

argparse is the one dispatch: each leaf parser binds its own function as
``fn``, which ``main`` calls.  A verify check binds ``cmd_verify`` as ``fn``
and its own ``check_*`` function as ``check``.  A check function refuses bad
input when it is called and returns its rows, each (name, passed[, detail]),
computed when the runner reaches them; ``cmd_verify`` prints the header,
each row as it is computed, and the failure count.  The parser binds only
functions of this module, which look each layer function up when they call
it, so a wrapper installed on a layer function later is the one called.

Identical configurations produce byte-identical outputs (all serializers
iterate in sorted order and all randomness is derived from the seed).  Exit
status is 0 when every check passed and 1 when any failed (the '# N
failure(s)' line of a verify check counts them); bad input (an unreadable
or malformed file, a bad or missing option value) prints an error to
stderr and exits 2.  A command whose stdout is closed before it is done
(`| head`) stops with status 141, a shell's status for a writer stopped by
SIGPIPE, and prints nothing more.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction
from functools import cache

from . import brackets, opgen, slopes, theta
from .jets import operator_jet
from .qexp import DEFAULT_TRUNC, eval_jetpoly, qexp_from_text
from .scalars import RatFunc, frac_to_text
from .slopes import DivClass, make_class, render_table, slope as class_slope


def _rational(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} {text!r} is not a rational number") from None


def _truncation(text: str) -> int:
    """The --trunc value; argparse exits 2 on anything but an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return int(text)


def _tolerance(text: str) -> float:
    """A --tol-* value; argparse exits 2 on anything but a positive finite number."""
    try:
        if 0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")


def _weight(args):
    """The rational --weight gives, else (with --symbolic, or neither) the
    generator of Q(a)."""
    if args.weight is None:
        return opgen.symbolic_weight()
    return _rational(args.weight, "--weight")


def _weight_text(a) -> str:
    return "a (symbolic)" if isinstance(a, RatFunc) else frac_to_text(a)


def _div_class(text: str) -> DivClass:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--cls {text!r} is not LAMBDA,DELTA")
    return make_class(*(_rational(v, "--cls") for v in parts))


def _parse_tau(spec: str, g: int):
    """A g x g period matrix from 'diag:y1,y2' (pure imaginary diagonal) or a
    file of whitespace-separated 're,im' entries, one matrix row per line."""
    try:
        if spec.startswith("diag:"):
            ys = [float(v) for v in spec[5:].split(",")]
            rows = [[1j * y if i == j else 0j for j in range(len(ys))] for i, y in enumerate(ys)]
        else:
            with open(spec) as fh:
                rows = [[complex(float(re), float(im or 0))
                         for re, _, im in (tok.partition(",") for tok in line.split())]
                        for line in fh if line.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --tau {spec!r} ({exc})") from None
    if len(rows) != g or any(len(row) != g for row in rows):
        raise ValueError(f"--tau {spec!r} is not a {g} x {g} matrix, as genus {g} needs")
    return rows


def _parse_char(text: str):
    """The --char value: two strings of 0/1 digits joined by a comma, as '00,11'."""
    e, _, d = text.partition(",")
    if not all(v.isdecimal() for v in e.strip() + d.strip()):
        raise ValueError(f"--char {text!r} is not two strings of digits joined by a comma")
    return theta.char_from_text(text)


def _parse_z(text: str, g: int) -> list:
    """The --z value: g complex numbers joined by commas."""
    try:
        z = [complex(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--z {text!r} is not complex numbers joined by commas") from None
    if len(z) != g:
        raise ValueError(f"--z {text!r} has {len(z)} entries, expected {g}")
    return z


def _emit(pieces, out: str | None):
    """Write the text pieces in turn to the file out, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _status(name: str, ok: bool, detail: str = "") -> int:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    return 0 if ok else 1


def _report(rows) -> int:
    """Print each (name, passed[, detail]) row as it is computed: the number
    that failed."""
    return sum(_status(*row) for row in rows)


def _operator_checks(spec):
    """A built Q's rows: the coefficient identity and the second-order verifier."""
    g = spec.g
    yield f"harmonic-condition g={g}", opgen.verify_harmonic_condition(g, spec.a)
    yield f"pluriharmonic g={g}", opgen.verify_pluriharmonic(spec)


# -- subcommands -----------------------------------------------------------------


def cmd_opgen(args) -> int:
    a = _weight(args)
    spec = opgen.build_Q(args.genus, a)  # refuses a bad genus or weight before the header
    print(f"# config: genus={args.genus} weight={_weight_text(a)}")
    failures = _report(_operator_checks(spec))
    if args.oracle_x and (why := opgen._oracle_fault(args.genus, spec.k)):
        print(f"note: {why}; skipped")
    elif args.oracle_x:
        oracle = opgen.xspace_oracle(args.genus, spec.k, spec.Q)
        failures += _status("matrix-space oracle", oracle.is_zero())
    _emit(opgen._opspec_chunks(spec), args.out)
    if args.out:
        print(f"# wrote operator spec to {args.out}")
    return failures


def cmd_apply(args) -> int:
    # both files are read with their line ends as written
    with open(args.operator, newline="") as fh:
        spec = opgen.opspec_from_text(fh.read())
    with open(args.input, newline="") as fh:
        f = qexp_from_text(fh.read())
    if f.genus != spec.g:
        raise ValueError(f"operator genus {spec.g} vs input genus {f.genus}")
    if spec.symbolic:
        raise ValueError("apply needs an operator built at a numeric weight")
    if f.weight != spec.a:
        raise ValueError(f"operator weight a={spec.a} does not match the input "
                         f"weight {f.weight}")
    print(f"# config: genus={spec.g} weight={_weight_text(spec.a)} trunc={f.trunc}")
    result = eval_jetpoly(operator_jet(spec), {"F": f})
    print(f"# output weight: {frac_to_text(result.weight)}")
    if result.is_zero():
        print("# output is the zero expansion at this truncation")
    else:
        b_in = f.fj_order()
        order = result.fj_order()
        cls = slopes.class_operator_output(spec.g, make_class(spec.a, b_in))
        actual = DivClass(result.weight, order)
        print(f"# input boundary order: {frac_to_text(b_in)}")
        print(f"# output boundary order: {frac_to_text(order)} "
              f"(lower bound {frac_to_text(cls.delta)})")
        print(f"# output class: {actual}  slope: {frac_to_text(class_slope(actual))}"
              + ("" if actual.delta == cls.delta else "  [exceeds the generic bound]"))
    _emit([result.to_text()], args.out)
    return 0


def cmd_theta_qexp(args) -> int:
    c = _parse_char(args.char)
    f = theta.theta_qexp(c.g, c, args.trunc)
    _emit([f.to_text()], args.out)
    if not c.is_even():
        print("# identically zero (odd characteristic)")
    return 0


def cmd_theta_eval(args) -> int:
    c = _parse_char(args.char)
    tau = _parse_tau(args.tau, c.g)
    z = _parse_z(args.z, c.g) if args.z else None
    val = theta.theta_numeric(c.g, c, tau, z)
    print(f"{val.real!r} {val.imag!r}")
    return 0


# each named form: its genus (for schottky, the default of --genus) and a
# function of (genus, trunc) that makes it; each looks its layer function up
# when called, so a wrapper installed on that function afterwards is used
_FORMS = {
    "tnull": (2, lambda g, n: theta.tnull_qexp(n)),
    "tnull-sq": (2, lambda g, n: theta.tnull_qexp(n) ** 2),
    "schottky": (2, lambda g, n: theta.schottky_qexp(g, n)),
    "theta8sum": (2, lambda g, n: theta.theta_pow8_sum(n)),
    "eis4": (1, lambda g, n: brackets.eis1_qexp(4, n)),
    "eis6": (1, lambda g, n: brackets.eis1_qexp(6, n)),
    "delta": (1, lambda g, n: brackets.delta1_qexp(n)),
}


def cmd_form(args) -> int:
    if args.name not in _FORMS:
        raise ValueError(f"unknown form {args.name!r}")
    genus, make = _FORMS[args.name]
    if args.genus is not None and args.genus != genus and args.name != "schottky":
        raise ValueError(f"--genus {args.genus} disagrees with form {args.name!r} "
                         f"of genus {genus}")
    f = make(genus if args.genus is None else args.genus, args.trunc)
    _emit([f.to_text()], args.out)
    return 0


def cmd_bracket(args) -> int:
    with open(args.forms[0], newline="") as fh:
        f = qexp_from_text(fh.read())
    with open(args.forms[1], newline="") as fh:
        g_form = qexp_from_text(fh.read())
    if args.weights:
        f = f.with_weight(_rational(args.weights[0], "--weights"))
        g_form = g_form.with_weight(_rational(args.weights[1], "--weights"))
    result = brackets.scalar_bracket_q(f, g_form)
    print(f"# scalar bracket: weight {frac_to_text(result.weight)}")
    if not result.is_zero():
        print(f"# boundary order: {frac_to_text(result.fj_order())}")
    _emit([result.to_text()], args.out)
    return 0


def cmd_slope_table(args) -> int:
    sys.stdout.write(render_table())
    return 0


def cmd_slope_report(args) -> int:
    """The slope ledger: the table, the operator-output class behind each
    row, the hyperelliptic thresholds and the genus-4 curve-side pullback."""
    print(render_table())
    print("operator-derived classes:")
    for g, (base, _) in slopes.OPERATOR_BASES.items():
        out = slopes.class_operator_output(g, base)
        print(f"  g={g}: {base.label or base} -> {out}  "
              f"slope {class_slope(out)}  bound {slopes.moving_bound(g, base)}")
    print("\nhyperelliptic thresholds: "
          + ", ".join(f"g={g}: {slopes.hyperelliptic_bound(g)}" for g in (3, 4, 5, 6)))
    pb = slopes.torelli_pullback(slopes.class_operator_output(4, slopes.OPERATOR_BASES[4][0]))
    print(f"curve-side pullback at g=4: {pb.lam1}L1 - {pb.deltap}D'  "
          f"slope {pb.slope()}")
    return 0


def cmd_slope_class(args) -> int:
    g = args.genus
    if args.name == "tnull":
        c = slopes.class_tnull(g)
    elif args.name == "n0prime":
        c = slopes.class_N0prime(g)
    else:
        c = slopes.class_operator_output(g, slopes.class_tnull(g))
    print(f"{c}  slope {frac_to_text(class_slope(c))}")
    return 0


def cmd_slope_bound(args) -> int:
    """The moving-slope bound of --cls: the slope of the operator-output
    class, which --op also prints."""
    cls = _div_class(args.cls)
    bound = frac_to_text(slopes.moving_bound(args.genus, cls))
    print(f"{slopes.class_operator_output(args.genus, cls)}  slope {bound}"
          if args.op else bound)
    return 0


def cmd_slope_hyperelliptic(args) -> int:
    print(frac_to_text(slopes.hyperelliptic_bound(args.genus)))
    return 0


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


# each --form of verify modularity and a function that makes it, looking its
# layer function up when called
_MODULARITY_FORMS = {
    "T2SQ": lambda: theta.form_tnull(2),
    "D25T2": lambda: theta.form_operator_tnull(5),
}


def _setting(args, dest: str) -> str:
    """One 'name=value' of a verify header: the value the check uses."""
    value = getattr(args, dest)
    if dest == "weight":
        return f"weight={_weight_text(_weight(args))}"
    if dest == "form":
        return f"form={value or ','.join(_MODULARITY_FORMS)}"
    if isinstance(value, float):  # repr reads back to the tolerance used
        return f"{dest.replace('_', '-')}={value!r}"
    return f"{dest}={'-' if value is None else value}"


def cmd_verify(args) -> int:
    rows = args.check(args)  # a refused input is refused here, before the header
    print(f"# config: {' '.join(_setting(args, dest) for dest in args.settings) or '-'}")
    failures = _report(rows)
    print(f"# {failures} failure(s)")
    return failures


# -- verify checks: each takes the parsed arguments, checks its input at once
# and returns its rows, each computed when it is reached -------------------------


def check_pluriharmonic(args):
    return _operator_checks(opgen.build_Q(args.genus, _weight(args)))


def check_suite(args):
    """The pluriharmonicity sweep: the coefficient identity for genus 2..6
    and the second-order verifier for genus 2..4, all in Q(a); the verifier
    at genus 5 at two weights; the matrix-space oracle at the small genus-2
    weights; and the factor-1 normalization, which must fail."""
    a = opgen.symbolic_weight()
    for g in range(2, 7):
        yield (f"coefficient condition, genus {g} (symbolic)",
               opgen.verify_harmonic_condition(g, a))
    for g in (2, 3, 4):
        yield (f"second-order verifier, genus {g} (symbolic)",
               opgen.verify_pluriharmonic(opgen.build_Q(g, a)))
    for w in (3, 108):
        yield (f"second-order verifier, genus 5, weight {w}",
               opgen.verify_pluriharmonic(opgen.build_Q(5, Fraction(w))))
    for w in (1, 2):
        yield (f"matrix-space oracle, genus 2, weight {w}",
               opgen.xspace_oracle(2, 2 * w, opgen.build_Q(2, Fraction(w)).Q).is_zero())
    yield ("mis-normalized control fails (factor 1)",
           not opgen.verify_pluriharmonic(opgen.build_Q(2, a), second_order_factor=1))


def check_heat(args):
    rng = random.Random(args.seed)
    for g in (1, 2):
        for i in range(5):
            tau = _random_tau(rng, g)
            z = _random_z(rng, g)
            chars = theta.even_chars(g)
            c = chars[rng.randrange(len(chars))]
            rep = theta.check_heat(g, c, tau, z, args.tol_heat)
            yield (f"heat g={g} point {i + 1}", rep.max_residual < args.tol_heat,
                   f"residual {rep.max_residual:.2e}")


def check_modularity(args):
    import numpy as np
    rng = random.Random(args.seed)
    gammas = [("J", theta.gamma_J(2)),
              ("T_B", theta.gamma_translation(np.array([[1, 1], [1, 0]]))),
              ("U", theta.gamma_gl(np.array([[1, 1], [0, 1]])))]
    for name in [args.form] if args.form else _MODULARITY_FORMS:
        form = _MODULARITY_FORMS[name]()
        for i in range(3):
            tau = _random_tau(rng, 2)
            for gname, gam in gammas:
                rep = theta.check_modularity(form, gam, tau, args.tol_modularity)
                yield (f"modularity {name} {gname} point {i + 1}",
                       not rep.inconclusive and rep.rel_err < args.tol_modularity,
                       f"rel {rep.rel_err:.2e}")


def _gradient_row(text: str, tau, tol_zero: float):
    name = f"gradient determinant at {text}"
    try:
        rep = theta.check_condition_star(tau, tol_zero)
    except theta.OffLocus as exc:
        return name, False, str(exc)
    return name, abs(rep.det_value) > 1e-6, f"|det| {abs(rep.det_value):.2e}"


def check_cond(args):
    taus = [(t, _parse_tau(t, 2)) for t in ([args.tau] if args.tau
                                            else ["diag:1.1,1.7", "diag:0.9,1.45"])]
    for _, tau in taus:  # each tau checked as the lattice sums check it
        theta._check_tau(theta._as_matrix(tau))
    return (_gradient_row(text, tau, args.tol_zero) for text, tau in taus)


def check_schottky_vanishing(args):
    for g in (2, 1):
        yield (f"genus-{g} vanishing at trunc {args.trunc}",
               theta.schottky_qexp(g, args.trunc).is_zero())


def check_input_lift(args):
    lift = theta.tnull_qexp(args.trunc)
    product = theta.tnull_product(args.trunc)
    print(f"# lift: {len(lift.terms)} terms; ten-theta product: "
          f"{len(product.terms)} terms")
    # the product's gamma = 4 slice is the Jacobi form the lift lifts
    first = product.fj_slice(Fraction(1, 2))
    yield (f"first Fourier-Jacobi coefficient is -64 eta^9 theta at trunc {args.trunc}",
           first == theta.minus_64_eta9_theta(args.trunc), f"{len(first)} terms")
    yield f"ten-theta product equals the lift at trunc {args.trunc}", product == lift


def check_table(args):
    for row in slopes.known_slopes_table():
        got = (row.eff.render(), row.mov.render())
        yield f"table row g={row.genus}", got == EXPECTED_TABLE[row.genus], f"{got}"


@cache  # parse_args leaves the parser as it was; in-process callers build it once
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="siegelops")
    sub = p.add_subparsers(dest="command", required=True)

    def weight_options(sp, required: bool):
        group = sp.add_mutually_exclusive_group(required=required)
        group.add_argument("--symbolic", action="store_true")
        group.add_argument("--weight")

    def trunc_option(sp):
        sp.add_argument("--trunc", type=_truncation, default=DEFAULT_TRUNC)

    def actions(sp, dest: str = "action", metavar: str = "ACTION"):
        """The adder of sp's subcommands: action(name, help_text, fn) adds one
        that fn handles and returns its parser."""
        group = sp.add_subparsers(dest=dest, required=True, metavar=metavar)

        def action(name: str, help_text: str, fn, **defaults):
            ap = group.add_parser(name, help=help_text)
            ap.set_defaults(fn=fn, **defaults)
            return ap
        return action

    sp = sub.add_parser("opgen", help="build the operator polynomial and verify it")
    sp.add_argument("--genus", type=int, required=True)
    weight_options(sp, required=True)
    sp.add_argument("--oracle-x", dest="oracle_x", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_opgen)

    sp = sub.add_parser("apply", help="apply a built operator to an expansion")
    sp.add_argument("--operator", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_apply)

    action = actions(sub.add_parser("theta", help="theta-constant expansions and values"))
    ap = action("qexp", "the exact expansion of a theta constant", cmd_theta_qexp)
    ap.add_argument("--char", required=True)  # its genus is the expansion's
    trunc_option(ap)
    ap.add_argument("--out")
    ap = action("eval", "the value of a theta function at a point", cmd_theta_eval)
    ap.add_argument("--char", required=True)
    ap.add_argument("--tau", required=True)
    ap.add_argument("--z")

    sp = sub.add_parser("form", help="write a named form as an SMF1 expansion")
    sp.add_argument("--name", required=True)
    sp.add_argument("--genus", type=int)  # defaults to the genus of the named form
    trunc_option(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_form)

    sp = sub.add_parser("bracket", help="scalar bracket of two expansions")
    sp.add_argument("--scalar", dest="forms", nargs=2, required=True,
                    metavar=("F.smf", "G.smf"))
    sp.add_argument("--weights", nargs=2)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_bracket)

    action = actions(sub.add_parser(
        "slope", help="divisor classes, slopes, the table and the report"))
    action("table", "the effective and moving slope table for genus 1..6", cmd_slope_table)
    action("report", "the table with the classes and thresholds behind it", cmd_slope_report)
    ap = action("class", "a named divisor class and its slope", cmd_slope_class)
    ap.add_argument("--name", choices=["tnull", "n0prime", "operator-tnull"], required=True)
    ap.add_argument("--genus", type=int, default=2)
    ap = action("bound", "the moving-slope bound from a boundary-vanishing class",
                cmd_slope_bound)
    ap.add_argument("--genus", type=int, default=2)
    ap.add_argument("--cls", required=True, metavar="LAMBDA,DELTA")
    ap.add_argument("--op", action="store_true")  # also print the operator-output class
    ap = action("hyperelliptic", "the hyperelliptic slope threshold 8 + 4/g",
                cmd_slope_hyperelliptic)
    ap.add_argument("--genus", type=int, required=True)

    action = actions(sub.add_parser("verify", help="run a named verification suite"),
                     "what", "CHECK")

    def check(name: str, help_text: str, fn, *settings):
        """The subparser of check fn, which cmd_verify runs; settings are the
        options it reads."""
        return action(name, help_text, cmd_verify, check=fn, settings=settings)

    cp = check("pluriharmonic", "the coefficient identity and the second-order verifier "
               "(Q(a) by default)", check_pluriharmonic, "genus", "weight")
    cp.add_argument("--genus", type=int, default=2)
    weight_options(cp, required=False)
    check("suite", "the whole pluriharmonicity sweep", check_suite)
    cp = check("heat", "theta heat equation at seeded points", check_heat, "seed", "tol_heat")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--tol-heat", dest="tol_heat", type=_tolerance, default=theta.TOL_HEAT)
    cp = check("modularity", "transformation laws at seeded points", check_modularity,
               "form", "seed", "tol_modularity")
    cp.add_argument("--form", choices=_MODULARITY_FORMS)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--tol-modularity", dest="tol_modularity", type=_tolerance,
                    default=theta.TOL_MODULARITY)
    cp = check("cond", "the gradient determinant on the theta-null locus", check_cond,
               "tau", "tol_zero")
    cp.add_argument("--tau")
    cp.add_argument("--tol-zero", dest="tol_zero", type=_tolerance, default=theta.TOL_ZERO)
    trunc_option(check("schottky-vanishing", "the degree-16 vanishing identity",
                       check_schottky_vanishing, "trunc"))
    trunc_option(check("input-lift", "the ten-theta product against its lift, "
                       "the form tnull writes", check_input_lift, "trunc"))
    check("table", "the slope table against its expected rows", check_table)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        failed = args.fn(args)
        sys.stdout.flush()
        return 1 if failed else 0
    except BrokenPipeError:  # stdout's reader left early, as `| head` does
        try:  # so that the interpreter's flush at exit writes to nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # stdout has no descriptor
            pass
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
