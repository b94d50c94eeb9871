"""End-to-end tests of the command-line interface and its file formats."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction

from siegelops.cli import main
from siegelops.qexp import qexp_from_text


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_opgen_symbolic_passes(capsys):
    code, out = run_cli(["opgen", "--genus", "2", "--symbolic"], capsys)
    assert code == 0
    assert "PASS  harmonic-condition g=2" in out
    assert "PASS  pluriharmonic g=2" in out
    assert "OPSPEC1" in out


def test_opgen_numeric_with_oracle(tmp_path, capsys):
    out_file = tmp_path / "q21.opspec"
    code, out = run_cli(["opgen", "--genus", "2", "--weight", "1",
                         "--oracle-x", "--out", str(out_file)], capsys)
    assert code == 0
    assert "PASS  matrix-space oracle" in out
    assert out_file.read_text().startswith("OPSPEC1")


def test_apply_pipeline(tmp_path, capsys):
    op_file = tmp_path / "q25.opspec"
    t2_file = tmp_path / "t2.smf"
    out_file = tmp_path / "d.smf"
    assert run_cli(["opgen", "--genus", "2", "--weight", "5",
                    "--out", str(op_file)], capsys)[0] == 0
    assert run_cli(["form", "--name", "tnull", "--trunc", "24",
                    "--out", str(t2_file)], capsys)[0] == 0
    code, out = run_cli(["apply", "--operator", str(op_file),
                         "--input", str(t2_file), "--out", str(out_file)], capsys)
    assert code == 0
    assert "# output weight: 12" in out
    assert "# output boundary order: 1 (lower bound 1)" in out
    assert "slope: 12" in out
    result = qexp_from_text(out_file.read_text())
    assert result.weight == 12 and result.fj_order() == 1


def test_apply_rejects_weight_mismatch(tmp_path, capsys):
    op_file = tmp_path / "q23.opspec"
    t2_file = tmp_path / "t2.smf"
    run_cli(["opgen", "--genus", "2", "--weight", "3", "--out", str(op_file)], capsys)
    run_cli(["form", "--name", "tnull", "--trunc", "16", "--out", str(t2_file)], capsys)
    code, _ = run_cli(["apply", "--operator", str(op_file),
                       "--input", str(t2_file)], capsys)
    assert code == 2


def test_theta_qexp_command(tmp_path, capsys):
    out_file = tmp_path / "theta.smf"
    code, _ = run_cli(["theta", "qexp", "--genus", "2", "--char", "00,11",
                       "--trunc", "16", "--out", str(out_file)], capsys)
    assert code == 0
    f = qexp_from_text(out_file.read_text())
    assert f.terms[(0, 0, 0)] == 1 and f.terms[(4, 0, 0)] == -2


def test_theta_qexp_odd_characteristic_is_noted(capsys):
    for genus, char in ((1, "1,1"), (2, "11,01")):
        code, out = run_cli(["theta", "qexp", "--genus", str(genus), "--char", char,
                             "--trunc", "16"], capsys)
        assert code == 0
        assert out.endswith("terms 0\n# identically zero (odd characteristic)\n")


def test_theta_eval_command(capsys):
    code, out = run_cli(["theta", "eval", "--char", "0,0", "--tau", "diag:1.0"],
                        capsys)
    assert code == 0
    val = float(out.split()[-2])
    import math
    assert abs(val - math.pi ** 0.25 / math.gamma(0.75)) < 1e-10


def test_bracket_command(tmp_path, capsys):
    e4, e6 = tmp_path / "e4.smf", tmp_path / "e6.smf"
    run_cli(["form", "--name", "eis4", "--trunc", "80", "--out", str(e4)], capsys)
    run_cli(["form", "--name", "eis6", "--trunc", "80", "--out", str(e6)], capsys)
    out_file = tmp_path / "br.smf"
    code, out = run_cli(["bracket", "--scalar", str(e4), str(e6),
                         "--out", str(out_file)], capsys)
    assert code == 0
    br = qexp_from_text(out_file.read_text())
    assert br.weight == 12
    assert br.coefficient(1) == 3456


def test_slope_commands(capsys):
    code, out = run_cli(["slope", "table"], capsys)
    assert code == 0 and "(?) <= 43/6" in out
    code, out = run_cli(["slope", "class", "--name", "tnull", "--genus", "3"], capsys)
    assert code == 0 and "18L - 2D" in out and "slope 9" in out
    code, out = run_cli(["slope", "bound", "--genus", "5",
                         "--cls", "108,14"], capsys)
    assert code == 0 and out.strip().endswith("271/35")
    code, out = run_cli(["slope", "bound", "--hyperelliptic", "--genus", "3"], capsys)
    assert code == 0 and out.strip().endswith("28/3")


def test_verify_table_and_exit_codes(capsys):
    code, out = run_cli(["verify", "table"], capsys)
    assert code == 0
    assert out.count("PASS") == 6
    assert "# 0 failure(s)" in out


def test_verify_schottky(capsys):
    code, out = run_cli(["verify", "schottky-vanishing", "--trunc", "32"], capsys)
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_cond_default_points(capsys):
    code, out = run_cli(["verify", "cond"], capsys)
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_modularity_single_form(capsys):
    code, out = run_cli(["verify", "modularity", "--form", "D25T2"], capsys)
    assert code == 0
    assert out.count("PASS") == 9  # 3 points x 3 generators


def test_slope_bound_op_class(capsys):
    code, out = run_cli(["slope", "bound", "--op", "--genus", "4",
                         "--cls", "8,1"], capsys)
    assert code == 0
    assert "34L - 4D" in out and "17/2" in out


def test_byte_determinism(tmp_path, capsys):
    """Identical configurations produce identical output bytes."""
    a, b = tmp_path / "a.opspec", tmp_path / "b.opspec"
    run_cli(["opgen", "--genus", "3", "--symbolic", "--out", str(a)], capsys)
    run_cli(["opgen", "--genus", "3", "--symbolic", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    f1, f2 = tmp_path / "f1.smf", tmp_path / "f2.smf"
    run_cli(["form", "--name", "theta8sum", "--trunc", "24", "--out", str(f1)], capsys)
    run_cli(["form", "--name", "theta8sum", "--trunc", "24", "--out", str(f2)], capsys)
    assert f1.read_bytes() == f2.read_bytes()


def test_config_header_reports_defaults(capsys):
    """Each verify check echoes the defaults of the settings it reads, and
    only those."""
    _, out = run_cli(["verify", "modularity", "--form", "T2SQ"], capsys)
    assert out.splitlines()[0] == "# config: form=T2SQ seed=0 tol-modularity=1e-08"
    _, out = run_cli(["verify", "schottky-vanishing", "--trunc", "8"], capsys)
    assert out.splitlines()[0] == "# config: trunc=8"
    _, out = run_cli(["verify", "table"], capsys)
    assert out.splitlines()[0] == "# config: -"
    assert build_parser().parse_args(["verify", "schottky-vanishing"]).trunc == 48
    args = build_parser().parse_args(["verify", "heat"])
    assert (args.seed, args.tol_heat) == (0, 1e-10)
    _, out = run_cli(["verify", "pluriharmonic", "--genus", "2"], capsys)
    assert out.splitlines()[0] == "# config: genus=2 weight=a (symbolic)"


def test_apply_zero_input_is_flagged(tmp_path, capsys):
    from siegelops.qexp import QExp2
    op_file = tmp_path / "q25.opspec"
    zero_file = tmp_path / "zero.smf"
    run_cli(["opgen", "--genus", "2", "--weight", "5", "--out", str(op_file)], capsys)
    zero_file.write_text(QExp2.zero(weight=Fraction(5), trunc=16).to_text())
    code, out = run_cli(["apply", "--operator", str(op_file),
                         "--input", str(zero_file)], capsys)
    assert code == 0
    assert "zero expansion" in out


def test_apply_output_is_pinned(tmp_path, capsys):
    """The README pipeline at N=120: the output SMF1 file, byte for byte."""
    op_file, t_file, out_file = (tmp_path / n for n in ("q.opspec", "t.smf", "o.smf"))
    run_cli(["opgen", "--genus", "2", "--weight", "5", "--out", str(op_file)], capsys)
    run_cli(["form", "--name", "tnull", "--trunc", "120", "--out", str(t_file)], capsys)
    code, _ = run_cli(["apply", "--operator", str(op_file), "--input", str(t_file),
                       "--out", str(out_file)], capsys)
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "5a0d88dadd2a73b7eb2dfcbcc983cffd7e19345bbfb77d80e20ed2227e476113")


def run_cli_error(args, capsys):
    code = main(args)
    return code, capsys.readouterr().err


def _pipeline_files(tmp_path, capsys):
    op_file, t_file = tmp_path / "q25.opspec", tmp_path / "t2.smf"
    run_cli(["opgen", "--genus", "2", "--weight", "5", "--out", str(op_file)], capsys)
    run_cli(["form", "--name", "tnull", "--trunc", "48", "--out", str(t_file)], capsys)
    return op_file, t_file


def test_apply_on_truncated_operator_is_a_clean_error(tmp_path, capsys):
    op_file, t_file = _pipeline_files(tmp_path, capsys)
    op_file.write_text("\n".join(op_file.read_text().splitlines()[:-1]) + "\n")
    code, err = run_cli_error(["apply", "--operator", str(op_file),
                               "--input", str(t_file)], capsys)
    assert code == 2
    assert err == "error: OPSPEC1 line 10: declares 7 terms, found 6\n"


def test_apply_on_truncated_input_is_a_clean_error(tmp_path, capsys):
    op_file, t_file = _pipeline_files(tmp_path, capsys)
    lines = t_file.read_text().splitlines()
    n = int(lines[7].split()[1])
    t_file.write_text("\n".join(lines[:-20]) + "\n")
    code, err = run_cli_error(["apply", "--operator", str(op_file),
                               "--input", str(t_file)], capsys)
    assert code == 2
    assert err == f"error: SMF1 line 8: declares {n} terms, found {n - 20}\n"


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    op_file, _ = _pipeline_files(tmp_path, capsys)
    missing = str(tmp_path / "missing.smf")
    code, err = run_cli_error(["apply", "--operator", str(op_file), "--input", missing],
                              capsys)
    assert code == 2
    assert err.startswith("error: ") and "missing.smf" in err


def test_bad_weight_is_a_clean_error(capsys):
    for bad in ("abc", "1/0"):
        code, err = run_cli_error(["opgen", "--genus", "2", "--weight", bad], capsys)
        assert code == 2
        assert err == f"error: --weight '{bad}' is not a rational number\n"


def test_bad_tau_is_a_clean_error(tmp_path, capsys):
    for argv in (["theta", "eval", "--char", "00,00", "--tau", "diag:abc"],
                 ["verify", "cond", "--tau", "diag:1.1,x"],
                 ["theta", "eval", "--char", "00,00", "--tau", str(tmp_path / "none")],
                 ["theta", "eval", "--char", "00,00"]):
        code, err = run_cli_error(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


def test_theta_eval_with_short_z_is_a_clean_error(capsys):
    code, err = run_cli_error(["theta", "eval", "--char", "00,00", "--tau", "diag:1.1,1.7",
                               "--z", "0.1"], capsys)
    assert code == 2
    assert err.startswith("error: z ") and "Traceback" not in err


def test_theta_genus_defaults_to_the_characteristic(capsys):
    code, out = run_cli(["theta", "qexp", "--char", "0,0", "--trunc", "16"], capsys)
    assert code == 0
    f = qexp_from_text(out)
    assert f.genus == 1 and f.terms == {(0,): 1, (4,): 2, (16,): 2}


def test_theta_eval_genus_must_match_the_characteristic(capsys):
    code, err = run_cli_error(["theta", "eval", "--genus", "5", "--char", "0,0",
                               "--tau", "diag:1.0"], capsys)
    assert code == 2
    assert err == "error: --genus 5 disagrees with --char '0,0' of genus 1\n"


def test_theta_qexp_genus_must_match_the_characteristic(capsys):
    code, err = run_cli_error(["theta", "qexp", "--genus", "1", "--char", "00,11",
                               "--trunc", "16"], capsys)
    assert code == 2
    assert err == "error: --genus 1 disagrees with --char '00,11' of genus 2\n"


def test_form_genus_defaults_to_the_named_form(capsys):
    for name, genus in (("eis4", 1), ("delta", 1), ("tnull", 2), ("schottky", 2)):
        code, out = run_cli(["form", "--name", name, "--trunc", "16"], capsys)
        assert code == 0 and qexp_from_text(out).genus == genus
    code, out = run_cli(["form", "--name", "eis4", "--genus", "1", "--trunc", "16"], capsys)
    assert code == 0 and qexp_from_text(out).genus == 1
    code, out = run_cli(["form", "--name", "schottky", "--genus", "1", "--trunc", "16"],
                        capsys)
    assert code == 0 and qexp_from_text(out).genus == 1


def test_form_genus_must_match_the_named_form(capsys):
    code, err = run_cli_error(["form", "--name", "eis4", "--genus", "2", "--trunc", "16"],
                              capsys)
    assert code == 2
    assert err == "error: --genus 2 disagrees with form 'eis4' of genus 1\n"
    code, err = run_cli_error(["form", "--name", "tnull", "--genus", "1", "--trunc", "16"],
                              capsys)
    assert code == 2
    assert err == "error: --genus 1 disagrees with form 'tnull' of genus 2\n"


def test_weight5_apply_makes_three_products(tmp_path, capsys, monkeypatch):
    """The weight-5 operator is -20/9 F F_{11,22} + 20/9 F F_{12,12}
    + 2 F_11 F_22 - 2 F_12 F_12; F multiplies the sum of its two cofactors
    once, so apply makes 3 expansion products, not 4."""
    from siegelops.qexp import QExp2
    op_file, t_file = tmp_path / "q25.opspec", tmp_path / "t2.smf"
    run_cli(["opgen", "--genus", "2", "--weight", "5", "--out", str(op_file)], capsys)
    run_cli(["form", "--name", "tnull", "--trunc", "48", "--out", str(t_file)], capsys)
    products = []
    mul = QExp2.__mul__

    def counted(f, g):
        products.append(1)
        return mul(f, g)

    monkeypatch.setattr(QExp2, "__mul__", counted)
    code, out = run_cli(["apply", "--operator", str(op_file), "--input", str(t_file)],
                        capsys)
    assert code == 0 and "slope: 12" in out
    assert len(products) == 3


# -- the option surface and the commands that replaced the experiment scripts --

import argparse
import shlex
from pathlib import Path

import pytest

from siegelops.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

OPTIONS = {
    "opgen": {"genus", "symbolic", "weight", "oracle-x", "out"},
    "apply": {"operator", "input", "out"},
    "theta": {"genus", "char", "tau", "z", "trunc", "out"},
    "form": {"name", "genus", "trunc", "out"},
    "bracket": {"scalar", "weights", "out"},
    "slope": {"name", "genus", "cls", "op", "hyperelliptic"},
    "verify": set(),  # each check of verify is a subcommand with its own options
}

VERIFY_OPTIONS = {
    "pluriharmonic": {"genus", "symbolic", "weight"},
    "suite": set(),
    "heat": {"seed", "tol-heat"},
    "modularity": {"form", "seed", "tol-modularity"},
    "cond": {"tau", "tol-zero"},
    "schottky-vanishing": {"trunc"},
    "table": set(),
}


def _subparsers(parser=None):
    action = next(a for a in (parser or build_parser())._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options(parsers) -> dict:
    return {name: {a.option_strings[-1][2:] for a in sp._actions
                   if a.option_strings and a.dest != "help"}
            for name, sp in parsers.items()}


def test_each_subcommand_takes_only_the_options_it_reads():
    found = _options(_subparsers())
    assert found == OPTIONS
    checks = _options(_subparsers(_subparsers()["verify"]))
    assert checks == VERIFY_OPTIONS
    assert sum(map(len, found.values())) + sum(map(len, checks.values())) == 37


@pytest.mark.parametrize("argv", [
    ["verify", "table", "--genus", "5", "--weight", "3"],
    ["verify", "suite", "--trunc", "80"],
    ["verify", "pluriharmonic", "--seed", "1"],
    ["verify", "schottky-vanishing", "--tau", "diag:1,1"],
    ["verify", "cond", "--trunc", "8"],
])
def test_verify_checks_reject_settings_they_do_not_read(argv, capsys):
    expect_usage_error(argv, capsys, "unrecognized arguments", argv[-2])


def expect_usage_error(argv, capsys, *words):
    """argv is rejected by the parser: exit status 2, and the message names
    every one of words."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert all(w in err for w in words), err


@pytest.mark.parametrize("argv", [
    ["opgen", "--genus", "2", "--weight", "1", "--seed", "1"],
    ["apply", "--operator", "q.opspec", "--input", "t.smf", "--trunc", "16"],
    ["slope", "table", "--out", "x"],
    ["bracket", "--scalar", "a.smf", "b.smf", "--tol-heat", "1"],
])
def test_removed_options_are_rejected(argv, capsys):
    expect_usage_error(argv, capsys, "unrecognized arguments", argv[-2])


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Every 'siegelops ...' line of the README's command block exits 0,
    run in order in one directory (later lines read earlier files)."""
    text = README.read_text()
    block = next(b for b in text.split("```")[1::2] if "siegelops opgen" in b)
    lines = [ln for ln in block.splitlines() if ln.startswith("siegelops ")]
    assert len(lines) >= 15
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


def test_slope_report_is_pinned(capsys):
    code, out = run_cli(["slope", "report"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8bd91a20f16a81442591ebedeafc3f0d56505c769f36ce7d798aad1c009fe517")


def test_verify_suite_runs_the_operator_sweep(capsys):
    code, out = run_cli(["verify", "suite"], capsys)
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("# config: genus=2 weight=- trunc=48 seed=0")
    assert lines[1:] == (
        [f"PASS  coefficient condition, genus {g} (symbolic)" for g in range(2, 7)]
        + [f"PASS  second-order verifier, genus {g} (symbolic)" for g in (2, 3, 4)]
        + [f"PASS  second-order verifier, genus 5, weight {w}" for w in (3, 108)]
        + [f"PASS  matrix-space oracle, genus 2, weight {w}" for w in (1, 2)]
        + ["PASS  mis-normalized control fails (factor 1)", "# 0 failure(s)"])


def test_opgen_and_apply_headers_show_what_they_read(tmp_path, capsys):
    op_file, t_file = tmp_path / "q.opspec", tmp_path / "t.smf"
    _, out = run_cli(["opgen", "--genus", "2", "--weight", "5", "--out", str(op_file)],
                     capsys)
    assert out.splitlines()[0] == "# config: genus=2 weight=5"
    _, out = run_cli(["opgen", "--genus", "2", "--symbolic"], capsys)
    assert out.splitlines()[0] == "# config: genus=2 weight=a (symbolic)"
    run_cli(["form", "--name", "tnull", "--trunc", "24", "--out", str(t_file)], capsys)
    _, out = run_cli(["apply", "--operator", str(op_file), "--input", str(t_file)], capsys)
    assert out.splitlines()[0] == "# config: genus=2 weight=5 trunc=24"


@pytest.mark.parametrize("argv", [
    ["slope", "bound", "--genus", "5"],
    ["slope", "bound", "--op", "--genus", "4"],
])
def test_slope_bound_without_cls_is_a_clean_error(argv, capsys):
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert err == "error: slope bound needs --cls LAMBDA,DELTA\n"


@pytest.mark.parametrize("cls", ["1", "1,2,3", "a,1"])
def test_slope_bound_with_a_bad_cls_names_it(cls, capsys):
    code, err = run_cli_error(["slope", "bound", "--genus", "5", "--cls", cls], capsys)
    assert code == 2
    assert err.startswith("error: --cls ") and "Traceback" not in err


def test_slope_class_without_name_is_a_clean_error(capsys):
    code, err = run_cli_error(["slope", "class", "--genus", "3"], capsys)
    assert code == 2
    assert err == "error: slope class needs --name\n"


@pytest.mark.parametrize("command", ["opgen", "verify"])
def test_symbolic_and_weight_are_exclusive(command, capsys):
    argv = ([command, "--genus", "2"] if command == "opgen"
            else [command, "pluriharmonic"]) + ["--symbolic", "--weight", "5"]
    expect_usage_error(argv, capsys, "--weight", "--symbolic")


def test_opgen_needs_a_weight(capsys):
    expect_usage_error(["opgen", "--genus", "2"], capsys, "--symbolic", "--weight")


@pytest.mark.parametrize("argv", [
    ["form", "--name", "tnull", "--trunc", "-5"],
    ["theta", "qexp", "--char", "00,00", "--trunc", "-1"],
    ["verify", "schottky-vanishing", "--trunc", "-8"],
    ["form", "--name", "eis4", "--trunc", "-8"],
    ["form", "--name", "eis4", "--trunc", "x"],
])
def test_negative_trunc_is_rejected(argv, capsys):
    expect_usage_error(argv, capsys, "--trunc", f"'{argv[-1]}' is not a nonnegative integer")


@pytest.mark.parametrize("tau,z,what", [
    ("diag:1", "nan", "z"), ("diag:1.1,1.7", "0.1,inf", "z"),
    ("diag:nan", None, "tau"), ("diag:1.1,inf", None, "tau"),
])
def test_theta_eval_rejects_non_finite_input(tau, z, what, capsys):
    char = "0,0" if tau == "diag:1" else "00,00"
    argv = ["theta", "eval", "--char", char, "--tau", tau] + (["--z", z] if z else [])
    code, err = run_cli_error(argv, capsys)
    assert (code, err) == (2, f"error: {what} has a non-finite entry\n")


@pytest.mark.parametrize("check,option", [
    ("heat", "--tol-heat"), ("modularity", "--tol-modularity"), ("cond", "--tol-zero"),
])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf", "x"])
def test_tolerances_must_be_positive_finite_numbers(check, option, value, capsys):
    expect_usage_error(["verify", check, f"{option}={value}"], capsys, option,
                       f"{value!r} is not a positive finite number")


@pytest.mark.parametrize("argv", [
    ["slope", "bound", "--genus", "0", "--cls", "12,1"],
    ["slope", "bound", "--op", "--genus", "0", "--cls", "12,1"],
    ["slope", "bound", "--genus", "-3", "--cls", "12,1"],
])
def test_slope_bound_below_genus_1_is_a_clean_error(argv, capsys):
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert err == f"error: genus must be >= 1, found {argv[-3]}\n"


def test_verify_pluriharmonic_at_weight_zero_is_a_clean_error(capsys):
    """--weight 0 is a weight, not a missing one: build_Q refuses it."""
    code, err = run_cli_error(["verify", "pluriharmonic", "--weight", "0"], capsys)
    assert code == 2
    assert err == "error: weight a=0 violates a >= g/2 = 1\n"


EXACT_PROGRAM = """
import contextlib, io, sys
import siegelops
from siegelops.cli import main

exact = [
    ["form", "--name", "tnull", "--trunc", "24", "--out", "t2.smf"],
    ["opgen", "--genus", "2", "--weight", "5", "--out", "q25.opspec"],
    ["apply", "--operator", "q25.opspec", "--input", "t2.smf", "--out", "d.smf"],
    ["form", "--name", "eis4", "--trunc", "40", "--out", "e4.smf"],
    ["form", "--name", "eis6", "--trunc", "40", "--out", "e6.smf"],
    ["bracket", "--scalar", "e4.smf", "e6.smf", "--out", "br.smf"],
    ["slope", "report"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in exact]
    exact_numpy = "numpy" in sys.modules
    codes.append(main(["theta", "eval", "--char", "0,0", "--tau", "diag:1.0"]))
print(codes, exact_numpy, "numpy" in sys.modules)
"""


def test_exact_commands_never_load_numpy(tmp_path):
    """import siegelops and the exact commands leave numpy unloaded; the
    first numeric call loads it (the control that the check can fail)."""
    src = str(README.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", EXACT_PROGRAM], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "[0, 0, 0, 0, 0, 0, 0, 0] False True"
