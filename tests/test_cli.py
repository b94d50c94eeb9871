"""End-to-end tests of the command-line interface and its file formats."""

import hashlib
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from siegelops.cli import main
from siegelops.qexp import qexp_from_text
from siegelops.scalars import frac_to_text
from siegelops.slopes import class_operator_output, make_class


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
    # the printed lower bound is the boundary coefficient of the output class
    b_in = qexp_from_text(t2_file.read_text()).fj_order()
    bound = class_operator_output(2, make_class(5, b_in)).delta
    assert f"(lower bound {frac_to_text(bound)})" in out


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
    code, _ = run_cli(["theta", "qexp", "--char", "00,11", "--trunc", "16",
                       "--out", str(out_file)], capsys)
    assert code == 0
    f = qexp_from_text(out_file.read_text())
    assert f.terms[(0, 0, 0)] == 1 and f.terms[(4, 0, 0)] == -2


def test_theta_qexp_odd_characteristic_is_noted(capsys):
    """Each odd characteristic gets the note after its empty block, and an
    even one does not."""
    from siegelops.theta import all_chars
    for c in all_chars(1) + all_chars(2):
        code, out = run_cli(["theta", "qexp", "--char", str(c), "--trunc", "16"], capsys)
        assert code == 0
        noted = out.endswith("terms 0\n# identically zero (odd characteristic)\n")
        assert noted == (not c.is_even()), str(c)


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
    code, out = run_cli(["slope", "hyperelliptic", "--genus", "3"], capsys)
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


def test_verify_input_lift(capsys):
    """The ten-theta product certifies the lift that form tnull writes."""
    code, out = run_cli(["verify", "input-lift", "--trunc", "200"], capsys)
    assert code == 0
    assert out.splitlines()[:2] == ["# config: trunc=200",
                                    "# lift: 8750 terms; ten-theta product: 8750 terms"]
    assert out.count("PASS") == 2 and "(238 terms)" in out and "# 0 failure(s)" in out


def test_verify_input_lift_fails_on_a_perturbed_theta_constant(capsys, monkeypatch):
    """Negative control: one coefficient of one theta constant changed before
    the product makes both comparisons fail.  The term q^(1/2) r^(1/2) s^(1/8)
    of theta[01,00] (coefficient 2, made 3) reaches the first Fourier-Jacobi
    coefficient."""
    from siegelops import theta
    from siegelops.qexp import QExp2
    exact = theta.theta_qexp
    target = theta.ThetaChar((0, 1), (0, 0))

    def perturbed(g, char, trunc=48):
        f = exact(g, char, trunc)
        if char != target:
            return f
        assert f.terms[4, 4, 1] == 2
        return f + QExp2({(4, 4, 1): 1}, f.weight, trunc)

    monkeypatch.setattr(theta, "theta_qexp", perturbed)
    code, out = run_cli(["verify", "input-lift", "--trunc", "48"], capsys)
    assert code == 2 and out.count("FAIL") == 2 and "# 2 failure(s)" in out


def test_verify_cond_default_points(capsys):
    code, out = run_cli(["verify", "cond"], capsys)
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_cond_off_the_locus_is_a_failed_check(tmp_path, capsys):
    """A well-formed point where no even theta constant vanishes is a FAIL
    line, not an input error."""
    tau_file = tmp_path / "tau.txt"
    tau_file.write_text("0.2,1.7 0.1,0.08\n0.1,0.08 -0.1,1.9\n")
    code, out = run_cli(["verify", "cond", "--tau", str(tau_file)], capsys)
    assert code == 1
    assert f"FAIL  gradient determinant at {tau_file}  (point is not on the theta-null " \
           "locus" in out


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
    """The README pipeline at N = 48, 120 and 200: the output SMF1 file, byte
    for byte."""
    op_file, t_file, out_file = (tmp_path / n for n in ("q.opspec", "t.smf", "o.smf"))
    run_cli(["opgen", "--genus", "2", "--weight", "5", "--out", str(op_file)], capsys)
    for trunc, digest in (
            (48, "405c5e47fda1a04f2d0fea4534f4c4dd6b22e0512d75b893c0b9a7468e1e0e8a"),
            (120, "5a0d88dadd2a73b7eb2dfcbcc983cffd7e19345bbfb77d80e20ed2227e476113"),
            (200, "4fc560c0d4059f034741cb1c8f5abd49c52669c4f3a25f0157d8c7085697ddca")):
        run_cli(["form", "--name", "tnull", "--trunc", str(trunc), "--out", str(t_file)],
                capsys)
        code, _ = run_cli(["apply", "--operator", str(op_file), "--input", str(t_file),
                           "--out", str(out_file)], capsys)
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest, trunc


def test_genus2_form_outputs_are_pinned(tmp_path, capsys):
    """form's genus-2 products, byte for byte: the theta-null product, its
    square and the degree-16 Schottky combination (zero at genus 2)."""
    out_file = tmp_path / "f.smf"
    for name, trunc, digest in (
            ("tnull", 200, "8e9e368bef4742fb6232856b7689f0d68ce983ea902ff4602a8f738d979c182e"),
            ("tnull-sq", 100, "2879a86b3b155d8089f68ca93893d64255c568916a94c357d7a23e6c01bc2e2f"),
            ("schottky", 80, "d93e86a9c9d8a98f86d076dfcac76bf24d91e3335c4f57397b23f87186e34de3")):
        code, _ = run_cli(["form", "--name", name, "--trunc", str(trunc),
                           "--out", str(out_file)], capsys)
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest, name


# sha256 of the stdout of 'theta qexp --char C --trunc 48' per characteristic
# C of genus 1 and 2; every odd genus-2 characteristic writes the same bytes
THETA_QEXP_DIGESTS = {
    "0,0": "0c63c4ad3065178eecf87975d21a70bba38d105d28552078439eff706f77c850",
    "0,1": "1d44485ff44ed6e756f265357cca62cf511fc6add513dd3df4deca865343ceaa",
    "1,0": "62ba40d86608ddeb2726a10029c9df4849d8e1fe4b6c41e2880612972084106a",
    "1,1": "38390a5b58f117121abc4d89958ba196ea1da63f384ae04cebb44314facfdf4e",
    "00,00": "413d2c4ed0ad87c4325afd5d5f85610f8518fc4fdeb0324a2ce1a110c73a9da8",
    "00,01": "329ecc7c49e0e9322aabc9b69757158d49f17da0fda25d011176531e6bc17c6e",
    "00,10": "28c6bde2b1ebd7562deb03ce237e7c446d10c5b4fdc71abe51dbb95a148ff3d8",
    "00,11": "9ab25d5b88a7c938bba1167d6786f4760290b3b9c07d021b52a6a235d31a87fc",
    "01,00": "d0cce46e36010a36ca211ec136829b763f6ed9589fe62b0661dfc30157cc0ebe",
    "01,10": "d888ea20e57d11c44ce3444ea524de9086031868f5b30e570be71b94a230c062",
    "10,00": "b5b34822ae899a20c6a47da3e43823acaf93ee0ebb8dfb0b7d7f433074ed68a3",
    "10,01": "fb90a5fc68e30b49d4fdb7eb1342473b4936a5da458e9b0cac0973924e1301d7",
    "11,00": "0fc0b573ff57cca5962bf56df7f8d0a8d06efc17e0277874a890c613e531b40b",
    "11,11": "d7ee6ec6b45d3b11b5349c4cca26fcb023ad02ae16a3cc0ea7e5c4d1e3f8ccee",
    **dict.fromkeys(("01,01", "01,11", "10,10", "10,11", "11,01", "11,10"),
                    "b96c27bb3af16e8ecd85d90a0bd7031bdfefc9bbaf0a4a9bf37f843af3d5032d"),
}


def test_theta_qexp_outputs_are_pinned(capsys):
    """theta qexp at trunc 48 for every characteristic of genus 1 and 2, byte
    for byte."""
    from siegelops.theta import all_chars
    chars = all_chars(1) + all_chars(2)
    assert sorted(map(str, chars)) == sorted(THETA_QEXP_DIGESTS)
    for c in chars:
        code, out = run_cli(["theta", "qexp", "--char", str(c), "--trunc", "48"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == THETA_QEXP_DIGESTS[str(c)], str(c)


def test_apply_scales_the_jet_before_evaluating_it(tmp_path, capsys):
    """apply evaluates the operator's jet divided by g!; that gives the bytes
    of the jet evaluated first and its output divided by g! after."""
    from siegelops.jets import jet_apply
    from siegelops.opgen import build_Q
    from siegelops.qexp import eval_jetpoly
    op_file, t_file = _pipeline_files(tmp_path, capsys)
    out_file = tmp_path / "o.smf"
    code, _ = run_cli(["apply", "--operator", str(op_file), "--input", str(t_file),
                       "--out", str(out_file)], capsys)
    assert code == 0
    jet = jet_apply(build_Q(2, 5).Q, {1: "F", 2: "F"}, 2)
    f = qexp_from_text(t_file.read_text())
    want = eval_jetpoly(jet, {"F": f}).scale_coeff(Fraction(1, 2))
    assert f.trunc == 48 and out_file.read_text() == want.to_text()


def test_a_genus_above_5_exits_2_before_a_build(capsys):
    for argv in (["opgen", "--genus", "7", "--weight", "4"],
                 ["verify", "pluriharmonic", "--genus", "9", "--weight", "5"]):
        assert run_cli_error(argv, capsys) == (2, "error: genus must be 2..5\n")


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
    assert err == ("error: OPSPEC1 line 17: expected '-10/9 | r[2;1,1]^1 r[2;2,2]^1', "
                   "found end of file\n")


def test_apply_on_a_corrupted_operator_is_a_clean_error(tmp_path, capsys):
    """A coefficient changed from 10/9 to 100/9 is an error at its line, and
    so are the line ends and spaces the writer does not write: the operator
    file is read with its line ends as written."""
    op_file, t_file = _pipeline_files(tmp_path, capsys)
    text = op_file.read_bytes()
    for bad, error in (
            (text.replace(b"10/9 | r[1;1,2]^2", b"100/9 | r[1;1,2]^2"),
             "line 11: expected '10/9 | r[1;1,2]^2', found '100/9 | r[1;1,2]^2'"),
            (text.replace(b"\n", b"\r\n"), "line 1: expected 'OPSPEC1', found 'OPSPEC1\\r'"),
            (text[:-1], "line 17: expected '-10/9 | r[2;1,1]^1 r[2;2,2]^1', "
                        "found '-10/9 | r[2;1,1]^1 r[2;2,2]^1' with no newline"),
            (text.replace(b"a 5", b"a\t5"), "line 4: expected 'a 5', found 'a\\t5'"),
            (text.replace(b"coeffs 3", b"coeffs 3 "),
             "line 6: expected 'coeffs 3', found 'coeffs 3 '")):
        op_file.write_bytes(bad)
        code, err = run_cli_error(["apply", "--operator", str(op_file),
                                   "--input", str(t_file)], capsys)
        assert (code, err) == (2, f"error: OPSPEC1 {error}\n")


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
                 ["verify", "cond", "--tau", "diag:1,2,3"],
                 ["verify", "cond", "--tau", "diag:-1,1"],
                 ["theta", "eval", "--char", "00,00", "--tau", str(tmp_path / "none")]):
        code, err = run_cli_error(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv,need", [
    (["verify", "cond", "--tau", "diag:1,2,3"], 2),
    (["theta", "eval", "--char", "00,00", "--tau", "diag:1"], 2),
    (["theta", "eval", "--char", "0,0", "--tau", "diag:1,2"], 1),
    (["theta", "eval", "--char", "00,00", "--tau", "diag:nan"], 2)])
def test_tau_of_the_wrong_size_names_the_option(argv, need, capsys):
    """The size is checked first: a 1-entry tau at genus 2 is the wrong size,
    also when its entry is not finite."""
    code, err = run_cli_error(argv, capsys)
    assert (code, err) == (2, f"error: --tau {argv[-1]!r} is not a {need} x {need} matrix, "
                              f"as genus {need} needs\n")


@pytest.mark.parametrize("argv", [
    ["theta", "eval", "--char", "00,00", "--tau", "diag:1e308,1e308"],
    ["theta", "eval", "--char", "0,0", "--tau", "diag:1e308"],
    ["verify", "cond", "--tau", "diag:1e308,1e308"],
])
def test_a_huge_tau_is_a_clean_error(argv, capsys):
    """A finite tau whose lattice sum overflows is refused: one error line
    naming tau, exit status 2, and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_cli_error(argv, capsys)
    assert (code, err) == (2, "error: tau is too large: its lattice sum is not finite\n")


def test_ragged_tau_file_names_the_option(tmp_path, capsys):
    path = tmp_path / "ragged.tau"
    path.write_text("1,1 0\n0 1,1 0\n")
    code, err = run_cli_error(["verify", "cond", "--tau", str(path)], capsys)
    assert (code, err) == (2, f"error: --tau {str(path)!r} is not a 2 x 2 matrix, "
                              "as genus 2 needs\n")


def test_theta_eval_with_short_z_is_a_clean_error(capsys):
    code, err = run_cli_error(["theta", "eval", "--char", "00,00", "--tau", "diag:1.1,1.7",
                               "--z", "0.1"], capsys)
    assert (code, err) == (2, "error: --z '0.1' has 1 entries, expected 2\n")


def test_theta_genus_defaults_to_the_characteristic(capsys):
    code, out = run_cli(["theta", "qexp", "--char", "0,0", "--trunc", "16"], capsys)
    assert code == 0
    f = qexp_from_text(out)
    assert f.genus == 1 and f.terms == {(0,): 1, (4,): 2, (16,): 2}


def test_theta_eval_genus_must_match_the_characteristic(capsys):
    """The genus of theta eval is the genus of --char; --genus is not an option."""
    expect_usage_error(["theta", "eval", "--genus", "5", "--char", "0,0", "--tau", "diag:1.0"],
                       capsys, "unrecognized arguments: --genus 5")


def test_theta_qexp_genus_must_match_the_characteristic(capsys):
    """The genus of theta qexp is the genus of --char; --genus is not an option."""
    expect_usage_error(["theta", "qexp", "--genus", "2", "--char", "00,11", "--trunc", "16"],
                       capsys, "unrecognized arguments: --genus 2")


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


def test_weight5_apply_makes_one_square_and_one_product(tmp_path, capsys, monkeypatch):
    """The weight-5 operator is -20/9 F F_{11,22} + 20/9 F F_{12,12}
    + 2 F_11 F_22 - 2 F_12 F_12.  By the Leibniz rule its last two terms are
    (F F)_{11,22} - (F F)_{12,12} - 2 F (F_{11,22} - F_{12,12}), so apply
    makes 2 expansion products: the square F F, with one object as both
    operands, and F times the sum of its cofactors."""
    from siegelops.qexp import QExp2
    op_file, t_file = tmp_path / "q25.opspec", tmp_path / "t2.smf"
    run_cli(["opgen", "--genus", "2", "--weight", "5", "--out", str(op_file)], capsys)
    run_cli(["form", "--name", "tnull", "--trunc", "48", "--out", str(t_file)], capsys)
    products = []
    mul = QExp2.__mul__

    def counted(f, g):
        products.append(f is g)
        return mul(f, g)

    monkeypatch.setattr(QExp2, "__mul__", counted)
    code, out = run_cli(["apply", "--operator", str(op_file), "--input", str(t_file)],
                        capsys)
    assert code == 0 and "slope: 12" in out
    assert sorted(products) == [False, True]


def test_smf1_inputs_are_read_with_their_own_line_ends(tmp_path, capsys):
    """apply and bracket pass an input file's bytes to the SMF1 reader
    untranslated, so a CRLF file is an error at its first line, exit 2."""
    op_file, t_file = tmp_path / "q25.opspec", tmp_path / "t2.smf"
    run_cli(["opgen", "--genus", "2", "--weight", "5", "--out", str(op_file)], capsys)
    run_cli(["form", "--name", "tnull", "--trunc", "16", "--out", str(t_file)], capsys)
    t_file.write_bytes(t_file.read_bytes().replace(b"\n", b"\r\n"))
    code, err = run_cli_error(["apply", "--operator", str(op_file), "--input", str(t_file)],
                              capsys)
    assert code == 2 and err.startswith("error: SMF1 line 1: 'SMF1\\r' has whitespace")
    e4, e6 = tmp_path / "e4.smf", tmp_path / "e6.smf"
    run_cli(["form", "--name", "eis4", "--trunc", "16", "--out", str(e4)], capsys)
    run_cli(["form", "--name", "eis6", "--trunc", "16", "--out", str(e6)], capsys)
    e6.write_bytes(e6.read_bytes().replace(b"\n", b"\r\n"))
    code, err = run_cli_error(["bracket", "--scalar", str(e4), str(e6)], capsys)
    assert code == 2 and err.startswith("error: SMF1 line 1: ")


# -- the option surface and the commands that replaced the experiment scripts --

import argparse
import shlex
from pathlib import Path

from siegelops.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

OPTIONS = {
    "opgen": {"genus", "symbolic", "weight", "oracle-x", "out"},
    "apply": {"operator", "input", "out"},
    "theta": set(),  # each action of theta and slope is a subcommand with its own options
    "form": {"name", "genus", "trunc", "out"},
    "bracket": {"scalar", "weights", "out"},
    "slope": set(),
    "verify": set(),  # each check of verify is a subcommand with its own options
}

THETA_OPTIONS = {
    "qexp": {"char", "trunc", "out"},
    "eval": {"char", "tau", "z"},
}

SLOPE_OPTIONS = {
    "table": set(),
    "report": set(),
    "class": {"name", "genus"},
    "bound": {"genus", "cls", "op"},
    "hyperelliptic": {"genus"},
}

VERIFY_OPTIONS = {
    "pluriharmonic": {"genus", "symbolic", "weight"},
    "suite": set(),
    "heat": {"seed", "tol-heat"},
    "modularity": {"form", "seed", "tol-modularity"},
    "cond": {"tau", "tol-zero"},
    "schottky-vanishing": {"trunc"},
    "input-lift": {"trunc"},
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
    nested = {name: _options(_subparsers(_subparsers()[name]))
              for name in ("theta", "slope", "verify")}
    assert nested == {"theta": THETA_OPTIONS, "slope": SLOPE_OPTIONS,
                      "verify": VERIFY_OPTIONS}
    counts = {name: sum(map(len, options.values())) for name, options in nested.items()}
    assert counts["theta"] + counts["slope"] == 12
    assert sum(map(len, found.values())) + sum(counts.values()) == 39


@pytest.mark.parametrize("argv,option", [
    (["theta", "eval", "--char", "0,0", "--tau", "diag:1", "--out", "F"], "--out F"),
    (["theta", "qexp", "--char", "0,0", "--tau", "diag:1"], "--tau"),
    (["theta", "qexp", "--char", "0,0", "--z", "0.1"], "--z"),
    (["slope", "table", "--genus", "3"], "--genus"),
    (["slope", "class", "--name", "tnull", "--cls", "1,2"], "--cls"),
    (["slope", "bound", "--cls", "8,1", "--name", "tnull"], "--name"),
    (["slope", "bound", "--hyperelliptic", "--genus", "3", "--cls", "8,1"],
     "--hyperelliptic"),
])
def test_actions_reject_options_they_do_not_read(argv, option, tmp_path, monkeypatch,
                                                 capsys):
    """Each action of theta and slope rejects an option that only another
    action reads, before it runs: theta eval writes no --out file."""
    monkeypatch.chdir(tmp_path)
    expect_usage_error(argv, capsys, f"unrecognized arguments: {option}")
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "table", "--genus", "5", "--weight", "3"],
    ["verify", "suite", "--trunc", "80"],
    ["verify", "pluriharmonic", "--seed", "1"],
    ["verify", "schottky-vanishing", "--tau", "diag:1,1"],
    ["verify", "heat", "--tau", "diag:1e308,1e308"],  # heat and modularity draw their points
    ["verify", "modularity", "--tau", "diag:1e308,1e308"],
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
    assert lines[0] == "# config: -"
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
    expect_usage_error(argv, capsys, "the following arguments are required: --cls")


@pytest.mark.parametrize("cls", ["1", "1,2,3", "a,1"])
def test_slope_bound_with_a_bad_cls_names_it(cls, capsys):
    code, err = run_cli_error(["slope", "bound", "--genus", "5", "--cls", cls], capsys)
    assert code == 2
    assert err.startswith("error: --cls ") and "Traceback" not in err


def test_slope_class_without_name_is_a_clean_error(capsys):
    expect_usage_error(["slope", "class", "--genus", "3"], capsys,
                       "the following arguments are required: --name")


def test_theta_eval_without_tau_is_a_clean_error(capsys):
    expect_usage_error(["theta", "eval", "--char", "00,00"], capsys,
                       "the following arguments are required: --tau")


@pytest.mark.parametrize("op", [[], ["--op"]])
@pytest.mark.parametrize("cls", ["10,0", "1,-1"])
def test_slope_bound_needs_a_boundary_vanishing_class(cls, op, capsys):
    """A class with delta <= 0 has no bound, and --op prints none either."""
    code = main(["slope", "bound", *op, "--genus", "2", f"--cls={cls}"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: the bound needs a boundary-vanishing class\n")


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
    ["verify", "input-lift", "--trunc", "-3"],
    ["form", "--name", "eis4", "--trunc", "-8"],
    ["form", "--name", "eis4", "--trunc", "x"],
])
def test_negative_trunc_is_rejected(argv, capsys):
    expect_usage_error(argv, capsys, "--trunc", f"'{argv[-1]}' is not a nonnegative integer")


@pytest.mark.parametrize("tau,z,what", [
    ("diag:1", "nan", "z"), ("diag:1.1,1.7", "0.1,inf", "z"),
    ("diag:nan,1", None, "tau"), ("diag:1.1,inf", None, "tau"),
])
def test_theta_eval_rejects_non_finite_input(tau, z, what, capsys):
    char = "0,0" if tau == "diag:1" else "00,00"
    argv = ["theta", "eval", "--char", char, "--tau", tau] + (["--z", z] if z else [])
    code, err = run_cli_error(argv, capsys)
    assert (code, err) == (2, f"error: {what} has a non-finite entry\n")


@pytest.mark.parametrize("argv,message", [
    (["theta", "qexp", "--char", "0,0,0"],
     "--char '0,0,0' is not two strings of digits joined by a comma"),
    (["theta", "eval", "--char", "0,0", "--tau", "diag:1", "--z", "abc"],
     "--z 'abc' is not complex numbers joined by commas"),
])
def test_unreadable_char_or_z_is_named_in_the_error(argv, message, capsys):
    code, err = run_cli_error(argv, capsys)
    assert (code, err) == (2, f"error: {message}\n")


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
import siegelops, siegelops.cli
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
    exact_stdlib = [m for m in ("dataclasses", "inspect") if m in sys.modules]
    codes.append(main(["theta", "eval", "--char", "0,0", "--tau", "diag:1.0"]))
import numpy
print(exact_stdlib, "inspect" in sys.modules)
print(codes, exact_numpy, "numpy" in sys.modules)
"""


@pytest.fixture(scope="module")
def exact_program_lines(tmp_path_factory):
    """The lines EXACT_PROGRAM prints, run once in a fresh interpreter."""
    src = str(README.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", EXACT_PROGRAM],
                          cwd=tmp_path_factory.mktemp("exact"), env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")[-3:-1]


def test_exact_commands_never_load_numpy(exact_program_lines):
    """import siegelops and the exact commands leave numpy unloaded; the
    first numeric call loads it (the control that the check can fail)."""
    assert exact_program_lines[1] == "[0, 0, 0, 0, 0, 0, 0, 0] False True"


def test_exact_commands_never_load_dataclasses_or_inspect(exact_program_lines):
    """import siegelops, siegelops.cli and the exact commands load neither
    dataclasses nor inspect; import numpy loads inspect (the control)."""
    assert exact_program_lines[0] == "[] True"
