"""End-to-end tests of the command-line interface and its file formats."""

import hashlib
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
    _, out = run_cli(["verify", "table"], capsys)
    assert "trunc=48" in out and "seed=0" in out and "tol-modularity=1e-08" in out


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
