"""Tests of the benchmark itself: span arithmetic, the cold-pass guard, seeded
inputs, exact repetition of work counts, and refusal outside a checkout.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import one_pass  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

# Work counts that must not depend on the run or on the seed.  The seeded
# oracle weight changes the size of the oracle's substitution, so the
# MultiPoly addition count is left out.
REPEATING = ("poly.det_expand.terms", "poly.t_coefficient.calls",
             "poly.t_coefficient.terms_scanned", "poly.t_coefficient.hit_ratio",
             "opgen.build_Q.q_terms",
             "jets.jet_apply.terms_out", "qexp.mul.calls", "qexp.mul.terms_out",
             "qexp.mul.pair_ops", "qexp.pow.calls", "qexp.pow.mul_calls", "qexp.smf1.bytes")


def _pass(workload, seed, tmp_path, *extra, python_prefix=()):
    inputs = json.dumps(workloads.make_inputs(workload, seed))
    cmd = [sys.executable, *python_prefix, "--workload", workload, "--inputs", inputs,
           "--workdir", str(tmp_path), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=600)


with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _traced_counts(workload, seed, tmp_path):
    proc = _pass(workload, seed, tmp_path, "--spans", str(tmp_path / "spans.json"),
                 python_prefix=(os.path.join(BENCH, "one_pass.py"),))
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout.splitlines()[-1])
    assert all(not job["failed"] for job in rep["jobs"]), rep["jobs"]
    # run.py adds the metrics that need the untraced pass or the check counts
    added = {"trace.overhead_s", "wall_raw_s", "theta.numeric.residual_ratio", "fail_ratio"}
    added |= {f"{part}_s" for part in workloads.PARTS}
    assert set(rep["layers"]) | added == {m["name"] for m in BENCHMARK["per_layer"]}
    return {k: rep["layers"][k] for k in REPEATING}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_excludes_direct_children():
    recorded = [("outer", 0.0, 10.0, -1, 0), ("inner", 1.0, 4.0, 0, 0),
                ("leaf", 2.0, 3.0, 1, 0), ("inner", 5.0, 6.0, 0, 0)]
    st = spans.self_times(recorded)
    assert st["outer"] == (1, 6.0)
    assert st["inner"] == (2, 3.0)
    assert st["leaf"] == (1, 1.0)


def test_reference_seconds_weight_each_probe_by_the_time_it_stands_for():
    ref = speed.REF_PROBE_S
    s = speed.Sampler()
    s.started_at = 0.0
    # full speed for 1 s, then half speed for 2 s; each probe stands for the
    # time since the previous one
    s.samples = [(1.0 - ref, 1.0), (3.0 - 2 * ref, 3.0)]
    mean, probing = s.window(0.0, 3.0)
    assert mean == pytest.approx((1.0 + 2.0 * 0.5) / 3.0)
    assert probing == pytest.approx(3 * ref)
    assert s.ref_seconds(0.0, 3.0) == pytest.approx((3.0 - 3 * ref) * mean)
    # a window between probes takes the speed of the probe that covers it
    assert s.window(1.5, 2.5) == (pytest.approx(0.5), 0.0)
    # a window after the last probe takes the nearest probe's speed
    assert s.window(4.0, 5.0)[0] == pytest.approx(0.5)


RECORDER_PROBE = """
import sys
sys.path[:0] = ['perfbench']
import spans
from siegelops import cli, opgen, poly
rec = spans.Recorder()
spans.install(rec)
assert opgen.coeff_R is poly.coeff_R and opgen.coeff_R.__wrapped__.cache_info
assert cli.class_slope.__wrapped__.__module__ == 'siegelops.slopes'
opgen.build_Q(2, 5)
assert poly.det_expand.cache_info().currsize == 1
names = [s[0] for s in rec.spans]
build = names.index('opgen.build_Q')
assert rec.spans[names.index('poly.coeff_R')][3] == build
print(len(rec.spans))
"""


def test_recorder_wraps_early_bound_names_and_keeps_cache_handles():
    proc = subprocess.run([sys.executable, "-c", RECORDER_PROBE], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_failed_and_crashing_jobs_count_as_failures():
    def bad(ctx):
        return [("holds", True), ("broken", False)]

    def crash(ctx):
        raise ArithmeticError("boom")

    out = one_pass.run_jobs([workloads.Job("bad", "exact", bad),
                             workloads.Job("crash", "exact", crash)], {})
    assert [(r["checks"], len(r["failed"])) for r in out] == [(2, 1), (1, 1)]


def test_warm_cache_pass_is_rejected(tmp_path):
    warm = ("-c", "import sys; sys.path[:0] = ['perfbench']; "
                  "from siegelops import poly; poly.det_expand(2); "
                  "import one_pass; sys.exit(one_pass.main(sys.argv[1:]))")
    proc = _pass("genus2-pipeline", 0, tmp_path, "--setup-only", python_prefix=warm)
    assert proc.returncode == 3
    assert "det_expand" in proc.stderr
    assert proc.stdout == ""
    cold = _pass("genus2-pipeline", 0, tmp_path, "--setup-only",
                 python_prefix=(os.path.join(BENCH, "one_pass.py"),))
    assert cold.returncode == 0, cold.stderr


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    for workload in ("operator-proof", "theta-identities"):
        assert len({json.dumps(workloads.make_inputs(workload, s)) for s in range(8)}) > 1
    for s in range(50):
        a5 = workloads.make_inputs("operator-proof", s)["g5_weight"]
        assert Fraction(a5) >= Fraction(5, 2)


def test_pinned_sizes():
    assert workloads.Q_TERMS == {2: 7, 3: 108, 4: 2822, 5: 111275}
    assert workloads.PIPELINE_TERMS == {48: 117, 80: 547, 120: 1843, 160: 4342, 200: 8444}
    assert workloads.make_inputs("genus2-pipeline", 0)["trunc_ladder"] == [48, 80, 120, 160, 200]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_across_runs_and_seeds(workload, tmp_path):
    first = _traced_counts(workload, 1, tmp_path)
    assert first == _traced_counts(workload, 2, tmp_path)
    if workload != "operator-proof":  # the slow one is covered by the seed change
        assert first == _traced_counts(workload, 1, tmp_path)


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theta-identities",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""
