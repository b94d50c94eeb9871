"""Every check of every benchmark workload passes, run in process.

perfbench/workloads.py calls the library through the names and types it
reads (``poly.coeff_R``, ``spec.Q.terms``, ``opgen.xspace_oracle`` of
``spec.Q``, ...).  Running its jobs here makes a change that breaks one of
them fail the tier-1 suite, not only a benchmark run.  The workloads file
is read, never edited.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_benchmark_check_passes(workload, tmp_path):
    ctx = {"workdir": str(tmp_path)}
    failed = []
    for job in workloads.jobs(workload, workloads.make_inputs(workload, 1)):
        checks = job.run(ctx)
        assert checks, job.name
        failed += [f"{job.name}: {name}" for name, passed in checks if not passed]
    assert failed == []
