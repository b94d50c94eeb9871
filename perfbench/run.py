"""siegelops benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is ``src/siegelops``
of that checkout.  The workload's inputs are made from ``--seed`` here; each
pass receives only those inputs and runs in a fresh interpreter, one at a
time (a closed loop: one caller, jobs back to back, one single-threaded
process), because every CLI invocation pays for cold caches.

The run and every pass are pinned to one CPU.  Times are wall times at
reference speed: each pass measures the speed of its CPU while it runs
(``speed.py``), and a span of wall time counts as the wall time it would
have taken at the reference speed.  Raw wall times go to the run record.

Untraced (``--trace 0``): a few set-up-only interpreters, then passes back
to back until ``--seconds`` have elapsed (at least one).  End-to-end metrics:

  wall_s       one pass, interpreter start to exit (median over passes)
  setup_s      interpreter start, imports and input decoding, up to the first
               job (median over all set-ups of the run)
  peak_rss_mb  peak resident memory of a pass process (median over passes)

Traced (``--trace 1``): one untraced pass, then one pass with the span
recorder.  Prints the per-layer metrics of the traced pass, the time of each
part of the workload and the raw wall time (``wall_raw_s``) of the untraced
pass, the tracing overhead (traced minus untraced ``wall_s``) and the
failed-check ratio.

Every job checks its exact result; the last line of standard output is the
JSON result with the number of checks attempted and failed.  A record of the
run (seed, inputs, commit, versions, every pass) and the spans of a traced
pass are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join("src", "siegelops")
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0

def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Runner:
    """Spawns passes and keeps what they report."""

    def __init__(self, workload: str, inputs: dict, workdir: str, deadline: float):
        self.workload = workload
        self.inputs_json = json.dumps(inputs)
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.abspath("src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, *extra) -> dict | None:
        """Run one fresh interpreter; returns its report plus spawn/exit times."""
        cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", self.workload,
               "--inputs", self.inputs_json, "--workdir", self.workdir, *extra]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self.failures.append("pass exceeded the run deadline")
            return None
        t1 = perf_counter()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.attempted += 1
            self.failures.append(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        rep = json.loads(lines[-1])
        rep["spawn"], rep["exit"] = t0, t1
        for job in rep.get("jobs", []):
            self.attempted += job["checks"]
            self.failures += job["failed"]
        return rep


def _part(rep: dict, part: str) -> float:
    return sum(j["seconds"] for j in rep["jobs"] if j["part"] == part)


def _setup_s(rep: dict) -> float:
    return (rep["ready"] - rep["spawn"] - rep["setup_probe_s"]) * rep["setup_speed"]


def _wall_s(rep: dict) -> float:
    return (rep["exit"] - rep["spawn"] - rep["probe_s"]) * rep["speed"]


def measure(runner: Runner, seconds: float) -> tuple[dict, list]:
    setups = []
    for _ in range(SETUP_SAMPLES):
        rep = runner.spawn("--setup-only")
        if rep is not None:
            setups.append(_setup_s(rep))
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        rep = runner.spawn()
        if rep is None:
            break
        passes.append(rep)
        setups.append(_setup_s(rep))
    if not passes:
        return {}, passes
    med = statistics.median
    return {
        "wall_s": med(_wall_s(p) for p in passes),
        "setup_s": med(setups),
        "peak_rss_mb": med(p["rss_mb"] for p in passes),
    }, passes


def measure_traced(runner: Runner, spans_path: str, parts) -> tuple[dict, list]:
    plain = runner.spawn()
    traced = runner.spawn("--spans", spans_path)
    passes = [p for p in (plain, traced) if p is not None]
    if plain is None or traced is None:
        return {}, passes
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = _wall_s(traced) - _wall_s(plain)
    layers["wall_raw_s"] = plain["exit"] - plain["spawn"]
    for part in parts:
        layers[f"{part}_s"] = _part(plain, part)
    layers["theta.numeric.residual_ratio"] = traced["residual_ratio"]
    layers["fail_ratio"] = len(runner.failures) / max(runner.attempted, 1)
    return layers, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"error: {SOURCE} not found; run from the root of a siegelops checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path[:0] = [os.path.abspath("src"), HERE]
    import numpy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(args.workload, inputs, workdir, deadline)
    try:
        if args.trace:
            values, passes = measure_traced(runner, os.path.join(OUT_DIR, f"spans-{tag}.json"),
                                            workloads.PARTS)
        else:
            values, passes = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    # every declared metric, with its declared unit; none when a pass failed
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared} if values else {}

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "commit": _commit(),
        "source_sha256": _source_digest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": nproc, "cpu": cpu,
        "passes": passes, "failures": runner.failures, "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"commit={record['commit'][:12]} python={record['python']} "
          f"numpy={record['numpy']} nproc={record['nproc']}")
    for msg in runner.failures:
        print(f"# FAIL {msg.splitlines()[0] if msg else msg}")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": max(runner.attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
