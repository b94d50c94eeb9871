"""One pass of a workload, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/one_pass.py --workload W --inputs JSON --workdir DIR
                                  [--spans FILE] [--setup-only]

Every CLI invocation of siegelops starts with cold ``lru_cache``s, so a pass
refuses to start when any cache in ``poly`` or ``theta`` already holds an
entry.  With ``--spans`` the layer entry points are wrapped by the span
recorder and the spans are written to FILE when the pass ends.  A
``speed.Sampler`` runs from the start of ``main`` to the end of the pass.
The pass prints one JSON line: when setup finished (``ready``) and when the
last job ended (``end``), both on the system-wide monotonic clock that
``time.perf_counter`` reads; the host speed and the time spent probing over
the set-up and over the whole pass; each job's time at reference speed and
its failed checks; peak memory; and the layer metrics of a traced pass, self
times at reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from time import perf_counter

import speed


class ColdPassError(RuntimeError):
    pass


def lru_caches(*modules) -> dict:
    """Handles on the original cached functions, taken before any wrapping."""
    return {f"{m.__name__}.{name}": fn for m in modules for name, fn in vars(m).items()
            if hasattr(fn, "cache_info")}


def check_cold(caches: dict):
    warm = {name: fn.cache_info().currsize for name, fn in caches.items()
            if fn.cache_info().currsize}
    if warm:
        raise ColdPassError(f"warm caches at the start of a pass: {warm}")


def run_jobs(job_list, ctx: dict, rec=None, sampler=None) -> list:
    results = []
    for i, job in enumerate(job_list):
        if rec is not None:
            rec.job = i
        t0 = perf_counter()
        try:
            checks = job.run(ctx)
            failed = [name for name, ok in checks if not ok]
            attempted = len(checks)
        except Exception:  # a crashing job is a failed check, and the pass goes on
            failed = [f"{job.name}: {traceback.format_exc(limit=3)}"]
            attempted = 1
        t1 = perf_counter()
        results.append({"name": job.name, "part": job.part,
                        "seconds": sampler.ref_seconds(t0, t1) if sampler else t1 - t0,
                        "checks": attempted, "failed": failed})
    return results


def write_spans(path: str, rec):
    names = sorted({s[0] for s in rec.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "names": names,
                   "spans": [[index[n], t0, t1, p, j] for n, t0, t1, p, j in rec.spans]}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sampler = speed.Sampler()
    sampler.start()

    from siegelops import poly, theta
    import workloads
    try:
        check_cold(lru_caches(poly, theta))
    except ColdPassError as exc:
        sampler.stop()
        print(exc, file=sys.stderr)
        return 3
    job_list = workloads.jobs(args.workload, json.loads(args.inputs))
    rec = None
    if args.spans:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    ready = perf_counter()
    out = {"ready": ready}
    if not args.setup_only:
        ctx = {"workdir": args.workdir}
        results = run_jobs(job_list, ctx, rec, sampler)
        out.update(end=perf_counter(), jobs=results,
                   rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   residual_ratio=ctx.get("residual_ratio", 0.0))
    sampler.stop()
    out["setup_speed"], out["setup_probe_s"] = sampler.window(sampler.started_at, ready)
    if not args.setup_only:
        out["speed"], out["probe_s"] = sampler.window(sampler.started_at, out["end"])
    if rec is not None:
        rec.job = -1
        layers = spans.layer_metrics(rec)
        out["layers"] = {k: v * out["speed"] if k.endswith(".self_s") else v
                         for k, v in layers.items()}
        write_spans(args.spans, rec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
