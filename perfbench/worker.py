"""One client running a workload's jobs in a fresh process.

Usage: python3 worker.py PLAN.json {setup,measure,trace} RESULT.json

The plan (written by run.py) lists config files; every job is one
in-process ``defbranch.cli.main(["run", cfg, "--out", dir])`` call, and
the next job starts only when the previous one returned (a closed loop
with one client).  The only extra thread is the one a ``--workers 2``
simulate job starts itself.

Modes:
  setup    import defbranch and run the warm-up jobs, report the time;
  measure  set up, then run whole passes over the job list, tracing
           off, as many as fit in the measuring time (at least two),
           taking set-up samples (fresh ``setup`` processes, one at a
           time) at job boundaries spread evenly through that time;
  trace    set up, then alternate untraced and traced passes, run the
           layer probe traced, then the micro cases untraced.

Only the standard library is imported before the set-up clock starts.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings


def run_job(cli, job: dict, out_dir: str):
    """Exit code of one CLI call, or the exception it raised as text."""
    argv = ["run", job["cfg"], "--out", out_dir]
    if job["workers"]:
        argv += ["--workers", str(job["workers"])]
    try:
        return cli.main(argv)
    except Exception as exc:  # a job that raises is a failed job; the loop goes on
        return f"{type(exc).__name__}: {exc}"


def run_pass(cli, jobs: list[dict], out_root: str, health: bool = False,
             between=None) -> dict:
    """One pass over ``jobs``.  ``between``, if given, is called after
    each job; the time it takes is not part of the pass."""
    status, job_ms, overflows = [], [], []
    aside_wall = aside_cpu = 0.0
    wall = time.perf_counter()
    cpu = time.process_time()
    for job in jobs:
        out_dir = os.path.join(out_root, job["id"])
        t = time.perf_counter()
        if health:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                status.append(run_job(cli, job, out_dir))
            overflows.append(sum(
                1 for w in caught
                if issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message)
            ))
        else:
            status.append(run_job(cli, job, out_dir))
        job_ms.append((time.perf_counter() - t) * 1e3)
        if between is not None:
            t, c = time.perf_counter(), time.process_time()
            between()
            aside_wall += time.perf_counter() - t
            aside_cpu += time.process_time() - c
    out = {
        "wall_s": time.perf_counter() - wall - aside_wall,
        "cpu_s": time.process_time() - cpu - aside_cpu,
        "out": out_root,
        "status": status,
        "job_ms": job_ms,
    }
    if health:
        out["overflow_warnings"] = overflows
    return out


MIN_PASSES = 2
# Set-up samples per measuring run.  The machine's speed can
# change from one ten-second stretch to the next, so the samples are
# spread over the whole measuring time; samples taken back to back
# would all see one stretch.
SETUP_SAMPLES = 15


def another_pass(passes: list[dict], start: float, seconds: float) -> bool:
    """Whether one more pass, as long as the slowest so far, still ends
    within the measuring time (always, until there are MIN_PASSES)."""
    if len(passes) < MIN_PASSES:
        return True
    longest = max(p["wall_s"] for p in passes)
    return time.perf_counter() - start + longest <= seconds


def setup_sample(plan_path: str) -> float:
    """Set-up time of one fresh ``setup`` process."""
    result = f"{plan_path}.setup-{os.getpid()}.json"
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), plan_path, "setup", result],
        stdout=subprocess.DEVNULL, check=True,
    )
    with open(result, encoding="utf-8") as fh:
        setup_s = json.load(fh)["setup_s"]
    os.remove(result)
    return setup_s


def measure(cli, plan: dict, plan_path: str) -> dict:
    passes = []
    interval = plan["seconds"] / SETUP_SAMPLES
    start = last = time.perf_counter()
    setups = [setup_sample(plan_path)]

    def between():
        nonlocal last
        if len(setups) < SETUP_SAMPLES and time.perf_counter() - last >= interval:
            last = time.perf_counter()
            setups.append(setup_sample(plan_path))

    while another_pass(passes, start, plan["seconds"]):
        out = os.path.join(plan["out"], f"pass{len(passes)}")
        passes.append(run_pass(cli, plan["jobs"], out, between=between))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(plan_path))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024.0, "setup_samples": setups}


def trace(cli, plan: dict) -> dict:
    from layers import layer_metrics
    from micro import micro_cases
    from tracing import Tracer

    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while another_pass(passes, start, plan["seconds"]):
        traced = len(passes) % 2 == 1
        out = os.path.join(plan["out"], f"pass{len(passes)}")
        if traced:
            tracer.reset()
            tracer.install()
        try:
            p = run_pass(cli, plan["jobs"], out, health=traced)
        finally:
            tracer.uninstall()
        p["traced"] = traced
        passes.append(p)
    # the probe runs one small job per command, so every layer has spans
    tracer.install()
    try:
        probe = [run_job(cli, j, os.path.join(plan["out"], "probe", j["id"]))
                 for j in plan["probe_jobs"]]
    finally:
        tracer.uninstall()
    if any(s != 0 for s in probe):
        raise SystemExit(f"layer probe failed: {probe}")
    metrics, computed = layer_metrics(tracer)
    tracer.save(plan["spans"])

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    job_ms = [t for p in untraced for t in p["job_ms"]]
    metrics["cli.jobs"] = len(plan["jobs"])
    metrics["cli.job_ms_p50"] = statistics.median(job_ms)
    metrics["cli.job_ms_p90"] = statistics.quantiles(job_ms, n=10, method="inclusive")[8]
    metrics["analysis.overflow_warnings"] = sum(traced[-1]["overflow_warnings"])
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0
    )
    metrics.update(micro_cases())
    return {
        "passes": passes,
        "layers": metrics,
        "computed": computed,
        "span_count": len(tracer.start),
        "health_pass": passes.index(traced[-1]),
    }


# glibc's sysconf names for cache sizes, which Python's os module lacks
_SC_CACHE_SIZES = {"L1d": 188, "L1i": 185, "L2": 191, "L3": 194}


def machine() -> dict:
    import numpy

    caches = {}
    for level, name in _SC_CACHE_SIZES.items():
        try:
            size = os.sysconf(name)
        except (OSError, ValueError):  # not glibc on Linux
            continue
        if size > 0:
            caches[level] = f"{size // 1024} KiB"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": caches,
    }


def main() -> int:
    plan_path, mode, result_path = sys.argv[1:4]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    from defbranch import cli

    warm_dir = os.path.join(plan["out"], f"setup-{os.getpid()}")
    warm = [run_job(cli, j, os.path.join(warm_dir, j["id"])) for j in plan["setup_jobs"]]
    setup_s = time.perf_counter() - t0
    if any(s != 0 for s in warm):
        print(f"warm-up job failed: {warm}", file=sys.stderr)
        return 1
    result = {"setup_s": setup_s}
    if mode == "measure":
        result.update(measure(cli, plan, plan_path))
    elif mode == "trace":
        result.update(trace(cli, plan))
    result["machine"] = machine()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
