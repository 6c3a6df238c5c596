"""Benchmark of defbranch: one workload, one seed, one result line.

    python3 perfbench/run.py --workload deep-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
as it is; nothing is installed.  The workload's configs are generated
from the seed, then fresh worker processes run them through
``defbranch.cli.main`` (see worker.py), and every artifact is checked
against an independent oracle (oracles.py) after the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones, and writes the spans and a report with
the computed work counts, micro cases, machine facts and numerical-health
counters to ``.perfbench/``.  The last line of standard output is the
result as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench"


def deadline_s(seconds: int) -> float:
    """Time allowed for the whole run, checks included.  The passes can
    overrun the measuring time by up to one pass, since there are at
    least two; set-up samples, the trace probe, the micro cases and the
    checks come on top.  170 s at the usual 30 s of measuring."""
    return 2.0 * seconds + 110.0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def write_plan(work: Path, jobs: list[dict], seconds: int, spans: Path) -> Path:
    cfg_dir = work / "cfg"
    cfg_dir.mkdir(parents=True)

    def entries(js):
        out = []
        for j in js:
            path = cfg_dir / f"{j['id']}.json"
            path.write_text(json.dumps(j["config"]), encoding="utf-8")
            out.append({"id": j["id"], "cfg": str(path), "workers": j["workers"]})
        return out

    commands = {j["config"]["command"] for j in jobs}
    plan = {
        "jobs": entries(jobs),
        "setup_jobs": entries(workloads.small_jobs(commands)),
        "probe_jobs": entries(workloads.small_jobs(workloads.all_commands())),
        "out": str(work / "out"),
        "seconds": seconds,
        "spans": str(spans),
    }
    path = work / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def run_worker(plan: Path, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh process and return what it reported."""
    result = plan.parent / f"result-{mode}-{time.monotonic_ns()}.json"
    err = plan.parent / "worker.err"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    # string hashing, and so dict and set layout, the same in every run
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan), mode, str(result)]
    with open(err, "wb") as fh:
        # a session of its own, so that a kill reaches the set-up
        # processes the worker starts as well
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=fh,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"{mode} worker ran past the deadline")
    if code != 0:
        tail = err.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"{mode} worker exited with {code}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_passes(jobs: list[dict], passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over every pass's artifacts."""
    attempted = failed = 0
    problems: list[str] = []
    # jobs that differ only in --workers must write identical bytes
    groups: dict[str, list[dict]] = {}
    for job in jobs:
        key = oracles.job_key(job["config"]) + str(job["config"]["master_seed"])
        groups.setdefault(key, []).append(job)
    for p in passes:
        bad = set()
        for job, status in zip(jobs, p["status"]):
            out = os.path.join(p["out"], job["id"])
            found = [f"exit {status}"] if status != 0 else oracles.check_job(job["config"], out)
            if found:
                bad.add(job["id"])
                problems.extend(f"{job['id']}: {x}" for x in found[:3])
        for group in groups.values():
            if len(group) < 2:
                continue
            name = f"{group[0]['config']['command']}.json"
            blobs = []
            for job in group:
                path = os.path.join(p["out"], job["id"], name)
                blobs.append(Path(path).read_bytes() if os.path.exists(path) else None)
            for job, blob in zip(group[1:], blobs[1:]):
                if blob != blobs[0]:
                    bad.add(job["id"])
                    problems.append(f"{job['id']}: artifact differs from {group[0]['id']}")
        attempted += len(jobs)
        failed += len(bad)
    return attempted, failed, problems


def health(jobs: list[dict], p: dict) -> dict:
    """Numerical-health records of one traced pass, read from outside."""
    out = {"overflow_warnings": {}, "cond_tail": {}, "dist": {}}
    for job, warned in zip(jobs, p["overflow_warnings"]):
        if warned:
            out["overflow_warnings"][job["id"]] = warned
    for job in jobs:
        cmd = job["config"]["command"]
        path = os.path.join(p["out"], job["id"])
        if cmd == "cond-mean":
            rows = oracles.read_rows(path, "cond-mean")
            out["cond_tail"][job["id"]] = [float(r["cond_tail"]) for r in rows]
        elif cmd == "dist":
            res = oracles.read_result(path, "dist")
            residual = 1.0 - (sum(res["probs"]) + res["delta_mass"] + res["tail_mass"])
            out["dist"][job["id"]] = {"mass_residual": residual, "dropped": res["dropped"]}
    return out


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "defbranch" / "__init__.py").is_file():
        print(f"no defbranch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + deadline_s(args.seconds)
    tag = f"{args.workload}-seed{args.seed}"
    work = RUNS / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = workloads.jobs_for(args.workload, args.seed)
        plan = write_plan(work, jobs, args.seconds, RUNS / f"spans-{args.workload}.npz")
        if args.trace:
            res = run_worker(plan, "trace", deadline)
            metrics = dict(res["layers"])
            traced = res["passes"][res["health_pass"]]
            metrics["cli.artifact_bytes"] = dir_bytes(traced["out"])
            wanted = spec["per_layer"]
        else:
            res = run_worker(plan, "measure", deadline)
            metrics = {
                "setup_s": statistics.median(res["setup_samples"]),
                "batch_s": statistics.median(p["wall_s"] for p in res["passes"]),
                "batch_cpu_s": statistics.median(p["cpu_s"] for p in res["passes"]),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            wanted = spec["end_to_end"]
        attempted, failed, problems = check_passes(jobs, res["passes"])
        if args.trace:
            report = {
                "workload": args.workload,
                "seed": args.seed,
                "machine": res["machine"],
                "per_layer": metrics,
                "computed_work_counts": res["computed"],
                "health": health(jobs, traced),
                "passes": [
                    {k: p[k] for k in ("traced", "wall_s", "cpu_s")} for p in res["passes"]
                ],
                "span_count": res["span_count"],
                "spans": str(RUNS / f"spans-{args.workload}.npz"),
            }
            (RUNS / f"trace-{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    n_pass = len(res["passes"])
    print(f"workload {args.workload}, seed {args.seed}: {n_pass} passes of {len(jobs)} jobs, "
          f"one client, closed loop")
    if not args.trace:
        print(f"setup_s {metrics['setup_s']:.4f} s "
              f"(median of {len(res['setup_samples'])} fresh processes)")
        print(f"batch_s {metrics['batch_s']:.4f} s (median of {n_pass} passes)")
        print(f"batch_cpu_s {metrics['batch_cpu_s']:.4f} s (median of {n_pass} passes)")
        print(f"failed_frac {failed / attempted:.4g} ratio ({failed} of {attempted} jobs)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    else:
        print(f"trace report: {RUNS / f'trace-{tag}.json'}")
    print(f"machine: {json.dumps(res['machine'], sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
