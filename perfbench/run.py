"""conewh benchmark: seeded CLI workloads, end-to-end timings checked against
independent oracles, and per-layer spans from a separate traced run.

    python3 perfbench/run.py --workload exact-lattice --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, TRACE_OVERHEAD, job_summary
from workloads import WORKLOADS, build_run, jobs_digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_LAUNCHES = 3
# Hard limits per child process, well inside the 180 s a run may take.
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150

class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    """Environment of every child: the program's source on the path and BLAS
    threads pinned to the CPUs this process may use."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(workload, env):
    """Wall time of fresh interpreters that import conewh.cli and make one tiny
    call into each layer the workload uses; the median of several launches."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--src", SRC,
           "--layers", WORKLOADS[workload].layers]
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times), times


def write_specs(workdir, warm, passes):
    """One spec file per generated job; presets are passed by name."""
    specdir = os.path.join(workdir, "specs")
    os.makedirs(specdir)
    for job in warm + [job for jobs in passes for job in jobs]:
        if isinstance(job["spec"], str):
            job["input"] = job["spec"]
        else:
            job["input"] = os.path.join(specdir, f"{job['id']}.json")
            with open(job["input"], "w") as fh:
                json.dump(job["spec"], fh, indent=1)


def run_worker(manifest, workdir, env):
    path = os.path.join(workdir, "manifest.json")
    result_path = os.path.join(workdir, "result.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--manifest", path, "--result", result_path]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed (exit {proc.returncode}):\n{proc.stderr}")
    with open(result_path) as fh:
        return json.load(fh)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(args, result, passes, digest, setup_times, env):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "passes": len(passes),
        "jobs_per_pass": [len(jobs) for jobs in passes],
        "jobs_sha256": digest,
        "load_model": "closed loop, one client, one process",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": result["python"],
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "blas": result["blas"],
        "blas_threads_env": env["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "setup_launches_s": setup_times,
        "pass_walls_s": [p["wall_s"] for p in result["passes"]],
    }


def summarize(args, result, setup_s, record):
    """Print the human-readable table; return the metrics of the final line."""
    jobs = result["jobs"]
    failed = [j for j in jobs if j["failures"]]
    walls = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    wall = statistics.median(walls)
    p50, tail, pct, beyond = job_summary([j["seconds"] for j in jobs])
    print(f"workload {args.workload}  seed {args.seed}  passes {record['passes']}  "
          f"jobs {len(jobs)}  jobs-sha256 {record['jobs_sha256']}")
    print(f"  wall_s       {wall:.4f} s   "
          f"(median of {len(walls)} untraced passes)")
    print(f"  job_s.p50    {p50:.4f} s   (n={len(jobs)})")
    print(f"  job_s.tail   {tail:.4f} s   (p{pct}, n={len(jobs)}, {beyond} beyond)")
    print(f"  fail_ratio   {len(failed) / len(jobs):.4f}    ({len(failed)} of {len(jobs)} jobs)")
    print(f"  setup_s      {setup_s:.4f} s   (median of {SETUP_LAUNCHES} launches)")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    for job in failed:
        tag = "known defect" if job["known"] else "FAILED"
        detail = "; ".join(f"{name}: {msg}" for name, msg in job["failures"])
        print(f"  {tag}: {job['id']} {job['name']}: {detail}")
    values = {
        "wall_s": wall,
        "job_s.p50": p50,
        "job_s.tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    record["tail_percentile"] = pct
    record["fail_ratio"] = len(failed) / len(jobs)
    if not args.trace:
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    traced = statistics.median(p["wall_s"] for p in result["passes"] if p["traced"])
    overhead = traced - wall
    record["tracing_overhead_s"] = overhead
    record["traced_passes"] = sum(1 for p in result["passes"] if p["traced"])
    print(f"  tracing overhead {overhead:+.4f} s per pass "
          f"(traced {traced:.4f} s, untraced {wall:.4f} s)")
    metrics = {name: {"value": result["layers"][name], "unit": unit}
               for name, (unit, _, _) in PER_LAYER.items()}
    metrics[TRACE_OVERHEAD[0]] = {"value": overhead, "unit": TRACE_OVERHEAD[1]}
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description="conewh benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "conewh", "cli.py")):
        print(f"error: no conewh sources under {SRC}", file=sys.stderr)
        return 2

    warm, passes = build_run(args.workload, args.seed, args.seconds)
    digest = jobs_digest(warm, passes)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env()
    try:
        setup_s, setup_times = measure_setup(args.workload, env)
        write_specs(workdir, warm, passes)
        manifest = {"src": SRC, "outroot": os.path.join(workdir, "out"), "trace": args.trace,
                    "warmup": warm, "passes": passes,
                    "spans_out": os.path.join(workdir, "spans.jsonl")}
        result = run_worker(manifest, workdir, env)
        record = run_record(args, result, passes, digest, setup_times, env)
        metrics = summarize(args, result, setup_s, record)
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            shutil.move(manifest["spans_out"], stem + ".spans.jsonl")
        with open(stem + ".json", "w") as fh:
            json.dump({"record": record, "metrics": metrics, "jobs": result["jobs"],
                       "warmup": result["warmup"]}, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [j for j in result["jobs"] + result["warmup"]
                  if j["failures"] and not j["known"]]
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(result["jobs"]),
        "failed": sum(1 for j in result["jobs"] if j["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
