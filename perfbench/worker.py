"""The workload process: one closed-loop client running a run's jobs back to
back through `conewh.cli.run`, the entry point of the `conewh` CLI.

    python3 perfbench/worker.py --manifest MANIFEST.json --result RESULT.json

run.py writes the manifest (job list, spec paths, output root) and pins the
BLAS threads in the environment before this process starts.  Warm-up jobs
run first and are not timed.  Each pass is timed as a whole and job by job;
the oracles read the reports after the pass, outside the timed region.  In a
traced run the odd passes are traced and the even ones are not, which gives
the tracing overhead.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

import oracles


def blas_info():
    """OpenBLAS build and thread count in effect, for numpy's and scipy's copies."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy_blas": f"{config.get('name')} {config.get('version')}", "threads": {}}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"][pkg.__name__] = fn()
                    break
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])

    import numpy
    import scipy

    from conewh import cli

    tracer = None
    if manifest["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def execute(job):
        outdir = os.path.join(manifest["outroot"], job["id"])
        config = cli.RunConfig(job["command"], job["input"], outdir, job["seed"], {})
        start = time.perf_counter()
        rc = cli.run(config)   # looked up per call: tracing may have wrapped it
        return time.perf_counter() - start, rc, outdir

    def verify(job, rc, outdir):
        failures = [("exit", f"exit code {rc}")] if rc else oracles.check_job(job, outdir)
        return {"id": job["id"], "name": job["name"], "slot": job["slot"],
                "failures": failures, "known": bool(failures) and oracles.is_known(job, failures)}

    warmup = []
    for job in manifest["warmup"]:
        _, rc, outdir = execute(job)
        warmup.append(verify(job, rc, outdir))

    if tracer is not None:
        import probe

        tracer.job = "probe"
        tracer.enabled = True
        probe.call_layers(set(probe.LAYERS))
        tracer.enabled = False

    jobs, passes = [], []
    for p, pass_jobs in enumerate(manifest["passes"]):
        traced = tracer is not None and p % 2 == 1
        done = []
        if tracer is not None:
            tracer.enabled = traced
        start = time.perf_counter()
        for job in pass_jobs:
            if tracer is not None:
                tracer.job = job["id"]
            done.append((job,) + execute(job))
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        passes.append({"wall_s": wall, "traced": traced})
        for job, seconds, rc, outdir in done:
            jobs.append(dict(verify(job, rc, outdir), seconds=seconds, pass_index=p))

    result = {
        "warmup": warmup,
        "jobs": jobs,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        with open(manifest["spans_out"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
