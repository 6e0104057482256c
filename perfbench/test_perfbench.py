"""Self-test of the benchmark: the oracles reject corrupted reports, seeds
reproduce job lists, and every metric BENCHMARK.json names is emitted with
its unit.

    python3 -m pytest perfbench -q
"""

import argparse
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, TRACE_OVERHEAD  # noqa: E402


def _run_job(job, tmp_path):
    """Run one generated job through the CLI entry point; return its outdir."""
    from conewh.cli import RunConfig, run

    spec = job["spec"]
    if isinstance(spec, dict):
        path = tmp_path / f"{job['name']}.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    outdir = tmp_path / "out" / job["name"]
    assert run(RunConfig(job["command"], spec, str(outdir), job["seed"], {})) == 0
    return str(outdir)


def _rewrite(outdir, job, change):
    path = oracles.report_path(outdir, job)
    with open(path) as fh:
        report = json.load(fh)
    change(report)
    with open(path, "w") as fh:
        json.dump(report, fh)


def _failed_checks(job, outdir):
    return {name for name, _ in oracles.check_job(job, outdir)}


def test_lattice_oracle_rejects_a_dropped_face(tmp_path):
    job = workloads._polygon_jobs(random.Random(0), 8, "t")[0]
    outdir = _run_job(job, tmp_path)
    assert oracles.check_job(job, outdir) == []

    _rewrite(outdir, job, lambda r: r["faces"].pop())
    assert {"face-count", "f-vector", "euler"} <= _failed_checks(job, outdir)


def test_index_oracle_rejects_a_flipped_winding(tmp_path):
    job = workloads._rational_job(random.Random(0), 1, "t")
    outdir = _run_job(job, tmp_path)
    assert oracles.check_job(job, outdir) == []

    _rewrite(outdir, job, lambda r: r.update(winding=-r["winding"]))
    assert "winding" in _failed_checks(job, outdir)


def test_pklimit_oracle_rejects_a_forced_converged_flag(tmp_path):
    job = workloads._pk_job("fourgonal-r3", "interior", (0, 0, 1),
                            workloads.signed_permutations(3)[0], "t", True)
    outdir = _run_job(job, tmp_path)
    failures = oracles.check_job(job, outdir)
    assert "converged" in {name for name, _ in failures}
    assert oracles.is_known(job, failures)

    _rewrite(outdir, job, lambda r: r.update(converged=True))
    assert {"liminf-limsup-distance", "liminf-within-limsup"} <= _failed_checks(job, outdir)
    _rewrite(outdir, job, lambda r: r.update(liminf_limsup_hausdorff=0.0))
    assert "liminf-within-limsup" in _failed_checks(job, outdir)


def test_a_known_defect_slot_does_not_excuse_other_checks():
    job = {"slot": "fourgonal-r3:interior"}
    assert oracles.is_known(job, [("converged", "")])
    assert not oracles.is_known(job, [("converged", ""), ("exact-limit", "")])
    assert not oracles.is_known({"slot": "singular"}, [("verdict", "")])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reproduces_its_job_list(name):
    first = workloads.jobs_digest(*workloads.build_run(name, 7, 20))
    assert workloads.jobs_digest(*workloads.build_run(name, 7, 20)) == first
    assert workloads.jobs_digest(*workloads.build_run(name, 8, 20)) != first

    warm, passes = workloads.build_run(name, 7, 20)

    def program_input(job):     # the spec's name only labels the report
        spec = job["spec"]
        if isinstance(spec, dict):
            spec = {k: v for k, v in spec.items() if k != "name"}
        return json.dumps([job["command"], spec], sort_keys=True)

    inputs = [program_input(job) for job in warm + [job for jobs in passes for job in jobs]]
    assert len(set(inputs)) == len(inputs), "two jobs of one run share an input"


def _fake_result(traced):
    jobs = [{"id": f"p{i // 6}-{i % 6:02d}", "name": "j", "slot": "s", "failures": [],
             "known": False, "seconds": 0.1 + 0.01 * i, "pass_index": i // 6}
            for i in range(12)]
    return {"jobs": jobs, "warmup": [], "peak_rss_mb": 90.5,
            "passes": [{"wall_s": 1.0, "traced": False}, {"wall_s": 1.1, "traced": traced}],
            "layers": {name: 0.5 for name in PER_LAYER}}


def test_every_benchmark_json_metric_is_emitted_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload="exact-lattice", seed=1, trace=trace, seconds=20)
        record = {"passes": 2, "jobs_sha256": "0" * 64}
        metrics = bench.summarize(args, _fake_result(bool(trace)), 0.8, record)
        assert {m["name"]: m["unit"] for m in spec[section]} == \
            {name: entry["unit"] for name, entry in metrics.items()}
        assert all(isinstance(entry["value"], float) for entry in metrics.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert TRACE_OVERHEAD[0] in {m["name"] for m in spec["per_layer"]}
