"""Metric names, units and the summaries the benchmark reports.

The names and units here are the ones BENCHMARK.json lists; a self-test
checks that the two agree.  Pure standard library.
"""

import math
import statistics

# End-to-end metrics of the untraced run: name -> unit.
END_TO_END = {
    "wall_s": "s",          # median wall time of one pass over the job list
    "job_s.p50": "s",       # median per-job wall time
    "job_s.tail": "s",      # highest percentile with >= 10 jobs beyond it
    "setup_s": "s",         # fresh interpreter: import conewh.cli + one tiny call per layer
    "peak_rss_mb": "MB",    # peak resident memory of the workload process
}

TAIL_BEYOND = 10

# Per-layer metrics of the traced run: name -> (unit, span, field).  Field
# "self" is summed self time, "calls" the span count, anything else a counter
# that tracing.COUNTERS adds up.
PER_LAYER = {
    "cones.dd_s": ("s", "cones.dd", "self"),
    "cones.dd_calls": ("count", "cones.dd", "calls"),
    "cones.face_lattice_s": ("s", "cones.face_lattice", "self"),
    "cones.face_lattice_calls": ("count", "cones.face_lattice", "calls"),
    "cones.faces": ("count", "cones.face_lattice", "faces"),
    "cones.face_ops_s": ("s", "cones.face_ops", "self"),
    "strata.strata_s": ("s", "strata.strata", "self"),
    "strata.strata_calls": ("count", "strata.strata", "calls"),
    "strata.spectrum_s": ("s", "strata.spectrum", "self"),
    "strata.incidence_pairs": ("count", "strata.spectrum", "incidence_pairs"),
    "strata.ray_limit_s": ("s", "strata.ray_limit", "self"),
    "limits.sample_cone_s": ("s", "limits.sample_cone", "self"),
    "limits.grid_points": ("count", "limits.sample_cone", "grid_points"),
    "limits.pk_s": ("s", "limits.pk", "self"),
    "limits.hausdorff_s": ("s", "limits.hausdorff", "self"),
    "convex.gauge_s": ("s", "convex.gauge", "self"),
    "convex.gauge_calls": ("count", "convex.gauge", "calls"),
    "convex.hull_s": ("s", "convex.hull", "self"),
    "trivialization.build_s": ("s", "trivialization.build", "self"),
    "trivialization.apply_s": ("s", "trivialization.apply", "self"),
    "trivialization.det_s": ("s", "trivialization.det", "self"),
    "trivialization.points": ("count", "trivialization.apply", "points"),
    "wiener_hopf.factor_s": ("s", "wiener_hopf.factor", "self"),
    "wiener_hopf.factorizations": ("count", "wiener_hopf.factor", "calls"),
    "wiener_hopf.factor_n3": ("count", "wiener_hopf.factor", "n3"),
    "wiener_hopf.index_self_s": ("s", "wiener_hopf.index", "self"),
    "wiener_hopf.winding_s": ("s", "wiener_hopf.winding", "self"),
    "wiener_hopf.make_symbol_s": ("s", "wiener_hopf.make_symbol", "self"),
    "wiener_hopf.make_symbol_calls": ("count", "wiener_hopf.make_symbol", "calls"),
    "wiener_hopf.face_symbol_s": ("s", "wiener_hopf.face_symbol", "self"),
    "wiener_hopf.hierarchy_self_s": ("s", "wiener_hopf.hierarchy", "self"),
    "wiener_hopf.wh_matrix_s": ("s", "wiener_hopf.wh_matrix", "self"),
    "wiener_hopf.section_bytes": ("B", "wiener_hopf.wh_matrix", "bytes"),
    "presets.symbol_s": ("s", "presets.symbol", "self"),
    "io.report_s": ("s", "io.report", "self"),
    "io.report_bytes": ("B", "io.report", "bytes"),
    "cli.self_s": ("s", "cli.run", "self"),
}

TRACE_OVERHEAD = ("trace.overhead_s", "s")   # traced minus untraced pass wall time


def tail_percentile(n):
    """Highest integer percentile with at least TAIL_BEYOND samples above it."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond")
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def job_summary(seconds):
    """(median, tail value, tail percentile, samples beyond the tail).

    The tail is the nearest-rank percentile: the smallest value with p% of
    the samples at or below it.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    p = tail_percentile(n)
    rank = max(1, math.ceil(p / 100 * n))
    return statistics.median(ordered), ordered[rank - 1], p, n - rank
