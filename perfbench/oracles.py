"""Per-job oracles: check a command's report against expectations that the
generator derived from the input's construction (see workloads.py).

Each check returns a list of (check, message) failures; an empty list means
the report is correct.  A report that is missing or unreadable is a failure.
Pure standard library.
"""

import csv
import json
import math
import os
from fractions import Fraction

# Oracle failures present at the benchmark's first commit, by job slot.
# They are counted in `failed` and in fail_ratio like any other failure; the
# run stays `correct` only while every failure is one listed here, with no
# failing check beyond those listed.
KNOWN_DEFECTS = {
    # pklimit: the sampled limsup keeps only grid points hit in every block of
    # scales, the first block (scales 2 and 4) included, so for these two
    # directions on the narrow fourgonal cone the sampled liminf is larger
    # than the sampled limsup, which true set limits never allow.
    "fourgonal-r3:interior": {"converged", "liminf-limsup-distance", "liminf-within-limsup"},
    "fourgonal-r3:facet-interior": {"converged", "liminf-limsup-distance",
                                    "liminf-within-limsup"},
    # hierarchy2d: a unit-mass kernel has ||f||_1 = 1, and when the sampled
    # norm rounds to 1 - 1e-16 the Neumann margin 1 - ||f||_1 > 0 certifies
    # the verdict although the symbol vanishes (about a third of the widths).
    "singular2d": {"verdict"},
}


def report_path(outdir, job, suffix="json"):
    return os.path.join(outdir, f"{job['name']}_{job['command']}.{suffix}")


def check_job(job, outdir):
    """Failures of one finished job, read from its output directory."""
    try:
        with open(report_path(outdir, job)) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [("report", f"no readable report: {exc}")]
    return CHECKS[job["oracle"]](report, job["expect"], outdir, job)


def is_known(job, failures):
    known = KNOWN_DEFECTS.get(job["slot"])
    return known is not None and {name for name, _ in failures} <= known


def _fail(failures, name, ok, message):
    if not ok:
        failures.append((name, message))


def _int_vector(strings):
    """Rational vector strings -> primitive integer tuple (positive scaling)."""
    vals = [Fraction(s) for s in strings]
    den = math.lcm(*[v.denominator for v in vals]) if vals else 1
    ints = [int(v * den) for v in vals]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints) if g else tuple(ints)


def _euler(dims):
    return sum((-1) ** d for d in dims)


# -- exact-lattice --------------------------------------------------------------


def check_lattice(report, expect, outdir, job):
    out = []
    f = expect["f_vector"]
    faces = report.get("faces", [])
    _fail(out, "face-count", report.get("face_count") == sum(f) == len(faces),
          f"face_count {report.get('face_count')}, {len(faces)} faces listed, expected {sum(f)}")
    by_dim = [0] * len(f)
    for face in faces:
        if 0 <= face["dim"] < len(f):
            by_dim[face["dim"]] += 1
    _fail(out, "f-vector", by_dim == f, f"faces by dim {by_dim}, expected {f}")
    _fail(out, "dims", report.get("dims") == sorted(face["dim"] for face in faces),
          "dims list disagrees with the faces")
    _fail(out, "euler", _euler(face["dim"] for face in faces) == 0,
          "sum of (-1)^dim over all faces is not 0")
    covering = report.get("covering", [])
    ok_pairs = all(0 <= i < len(faces) and 0 <= j < len(faces)
                   and faces[j]["dim"] == faces[i]["dim"] + 1
                   and set(faces[i]["active_set"]) >= set(faces[j]["active_set"])
                   for i, j in covering)
    _fail(out, "covering", ok_pairs and len(covering) == sum(expect["covers"]),
          f"{len(covering)} covering pairs, expected {sum(expect['covers'])}")
    rays = sorted(face["generators"][0] for face in faces if face["dim"] == 1)
    _fail(out, "rays", rays == expect["rays"], "extreme rays differ from the input points")
    _fail(out, "solvable-length", report.get("solvable_length") == expect["solvable_length"],
          f"solvable_length {report.get('solvable_length')}, "
          f"expected {expect['solvable_length']}")
    return out


def check_strata(report, expect, outdir, job):
    """Level j holds the dual faces of dim n - j, one per primal face of dim j."""
    out = []
    f = expect["f_vector"]
    n = len(f) - 1
    levels = report.get("levels", [])
    _fail(out, "solvable-length", report.get("solvable_length") == expect["solvable_length"],
          f"solvable_length {report.get('solvable_length')}, "
          f"expected {expect['solvable_length']}")
    sizes = [len(level) for level in levels]
    _fail(out, "level-sizes", report.get("level_sizes") == sizes == f,
          f"level sizes {report.get('level_sizes')} / {sizes}, expected {f}")
    _fail(out, "level-dims", all(face["dim"] == n - j for j, level in enumerate(levels)
                                 for face in level), "a level holds a face of the wrong dim")
    _fail(out, "euler", _euler(face["dim"] for level in levels for face in level) == 0,
          "sum of (-1)^dim over the dual faces is not 0")
    return out


def check_spectrum(report, expect, outdir, job):
    out = []
    f = expect["f_vector"]
    length = expect["solvable_length"]
    levels = report.get("levels", [])
    _fail(out, "solvable-length", report.get("solvable_length") == length,
          f"solvable_length {report.get('solvable_length')}, expected {length}")
    fibers = [len(level["fibers"]) for level in levels]
    _fail(out, "fibers", fibers == f, f"fibres per level {fibers}, expected {f}")
    _fail(out, "fibre-rank", all(len(fiber["basis"]) == level["level"] == level["rank"]
                                 for level in levels for fiber in level["fibers"]),
          "a fibre basis has the wrong rank")
    pairs = [len(ip["pairs"]) for ip in report.get("incidences", [])]
    _fail(out, "incidence-pairs", pairs == expect["covers"],
          f"incidence pairs per level {pairs}, expected {expect['covers']}")
    _fail(out, "uncovered", all(not ip["uncovered"] for ip in report.get("incidences", [])),
          "a face has no incidence with the level above")
    _fail(out, "dag", report.get("dag_edges") == [[i, i + 1] for i in range(length)],
          "specialization DAG is not the chain of levels")
    return out


# -- index-halfline ----------------------------------------------------------


def check_index1d(report, expect, outdir, job):
    out = []
    verdict = expect["verdict"]
    _fail(out, "verdict", report.get("verdict") == verdict,
          f"verdict {report.get('verdict')!r}, expected {verdict!r}")
    try:
        with open(report_path(outdir, job, "csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return out + [("csv", f"no readable CSV: {exc}")]
    _fail(out, "csv-rows", len(rows) == len(report.get("sigma_min", {})) > 0,
          f"{len(rows)} CSV rows for {len(report.get('sigma_min', {}))} truncations")
    _fail(out, "csv-verdict", all(r["verdict"] == verdict for r in rows),
          "a CSV row has another verdict")
    if verdict == "non-fredholm":
        _fail(out, "nonvanishing", report.get("symbol_nonvanishing") is False,
              "a non-Fredholm symbol was reported nonvanishing")
        _fail(out, "winding", report.get("winding") is None and report.get("index") is None,
              "a winding or index was reported for a non-Fredholm symbol")
        return out
    w = expect["winding"]
    _fail(out, "winding", report.get("winding") == w,
          f"winding {report.get('winding')}, zero/pole count gives {w}")
    _fail(out, "index", report.get("index") == -w and report.get("numerical_index") == -w,
          f"index {report.get('index')}, numerical_index {report.get('numerical_index')}, "
          f"expected {-w}")
    _fail(out, "csv-index", all(r["winding"] == str(w) and r["index"] == str(-w) for r in rows),
          "a CSV row disagrees with index = -winding")
    return out


# -- hierarchy-quarter -------------------------------------------------------


def check_hierarchy2d(report, expect, outdir, job):
    out = []
    _fail(out, "verdict", report.get("verdict") == expect["verdict"],
          f"verdict {report.get('verdict')!r}, expected {expect['verdict']!r}")
    _fail(out, "nonvanishing", report.get("symbol_nonvanishing") is expect["nonvanishing"],
          f"symbol_nonvanishing {report.get('symbol_nonvanishing')}, "
          f"expected {expect['nonvanishing']}")
    if "neumann" in expect:
        margin = report.get("neumann_margin")
        _fail(out, "neumann", isinstance(margin, float) and (margin > 0) is expect["neumann"],
              f"neumann_margin {margin}, expected {'> 0' if expect['neumann'] else '<= 0'}")
        _fail(out, "faces", report.get("failing_faces") == [],
              f"failing faces {report.get('failing_faces')} for a Gaussian symbol")
    return out


# -- geometry-sampled --------------------------------------------------------


def check_trivialize(report, expect, outdir, job):
    out = []
    margin = report.get("membership_margin_min")
    _fail(out, "margin", isinstance(margin, float) and margin >= 0,
          f"membership margin {margin} < 0")
    lip, bound = report.get("empirical_lipschitz"), report.get("empirical_lipschitz_bound")
    _fail(out, "lipschitz", isinstance(lip, float) and isinstance(bound, float) and lip <= bound,
          f"empirical Lipschitz {lip} above its bound {bound}")
    return out


def check_pklimit(report, expect, outdir, job):
    out = []
    eps = expect["eps"]
    dist = report.get("liminf_limsup_hausdorff")
    _fail(out, "converged", report.get("converged") is True, "not converged")
    _fail(out, "liminf-limsup-distance", isinstance(dist, float) and dist <= eps,
          f"liminf/limsup Hausdorff {dist} > eps {eps}")
    _fail(out, "liminf-within-limsup",
          report.get("liminf_size", math.inf) <= report.get("limsup_size", -math.inf),
          f"sampled liminf ({report.get('liminf_size')} points) larger than sampled "
          f"limsup ({report.get('limsup_size')})")
    exact_dist = report.get("hausdorff_liminf_vs_exact")
    _fail(out, "liminf-vs-exact", isinstance(exact_dist, float) and exact_dist <= eps,
          f"liminf is {exact_dist} from the exact ray limit, eps {eps}")
    ineqs = sorted(_int_vector(a) for a in report.get("exact_limit", {}).get("inequalities", []))
    expected = sorted(tuple(a) for a in expect["limit_inequalities"])
    _fail(out, "exact-limit", ineqs == expected,
          f"exact limit inequalities {ineqs}, expected {expected}")
    return out


CHECKS = {
    "lattice": check_lattice,
    "strata": check_strata,
    "spectrum": check_spectrum,
    "index1d": check_index1d,
    "hierarchy2d": check_hierarchy2d,
    "trivialize": check_trivialize,
    "pklimit": check_pklimit,
}
