"""Seeded job generators for the four benchmark workloads.

A job is one `conewh` CLI command on one input.  Every input is derived from
(workload, seed, pass) with `random.Random`, so a seed reproduces its job list
exactly; the program only ever sees the spec files written from these jobs or
the name of a packaged preset.  Each job carries the oracle expectations the
generator derived from the construction itself (face counts from the
combinatorics of the polytope, windings from zero/pole counts, verdicts from
the symbol family), never from the program's output.

No two jobs in a run share an input: pass p draws fresh seeded parameters, and
each packaged preset fills its slot only in pass 0; later passes fill the slot
with a seeded input of the same family and cost.  A CLI user starts a fresh
process per command, so an in-process memo must not be able to show a gain.

Pure standard library: the benchmark's parent process never imports numpy or
the program.
"""

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass

# Passes per run are fixed from --seconds and the nominal pass times below
# (measured at the benchmark's first commit on a 2-core Xeon), never from the
# clock, so the job count and the reported tail percentile are the same on
# every run of a workload.
MIN_PASSES = 2


@dataclass(frozen=True)
class Workload:
    why: str
    layers: str            # the layers its commands call, for the set-up probe
    nominal_pass_s: float
    max_passes: int
    make_pass: object      # (rng, pass_index) -> list of jobs
    make_warmup: object    # (rng) -> list of jobs, untimed


def passes_for(workload, seconds):
    """Passes that fill at least `seconds` at the nominal pass time."""
    n = max(MIN_PASSES, math.ceil(seconds / workload.nominal_pass_s))
    return min(n, workload.max_passes)


def _rng(workload, seed, tag):
    return random.Random(f"conewh-bench:{workload}:{seed}:{tag}")


def _job(command, name, spec, oracle, expect, slot, seed=None):
    """A job dict.  `spec` is a JSON object, or a preset name (str)."""
    if isinstance(spec, dict):
        spec = dict(spec, name=name)
    return {"command": command, "name": name, "spec": spec, "seed": seed,
            "oracle": oracle, "expect": expect, "slot": slot}


def build_run(workload_name, seed, seconds):
    """(warm-up jobs, passes) for one run; every job gets a unique id."""
    wl = WORKLOADS[workload_name]
    warm = wl.make_warmup(_rng(workload_name, seed, "warmup"))
    passes = [wl.make_pass(_rng(workload_name, seed, f"pass{p}"), p)
              for p in range(passes_for(wl, seconds))]
    for i, job in enumerate(warm):
        job["id"] = f"w-{i:02d}"
    for p, jobs in enumerate(passes):
        for i, job in enumerate(jobs):
            job["id"] = f"p{p}-{i:02d}"
    return warm, passes


def jobs_digest(warm, passes):
    """sha256 of the canonical job list: equal digests mean equal inputs."""
    text = json.dumps([warm, passes], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- exact-lattice ------------------------------------------------------------

POLYGON_RAYS = (8, 16, 24, 32, 48)
CUBE_DIMS = (3, 4, 5)
EXACT_COMMANDS = ("lattice", "strata", "spectrum")


def _strictly_convex(points):
    """Cyclic cross products all positive: a convex polygon in this order."""
    k = len(points)
    for i in range(k):
        (ax, ay), (bx, by), (cx, cy) = points[i], points[(i + 1) % k], points[(i + 2) % k]
        if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) <= 0:
            return False
    return len(set(points)) == k


def polygon_points(rng, k):
    """k integer points in convex position near a circle of radius ~4k."""
    while True:
        radius = rng.uniform(3.5 * k, 4.5 * k)
        phase = rng.random()
        pts = []
        for i in range(k):
            theta = 2 * math.pi * (i + phase + rng.uniform(-0.3, 0.3)) / k
            pts.append((round(radius * math.cos(theta)), round(radius * math.sin(theta))))
        if _strictly_convex(pts):
            return pts


def unimodular(rng, n):
    """A small integer matrix of determinant +-1: n elementary row additions
    with coefficient +-1 applied to a random signed permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        mat[i][j] = rng.choice((-1, 1))
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


def _matvec(mat, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in mat)


def polygon_expect(k):
    """Cone over a convex k-gon in R^3: f-vector (1, k, k, 1)."""
    f = [1, k, k, 1]
    covers = [k, 2 * k, k]      # covering pairs between dims j-1 and j
    return f, covers


def cube_expect(n):
    """Cone over the n-cube in R^(n+1).

    A face of dim j >= 1 is the cone over a cube face of dim j-1, of which
    there are C(n, j-1) 2^(n-j+1); it has 2(j-1) facets (one, the apex, for
    j = 1).  Total 3^n + 1 faces, solvable length n + 1.
    """
    f = [1] + [math.comb(n, j - 1) * 2 ** (n - j + 1) for j in range(1, n + 2)]
    covers = [f[j] * (1 if j == 1 else 2 * (j - 1)) for j in range(1, n + 2)]
    return f, covers


def _exact_jobs(tag, rays, f, covers):
    expect = {
        "rays": sorted([str(c) for c in r] for r in rays),
        "f_vector": f,
        "covers": covers,
        "solvable_length": len(f) - 1,
    }
    spec = {"dim": len(rays[0]), "generators": [[str(c) for c in r] for r in rays]}
    slot = tag.split("-")[0]
    return [_job(cmd, f"{tag}-{cmd}", spec, cmd, expect, slot) for cmd in EXACT_COMMANDS]


def _polygon_jobs(rng, k, tag):
    rays = [(x, y, 1) for x, y in polygon_points(rng, k)]
    return _exact_jobs(f"poly{k}-{tag}", rays, *polygon_expect(k))


def _cube_jobs(rng, n, tag):
    mat = unimodular(rng, n + 1)
    rays = [_matvec(mat, v + (1,)) for v in itertools.product((-1, 1), repeat=n)]
    return _exact_jobs(f"cube{n}-{tag}", rays, *cube_expect(n))


def exact_pass(rng, p):
    jobs = []
    for k in POLYGON_RAYS:
        jobs += _polygon_jobs(rng, k, f"p{p}")
    for n in CUBE_DIMS:
        jobs += _cube_jobs(rng, n, f"p{p}")
    return jobs


def exact_warmup(rng):
    return _polygon_jobs(rng, 8, "w") + _cube_jobs(rng, 3, "w")


# -- index-halfline -----------------------------------------------------------

# Blaschke factors b_a(xi) = (s - a)/(s + a), s = 2 pi i xi, have the kernel
# -2a e^{-ax} 1_{x>0}; 1/b_a has the mirrored kernel.  Jump kernels take the
# midpoint value at x = 0, as the packaged rational presets do.  The winding
# oracle is poles_upper - zeros_upper of 1 + fhat (frozen orientation).
INDEX_GRID = {"h": 0.05, "T": 52.0, "N": [512, 1024]}
SINGULAR_GRID = {"h": 0.05, "T": 30.0, "N": [128, 512]}


def _num(x):
    return f"{x:.6f}"


def rational_symbol(winding, a, c=None):
    """(expression, zeros_upper, poles_upper) for a rational symbol."""
    a_ = _num(a)
    if winding == 1:
        expr = f"where(x > 0, -2*{a_}*exp(-{a_}*abs(x)), where(x == 0, -{a_}, 0*x))"
        return expr, 0, 1
    if winding == -1:
        expr = f"where(x < 0, -2*{a_}*exp(-{a_}*abs(x)), where(x == 0, -{a_}, 0*x))"
        return expr, 1, 0
    if winding == 2:
        expr = (f"where(x > 0, 4*{a_}*exp(-{a_}*abs(x))*({a_}*x - 1), "
                f"where(x == 0, -2*{a_}, 0*x))")
        return expr, 0, 2
    if winding == -2:
        expr = (f"where(x < 0, 4*{a_}*exp(-{a_}*abs(x))*(-{a_}*x - 1), "
                f"where(x == 0, -2*{a_}, 0*x))")
        return expr, 2, 0
    if winding == 0:
        # b_a / b_c: pole of b_a and zero of 1/b_c both in the upper half plane.
        k = 4 * a * c / (a + c)
        p, q = k - 2 * a, k - 2 * c
        expr = (f"where(x > 0, {_num(p)}*exp(-{a_}*abs(x)), "
                f"where(x < 0, {_num(q)}*exp(-{_num(c)}*abs(x)), {_num((p + q) / 2)} + 0*x))")
        return expr, 1, 1
    raise ValueError(f"no rational symbol with winding {winding}")


def _index_expect(verdict, winding=None):
    return {"verdict": verdict, "winding": winding}


def _rational_job(rng, w, tag):
    a = rng.uniform(1.0, 2.0)
    c = None
    if w == 0:
        c = rng.uniform(1.0, 2.0)
        while abs(c - a) < 0.2:
            c = rng.uniform(1.0, 2.0)
    expr, zeros, poles = rational_symbol(w, a, c)
    spec = dict(INDEX_GRID, symbol={"expr": expr, "dim": 1})
    return _job("index1d", f"rational-w{w:+d}-{tag}", spec, "index1d",
                _index_expect("fredholm", poles - zeros), "rational")


def _gauss_job(rng, tag):
    amp = rng.uniform(0.2, 0.6) * rng.choice((-1, 1))
    # 1 + amp exp(-pi xi^2) is real and > 0 for amp > -1: winding 0.
    spec = dict(INDEX_GRID, symbol={"expr": f"{_num(amp)}*exp(-pi*x**2)", "dim": 1})
    return _job("index1d", f"gauss-{tag}", spec, "index1d",
                _index_expect("fredholm", 0), "gauss")


def _singular_job(rng, tag):
    # A unit-mass Gaussian kernel -w exp(-pi (w x)^2) has symbol -1 at xi = 0.
    width = rng.uniform(0.8, 1.25)
    spec = dict(SINGULAR_GRID, symbol={
        "expr": f"-{_num(width)}*exp(-pi*({_num(width)}*x)**2)", "dim": 1})
    return _job("index1d", f"singular-{tag}", spec, "index1d",
                _index_expect("non-fredholm"), "singular")


def index_pass(rng, p):
    jobs = [_rational_job(rng, w, f"p{p}") for w in (-2, -1, 0, 1, 2)]
    jobs.append(_gauss_job(rng, f"p{p}"))
    if p == 0:
        jobs.append(_job("index1d", "singular-zero", "singular-zero", "index1d",
                         _index_expect("non-fredholm"), "singular"))
    else:
        jobs.append(_singular_job(rng, f"p{p}"))
    return jobs


def index_warmup(rng):
    return [_singular_job(rng, "w")]


# -- hierarchy-quarter --------------------------------------------------------

HIER_GRIDS = ({"h": 0.1, "T": 12.0, "N": [48, 96]},
              {"h": 0.05, "T": 12.0, "N": [96, 192]})
PRESET_GRID = HIER_GRIDS[0]


# Each grid's three fibre-sampled jobs get 16, 24 and 32 frequencies in a
# seeded order, so every pass does the same number of face factorizations.
Y_COUNTS = (16, 24, 32)


def _y_values(rng, count):
    return sorted(rng.sample([i / 1000 for i in range(-3000, 3001)], count))


def _gauss2d(rng, neumann):
    amp = rng.uniform(0.2, 0.8) * rng.choice((-1, 1)) if neumann else rng.uniform(1.2, 2.5)
    return f"{_num(amp)}*exp(-pi*(x**2+y**2))"


def _singular2d(rng):
    width = _num(rng.uniform(0.8, 1.25))
    return f"-{width}*exp(-pi*({width}*x)**2)*exp(-pi*y**2)"


def _hier_job(name, grid, expr, family, y_values=None):
    spec = dict(grid, symbol={"expr": expr, "dim": 2})
    if y_values is not None:
        spec["y_values"] = y_values
    if family == "singular2d":
        expect = {"verdict": "not-hierarchy-fredholm", "nonvanishing": False}
    else:
        # Unit-mass Gaussian: ||f||_1 = |amp|, so the Neumann certificate
        # holds iff |amp| < 1; the symbol 1 + amp e^{-pi|xi|^2} never vanishes.
        expect = {"verdict": "hierarchy-fredholm", "nonvanishing": True,
                  "neumann": family == "gauss2d-neumann"}
    return _job("hierarchy2d", name, spec, "hierarchy2d", expect, family)


def hierarchy_pass(rng, p):
    jobs = []
    if p == 0:
        jobs.append(_job("hierarchy2d", "hierarchy-gauss2d-small", "hierarchy-gauss2d-small",
                         "hierarchy2d", {"verdict": "hierarchy-fredholm", "nonvanishing": True,
                                         "neumann": True}, "gauss2d-neumann"))
        jobs.append(_job("hierarchy2d", "hierarchy-singular-face", "hierarchy-singular-face",
                         "hierarchy2d", {"verdict": "not-hierarchy-fredholm",
                                         "nonvanishing": False}, "singular2d"))
    else:
        jobs.append(_hier_job(f"gauss-preset-slot-p{p}", PRESET_GRID,
                              _gauss2d(rng, True), "gauss2d-neumann"))
        jobs.append(_hier_job(f"singular-preset-slot-p{p}", PRESET_GRID,
                              _singular2d(rng), "singular2d"))
    for g, grid in enumerate(HIER_GRIDS):
        counts = rng.sample(Y_COUNTS, len(Y_COUNTS))
        jobs.append(_hier_job(f"gauss-neumann-g{g}-p{p}", grid, _gauss2d(rng, True),
                              "gauss2d-neumann", _y_values(rng, counts[0])))
        jobs.append(_hier_job(f"gauss-wide-g{g}-p{p}", grid, _gauss2d(rng, False),
                              "gauss2d-wide", _y_values(rng, counts[1])))
        jobs.append(_hier_job(f"singular-g{g}-p{p}", grid, _singular2d(rng),
                              "singular2d", _y_values(rng, counts[2])))
    return jobs


def hierarchy_warmup(rng):
    return [_hier_job("gauss-w", PRESET_GRID, _gauss2d(rng, True), "gauss2d-neumann",
                      _y_values(rng, Y_COUNTS[0]))]


# -- geometry-sampled ---------------------------------------------------------

# Packaged cone presets with their facet normals, written out here so that the
# ray-limit oracle does not read them from the program.
PK_CONES = {
    "quarter-plane": {"rays": [(1, 0), (0, 1)], "normals": [(1, 0), (0, 1)]},
    "simplicial-r3": {"rays": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                      "normals": [(1, 0, 0), (0, 1, 0), (0, 0, 1)]},
    "fourgonal-r3": {"rays": [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)],
                     "normals": [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]},
}
# (cone, role, direction): each cone's interior axis, a facet-interior
# direction and an extreme ray (in 2-D the facets are the extreme rays).
PK_DIRECTIONS = (
    ("quarter-plane", "interior", (1, 1)),
    ("quarter-plane", "extreme-ray", (1, 0)),
    ("simplicial-r3", "interior", (1, 1, 1)),
    ("simplicial-r3", "facet-interior", (1, 1, 0)),
    ("simplicial-r3", "extreme-ray", (1, 0, 0)),
    ("fourgonal-r3", "interior", (0, 0, 1)),
    ("fourgonal-r3", "facet-interior", (1, 0, 1)),
    ("fourgonal-r3", "extreme-ray", (1, 1, 1)),
)
PK_PARAMS = {"scales": [2, 4, 8, 16, 32, 64], "eps": 0.5, "window": 4.0, "step": 0.25}
TRIV_XI0 = [0.7071067811865476, 0.7071067811865476]


def signed_permutations(dim):
    """All dim x dim signed permutation matrices, identity first."""
    mats = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            mats.append(tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(dim))
                              for i in range(dim)))
    return mats


def _primitive(v):
    g = math.gcd(*v)
    return tuple(c // g for c in v) if g else tuple(v)


def limit_inequalities(normals, direction):
    """Exact ray limit of lambda*x - C: {p : <a, p> <= 0 for facets active at x},
    i.e. the inequalities -a for the facet normals a with <a, x> = 0."""
    return sorted(_primitive(tuple(-c for c in a)) for a in normals
                  if sum(ai * xi for ai, xi in zip(a, direction)) == 0)


def _pk_image(cone, direction, mat):
    rays = sorted(_matvec(mat, r) for r in PK_CONES[cone]["rays"])
    return tuple(rays), _matvec(mat, direction)


def _pk_transforms(p):
    """A signed permutation per dimension for pass p, identity in pass 0.

    Signed permutations map the symmetric sampling window onto itself, so a
    transformed job samples exactly the transformed sets and keeps its
    verdict.  The p-th pick is the next one, in a fixed shuffled order, whose
    images no earlier pass used, so no pass repeats an input.  The order does
    not depend on the seed: the sampled limits cost up to 2.5x more in some
    orientations, and a seeded order would make that part of the spread
    between runs.
    """
    rng = random.Random("conewh-bench:pk-transforms")
    picks = {}
    for dim in (2, 3):
        mats = signed_permutations(dim)
        slots = [(c, d) for c, _, d in PK_DIRECTIONS if len(d) == dim]
        order = mats[1:]
        rng.shuffle(order)
        seen = {_pk_image(c, d, mats[0]) for c, d in slots}
        chosen = mats[0]
        for q in range(1, p + 1):
            chosen = next(m for m in order
                          if not any(_pk_image(c, d, m) in seen for c, d in slots))
            seen |= {_pk_image(c, d, chosen) for c, d in slots}
        picks[dim] = chosen
    return picks


def _pk_job(cone, role, direction, mat, tag, identity):
    normals = [_matvec(mat, a) for a in PK_CONES[cone]["normals"]]
    x = _matvec(mat, direction)
    expect = {"eps": PK_PARAMS["eps"],
              "limit_inequalities": [list(a) for a in limit_inequalities(normals, x)]}
    if identity:
        cone_spec = cone
    else:
        rays = sorted(_matvec(mat, r) for r in PK_CONES[cone]["rays"])
        cone_spec = {"name": f"{cone}-image", "dim": len(x),
                     "generators": [[str(c) for c in r] for r in rays]}
    spec = dict(PK_PARAMS, cone=cone_spec, direction=[str(c) for c in x])
    return _job("pklimit", f"pk-{cone}-{role}-{tag}", spec, "pklimit", expect,
                f"{cone}:{role}")


def _triv_job(rng, name, samples, xi0=None):
    spec = {"cone": "quarter-plane", "angle_deg": round(rng.uniform(2.0, 20.0), 3),
            "samples": samples}
    if xi0 is not None:
        spec["xi0"] = xi0
    return _job("trivialize", name, spec, "trivialize", {}, "trivialize",
                seed=rng.randrange(1 << 30))


def geometry_pass(rng, p):
    mats = _pk_transforms(p)
    jobs = [_triv_job(rng, f"triv-p{p}", 5000)]
    if p == 0:
        jobs.append(_job("trivialize", "trivialize-rotated-quarter",
                         "trivialize-rotated-quarter", "trivialize", {}, "trivialize",
                         seed=rng.randrange(1 << 30)))
    else:
        jobs.append(_triv_job(rng, f"triv-preset-slot-p{p}", 500, TRIV_XI0))
    for cone, role, direction in PK_DIRECTIONS:
        job = _pk_job(cone, role, direction, mats[len(direction)], f"p{p}", p == 0)
        if p == 0 and (cone, role) == ("quarter-plane", "extreme-ray"):
            # The packaged pklimit-translated-quarter is exactly this job.
            job.update(name="pklimit-translated-quarter", spec="pklimit-translated-quarter")
        jobs.append(job)
    return jobs


def geometry_warmup(rng):
    # (1, 2) is off the measured directions, so the warm-up shares no input.
    return [_triv_job(rng, "triv-w", 500),
            _pk_job("quarter-plane", "warm-up", (1, 2), signed_permutations(2)[0], "w", True)]


WORKLOADS = {
    "exact-lattice": Workload(
        "The cones and strata layers do nearly all the work here and none in the "
        "numeric workloads; polygon cones (k = 8..48 rays, DD-heavy) and unimodular "
        "images of n-cube cones (n = 3..5, lattice-heavy) separate a DD change from "
        "a lattice change.  The 6-cube is left out: one pass of it costs ~30 s.",
        "cones,strata,io", 9.5, 8, exact_pass, exact_warmup),
    "index-halfline": Workload(
        "Few large dense sections (N = 512/1024), where wiener_hopf factorization "
        "does most of the work; rational symbols of winding -2..+2 with a seeded "
        "pole scale, a seeded Gaussian and a non-Fredholm symbol.",
        "presets,wiener_hopf,io", 11.5, 8, index_pass, index_warmup),
    "hierarchy-quarter": Workload(
        "The same wiener_hopf layer used differently: many symbol samplings and "
        "many small factorizations (orders 48..192), so a large-N method that "
        "costs small N shows here as a regression.",
        "presets,wiener_hopf,io", 2.8, 16, hierarchy_pass, hierarchy_warmup),
    "geometry-sampled": Workload(
        "convex, trivialization and limits would otherwise go unmeasured, and "
        "here the exact layer does little: trivialize with 5,000 samples and "
        "pklimit on three cones and three kinds of direction.",
        "presets,cones,strata,limits,convex,trivialization,io",
        # At most four passes: the quarter-plane interior job has only four
        # distinct signed-permutation images.
        5.2, 4, geometry_pass, geometry_warmup),
}

