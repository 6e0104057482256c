"""Order-compactification combinatorics: strata of the dual face lattice,
solvability length, compactification points, ray limits, incidence pairs,
and the level-wise gluing data of the spectrum.

Strata are indexed so that level j collects the faces of the dual cone of
dimension n_{d-j}, where n_0 < ... < n_d are the distinct face dimensions:
level 0 is the dual cone itself, level d is the zero face.  For polyhedral
cones every level is a finite (hence compact) set, which is recorded in the
emitted data rather than tested.
"""

from dataclasses import dataclass

from .cones import (
    Face,
    PolyhedralCone,
    cone_from_inequalities,
    dual_cone,
    dual_face,
    exposed_face,
    face_as_cone,
    face_lattice,
    negate_cone,
    relative_dual,
    require_pointed,
    require_solid,
    violation,
)
from .errors import (
    LevelRangeError,
    MembershipError,
    NotOrderPointError,
)
from .exact import (
    gram_schmidt,
    is_zero_vec,
    nullspace,
    project_onto_span,
    rational,
    rvec,
    solve_linear,
    vdot,
    vector_text,
)


@dataclass(frozen=True)
class Strata:
    """Dual face lattice partitioned by dimension into levels P_0 ... P_d."""

    cone: PolyhedralCone          # Omega
    dims: tuple                   # distinct face dims of Omega*, increasing
    levels: tuple                 # levels[j] = faces of Omega* of dim dims[d-j]
    covers: tuple                 # covers[j-1] = ((ie, jf), ...), sorted: levels[j][jf]
                                  # is covered by levels[j-1][ie]

    @property
    def length(self):
        return len(self.dims) - 1


@dataclass(frozen=True)
class OrderPoint:
    """A compactification point x - F*, stored as the determining pair (F, x)."""

    face: Face
    point: tuple


@dataclass(frozen=True)
class SigmaBundle:
    """Level-j group-bundle descriptor: each face paired with an exact
    orthogonal basis of its orthocomplement (the fibre)."""

    level: int
    fibers: tuple                 # ((Face, basis tuple), ...)

    @property
    def rank(self):
        return len(self.fibers[0][1]) if self.fibers else 0


@dataclass(frozen=True)
class IncidencePairs:
    """Containment pairs between consecutive strata levels."""

    level: int
    pairs: tuple                  # ((E, F), ...) with E in P_{j-1}, F in P_j, F subset E
    xi: tuple                     # pair index -> index of E in P_{j-1}
    eta: tuple                    # pair index -> index of F in P_j
    uncovered: tuple = ()         # faces of P_j with no containing face in P_{j-1}


def _check_pointed_solid(omega):
    require_pointed(omega, "strata")
    require_solid(omega, "strata")


def strata(omega: PolyhedralCone) -> Strata:
    """Partition the faces of the dual cone by dimension into strata levels."""
    _check_pointed_solid(omega)
    lat = face_lattice(dual_cone(omega))
    dims = tuple(sorted(set(f.dim for f in lat.faces)))
    d = len(dims) - 1
    levels = tuple(
        tuple(f for f in lat.faces if f.dim == dims[d - j]) for j in range(d + 1)
    )
    # lat.faces runs through the levels from d down to 0, each in its order:
    # face i is face i - start[dim] of level level[dim].  A cover joins
    # consecutive levels (see incidence_pairs).
    level = {dim: d - i for i, dim in enumerate(dims)}
    start = {}
    for i, f in enumerate(lat.faces):
        start.setdefault(f.dim, i)
    covers = [[] for _ in range(d)]
    for i, h in lat.order:
        lower, upper = lat.faces[i].dim, lat.faces[h].dim
        covers[level[lower] - 1].append((h - start[upper], i - start[lower]))
    return Strata(omega, dims, levels, tuple(tuple(sorted(c)) for c in covers))


def solvable_length(omega: PolyhedralCone) -> int:
    """Number of distinct dual face dimensions minus one."""
    return strata(omega).length


def _strata_of(omega_or_strata):
    if isinstance(omega_or_strata, Strata):
        return omega_or_strata
    return strata(omega_or_strata)


def sigma_bundle(omega, j) -> SigmaBundle:
    """Fibers over level j: exact orthogonal bases of F-perp, one per face."""
    st = _strata_of(omega)
    if not 0 <= j <= st.length:
        raise LevelRangeError(f"level {j} out of range 0..{st.length}")
    n = st.cone.ambient_dim
    fibers = []
    for face in st.levels[j]:
        raw = nullspace(list(face.generators), n)
        basis = tuple(gram_schmidt(raw))
        fibers.append((face, basis))
    return SigmaBundle(j, tuple(fibers))


def order_point(face: Face, x) -> OrderPoint:
    """Pair (F, x) with exact membership x in F-circledast enforced."""
    x = rvec(x)
    rdual = relative_dual(face)
    if not rdual.contains(x):
        raise MembershipError(f"point {vector_text(x)} is not in the relative dual of the face "
                              f"with active set {face.active_set}: {violation(rdual, x)}")
    return OrderPoint(face, x)


def order_point_hrep(op: OrderPoint):
    """H-rep (rows, offsets) of the translate x - F*: {z : <g_i, z> <= <g_i, x>}."""
    rows = tuple(op.face.generators)
    offsets = tuple(vdot(g, op.point) for g in rows)
    return rows, offsets


def recover_face_point(omega: PolyhedralCone, rows, offsets):
    """Unique (F, x) with {z : rows_i . z <= offsets_i} = x - F*.

    The face is the domain of the support functional of the set (here the
    bidual of the homogeneous part), and x is the unique point of span F
    matching the support values on F; raises unless the set really is a
    translated dual of a face of Omega*.
    """
    _check_pointed_solid(omega)
    rows = [rvec(r) for r in rows]
    offsets = [rational(b) for b in offsets]
    n = omega.ambient_dim
    if rows:
        x0 = solve_linear(rows, offsets)
        if x0 is None:
            raise NotOrderPointError(f"not an order point: its {len(rows)} rows and offsets "
                                     f"have no common solution")
    else:
        x0 = (0,) * n

    g_cone = dual_cone(cone_from_inequalities(rows, n))
    lat = face_lattice(dual_cone(omega))
    match = next((f for f in lat.faces if f.generators == g_cone.generators), None)
    if match is None:
        rays = ", ".join(map(vector_text, g_cone.generators)) or "no rays"
        raise NotOrderPointError(f"not an order point: its rows generate the cone of {rays}, "
                                 f"no face of the dual cone")
    x = project_onto_span(list(match.generators), x0)
    rdual = relative_dual(match)
    if not rdual.contains(x):
        raise NotOrderPointError(
            f"not an order point: its point {vector_text(x)} of the face's span is not in the "
            f"relative dual of the face with active set {match.active_set}: {violation(rdual, x)}")
    return match, x


def ray_limit(omega: PolyhedralCone, x) -> PolyhedralCone:
    """Limit of the translates lambda*x - Omega as lambda grows: -(F-check)*."""
    x = rvec(x)
    if is_zero_vec(x):
        raise MembershipError(f"ray limit needs a nonzero direction, got {vector_text(x)}")
    if not omega.contains(x):
        raise MembershipError(f"point {vector_text(x)} is not in the cone: {violation(omega, x)}")
    face = exposed_face(omega, x)
    fcheck = dual_face(face)
    return negate_cone(dual_cone(face_as_cone(fcheck)))


def incidence_pairs(omega, j) -> IncidencePairs:
    """Exact containment pairs (E, F) between levels j-1 and j, in the order
    of (index of E, index of F).

    The strata of a pointed, solid cone hold every dual face dimension from 0
    to n, and a face lattice is graded, so a face of level j inside one of
    level j-1 is covered by it: the pairs are the lattice's covers.
    """
    st = _strata_of(omega)
    if not 1 <= j <= st.length:
        raise LevelRangeError(f"level {j} out of range 1..{st.length}")
    upper = st.levels[j - 1]
    lower = st.levels[j]
    covers = st.covers[j - 1]
    pairs = tuple((upper[ie], lower[jf]) for ie, jf in covers)
    xi = tuple(ie for ie, _ in covers)
    eta = tuple(jf for _, jf in covers)
    covered = set(eta)
    uncovered = tuple(f for jf, f in enumerate(lower) if jf not in covered)
    return IncidencePairs(j, pairs, xi, eta, uncovered)


@dataclass(frozen=True)
class SpectrumPoset:
    """Level-wise gluing data of the spectrum: sigma bundles, the
    specialization DAG over levels, and the dense point at level 0."""

    cone: PolyhedralCone
    levels: tuple                 # SigmaBundle per level
    ranks: tuple                  # fibre rank per level, = n - n_{d-j}
    dag_edges: tuple              # (i, i+1): level-i points are dense under level i+1 opens
    dense_level: int              # the dense point lives at level 0
    incidences: tuple             # IncidencePairs for j = 1..d
    levels_finite: bool = True    # polyhedral strata are finite, hence compact


def spectrum_poset(omega) -> SpectrumPoset:
    """Gluing data of the spectrum of a cone, or of its already built Strata."""
    st = _strata_of(omega)
    d = st.length
    bundles = tuple(sigma_bundle(st, j) for j in range(d + 1))
    ranks = tuple(b.rank for b in bundles)
    edges = tuple((i, i + 1) for i in range(d))
    incid = tuple(incidence_pairs(st, j) for j in range(1, d + 1))
    return SpectrumPoset(st.cone, bundles, ranks, edges, 0, incid)
