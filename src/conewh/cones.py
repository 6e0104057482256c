"""Exact rational polyhedral cones: dual pairs, faces, and the face calculus.

A cone is stored as a *dual pair* of canonical representations: generators
(extreme rays of the pointed part plus +/- pairs spanning the lineality
space) and inequalities (facet normals of the cone, i.e. generators of the
dual cone).  Canonical form -- coprime integer coordinates with positive
scaling, sorted -- makes set equality syntactic equality.

V <-> H conversion uses the double description method, run on the pointed
quotient after splitting off the lineality space; the face lattice is built
from facet bitmasks.  Both hot loops work on coprime integer rays and
bitmasks; the initial Gram inverse and the lineality space come from the
fraction-free elimination of :mod:`conewh.exact`.  Every generator and facet
normal, of a cone or of a face, is stored as that primitive int tuple; a
point given to a cone (a membership test, an exposed face) is read as a
Fraction tuple.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import (
    DimensionMismatchError,
    MembershipError,
    NotPointedError,
    NotSolidError,
    RankDeficientError,
)
from .exact import (
    _echelon,
    canonical_ray,
    invert,
    is_zero_vec,
    nullspace,
    project_onto_span,
    rank,
    rvec,
    vdot,
    vneg,
)


@dataclass(frozen=True)
class PolyhedralCone:
    """Dual pair of canonical representations of a closed convex cone in Q^n."""

    ambient_dim: int
    generators: tuple = ()
    inequalities: tuple = ()

    def contains(self, x) -> bool:
        x = rvec(x)
        if len(x) != self.ambient_dim:
            raise DimensionMismatchError(
                f"point has dimension {len(x)}, cone lives in Q^{self.ambient_dim}")
        return all(vdot(a, x) >= 0 for a in self.inequalities)


@dataclass(frozen=True)
class Face:
    """A face of a pointed polyhedral cone, identified by its closed active set."""

    parent: PolyhedralCone
    active_set: tuple      # sorted indices into parent.inequalities, maximal
    generators: tuple      # parent generators lying on the face, canonical order
    dim: int

    @cached_property
    def mask(self) -> int:
        """The active set as a bitmask over parent.inequalities."""
        return sum(1 << i for i in self.active_set)


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a pointed cone, with the covering relation of inclusion."""

    cone: PolyhedralCone
    faces: tuple            # sorted by (dim, active_set)
    order: tuple            # covering pairs (i, j): faces[i] covered by faces[j]
    dims: tuple             # multiset of face dimensions, sorted


def _dedupe_sorted(vectors):
    return tuple(sorted(set(vectors)))


def _validate_rows(rows, ambient_dim, what):
    vecs = []
    for i, r in enumerate(rows):
        v = rvec(r)
        if ambient_dim is None:
            ambient_dim = len(v)
        if len(v) != ambient_dim:
            raise DimensionMismatchError(f"{what}: row {i} has {len(v)} entries, "
                                         f"expected dimension {ambient_dim}")
        if not is_zero_vec(v):
            vecs.append(canonical_ray(v))
    if ambient_dim is None:
        raise DimensionMismatchError("ambient dimension required")
    if ambient_dim < 1:
        raise DimensionMismatchError("ambient dimension must be >= 1")
    return vecs, ambient_dim


def _extreme_rays(rows, n):
    """Double description: extreme rays of the pointed part of {x : rows @ x >= 0},
    plus a basis of the lineality space.  Returns (rays, lineality_basis); rows,
    rays and the canonical basis are coprime int tuples.

    Each ray carries the bitmask of the processed rows it lies on.  Two rays
    of the pointed k-dimensional cone are adjacent iff their common mask has
    at least k - 2 rows and no third ray's mask contains it (the combinatorial
    test of Fukuda & Prodon, "Double description method revisited", 1996).
    """
    rows = list(dict.fromkeys(rows))
    lineality = nullspace(rows, n)
    k = n - len(lineality)
    if k == 0:
        return [], lineality

    # Initial simplicial cone in W = rowspace(rows): dual basis rays of the
    # first k independent rows (the pivot columns of rows^T), via the exact
    # Gram inverse, each row of it scaled to integers.  Ray j lies on every
    # base row but the j-th.
    idx = _echelon(list(zip(*rows)))[1]
    base = [rows[i] for i in idx]
    ginv = invert([[vdot(a, b) for b in base] for a in base])
    rays = [canonical_ray([vdot(g, col) for col in zip(*base)])
            for g in map(canonical_ray, ginv)]
    processed = sum(1 << i for i in idx)
    masks = [processed & ~(1 << i) for i in idx]

    for t, a in enumerate(rows):
        if processed >> t & 1:
            continue
        bit = 1 << t
        vals = [vdot(a, r) for r in rays]
        keep = [i for i, v in enumerate(vals) if v >= 0]
        pos = [i for i in keep if vals[i] > 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        new_rays = [rays[i] for i in keep]
        new_masks = [masks[i] | bit if vals[i] == 0 else masks[i] for i in keep]
        for i in pos:
            for j in neg:
                common = masks[i] & masks[j]
                if common.bit_count() < k - 2 or any(
                        m & common == common for l, m in enumerate(masks) if l != i and l != j):
                    continue
                w = [vals[i] * x - vals[j] * y for x, y in zip(rays[j], rays[i])]
                g = gcd(*w)
                new_rays.append(tuple(c // g for c in w))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return sorted(rays), lineality


def _generators_from_inequalities(rows, n):
    """Canonical int generators of {x : rows @ x >= 0} from int rows."""
    rays, lin = _extreme_rays(rows, n)
    gens = set(rays)
    for b in lin:
        gens |= {b, vneg(b)}
    return sorted(gens)


def cone_from_generators(rays, ambient_dim=None) -> PolyhedralCone:
    """Cone of all nonnegative rational combinations of the given rays.

    Both representations are computed and canonicalized; redundant input rays
    are absorbed.  An empty ray list needs an explicit ambient dimension and
    yields the zero cone.
    """
    vecs, n = _validate_rows(rays, ambient_dim, "rays")
    # Inequalities of C = generators of C*, whose H-rep rows are the rays.
    ineqs = _generators_from_inequalities(vecs, n)
    gens = _generators_from_inequalities(ineqs, n)
    if any(vdot(a, v) < 0 for v in vecs for a in ineqs):
        raise MembershipError("internal: input ray violates derived inequality")
    return PolyhedralCone(n, tuple(gens), tuple(ineqs))


def cone_from_inequalities(rows, ambient_dim=None) -> PolyhedralCone:
    """Cone {x : <a_i, x> >= 0} with canonical dual pair of representations."""
    vecs, n = _validate_rows(rows, ambient_dim, "inequalities")
    gens = _generators_from_inequalities(vecs, n)
    ineqs = _generators_from_inequalities(gens, n)
    return PolyhedralCone(n, tuple(gens), tuple(ineqs))


def dual_cone(cone: PolyhedralCone) -> PolyhedralCone:
    """C* = {y : <y, x> >= 0 for all x in C}; a swap of the two representations."""
    return PolyhedralCone(cone.ambient_dim, cone.inequalities, cone.generators)


def is_pointed(cone: PolyhedralCone) -> bool:
    """No line in the cone: the inequality normals have full rank."""
    return rank(list(cone.inequalities)) == cone.ambient_dim


def is_solid(cone: PolyhedralCone) -> bool:
    """The generators span the ambient space."""
    return rank(list(cone.generators)) == cone.ambient_dim


def negate_cone(cone: PolyhedralCone) -> PolyhedralCone:
    gens = _dedupe_sorted(vneg(g) for g in cone.generators)
    ineqs = _dedupe_sorted(vneg(a) for a in cone.inequalities)
    return PolyhedralCone(cone.ambient_dim, gens, ineqs)


def face_as_cone(face: Face) -> PolyhedralCone:
    return cone_from_generators(face.generators, face.parent.ambient_dim)


def require_pointed(cone, what):
    """Raise NotPointedError, with the rank found, unless the cone is pointed."""
    if not is_pointed(cone):
        raise NotPointedError(f"{what}: cone is not pointed, its inequalities have rank "
                              f"{rank(list(cone.inequalities))} in dimension {cone.ambient_dim}")


def require_solid(cone, what):
    """Raise NotSolidError, with the rank found, unless the cone is solid."""
    if not is_solid(cone):
        raise NotSolidError(f"{what}: cone is not solid, its generators have rank "
                            f"{rank(list(cone.generators))} in dimension {cone.ambient_dim}")


def _face_from_generator_subset(cone, gens):
    active = tuple(i for i, a in enumerate(cone.inequalities)
                   if all(vdot(a, g) == 0 for g in gens))
    return Face(cone, active, _dedupe_sorted(gens), rank(list(gens)))


def face_lattice(cone: PolyhedralCone) -> FaceLattice:
    """All faces of a pointed cone by active-set closure over the facets.

    Nonzero faces of a pointed cone are generated by the extreme rays they
    contain, so the closed active sets are exactly the intersections of the
    per-ray zero patterns, plus the full set for the bottom face {0}.  Faces
    are keyed by that facet bitmask.  The closure H = F & zp[g] of a face F
    and a ray g outside it covers F iff every ray of H outside F closes F to
    the same H (Kaibel & Pfetsch, "Computing the face lattice of a polytope
    from its vertex-facet incidences", 2002).
    """
    require_pointed(cone, "face lattice")
    m = len(cone.inequalities)
    full = (1 << m) - 1
    zero_patterns = [sum(1 << i for i, a in enumerate(cone.inequalities) if vdot(a, g) == 0)
                     for g in cone.generators]

    # Breadth-first from the bottom face: each face's covers are its minimal
    # closures, and a face's dim is its grade.
    ray_masks = {full: 0}       # facet mask -> bitmask of the rays on the face
    covers, dims, queue = {}, {full: 0}, [full]
    for mask in queue:
        rm = ray_masks[mask]
        closures = Counter(mask & zm for g, zm in enumerate(zero_patterns) if not rm >> g & 1)
        covers[mask] = []
        for h, count in closures.items():
            if h not in ray_masks:
                ray_masks[h] = sum(1 << g for g, zm in enumerate(zero_patterns) if h & ~zm == 0)
            if count == ray_masks[h].bit_count() - rm.bit_count():
                covers[mask].append(h)
                if h not in dims:
                    dims[h] = dims[mask] + 1
                    queue.append(h)

    def active(mask):
        return tuple(i for i in range(m) if mask >> i & 1)

    ordered = sorted(dims, key=lambda mask: (dims[mask], active(mask)))
    index = {mask: i for i, mask in enumerate(ordered)}
    faces = tuple(Face(cone, active(mask), tuple(g for i, g in enumerate(cone.generators)
                                                 if ray_masks[mask] >> i & 1), dims[mask])
                  for mask in ordered)
    order = tuple(sorted((index[mask], index[h]) for mask in ordered for h in covers[mask]))
    return FaceLattice(cone, faces, order, tuple(sorted(dims.values())))


def exposed_face(cone: PolyhedralCone, x) -> Face:
    """Smallest exposed face of the cone containing x: C n (C* n x-perp)-perp."""
    require_pointed(cone, "exposed face")
    x = rvec(x)
    if not cone.contains(x):
        raise MembershipError("point is not in the cone")
    dual_gens_perp = [b for b in dual_cone(cone).generators if vdot(b, x) == 0]
    gens = [g for g in cone.generators
            if all(vdot(b, g) == 0 for b in dual_gens_perp)]
    return _face_from_generator_subset(cone, gens)


def dual_face(face: Face) -> Face:
    """F-check = F-perp n Omega*, a face of the dual cone; reverses inclusion."""
    omega = face.parent
    require_pointed(omega, "dual face")
    require_solid(omega, "dual face")
    dcone = dual_cone(omega)
    gens = [b for b in dcone.generators
            if all(vdot(b, g) == 0 for g in face.generators)]
    return _face_from_generator_subset(dcone, gens)


def relative_dual(face: Face) -> PolyhedralCone:
    """F-circledast = span(F) n F*, as a cone in the ambient space."""
    n = face.parent.ambient_dim
    rows = list(face.generators)
    for b in nullspace(list(face.generators), n):
        rows.append(b)
        rows.append(vneg(b))
    return cone_from_inequalities(rows, n)


def project_cone(cone: PolyhedralCone, subspace_basis) -> PolyhedralCone:
    """Orthogonal projection of the cone onto a subspace, in ambient coordinates.

    The projection of a conic hull is the conic hull of the projections;
    for polyhedral cones the result is closed, so no closure step is needed.
    """
    basis = [rvec(b) for b in subspace_basis]
    if rank(basis) != len(basis):
        raise RankDeficientError("subspace basis is rank-deficient")
    projected = []
    for g in cone.generators:
        p = project_onto_span(basis, g)
        if not is_zero_vec(p):
            projected.append(p)
    return cone_from_generators(projected, cone.ambient_dim)
