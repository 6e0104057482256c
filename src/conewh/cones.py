"""Exact rational polyhedral cones: dual pairs, faces, and the face calculus.

A cone is stored as a *dual pair* of canonical representations: generators
(extreme rays of the pointed part plus +/- pairs spanning the lineality
space) and inequalities (facet normals of the cone, i.e. generators of the
dual cone).  Canonical form -- coprime integer coordinates with positive
scaling, sorted -- makes set equality syntactic equality.

V <-> H conversion uses the double description method with exact pivoting,
run on the pointed quotient after splitting off the lineality space.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    MembershipError,
    NotPointedError,
    NotSolidError,
    RankDeficientError,
)
from .exact import (
    canonical_ray,
    invert,
    is_zero_vec,
    independent_rows,
    nullspace,
    project_onto_span,
    rank,
    rvec,
    span_basis,
    vdot,
    vneg,
    vsub,
    vscale,
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

    def __repr__(self):
        return (f"PolyhedralCone(n={self.ambient_dim}, "
                f"{len(self.generators)} generators, {len(self.inequalities)} inequalities)")


@dataclass(frozen=True)
class Face:
    """A face of a pointed polyhedral cone, identified by its closed active set."""

    parent: PolyhedralCone
    active_set: tuple      # sorted indices into parent.inequalities, maximal
    generators: tuple      # parent generators lying on the face, canonical order
    dim: int

    def __repr__(self):
        return f"Face(dim={self.dim}, active={list(self.active_set)})"


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a pointed cone, with the covering relation of inclusion."""

    cone: PolyhedralCone
    faces: tuple            # sorted by (dim, active_set)
    order: tuple            # covering pairs (i, j): faces[i] covered by faces[j]
    dims: tuple             # multiset of face dimensions, sorted

    def by_active(self, active):
        key = tuple(sorted(active))
        for f in self.faces:
            if f.active_set == key:
                return f
        raise KeyError(f"no face with active set {key}")


def _dedupe_sorted(vectors):
    return tuple(sorted(set(vectors)))


def _validate_rows(rows, ambient_dim, what):
    vecs = []
    for r in rows:
        v = rvec(r)
        if ambient_dim is None:
            ambient_dim = len(v)
        if len(v) != ambient_dim:
            raise DimensionMismatchError(f"{what} have mixed dimensions")
        if not is_zero_vec(v):
            vecs.append(canonical_ray(v))
    if ambient_dim is None:
        raise DimensionMismatchError("ambient dimension required")
    if ambient_dim < 1:
        raise DimensionMismatchError("ambient dimension must be >= 1")
    return vecs, ambient_dim


def _adjacent(rows, active_i, active_j, k):
    # Extreme rays of a pointed k-dimensional cone are adjacent iff their
    # common active rows cut out a 2-dimensional face.
    common = [rows[t] for t in sorted(active_i & active_j)]
    return rank(common) == k - 2


def _extreme_rays(ineq_rows, n):
    """Double description: extreme rays of the pointed part of {x : rows @ x >= 0},
    plus a basis of the lineality space.  Returns (rays, lineality_basis)."""
    rows = [canonical_ray(r) for r in ineq_rows if not is_zero_vec(r)]
    lineality = nullspace(rows, n)
    k = n - len(lineality)
    if k == 0:
        return [], lineality

    # Initial simplicial cone in W = rowspace(rows): dual basis rays of a
    # maximal independent subset, via the exact Gram inverse.
    idx = independent_rows(rows, k)
    base = [rows[i] for i in idx]
    gram = [[vdot(a, b) for b in base] for a in base]
    ginv = invert(gram)
    rays = []
    for j in range(k):
        r = tuple(sum((ginv[j][m] * base[m][c] for m in range(k)), Fraction(0))
                  for c in range(n))
        rays.append(canonical_ray(r))

    processed = list(idx)
    for t, a in enumerate(rows):
        if t in idx:
            continue
        vals = [vdot(a, r) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            processed.append(t)
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        active = [frozenset(s for s in processed if vdot(rows[s], r) == 0) for r in rays]
        new_rays = [rays[i] for i in pos + zero]
        for i in pos:
            for j in neg:
                if not _adjacent(rows, active[i], active[j], k):
                    continue
                w = vsub(vscale(vals[i], rays[j]), vscale(vals[j], rays[i]))
                new_rays.append(canonical_ray(w))
        processed.append(t)
        rays = sorted(set(new_rays))
    return sorted(set(rays)), lineality


def _generators_from_inequalities(ineq_rows, n):
    rays, lin = _extreme_rays(ineq_rows, n)
    gens = list(rays)
    for b in lin:
        gens.append(b)
        gens.append(vneg(b))
    return _dedupe_sorted(canonical_ray(g) for g in gens)


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
    for v in vecs:
        if any(vdot(a, v) < 0 for a in ineqs):
            raise MembershipError("internal: input ray violates derived inequality")
    return PolyhedralCone(n, gens, ineqs)


def cone_from_inequalities(rows, ambient_dim=None) -> PolyhedralCone:
    """Cone {x : <a_i, x> >= 0} with canonical dual pair of representations."""
    vecs, n = _validate_rows(rows, ambient_dim, "inequalities")
    gens = _generators_from_inequalities(vecs, n)
    ineqs = _generators_from_inequalities(gens, n)
    return PolyhedralCone(n, gens, ineqs)


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


def face_span_basis(face: Face):
    return span_basis(list(face.generators), face.parent.ambient_dim)


def _require_pointed(cone, what):
    if not is_pointed(cone):
        raise NotPointedError(f"{what} requires pointed cone")


def _face_from_generator_subset(cone, gens):
    active = tuple(i for i, a in enumerate(cone.inequalities)
                   if all(vdot(a, g) == 0 for g in gens))
    return Face(cone, active, _dedupe_sorted(gens), rank(list(gens)))


def face_lattice(cone: PolyhedralCone) -> FaceLattice:
    """All faces of a pointed cone by active-set closure over the facets.

    Nonzero faces of a pointed cone are generated by the extreme rays they
    contain, so the closed active sets are exactly the intersections of the
    per-ray zero patterns, plus the full set for the bottom face {0}.
    """
    _require_pointed(cone, "face lattice")
    m = len(cone.inequalities)
    full = (1 << m) - 1
    zero_patterns = []
    for g in cone.generators:
        mask = 0
        for i, a in enumerate(cone.inequalities):
            if vdot(a, g) == 0:
                mask |= 1 << i
        zero_patterns.append(mask)

    masks = {full}
    frontier = set(zero_patterns)
    masks |= frontier
    while frontier:
        new = set()
        for zm in zero_patterns:
            for fm in frontier:
                inter = zm & fm
                if inter not in masks:
                    new.add(inter)
        masks |= new
        frontier = new

    faces = []
    for mask in masks:
        gens = [g for g, zm in zip(cone.generators, zero_patterns) if mask & ~zm == 0]
        active = tuple(i for i in range(m) if mask >> i & 1)
        faces.append(Face(cone, active, _dedupe_sorted(gens), rank(gens)))
    faces.sort(key=lambda f: (f.dim, f.active_set))

    # Covering relation: strict containment with nothing in between.
    def leq(f, g):
        return set(f.active_set) >= set(g.active_set)

    order = []
    for i, f in enumerate(faces):
        for j, g in enumerate(faces):
            if i == j or not (leq(f, g) and f.active_set != g.active_set):
                continue
            between = any(k not in (i, j) and leq(f, faces[k]) and leq(faces[k], g)
                          and faces[k].active_set not in (f.active_set, g.active_set)
                          for k in range(len(faces)))
            if not between:
                order.append((i, j))
    dims = tuple(sorted(f.dim for f in faces))
    return FaceLattice(cone, tuple(faces), tuple(order), dims)


def exposed_face(cone: PolyhedralCone, x) -> Face:
    """Smallest exposed face of the cone containing x: C n (C* n x-perp)-perp."""
    _require_pointed(cone, "exposed face")
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
    _require_pointed(omega, "dual face")
    if not is_solid(omega):
        raise NotSolidError("dual face requires solid cone")
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


def minkowski_sum_cone(gens_a, gens_b, ambient_dim) -> PolyhedralCone:
    """Conic hull of the union of two generator lists (sum of the two cones)."""
    return cone_from_generators(list(gens_a) + list(gens_b), ambient_dim)
