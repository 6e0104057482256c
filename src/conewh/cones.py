"""Exact rational polyhedral cones: dual pairs, faces, and the face calculus.

A cone is stored as a *dual pair* of canonical representations: generators
(extreme rays of the pointed part plus +/- pairs spanning the lineality
space) and inequalities (facet normals of the cone, i.e. generators of the
dual cone).  Canonical form -- coprime integer coordinates with positive
scaling, sorted -- makes set equality syntactic equality.

V <-> H conversion uses the double description method (DD), run on the
pointed quotient after splitting off the lineality space.  A cone given by
rays takes one DD: the DD of {x : rays @ x >= 0} gives the inequalities, and
the bitmasks it carries give, for every input ray, the set of facets it lies
on.  The generators are the input rays whose facet set no other input ray's
contains; only a cone with lineality, where some input ray lies on every
facet, takes a second DD for its generators.  A cone given by inequalities is
the dual of the cone their rays generate.  The generator-facet incidence
found by the DD is kept with the cone, and the face lattice of the cone and
of its dual is built from it.  Both hot loops work on coprime integer rays
and bitmasks; the initial Gram inverse and the lineality space come from the
fraction-free elimination of :mod:`conewh.exact`.  Every generator and facet
normal, of a cone or of a face, is stored as that primitive int tuple; a
point given to a cone (a membership test, an exposed face) is read as an
exact rational tuple.
"""

from dataclasses import dataclass, field
from math import gcd
from operator import mul

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
    vector_text,
    vneg,
)


@dataclass(frozen=True)
class Incidence:
    """Generator-facet incidence of a dual pair, as the DD that built it found
    it: by_generator[g] is the bitmask of the inequalities vanishing on
    generator g (bit i for inequality i), by_inequality its transpose.
    Whether the cone is pointed and solid is read off the lineality spaces
    of the same DD."""

    by_generator: tuple
    by_inequality: tuple
    pointed: bool
    solid: bool

    @classmethod
    def from_generators(cls, by_generator, m, pointed, solid):
        """The incidence of the masks of the generators over m inequalities."""
        return cls(tuple(by_generator), tuple(_transpose(by_generator, m)), pointed, solid)

    def dual(self):
        """The incidence of the dual pair: transposed, pointed and solid swapped."""
        return Incidence(self.by_inequality, self.by_generator, self.solid, self.pointed)


@dataclass(frozen=True)
class PolyhedralCone:
    """Dual pair of canonical representations of a closed convex cone in Q^n.

    Every cone carries the incidence of its pair, as the DD that built it
    found it; it takes no part in comparisons."""

    ambient_dim: int
    generators: tuple
    inequalities: tuple
    incidence: Incidence = field(compare=False, repr=False)

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


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a pointed cone, with the covering relation of inclusion."""

    cone: PolyhedralCone
    faces: tuple            # sorted by (dim, active_set)
    order: tuple            # covering pairs (i, j): faces[i] covered by faces[j]
    dims: tuple             # multiset of face dimensions, sorted


def _dedupe_sorted(vectors):
    return tuple(sorted(set(vectors)))


def _bits(mask):
    """The indices of the set bits of mask, increasing."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks, width):
    """The column bitmasks, width of them, of a 0/1 matrix given by row bitmasks."""
    cols = [0] * width
    for r, mask in enumerate(masks):
        for c in _bits(mask):
            cols[c] |= 1 << r
    return cols


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
        raise DimensionMismatchError(f"ambient dimension required: no {what} given")
    if ambient_dim < 1:
        raise DimensionMismatchError(f"ambient dimension must be >= 1, got {ambient_dim}")
    return vecs, ambient_dim


def _extreme_rays(rows, n):
    """Double description: extreme rays of the pointed part of {x : rows @ x >= 0},
    plus a basis of the lineality space.  Returns (rays, masks, lineality_basis);
    rows are distinct coprime int tuples, and so are the rays and the canonical
    basis.  masks[i] is the bitmask of the rows ray i lies on (bit t for
    rows[t]).

    Each ray carries the bitmask of the processed rows it lies on.  Two rays
    of the pointed k-dimensional cone are adjacent iff their common mask has
    at least k - 2 rows and no third ray's mask contains it (the combinatorial
    test of Fukuda & Prodon, "Double description method revisited", 1996).
    """
    lineality = nullspace(rows, n)
    k = n - len(lineality)
    if k == 0:
        return [], [], lineality

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
    return rays, masks, lineality


def _generators_with_masks(rows, n):
    """{generator: bitmask of the rows it lies on} of {x : rows @ x >= 0}, for
    distinct int rows: the DD rays, and a +/- pair per lineality basis vector,
    which lies on every row."""
    rays, masks, lin = _extreme_rays(rows, n)
    gens = dict(zip(rays, masks))
    every = (1 << len(rows)) - 1
    for b in lin:
        gens[b] = gens[vneg(b)] = every
    return gens, not lin


def _dual_pair(vecs, n):
    """(generators, inequalities, incidence) of the cone generated by the
    canonical int rays vecs.

    The inequalities and their masks over the input rays come from the DD of
    {x : vecs @ x >= 0}; the transposed masks are the facet sets of the input
    rays.  In a pointed cone an input ray is extreme iff no other input ray's
    facet set contains its own: the facets holding a ray inside a face of
    dim >= 2 hold every extreme ray of that face, and the cone is generated
    by the input rays, so one of them is such an extreme ray.  The cone has
    lineality iff some input ray lies on every facet, and then its generators
    come from a second DD, of the inequalities.
    """
    rows = list(dict.fromkeys(vecs))
    by_ineq, solid = _generators_with_masks(rows, n)
    ineqs = sorted(by_ineq)
    m = len(ineqs)
    on_facet = [by_ineq[a] for a in ineqs]
    facet_sets = _transpose(on_facet, len(rows))
    if (1 << m) - 1 in facet_sets:
        by_gen = _generators_with_masks(ineqs, n)[0]
        gens = sorted(by_gen)
        return gens, ineqs, Incidence.from_generators([by_gen[g] for g in gens], m, False, solid)
    # The input rays on every facet of rows[t] are those whose facet sets
    # contain its own: rows[t] is extreme iff it is the only one.
    extreme = {}
    for t, z in enumerate(facet_sets):
        same = (1 << len(rows)) - 1
        for i in _bits(z):
            same &= on_facet[i]
        if same == 1 << t:
            extreme[rows[t]] = z
    gens = sorted(extreme)
    return gens, ineqs, Incidence.from_generators([extreme[g] for g in gens], m, True, solid)


def cone_from_generators(rays, ambient_dim=None) -> PolyhedralCone:
    """Cone of all nonnegative rational combinations of the given rays.

    Both representations are computed and canonicalized; redundant input rays
    are absorbed.  An empty ray list needs an explicit ambient dimension and
    yields the zero cone.
    """
    vecs, n = _validate_rows(rays, ambient_dim, "rays")
    gens, ineqs, incidence = _dual_pair(vecs, n)
    for a in ineqs:
        if min(products := [sum(map(mul, a, v)) for v in vecs], default=0) < 0:
            p, v = min(zip(products, vecs))
            raise MembershipError(f"internal: input ray {vector_text(v)} violates derived "
                                  f"inequality {vector_text(a)}: product {p} < 0")
    return PolyhedralCone(n, tuple(gens), tuple(ineqs), incidence)


def cone_from_inequalities(rows, ambient_dim=None) -> PolyhedralCone:
    """Cone {x : <a_i, x> >= 0} with canonical dual pair of representations:
    the dual of the cone the rows generate."""
    vecs, n = _validate_rows(rows, ambient_dim, "inequalities")
    ineqs, gens, incidence = _dual_pair(vecs, n)
    return PolyhedralCone(n, tuple(gens), tuple(ineqs), incidence.dual())


def dual_cone(cone: PolyhedralCone) -> PolyhedralCone:
    """C* = {y : <y, x> >= 0 for all x in C}; a swap of the two representations."""
    return PolyhedralCone(cone.ambient_dim, cone.inequalities, cone.generators,
                          cone.incidence.dual())


def is_pointed(cone: PolyhedralCone) -> bool:
    """No line in the cone: the inequality normals have full rank."""
    return cone.incidence.pointed


def is_solid(cone: PolyhedralCone) -> bool:
    """The generators span the ambient space."""
    return cone.incidence.solid


def _reindexed(incidence, gens, ineqs, new_gens, new_ineqs):
    """The incidence of the rows gens, ineqs, carried to the same rows in the
    order new_gens, new_ineqs."""
    old = {g: i for i, g in enumerate(gens)}
    new = {a: i for i, a in enumerate(new_ineqs)}
    pos = [new[a] for a in ineqs]
    masks = [sum(1 << pos[i] for i in _bits(incidence.by_generator[old[g]])) for g in new_gens]
    return Incidence.from_generators(masks, len(new_ineqs), incidence.pointed, incidence.solid)


def negate_cone(cone: PolyhedralCone) -> PolyhedralCone:
    gens = [vneg(g) for g in cone.generators]
    ineqs = [vneg(a) for a in cone.inequalities]
    new_gens, new_ineqs = _dedupe_sorted(gens), _dedupe_sorted(ineqs)
    return PolyhedralCone(cone.ambient_dim, new_gens, new_ineqs,
                          _reindexed(cone.incidence, gens, ineqs, new_gens, new_ineqs))


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


def violation(cone, x):
    """The first inequality of the cone that x violates, with their product, as text."""
    a = next(a for a in cone.inequalities if vdot(a, x) < 0)
    return f"inequality {vector_text(a)} gives {vdot(a, x)} < 0"


def _face_from_generator_subset(cone, gens):
    active = tuple(i for i, a in enumerate(cone.inequalities)
                   if all(vdot(a, g) == 0 for g in gens))
    return Face(cone, active, _dedupe_sorted(gens), rank(list(gens)))


def face_lattice(cone: PolyhedralCone) -> FaceLattice:
    """All faces of a pointed cone by active-set closure over the facets.

    Nonzero faces of a pointed cone are generated by the extreme rays they
    contain, so the closed active sets are exactly the intersections of the
    per-ray zero patterns, plus the full set for the bottom face {0}; the
    zero patterns are the incidence the DD of the cone found, and the rays on
    a face are read off its transpose.  Faces are keyed by that facet
    bitmask.  The closure H = F & zp[g] of a face F and a ray g outside it
    covers F iff every ray of H outside F closes F to the same H (Kaibel &
    Pfetsch, "Computing the face lattice of a polytope from its vertex-facet
    incidences", 2002).
    """
    require_pointed(cone, "face lattice")
    m = len(cone.inequalities)
    full = (1 << m) - 1
    zero_patterns, on_facet = cone.incidence.by_generator, cone.incidence.by_inequality
    every = (1 << len(zero_patterns)) - 1

    # Breadth-first from the bottom face: each face's covers are its minimal
    # closures, and a face's dim is its grade.
    ray_masks = {full: 0}       # facet mask -> bitmask of the rays on the face
    covers, dims, queue = {}, {full: 0}, [full]
    for mask in queue:
        rm = ray_masks[mask]
        closures = {}           # closure -> how many rays outside the face give it
        for g, zm in enumerate(zero_patterns):
            if not rm >> g & 1:
                h = mask & zm
                closures[h] = closures.get(h, 0) + 1
        covers[mask] = []
        for h, count in closures.items():
            if h not in ray_masks:
                rays = every
                for i in _bits(h):
                    rays &= on_facet[i]
                ray_masks[h] = rays
            if count == ray_masks[h].bit_count() - rm.bit_count():
                covers[mask].append(h)
                if h not in dims:
                    dims[h] = dims[mask] + 1
                    queue.append(h)

    active = {mask: tuple(_bits(mask)) for mask in dims}
    ordered = sorted(dims, key=lambda mask: (dims[mask], active[mask]))
    index = {mask: i for i, mask in enumerate(ordered)}
    gens = cone.generators
    faces = tuple(Face(cone, active[mask], tuple(gens[g] for g in _bits(ray_masks[mask])),
                       dims[mask])
                  for mask in ordered)
    order = tuple(sorted((index[mask], index[h]) for mask in ordered for h in covers[mask]))
    return FaceLattice(cone, faces, order, tuple(sorted(dims.values())))


def exposed_face(cone: PolyhedralCone, x) -> Face:
    """Smallest exposed face of the cone containing x: C n (C* n x-perp)-perp."""
    require_pointed(cone, "exposed face")
    x = rvec(x)
    if not cone.contains(x):
        raise MembershipError(f"point {vector_text(x)} is not in the cone: {violation(cone, x)}")
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
    if (r := rank(basis)) != len(basis):
        raise RankDeficientError(f"subspace basis is rank-deficient: {len(basis)} vectors "
                                 f"of rank {r}")
    projected = []
    for g in cone.generators:
        p = project_onto_span(basis, g)
        if not is_zero_vec(p):
            projected.append(p)
    return cone_from_generators(projected, cone.ambient_dim)
