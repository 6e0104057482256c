"""Exact cone geometry: conversions, duality, faces, projections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewh import cones
from conewh.cones import (
    cone_from_generators,
    cone_from_inequalities,
    dual_cone,
    dual_face,
    exposed_face,
    face_as_cone,
    face_lattice,
    is_pointed,
    is_solid,
    project_cone,
    relative_dual,
)
from conewh.errors import (
    DimensionMismatchError,
    MembershipError,
    NotPointedError,
    RankDeficientError,
)
from conewh.exact import nullspace, rvec, vdot, vneg

from oracles import (
    brute_force_exposed_face,
    brute_force_faces,
    cubic_covers,
    face_span_basis,
    fraction_dd_cone,
    hrep_member,
    integer_grid,
    minkowski_sum_cone,
    vrep_member,
)


def F(*vals):
    return tuple(Fraction(v) for v in vals)


def test_quarter_plane_hrep(quarter):
    assert quarter.inequalities == (F(0, 1), F(1, 0))
    assert quarter.generators == (F(0, 1), F(1, 0))


def test_half_line():
    c = cone_from_generators([(1,)], 1)
    assert c.inequalities == (F(1),)
    assert c.generators == (F(1),)


def test_skew_cone_hrep(skew):
    # frozen from the grid membership oracle below
    assert skew.inequalities == (F(0, 1), F(1, -1))


@pytest.mark.parametrize("rays", [
    [(1, 0), (0, 1)],
    [(1, 0), (1, 1)],
    [(2, 1), (-1, 3)],
    [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)],
])
def test_vrep_hrep_agree_on_grid(rays):
    cone = cone_from_generators(rays)
    n = cone.ambient_dim
    for x in integer_grid(n, 2):
        assert hrep_member(cone.inequalities, x) == vrep_member(rays, x)


def test_empty_rays_require_dim():
    with pytest.raises(DimensionMismatchError):
        cone_from_generators([])
    zero = cone_from_generators([], 2)
    assert zero.generators == ()
    assert len(zero.inequalities) == 4


@pytest.mark.parametrize("n", [20, 50])
def test_zero_cone_scales_each_gram_inverse_row_once(monkeypatch, n):
    """The double description scales each row of its Gram inverse to integers
    once, not once per column: O(n) ray canonicalizations for the zero cone
    in Q^n, where once per column made n**2 + 2n."""
    calls = []
    monkeypatch.setattr(cones, "canonical_ray",
                        lambda v, real=cones.canonical_ray: calls.append(v) or real(v))
    cone = cone_from_generators([], n)
    assert cone.generators == () and len(cone.inequalities) == 2 * n
    assert len(calls) <= 4 * n


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cone_from_generators([(1, 0), (1,)])


def test_dual_quarter_self(quarter):
    assert dual_cone(quarter) == quarter


def test_dual_full_space_is_zero():
    full = cone_from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)])
    zero = dual_cone(full)
    assert zero.generators == ()
    assert hrep_member(zero.inequalities, (0, 0))
    assert not hrep_member(zero.inequalities, (1, 0))


def test_dual_skew(skew):
    d = dual_cone(skew)
    assert d.generators == (F(0, 1), F(1, -1))
    # oracle: <x, y> >= 0 between sampled members of the cone and its dual
    for x in integer_grid(2, 2):
        if not vrep_member(skew.generators, x):
            continue
        for y in integer_grid(2, 2):
            if vrep_member(d.generators, y):
                assert vdot(rvec(x), rvec(y)) >= 0


@pytest.mark.parametrize("rays,n,pointed,solid", [
    ([(1, 0), (0, 1)], 2, True, True),
    ([(1, 0), (-1, 0), (0, 1)], 2, False, True),   # half plane {x2 >= 0}
    ([(1, 0)], 2, True, False),
])
def test_pointed_solid(rays, n, pointed, solid):
    c = cone_from_generators(rays, n)
    assert is_pointed(c) == pointed
    assert is_solid(c) == solid


def test_pointed_solid_duality_law(quarter, simplicial, fourgonal, skew):
    for c in (quarter, simplicial, fourgonal, skew,
              cone_from_generators([(1, 0)], 2),
              cone_from_generators([(1, 0), (-1, 0), (0, 1)], 2)):
        assert is_pointed(c) == is_solid(dual_cone(c))
        assert is_solid(c) == is_pointed(dual_cone(c))


def test_biduality(quarter, simplicial, fourgonal, skew):
    for c in (quarter, simplicial, fourgonal, skew):
        assert dual_cone(dual_cone(c)) == c


# -- face lattice ------------------------------------------------------------


def test_quarter_lattice(quarter):
    lat = face_lattice(quarter)
    assert len(lat.faces) == 4
    assert lat.dims == (0, 1, 1, 2)


def test_half_line_lattice(half_line):
    lat = face_lattice(half_line)
    assert len(lat.faces) == 2
    assert lat.dims == (0, 1)


def test_simplicial_boolean_lattice(simplicial):
    lat = face_lattice(simplicial)
    assert len(lat.faces) == 8  # Boolean lattice of the three facets
    assert lat.dims == (0, 1, 1, 1, 2, 2, 2, 3)


def test_face_lattice_matches_brute_force(quarter, simplicial, fourgonal, skew):
    for cone in (quarter, simplicial, fourgonal, skew):
        lat = face_lattice(cone)
        expected = brute_force_faces(cone)
        got = {f.active_set: (f.generators, f.dim) for f in lat.faces}
        assert got == expected
        # covering pairs recomputed naively from strict inclusion
        naive = set()
        faces = lat.faces
        for i, f in enumerate(faces):
            for j, g in enumerate(faces):
                if i == j or not set(f.active_set) > set(g.active_set):
                    continue
                if not any(set(f.active_set) > set(h.active_set) > set(g.active_set)
                           for h in faces):
                    naive.add((i, j))
        assert set(lat.order) == naive


def test_face_lattice_needs_pointed():
    half_plane = cone_from_inequalities([(1, 0)], 2)
    with pytest.raises(NotPointedError):
        face_lattice(half_plane)


# -- exposed faces -----------------------------------------------------------


def test_exposed_face_examples(quarter, simplicial):
    assert exposed_face(quarter, (1, 0)).generators == (F(1, 0),)
    assert exposed_face(quarter, (1, 1)).dim == 2
    f = exposed_face(simplicial, (1, 1, 0))
    assert f.generators == (F(0, 1, 0), F(1, 0, 0))


def test_exposed_face_outside_errors(quarter):
    with pytest.raises(MembershipError, match=r"^point \(-1, 0\) is not in the cone: "
                                              r"inequality \(1, 0\) gives -1 < 0$"):
        exposed_face(quarter, (-1, 0))


def test_exposed_face_matches_brute_force(quarter, simplicial, fourgonal):
    pts = {2: [(1, 0), (0, 2), (1, 1), (0, 0)],
           3: [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 0, 0), (1, 1, 2), (0, 1, 1)]}
    for cone in (quarter, simplicial, fourgonal):
        for x in pts[cone.ambient_dim]:
            if not cone.contains(x):
                continue
            face = exposed_face(cone, x)
            active, gens = brute_force_exposed_face(cone, x)
            assert face.active_set == active
            assert face.generators == gens


# -- dual faces and relative duals -------------------------------------------


def test_dual_face_examples(quarter, simplicial):
    lat = face_lattice(quarter)
    ray_e1 = [f for f in lat.faces if f.generators == (F(1, 0),)][0]
    assert dual_face(ray_e1).generators == (F(0, 1),)
    bottom = [f for f in lat.faces if f.dim == 0][0]
    assert dual_face(bottom).dim == 2  # {0} maps to the whole dual cone
    f12 = exposed_face(simplicial, (1, 1, 0))
    assert dual_face(f12).generators == (F(0, 0, 1),)


def test_dual_face_anti_isomorphism(quarter, simplicial, fourgonal):
    for cone in (quarter, simplicial, fourgonal):
        lat = face_lattice(cone)
        dlat = face_lattice(dual_cone(cone))
        images = {}
        for f in lat.faces:
            images[f.active_set] = dual_face(f)
        # bijection onto the dual lattice
        got = sorted(img.active_set for img in images.values())
        assert got == sorted(f.active_set for f in dlat.faces)
        # inclusion-reversing
        for f in lat.faces:
            for g in lat.faces:
                if set(f.active_set) >= set(g.active_set):  # f subset of g
                    fi, gi = images[f.active_set], images[g.active_set]
                    assert set(gi.active_set) >= set(fi.active_set)


def test_relative_dual_examples(quarter, simplicial):
    lat = face_lattice(quarter)
    ray_e1 = [f for f in lat.faces if f.generators == (F(1, 0),)][0]
    rd = relative_dual(ray_e1)
    assert rd.generators == (F(1, 0),)
    top = [f for f in lat.faces if f.dim == 2][0]
    assert relative_dual(top) == quarter
    f12 = exposed_face(simplicial, (1, 1, 0))
    rd2 = relative_dual(f12)
    assert rd2.generators == (F(0, 1, 0), F(1, 0, 0))


# -- projections --------------------------------------------------------------


def test_project_cone_examples(quarter):
    p = project_cone(quarter, [(1, 0)])
    assert p.generators == (F(1, 0),)
    assert project_cone(quarter, [(1, 0), (0, 1)]) == quarter


def test_project_cone_rank_deficient(quarter):
    with pytest.raises(RankDeficientError, match="rank-deficient: 2 vectors of rank 1$"):
        project_cone(quarter, [(1, 0), (2, 0)])


def test_face_projection_identities(quarter, simplicial, fourgonal):
    """The two exact identities relating a face, its dual face, projections,
    and relative duals, for every face of each test cone."""
    for omega in (quarter, simplicial, fourgonal):
        n = omega.ambient_dim
        for face in face_lattice(omega).faces:
            fcheck = dual_face(face)
            # identity 1: (F-check)* = span F + proj_{F-perp}(Omega)
            lhs = dual_cone(face_as_cone(fcheck))
            perp = nullspace(list(face.generators), n)
            proj = project_cone(omega, perp) if perp else cone_from_generators([], n)
            span_lines = [v for b in face_span_basis(face) for v in (b, vneg(b))]
            rhs = minkowski_sum_cone(proj.generators, span_lines, n)
            assert lhs == rhs
            # identity 2: proj_{F-check}(Omega) = (F-check)-circledast
            basis = face_span_basis(fcheck)
            lhs2 = project_cone(omega, basis) if basis else cone_from_generators([], n)
            assert lhs2 == relative_dual(fcheck)


def test_redundant_inputs_are_absorbed(quarter):
    with_redundant_ray = cone_from_generators([(1, 0), (0, 1), (2, 1), (1, 3)])
    assert with_redundant_ray == quarter
    with_redundant_ineq = cone_from_inequalities([(1, 0), (0, 1), (1, 1), (3, 1)], 2)
    assert with_redundant_ineq == quarter


def test_scaled_inputs_canonicalize(quarter):
    assert cone_from_generators([("3/2", "0"), ("0", "5/7")]) == quarter


def test_random_cones_vrep_hrep_cross_validation():
    """Randomized stress test of the double description conversion in Q^3/Q^4:
    derived inequalities agree with Caratheodory membership on an integer grid."""
    import numpy as np

    rng = np.random.default_rng(2024)
    for n in (3, 4):
        for _ in range(6):
            k = int(rng.integers(n, n + 3))
            rays = [tuple(int(v) for v in rng.integers(-2, 3, n)) for _ in range(k)]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            cone = cone_from_generators(rays, n)
            assert dual_cone(dual_cone(cone)) == cone
            for x in integer_grid(n, 1):
                assert hrep_member(cone.inequalities, x) == vrep_member(rays, x)


def test_octagonal_cone_lattice_matches_oracle():
    """8-facet cone: lattice still agrees exactly with the subset oracle."""
    # eight rational points on the circle of radius 5: all genuinely extreme
    base = [(5, 0), (4, 3), (0, 5), (-3, 4), (-5, 0), (-4, -3), (0, -5), (3, -4)]
    cone = cone_from_generators([(x, y, 5) for x, y in base])
    assert len(cone.inequalities) == 8
    lat = face_lattice(cone)
    expected = brute_force_faces(cone)
    assert {f.active_set: (f.generators, f.dim) for f in lat.faces} == expected
    assert len(lat.faces) == 18  # bottom + 8 rays + 8 facets + top


@st.composite
def _ray_sets(draw):
    """Small integer ray sets in Q^3/Q^4, some with a duplicate (possibly
    rescaled) ray, a redundant sum of two rays, or a line."""
    n = draw(st.sampled_from((3, 4)))
    vector = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    rays = draw(st.lists(vector, min_size=1, max_size=6))
    extra = draw(st.sampled_from(("none", "duplicate", "redundant", "line")))
    if extra == "duplicate":
        rays.append(tuple(draw(st.sampled_from((1, 2))) * c for c in rays[-1]))
    elif extra == "redundant":
        rays.append(tuple(a + b for a, b in zip(rays[0], rays[-1])))
    elif extra == "line":
        rays.append(tuple(-c for c in rays[0]))
    return n, rays


@settings(max_examples=60, deadline=None)
@given(_ray_sets())
def test_random_cones_match_rational_oracles(case):
    """Integer double description and bitmask lattice against the rational
    double description, the subset-closure face oracle and the O(F^3) covers."""
    n, rays = case
    cone = cone_from_generators(rays, n)
    assert (cone.generators, cone.inequalities) == fraction_dd_cone(rays, n)
    assert all(type(c) is int for v in cone.generators + cone.inequalities for c in v)
    assert cone_from_inequalities(cone.inequalities, n) == cone
    assert all(hrep_member(cone.inequalities, r) for r in rays)
    if is_pointed(cone):
        lat = face_lattice(cone)
        assert {f.active_set: (f.generators, f.dim) for f in lat.faces} == \
            brute_force_faces(cone)
        assert lat.order == cubic_covers(lat.faces)
        assert sum((-1) ** f.dim for f in lat.faces) == 0
