"""Strata, compactification points, ray limits, incidence, spectrum, pk limits."""

import re
from fractions import Fraction

import numpy as np
import pytest

from conewh.cones import (
    cone_from_generators,
    cone_from_inequalities,
    dual_cone,
    exposed_face,
    face_lattice,
)
from conewh.errors import (
    DomainError,
    LevelRangeError,
    MembershipError,
    NotOrderPointError,
    NotPointedError,
    NotSolidError,
)
from conewh.exact import rvec, vdot
from conewh.limits import hausdorff_distance, pk_converged, sample_cone
from conewh.strata import (
    incidence_pairs,
    order_point,
    order_point_hrep,
    ray_limit,
    recover_face_point,
    sigma_bundle,
    solvable_length,
    spectrum_poset,
    strata,
)

from oracles import sampled_set_from_points


def F(*vals):
    return tuple(Fraction(v) for v in vals)


def test_strata_examples(quarter, half_line, fourgonal):
    st = strata(quarter)
    assert st.length == 2
    assert [len(level) for level in st.levels] == [1, 2, 1]
    assert strata(half_line).length == 1
    st4 = strata(fourgonal)
    assert st4.length == 3
    assert [len(level) for level in st4.levels] == [1, 4, 4, 1]


def test_strata_partition(quarter, simplicial, fourgonal):
    for omega in (quarter, simplicial, fourgonal):
        st = strata(omega)
        total = sum(len(level) for level in st.levels)
        assert total == len(face_lattice(dual_cone(omega)).faces)
        assert len(st.levels[0]) == 1 and st.levels[0][0].dim == omega.ambient_dim
        assert len(st.levels[-1]) == 1 and st.levels[-1][0].dim == 0


def test_strata_require_pointed_solid():
    with pytest.raises(NotPointedError):
        strata(cone_from_inequalities([(1, 0)], 2))
    with pytest.raises(NotSolidError):
        strata(cone_from_generators([(1, 0)], 2))


def test_solvable_length(half_line, quarter, simplicial):
    assert solvable_length(half_line) == 1
    assert solvable_length(quarter) == 2
    assert solvable_length(simplicial) == 3


def test_sigma_bundle_quarter(quarter):
    top = sigma_bundle(quarter, 0)
    assert top.rank == 0 and len(top.fibers) == 1
    mid = sigma_bundle(quarter, 1)
    fibers = {f.generators[0]: basis for f, basis in mid.fibers}
    assert fibers[F(1, 0)] == (F(0, 1),)
    assert fibers[F(0, 1)] == (F(1, 0),)
    bot = sigma_bundle(quarter, 2)
    assert bot.rank == 2
    with pytest.raises(LevelRangeError):
        sigma_bundle(quarter, 3)


def test_sigma_bundle_ranks(quarter, simplicial, fourgonal):
    for omega in (quarter, simplicial, fourgonal):
        st = strata(omega)
        n = omega.ambient_dim
        for j in range(st.length + 1):
            bundle = sigma_bundle(st, j)
            expected = n - st.dims[st.length - j]
            for face, basis in bundle.fibers:
                assert len(basis) == expected
                for b in basis:
                    assert all(vdot(b, g) == 0 for g in face.generators)


def test_order_point_membership(quarter):
    st = strata(quarter)
    ray = st.levels[1][0]
    direction = ray.generators[0]
    order_point(ray, direction)
    perp = (direction[1], -direction[0])
    with pytest.raises(MembershipError, match=re.escape(
            "point (0, -1) is not in the relative dual of the face with active set (0,): "
            "inequality (0, 1) gives -1 < 0")):
        order_point(ray, perp)


def test_order_point_roundtrip_random(quarter, fourgonal):
    rng = np.random.default_rng(42)
    for omega in (quarter, fourgonal):
        st = strata(omega)
        faces = [f for level in st.levels for f in level]
        for _ in range(200):
            face = faces[rng.integers(len(faces))]
            from conewh.strata import relative_dual

            gens = relative_dual(face).generators
            if gens:
                coeffs = [Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 5)))
                          for _ in gens]
                x = tuple(sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0))
                          for i in range(omega.ambient_dim))
            else:
                x = tuple(Fraction(0) for _ in range(omega.ambient_dim))
            op = order_point(face, x)
            rows, offs = order_point_hrep(op)
            got_face, got_x = recover_face_point(omega, rows, offs)
            assert got_face.active_set == face.active_set
            assert got_x == rvec(x)


def test_recover_examples(quarter):
    # interior translate: A = (1,2) - Omega*
    face, x = recover_face_point(quarter, [(1, 0), (0, 1)], [1, 2])
    assert face.dim == 2 and x == F(1, 2)
    # edge translate: A = (3,0) - (ray e1)*
    face, x = recover_face_point(quarter, [(1, 0)], [3])
    assert face.generators == (F(1, 0),) and x == F(3, 0)


def test_recover_rejects_non_order_points(quarter):
    # inconsistent offsets: not a translate of a cone
    with pytest.raises(NotOrderPointError, match="its 2 rows and offsets have no common "
                                                 "solution"):
        recover_face_point(quarter, [(1, 0), (2, 0)], [1, 3])
    # homogeneous part is not a face of the dual lattice
    with pytest.raises(NotOrderPointError, match=re.escape(
            "its rows generate the cone of (1, 1), no face of the dual cone")):
        recover_face_point(quarter, [(1, 1)], [0])
    # point outside the relative dual
    with pytest.raises(NotOrderPointError, match=re.escape(
            "its point (-2, 0) of the face's span is not in the relative dual of the face "
            "with active set (0,): inequality (1, 0) gives -2 < 0")):
        recover_face_point(quarter, [(1, 0)], [-2])


def test_recover_rejects_float_offsets(quarter):
    """Offsets are exact rationals: 0.1 is not read as 3602879701896397/2**55."""
    with pytest.raises(TypeError, match="exact rational expected, got float"):
        recover_face_point(quarter, [(1, 0)], [0.1])


def test_ray_limit_examples(quarter, half_line):
    interior = ray_limit(quarter, (1, 1))
    assert interior.inequalities == ()  # the whole plane
    edge = ray_limit(quarter, (1, 0))
    assert edge.inequalities == (F(0, -1),)  # half plane {y2 <= 0}
    assert ray_limit(half_line, (1,)).inequalities == ()


def test_ray_limit_depends_only_on_exposed_face(quarter, fourgonal):
    for omega, pairs in ((quarter, [((1, 0), (2, 0))]),
                         (fourgonal, [((1, 1, 1), (2, 2, 2)), ((1, 0, 1), (3, 0, 3))])):
        for x, y in pairs:
            assert exposed_face(omega, x).active_set == exposed_face(omega, y).active_set
            assert ray_limit(omega, x) == ray_limit(omega, y)


def test_ray_limit_errors(quarter):
    with pytest.raises(MembershipError):
        ray_limit(quarter, (0, 0))
    with pytest.raises(MembershipError):
        ray_limit(quarter, (-1, 0))


def test_ray_limit_sampled_convergence(quarter):
    """Hausdorff distance of lambda*x - Omega to the limit set decreases."""
    x = np.array(rvec((1, 0)), dtype=float)
    limit = ray_limit(quarter, (1, 0))
    bounds, step = (-4.0, 4.0), 0.25
    exact = sample_cone(limit, bounds, step)
    dists = []
    for lam in (10.0, 100.0, 1000.0):
        approx = sample_cone(quarter, bounds, step, shift=lam * x)
        dists.append(hausdorff_distance(approx, exact))
    assert dists[0] >= dists[1] >= dists[2]


def test_incidence_examples(quarter, fourgonal):
    ip1 = incidence_pairs(quarter, 1)
    assert len(ip1.pairs) == 2 and ip1.xi == (0, 0) and sorted(ip1.eta) == [0, 1]
    ip2 = incidence_pairs(quarter, 2)
    assert len(ip2.pairs) == 2
    assert len(incidence_pairs(fourgonal, 2).pairs) == 8
    with pytest.raises(LevelRangeError):
        incidence_pairs(quarter, 0)
    with pytest.raises(LevelRangeError):
        incidence_pairs(quarter, 3)


def test_incidence_pairs_are_inclusions(quarter, simplicial, fourgonal):
    for omega in (quarter, simplicial, fourgonal):
        st = strata(omega)
        for j in range(1, st.length + 1):
            ip = incidence_pairs(st, j)
            expected = [(e, f) for e in st.levels[j - 1] for f in st.levels[j]
                        if set(f.active_set) >= set(e.active_set)]
            assert list(ip.pairs) == expected
            assert ip.uncovered == ()  # graded lattices: every face is covered
            for k, (e, f) in enumerate(ip.pairs):
                assert st.levels[j - 1][ip.xi[k]] is e
                assert st.levels[j][ip.eta[k]] is f


def test_spectrum_poset(quarter, half_line, simplicial):
    sp = spectrum_poset(half_line)
    assert len(sp.levels) == 2 and sp.ranks == (0, 1)
    assert sp.dense_level == 0 and sp.dag_edges == ((0, 1),)
    spq = spectrum_poset(quarter)
    assert len(spq.levels) == 3
    assert len(spq.levels[1].fibers) == 2
    assert spq.ranks == (0, 1, 2)
    sps = spectrum_poset(simplicial)
    assert len(sps.levels) == 4
    assert sps.levels_finite


# -- sampled Painleve--Kuratowski limits --------------------------------------


def test_pk_constant_sequence():
    A = sampled_set_from_points([[0.0, 0.0], [1.0, 0.5]], (-2, 2), 0.1, tag="A")
    converged, lo, hi, dist = pk_converged([A] * 6, 0.3, bounds=(-2, 2), step=0.1)
    assert converged
    assert hausdorff_distance(lo, A) < 0.3
    assert hausdorff_distance(hi, A) < 0.3


def test_pk_escaping_point():
    seq = [sampled_set_from_points([[float(k)], [0.0]], (-2, 14), 0.2) for k in range(1, 13)]
    _, lo, hi, _ = pk_converged(seq, 0.3, bounds=(-2, 14), step=0.2)
    assert np.abs(lo.points).max() < 0.3
    assert np.abs(hi.points).max() < 0.3
    assert hausdorff_distance(lo, hi) <= 0.3


def test_pk_translated_cones_match_ray_limit(quarter):
    bounds, step, eps = (-4.0, 4.0), 0.25, 0.5
    x = np.array([1.0, 0.0])
    seq = [sample_cone(quarter, bounds, step, shift=k * x) for k in (2, 4, 8, 16, 32, 64)]
    converged, lo, hi, dist = pk_converged(seq, eps, bounds=bounds, step=step)
    assert converged
    exact = sample_cone(ray_limit(quarter, (1, 0)), bounds, step)
    assert hausdorff_distance(lo, exact) <= eps


def test_pk_liminf_subset_limsup():
    rng = np.random.default_rng(5)
    seq = [sampled_set_from_points(rng.integers(-4, 5, (20, 2)) * 0.25, (-1.5, 1.5), 0.25)
           for _ in range(8)]
    _, lo, hi, _ = pk_converged(seq, 0.4, bounds=(-1.5, 1.5), step=0.25)
    lo_set = {tuple(p) for p in np.round(lo.points, 9)}
    hi_set = {tuple(p) for p in np.round(hi.points, 9)}
    assert lo_set <= hi_set


def test_pk_errors():
    A = sampled_set_from_points(np.zeros((1, 1)), (-1, 1), 0.5)
    with pytest.raises(DomainError):
        pk_converged([A], 0.5)
    with pytest.raises(DomainError):
        pk_converged([A, A], -1.0)
    B = sampled_set_from_points(np.zeros((1, 1)), (-1, 1), 0.25)
    with pytest.raises(DomainError):
        pk_converged([A, B], 0.5)
    with pytest.raises(DomainError):
        pk_converged([A, A], 0.5, bounds=(-2, 2))
    with pytest.raises(DomainError):
        hausdorff_distance(A, B)
