"""Slice-gauge trivializations: identity case, rotated family, bounds, and the
point-or-rows contract of the per-point functions."""

import numpy as np
import pytest

from conewh.cones import cone_from_generators, face_lattice
from conewh.convex import PolyhedralConeBody
from conewh.errors import DimensionMismatchError, TrivializationError
from conewh.trivialization import (
    build_trivialization,
    lipschitz_bound,
    triv_apply,
    triv_det,
    triv_det_formula,
    triv_sample_source,
    triv_target_margin,
)

XI0 = np.array([1.0, 1.0]) / np.sqrt(2)


def test_lipschitz_bound_values():
    assert lipschitz_bound(1.0, 1.0) == pytest.approx(3.0)
    assert lipschitz_bound(1.0, 2.0) == pytest.approx(14.0)
    with pytest.raises(TrivializationError):
        lipschitz_bound(0.0, 1.0)
    with pytest.raises(TrivializationError):
        lipschitz_bound(2.0, 1.0)


def test_identity_trivialization(quarter):
    triv = build_trivialization(quarter, quarter, xi0=XI0)
    rng = np.random.default_rng(0)
    X = triv_sample_source(triv, rng, 50)
    assert np.abs(triv_apply(triv, X) - X).max() < 1e-12
    for x in X[:10]:
        assert triv_det_formula(triv, x) == pytest.approx(1.0)
        assert triv_det(triv, x) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("angle_deg", [2.0, 5.0, 10.0])
def test_rotated_family(quarter, angle_deg):
    body = PolyhedralConeBody.from_exact(quarter)
    rotated = body.rotated(np.deg2rad(angle_deg))
    triv = build_trivialization(quarter, rotated, xi0=XI0)
    rng = np.random.default_rng(1)

    src = triv_sample_source(triv, rng, 2000)
    out = triv_apply(triv, src)
    assert triv_target_margin(triv, out).min() > -1e-8

    # determinant: finite differences vs the gauge-ratio formula
    for x in src[:100]:
        ref = triv_det_formula(triv, x)
        assert ref > 0
        assert abs(triv_det(triv, x) - ref) <= 1e-6 * abs(ref)

    # empirical Lipschitz ratio vs sqrt(2) * max(L, |xi0|)
    A = rng.uniform(-3, 3, (10000, 2))
    B = A + rng.normal(0, 0.4, A.shape)
    ratios = (np.linalg.norm(triv_apply(triv, A) - triv_apply(triv, B), axis=1)
              / np.linalg.norm(A - B, axis=1))
    assert ratios.max() <= np.sqrt(2) * max(triv.lipschitz, 1.0)


def test_gauge_margin_matches_point_loop(quarter):
    """The slice-gauge margin (float target body) against a per-point loop."""
    rotated = PolyhedralConeBody.from_exact(quarter).rotated(np.deg2rad(6.0))
    triv = build_trivialization(rotated, quarter, xi0=XI0)
    pts = np.random.default_rng(3).uniform(-2, 2, (400, 2))
    W = pts @ triv.Q.T
    t = W @ triv.xi0_c
    Z2 = (W - np.outer(t, triv.xi0_c)) @ triv.Q2.T
    loop = np.array([ti if ti <= 0 else ti * (1.0 - triv.body_e.gauge(z2 / ti))
                     for ti, z2 in zip(t, Z2)])
    assert (t <= 0).any() and (t > 0).any()
    assert triv_target_margin(triv, pts).tobytes() == loop.tobytes()


def test_round_trip_between_rotated_cones(quarter):
    body = PolyhedralConeBody.from_exact(quarter)
    rotated = body.rotated(np.deg2rad(7.0))
    fwd = build_trivialization(quarter, rotated, xi0=XI0)
    back = build_trivialization(rotated, quarter, xi0=XI0)
    rng = np.random.default_rng(2)
    X = triv_sample_source(fwd, rng, 200)
    Y = triv_apply(back, triv_apply(fwd, X))
    assert np.abs(Y - X).max() < 1e-9


def test_level_mismatch_rejected(quarter):
    lat = face_lattice(quarter)
    bottom = [f for f in lat.faces if f.dim == 0][0]
    top = [f for f in lat.faces if f.dim == 2][0]
    with pytest.raises(TrivializationError):
        build_trivialization(bottom, top)


def test_inadmissible_base_point(quarter):
    with pytest.raises(TrivializationError):
        build_trivialization(quarter, quarter, xi0=np.array([1.0, 0.0]))
    with pytest.raises(TrivializationError):
        build_trivialization(quarter, quarter, xi0=np.array([-1.0, -1.0]) / np.sqrt(2))


def test_face_to_face_trivialization():
    cone = cone_from_generators([(1, 0), (3, 1)])
    rays = [f for f in face_lattice(cone).faces if f.dim == 1]
    triv = build_trivialization(rays[0], rays[1])
    rng = np.random.default_rng(3)
    src = triv_sample_source(triv, rng, 100)
    out = triv_apply(triv, src)
    assert triv_target_margin(triv, out).min() > -1e-9
    # the orthocomplement part is handled linearly into the target complement
    span = np.array([[float(c) for c in g] for g in rays[0].generators])
    perp_img = triv_apply(triv, np.array([[-1.0, 3.0]]))[0]
    assert abs(perp_img @ span[0]) < 1e-12


def test_facets_in_r3(simplicial):
    """2-D faces in R^3: the span projection carries F's span onto E's."""
    tilted = cone_from_generators([(10, 1, 0), (0, 1, 0), (0, 0, 1)])
    E = [f for f in face_lattice(simplicial).faces
         if f.generators == ((0, 1, 0), (1, 0, 0))][0]
    F = [f for f in face_lattice(tilted).faces
         if f.generators == ((0, 1, 0), (10, 1, 0))][0]
    triv = build_trivialization(E, F)
    assert triv.span_dim == 2
    src = triv_sample_source(triv, np.random.default_rng(5), 500)
    assert triv_target_margin(triv, triv_apply(triv, src)).min() >= -1e-9
    for x in src[:50]:
        ref = triv_det_formula(triv, x)
        assert abs(triv_det(triv, x) - ref) <= 1e-6 * abs(ref)


def test_default_base_point(quarter):
    body = PolyhedralConeBody.from_exact(quarter)
    rotated = body.rotated(np.deg2rad(4.0))
    triv = build_trivialization(quarter, rotated)  # barycentric default
    rng = np.random.default_rng(4)
    out = triv_apply(triv, triv_sample_source(triv, rng, 200))
    assert triv_target_margin(triv, out).min() > -1e-8



def _rotated_quarter(quarter):
    rotated = PolyhedralConeBody.from_exact(quarter).rotated(np.deg2rad(5.0))
    return build_trivialization(quarter, rotated, xi0=XI0)


@pytest.mark.parametrize("fn", [triv_apply, triv_det, triv_det_formula, triv_target_margin])
@pytest.mark.parametrize("x", [np.ones(3), np.ones((4, 3)), [0.5]])
def test_wrong_point_dimension_is_typed(quarter, fn, x):
    with pytest.raises(DimensionMismatchError, match="points need 2 coordinates"):
        fn(_rotated_quarter(quarter), x)


def test_determinants_on_rows_and_points(quarter):
    """A k = 3 trivialization (hull slice bodies) and the rotated quarter
    (k = 2): rows give the per-point values, and one point gives a float."""
    solid = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    tilted = cone_from_generators([(10, 1, 0), (0, 10, 1), (1, 0, 10)])
    k3 = build_trivialization(solid, tilted)
    assert k3.span_dim == 3 and k3.body_e.dim == 2
    src = triv_sample_source(k3, np.random.default_rng(6), 300)
    assert triv_target_margin(k3, triv_apply(k3, src)).min() > 0
    for triv in (k3, _rotated_quarter(quarter)):
        X = triv_sample_source(triv, np.random.default_rng(7), 60)
        for fn in (triv_det, triv_det_formula):
            rows = fn(triv, X)
            points = [fn(triv, x) for x in X]
            assert rows.shape == (60,) and all(type(v) is float for v in points)
            np.testing.assert_allclose(rows, points, rtol=1e-12, atol=0)
        ref = triv_det_formula(triv, X)
        assert ref.min() > 0 and np.abs(triv_det(triv, X) - ref).max() <= 1e-6 * ref.max()

    cone = cone_from_generators([(1, 0), (3, 1)])
    rays = [f for f in face_lattice(cone).faces if f.dim == 1]
    k1 = build_trivialization(rays[0], rays[1])
    X = triv_sample_source(k1, np.random.default_rng(8), 20)
    for fn in (triv_det, triv_det_formula):
        assert (fn(k1, X) == 1.0).all()
        assert fn(k1, X[0]) == 1.0 and type(fn(k1, X[0])) is float
    assert type(triv_target_margin(k1, X[0])) is float
