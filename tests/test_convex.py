"""Planar hulls, projections, support functionals, gauges, gradients, normal
cones."""

import json
import os

import numpy as np
import pytest
from scipy.spatial import QhullError


from conewh.cones import cone_from_generators, face_lattice
from conewh.convex import (
    projection_form_applies,
    BallBody,
    HPolytopeBody,
    PolyhedralConeBody,
    gauge,
    gauge_directional,
    gauge_gradient,
    gauge_gradient_projection_form,
    metric_project,
    normal_cone,
    support,
)
from conewh.errors import (
    DimensionMismatchError,
    GaugeDomainError,
    NotDifferentiableError,
    ProjectionError,
    RankDeficientError,
)
from conewh.exact import rvec
from conewh.io import read_cone_spec

from conewh.limits import SampledSet

from oracles import gauge_by_bisection, nnls_project_onto_ray_cone, qhull_body, same_rows

SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "specs")


@pytest.fixture(scope="module")
def quarter_body(quarter):
    return PolyhedralConeBody.from_exact(quarter)


@pytest.fixture(scope="module")
def square():
    return HPolytopeBody.from_vertices([[1, 1], [1, -1], [-1, 1], [-1, -1]])


@pytest.fixture(scope="module")
def fourgonal_slice(fourgonal):
    """Gauge body: slice of the 4-gonal cone at xi0 = e3 (a square in 2-D)."""
    normals = np.array([[float(c) for c in a] for a in fourgonal.inequalities])
    return HPolytopeBody.from_cone_slice(normals, np.array([0.0, 0.0, 1.0]))


def _cloud(rng, kind):
    """A seeded planar point set: Gaussian, with repeated points, with points
    on the hull's edges, or on one line (degenerate)."""
    V = rng.normal(size=(int(rng.integers(3, 40)), 2)) * rng.uniform(0.1, 100.0)
    if kind == "duplicates":
        return np.vstack([V, V[rng.integers(0, len(V), 10)]])
    if kind == "collinear":
        H = qhull_body(V)[2]
        t = rng.uniform(0.1, 0.9, (len(H), 1))
        return np.vstack([V, t * H + (1 - t) * np.roll(H, -1, axis=0), H])
    if kind == "degenerate":
        return np.outer(rng.normal(size=int(rng.integers(1, 10))), rng.normal(size=2))
    return V


@pytest.mark.parametrize("kind", ["gaussian", "duplicates", "collinear"])
def test_planar_hull_matches_qhull_oracle(kind):
    """The monotone-chain hull has Qhull's facets (unit outward normals and
    offsets, up to order) and vertices, counter-clockwise."""
    rng = np.random.default_rng({"gaussian": 40, "duplicates": 41, "collinear": 42}[kind])
    for _ in range(30):
        V = _cloud(rng, kind)
        body = HPolytopeBody.from_vertices(V)
        A, b, H = qhull_body(V)
        scale = np.abs(V).max()
        assert same_rows(np.column_stack([body.A, body.b / scale]),
                         np.column_stack([A, b / scale]), 1e-12)
        assert same_rows(body.vertices, H)
        assert np.allclose(np.linalg.norm(body.A, axis=1), 1.0, rtol=0, atol=1e-15)
        E = np.roll(body.vertices, -1, axis=0) - body.vertices
        turn = E[:, 0] * np.roll(E[:, 1], -1) - E[:, 1] * np.roll(E[:, 0], -1)
        assert (turn > 0).all()


def test_degenerate_or_high_dimensional_vertex_sets_are_typed():
    """Points on one line, or one point repeated, span no polygon, which Qhull
    rejects too; hulls in dimension 3 and up are not built."""
    rng = np.random.default_rng(43)
    for V in [_cloud(rng, "degenerate") for _ in range(10)] + [np.ones((4, 2))]:
        with pytest.raises(QhullError):
            qhull_body(V)
        with pytest.raises(RankDeficientError, match="span no polygon"):
            HPolytopeBody.from_vertices(V)
    with pytest.raises(DimensionMismatchError, match="got dimension 3"):
        HPolytopeBody.from_vertices(np.eye(3))
    interval = HPolytopeBody.from_vertices([[2.0], [-0.5], [1.0]])
    assert interval.A.tolist() == [[1.0], [-1.0]] and interval.b.tolist() == [2.0, 0.5]


def test_project_quarter_clipping(quarter_body):
    assert np.allclose(metric_project(quarter_body, [-1, 2]), [0, 2])
    assert np.allclose(metric_project(quarter_body, [3, 4]), [3, 4])
    assert np.allclose(metric_project(quarter_body, [-1, -2]), [0, 0])


def test_projection_nonexpansive_and_idempotent(quarter_body, square):
    """10,000 point pairs for the square, 2,000 for the cone and the ball."""
    rng = np.random.default_rng(1)
    for body, dim in ((quarter_body, 2), (square, 2), (BallBody(1.5, 2), 2)):
        X = rng.uniform(-4, 4, (10000, dim))
        Y = rng.uniform(-4, 4, (10000, dim))
        if not isinstance(body, HPolytopeBody):
            X, Y = X[:2000], Y[:2000]
        PX = np.array([body.project(x) for x in X])
        PY = np.array([body.project(y) for y in Y])
        d_in = np.linalg.norm(X - Y, axis=1)
        d_out = np.linalg.norm(PX - PY, axis=1)
        assert np.all(d_out <= d_in + 1e-9)
        PPX = np.array([body.project(p) for p in PX])
        assert np.abs(PPX - PX).max() < 1e-9


def test_projection_variational_inequality(square):
    rng = np.random.default_rng(2)
    X = rng.uniform(-4, 4, (500, 2))
    P = np.array([square.project(x) for x in X])
    V = rng.uniform(-1, 1, (50, 2))  # members of the square
    for x, p in zip(X, P):
        assert np.max((x - p) @ (V - p).T) <= 1e-9 * max(1.0, np.linalg.norm(x - p)) * 4


def test_projection_joint_continuity(quarter_body):
    """Rotating cones and moving points: projections converge monotonically."""
    x = np.array([-1.0, 2.0])
    p0 = quarter_body.project(x)
    dists = []
    for deg in (10, 5, 2, 1, 0.5):
        body = quarter_body.rotated(np.deg2rad(deg))
        xk = x + np.deg2rad(deg) * np.array([0.3, -0.2])
        dists.append(np.linalg.norm(body.project(xk) - p0))
    assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.02


@pytest.mark.parametrize("dim", [2, 3])
def test_cone_projection_matches_nnls_oracle(dim):
    """The active-set projection onto random pointed cones equals nonnegative
    least squares on their rays, at points inside and outside the cone."""
    rng = np.random.default_rng(30 + dim)
    for _ in range(25):
        rays = rng.integers(-4, 5, (rng.integers(1, dim + 5), dim))
        rays[:, -1] = np.abs(rays[:, -1]) + 1       # pointed: all above x_dim = 0
        body = PolyhedralConeBody.from_exact(
            cone_from_generators([rvec(r) for r in rays.tolist()], dim))
        inside = rng.uniform(0.0, 2.0, (20, len(rays))) @ rays
        outside = rng.uniform(-5.0, 5.0, (40, dim))
        for x in np.vstack([inside, outside]):
            p, ref = body.project(x), nnls_project_onto_ray_cone(body.rays, x)
            assert np.abs(p - ref).max() <= 1e-9


def test_cone_projection_near_edges_matches_nnls_oracle():
    """Points of the 48-ray polygonal cone near (22.06, 36.05, -35.42), where
    two nearly parallel facets meet and absolute KKT tolerances raised
    ProjectionError, and points near every edge and 2-face of the 5-cube
    cone project as nonnegative least squares on the rays does."""
    rng = np.random.default_rng(44)
    for spec in ("polygon-48", "cube5-unimodular"):
        with open(os.path.join(SPECS, f"{spec}.json")) as fh:
            cone = read_cone_spec(json.load(fh))[1]
        body = PolyhedralConeBody.from_exact(cone)
        if spec == "polygon-48":
            X = [22.05516528, 36.0531327, -35.41587244] + rng.uniform(-0.005, 0.005, (200, 3))
        else:
            mids = [np.sum([[float(c) for c in g] for g in f.generators], axis=0)
                    for f in face_lattice(cone).faces if f.dim in (1, 2)]
            X = np.vstack([m + rng.normal(scale=s * np.linalg.norm(m), size=(3, 6))
                           for m in mids for s in (1e-6, 1e-3, 1.0)])
        P = np.array([body.project(x) for x in X])
        ref = np.array([nnls_project_onto_ray_cone(body.rays, x) for x in X])
        assert np.abs(P - ref).max() <= 1e-9


def _spec_cone_body(spec):
    with open(os.path.join(SPECS, f"{spec}.json")) as fh:
        return PolyhedralConeBody.from_exact(read_cone_spec(json.load(fh))[1])


@pytest.mark.parametrize("spec", ["polygon-48", "cube5-unimodular"])
def test_cone_projection_is_positively_homogeneous(spec):
    """P(t x) = t P(x) for t from 1e-6 to 1e6, each against nonnegative least
    squares on the rays, to 1e-9 relative to |t x|: inside, outside and in
    the polar cone."""
    body = _spec_cone_body(spec)
    rng = np.random.default_rng(45)
    X = np.vstack([rng.uniform(0.0, 1.0, (5, len(body.rays))) @ body.rays,
                   rng.normal(size=(10, body.dim)),
                   -rng.uniform(0.0, 1.0, (5, len(body.normals))) @ body.normals])
    for x in X:
        p = body.project(x)
        for t in 10.0 ** np.arange(-6, 7):
            pt = body.project(t * x)
            tol = 1e-9 * t * np.linalg.norm(x)
            assert np.abs(pt - nnls_project_onto_ray_cone(body.rays, t * x)).max() <= tol
            assert np.abs(pt - t * p).max() <= tol


def test_projection_errors():
    """An empty body, a point that is not finite: ProjectionError with the point."""
    empty = HPolytopeBody([[1.0], [-1.0]], [-1.0, -1.0])
    for x in ([0.0], [5.0], [-1e6]):
        with pytest.raises(ProjectionError) as err:
            empty.project(x)
        assert err.value.iterates["point"].tolist() == x
    square = HPolytopeBody.from_vertices([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    cone = _spec_cone_body("polygon-48")
    for body, x in ((square, [np.nan, 0.0]), (square, [np.inf, 1.0]),
                    (cone, [1.0, np.nan, 2.0]), (cone, [-np.inf, 0.0, 0.0])):
        with pytest.raises(ProjectionError, match="projection failed") as err:
            metric_project(body, x)
        assert not np.isfinite(err.value.iterates["violation"])


def test_support_examples(quarter_body, square):
    assert support(quarter_body, [-1, -1]) == 0.0
    assert support(quarter_body, [1, 0]) == np.inf
    assert support(quarter_body, [0, 0]) == 0.0
    assert support(square, [2, 1]) == pytest.approx(3.0)  # max over vertices
    sample = SampledSet.from_points([[0.0, 1.0], [2.0, 2.0]], (-2.0, 2.0), 0.5)
    assert support(sample, [1.0, 0.0]) == pytest.approx(2.0)


def test_cone_membership_and_support_do_not_depend_on_scale(quarter_body):
    """Membership is judged relative to |a| |x| and support relative to
    |r| |x|, so a point t x gets the answer of x at every scale t: with
    absolute bounds, support at (1e-10, 0) read 0, and (-1e-10, 1) was a
    member while (-1e-8, 100) was not."""
    assert support(quarter_body, [1e-10, 0]) == np.inf
    assert quarter_body.contains([-1e-10, 1]) and quarter_body.contains([-1e-8, 100])
    for t in 10.0 ** np.arange(-12, 13, 2):
        assert support(quarter_body, [t, 0]) == np.inf
        assert support(quarter_body, [t * 1e-8, -t]) == np.inf
        assert support(quarter_body, [t * 1e-10, -t]) == 0.0
        assert support(quarter_body, [-t, 0]) == 0.0
        assert quarter_body.contains([-1e-10 * t, t])
        assert not quarter_body.contains([-1e-8 * t, t])
        assert not quarter_body.contains([-t, 0])


def test_gauge_examples(square, fourgonal_slice):
    ball = BallBody(1.0, 3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=3)
        assert gauge(ball, x) == pytest.approx(np.linalg.norm(x))
    assert gauge(square, [2, 0.5]) == pytest.approx(2.0)
    # 4-gonal slice at e3 is the square [-1,1]^2 in slice coordinates
    assert gauge(fourgonal_slice, fourgonal_slice.project([3.0, 0.4])) <= 1 + 1e-9


def test_gauge_body_against_bisection_oracle(quarter):
    """Slice body of the quarter plane at xi0 = (1,1)/sqrt(2), membership exact."""
    xi0 = np.array([1.0, 1.0]) / np.sqrt(2)
    normals = np.array([[1.0, 0.0], [0.0, 1.0]])
    body = HPolytopeBody.from_cone_slice(normals, xi0)

    def member(z_intrinsic, alpha):
        # exact membership of xi0 + z/alpha in the quarter plane
        z = body.Q.T @ z_intrinsic
        pt = xi0 + z / alpha
        return bool(np.all(pt >= -1e-15))

    rng = np.random.default_rng(4)
    for _ in range(25):
        z = rng.uniform(-2, 2, size=1)
        mu = gauge(body, z)
        oracle = gauge_by_bisection(member, z)
        assert mu == pytest.approx(oracle, abs=1e-9)


def test_gauge_homogeneity(square, fourgonal_slice):
    rng = np.random.default_rng(5)
    for body in (square, fourgonal_slice, BallBody(2.0, 2)):
        for _ in range(30):
            x = rng.normal(size=body.dim)
            mu = gauge(body, x)
            for t in (0.5, 2.0, 10.0):
                assert gauge(body, t * x) == pytest.approx(t * mu, rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gauge_of_rows_matches_point_loop(k):
    """One batched product per row set against the per-point gauge: bitwise for
    1-D slices (one multiplication per entry), to rounding otherwise."""
    rng = np.random.default_rng(k)
    body = HPolytopeBody(rng.normal(size=(6, k)), rng.uniform(0.5, 2.0, 6))
    Z = np.vstack([rng.normal(size=(500, k)), np.zeros((1, k))])
    rows = body.gauge(Z)
    loop = np.array([body.gauge(z) for z in Z])
    if k == 1:
        assert rows.tobytes() == loop.tobytes()
    scale = (np.abs(Z) @ np.abs(body.A).T / body.b).max(axis=1)
    assert np.all(np.abs(rows - loop) <= 2 * k * np.finfo(float).eps * scale)
    assert np.all(rows >= 0.0) and rows[-1] == 0.0


def test_gauge_needs_zero_interior():
    shifted = HPolytopeBody([[1, 0], [-1, 0], [0, 1], [0, -1]], [3, -1, 1, 1])
    with pytest.raises(GaugeDomainError):
        gauge(shifted, [1.0, 0.0])
    with pytest.raises(GaugeDomainError):
        shifted.gauge(np.ones((3, 2)))


def test_gauge_sublevel_is_body(square, fourgonal_slice):
    rng = np.random.default_rng(6)
    for body in (square, fourgonal_slice):
        for _ in range(200):
            x = rng.uniform(-3, 3, body.dim)
            inside = body.contains(x)
            assert inside == (gauge(body, x) <= 1 + 1e-9)


def test_directional_derivative_examples(square):
    ball = BallBody(2.0, 2)
    x = np.array([3.0, 4.0])
    v = np.array([1.0, 0.0])
    assert gauge_directional(ball, x, v) == pytest.approx(x @ v / (2.0 * 5.0))
    assert gauge_directional(square, [2, 0.5], [1, 1]) == pytest.approx(1.0)
    # at the corner the one-sided derivative is the max over both facets
    assert gauge_directional(square, [2, 2], [1, -1]) == pytest.approx(1.0)


def test_directional_derivative_sublinear_and_consistent(square, fourgonal_slice):
    rng = np.random.default_rng(7)
    for body in (square, fourgonal_slice, BallBody(1.3, 2)):
        for _ in range(50):
            x = rng.normal(size=body.dim) * 2
            if np.linalg.norm(x) < 0.1:
                continue
            v = rng.normal(size=body.dim)
            w = rng.normal(size=body.dim)
            dv = gauge_directional(body, x, v)
            dw = gauge_directional(body, x, w)
            dvw = gauge_directional(body, x, v + w)
            assert dvw <= dv + dw + 1e-10
            try:
                grad = gauge_gradient(body, x)
            except NotDifferentiableError:
                continue
            assert dv == pytest.approx(grad @ v, abs=1e-8 * max(1, abs(dv)))


def test_gradient_examples(square):
    ball = BallBody(2.0, 2)
    g = gauge_gradient(ball, [3.0, 4.0])
    assert np.allclose(g, np.array([0.6, 0.8]) / 2.0)
    assert np.allclose(gauge_gradient(square, [2, 0.5]), [1, 0])


def _near_kink(body, x, fd_h):
    """Whether a central-difference stencil of width fd_h straddles a facet kink."""
    if not isinstance(body, HPolytopeBody):
        return False
    mu = gauge(body, x)
    vals = (body.A @ (x / mu)) / body.b
    top, second = np.sort(vals)[-2:][::-1]
    return (top - second) * mu < 50 * fd_h * np.linalg.norm(body.A).max()


def test_gradient_vs_finite_differences(square, fourgonal_slice):
    """Central differences at >= 100 random differentiable points per body."""
    rng = np.random.default_rng(8)
    h = 1e-6
    for body in (square, fourgonal_slice, BallBody(1.7, 2)):
        count = 0
        while count < 100:
            x = rng.normal(size=body.dim) * 2
            if np.linalg.norm(x) < 0.3 or _near_kink(body, x, h):
                continue
            try:
                grad = gauge_gradient(body, x)
            except NotDifferentiableError:
                continue
            fd = np.empty(body.dim)
            for i in range(body.dim):
                e = np.zeros(body.dim)
                e[i] = h
                fd[i] = (gauge(body, x + e) - gauge(body, x - e)) / (2 * h)
            denom = max(np.linalg.norm(grad), 1e-12)
            assert np.linalg.norm(fd - grad) / denom < 1e-6
            count += 1
        assert count == 100


def test_gradient_forms_agree_at_exterior_points(square, fourgonal_slice):
    """Normal-cone form vs projection form, 100 points per body where both apply
    (exterior, projection at a smooth boundary point)."""
    rng = np.random.default_rng(9)
    for body in (square, fourgonal_slice, BallBody(1.4, 2)):
        count = 0
        while count < 100:
            x = rng.normal(size=body.dim) * 3
            if gauge(body, x) < 1.2 or not projection_form_applies(body, x):
                continue
            try:
                g1 = gauge_gradient(body, x)
            except NotDifferentiableError:
                continue
            g2 = gauge_gradient_projection_form(body, x)
            assert np.linalg.norm(g1 - g2) <= 1e-8 * max(1.0, np.linalg.norm(g1))
            count += 1


def test_normal_cone(square):
    assert np.allclose(normal_cone(square, [1.0, 0.0]), [[1.0, 0.0]])
    corner = normal_cone(square, [1.0, 1.0])
    assert len(corner) == 2
    ball = BallBody(1.0, 2)
    n = normal_cone(ball, [0.6, 0.8])
    assert np.allclose(n, [[0.6, 0.8]])


def test_nondifferentiable_carries_generators(square):
    with pytest.raises(NotDifferentiableError) as err:
        gauge_gradient(square, [2.0, 2.0])
    assert len(err.value.normal_generators) == 2
