"""Local trivializations between relative duals of nearby faces.

The map sends the relative dual of a face F onto that of a face E at the
same level: both cones are reduced to orthonormal coordinates Q of span E
(the F side through the orthogonal projector onto span F), cut by the
affine slice <., xi0> = 1, and matched by the ratio of the Minkowski gauges
of the two slice bodies:

    phi(z) = (mu_F(z) / mu_E(z)) * z          on xi0-perp,
    psi(z + t*xi0) = phi(z) + t*xi0           on the whole reduced space.

For span dimension k = 2 a slice body is the interval of the normalized
generators; for k >= 3 it is cut from the exact facets of the relative
dual, carried to the Q coordinates, with no hull.

The gauge data (xi0, r, R) with ball(r) inside both slice bodies inside
ball(R) gives the bi-Lipschitz bound; the Jacobian determinant at
differentiable points is the gauge ratio to the power dim-1.  The
`Trivialization` record holds Q, the reduced base point, the projector onto
span F and the float cone that each side maps; for span dimension k >= 2
also the basis of xi0-perp and the two slice bodies (for k = 1 the reduced
map is the identity).

`triv_apply`, `triv_det`, `triv_det_formula` and `triv_target_margin` take one
ambient point (giving back a row or a float) or rows of them, each in one numpy
pass; the difference determinant shifts every point by all +-h e_i at once.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .cones import Face, PolyhedralCone, dual_cone, is_pointed, is_solid, relative_dual
from .convex import HPolytopeBody, PolyhedralConeBody, _perp_basis
from .errors import DimensionMismatchError, TrivializationError
from .exact import as_float, span_basis

_FD_STEP = 1e-6                   # central-difference step of triv_det


def lipschitz_bound(r, R):
    """Lipschitz constant (R/r^2) * (1 + R*(1 + R/r)) of the slice matching map."""
    if r <= 0:
        raise TrivializationError("inner radius must be positive")
    if R < r:
        raise TrivializationError("outer radius must dominate the inner radius")
    return (R / r**2) * (1.0 + R * (1.0 + R / r))


def _side_data(obj):
    """Normalize a trivialization input to (cone, span_rows, level_dim), cone
    the float body of the set it maps: the relative dual of an exact Face, or
    the dual of an exact pointed, solid PolyhedralCone (the face role) or of a
    solid 2-D float cone body (the only float inputs supported)."""
    if isinstance(obj, Face):
        rd = relative_dual(obj)
        span = np.array([as_float(b) for b in span_basis(list(rd.generators), rd.ambient_dim)])
        return PolyhedralConeBody.from_exact(rd), span, obj.dim
    if isinstance(obj, PolyhedralCone):
        if not (is_pointed(obj) and is_solid(obj)):
            raise TrivializationError("cone inputs must be pointed and solid")
        n = obj.ambient_dim
        return PolyhedralConeBody.from_exact(dual_cone(obj)), np.eye(n), n
    if isinstance(obj, PolyhedralConeBody):
        if obj.dim != 2 or len(obj.rays) != 2:
            raise TrivializationError(
                "float cone inputs must be solid 2-D cones with two extreme rays")
        # dual of a 2-D cone spanned by extreme rays r1, r2: each ray turned by
        # 90 degrees toward the other ray; the rays are the dual's normals.
        rays = obj.rays
        duals = []
        for r, other in zip(rays, rays[::-1]):
            perp = np.array([-r[1], r[0]])
            perp = -perp if perp @ other < 0 else perp
            duals.append(perp / np.linalg.norm(perp))
        return PolyhedralConeBody(duals, rays), np.eye(2), 2
    raise TrivializationError(f"unsupported trivialization input {type(obj).__name__}")


@dataclass(frozen=True)
class Trivialization:
    """Slice-gauge matching map from the relative dual of F onto that of E."""

    r: float                      # common inner slice radius
    R: float                      # common outer slice radius
    Q: np.ndarray                 # k x n orthonormal coordinates of span E
    xi0_c: np.ndarray             # base point in those coordinates, unit norm
    proj_f: np.ndarray            # n x n orthogonal projector onto span F
    cone_e: PolyhedralConeBody    # target cone, the relative dual on the E side
    cone_f: PolyhedralConeBody    # source cone, the relative dual on the F side
    Q2: np.ndarray = None         # (k-1) x k basis of xi0_c-perp; None when k = 1
    body_e: HPolytopeBody = None  # slice bodies in Q2 coordinates; None when k = 1
    body_f: HPolytopeBody = None

    @property
    def span_dim(self):
        return len(self.Q)

    @property
    def lipschitz(self):
        return lipschitz_bound(self.r, self.R)


def _facet_normals(cone):
    """Facet normals of a cone body: its normals but the +- pairs, which span
    the orthocomplement of the cone's span."""
    rows = set(map(tuple, cone.normals))
    return cone.normals[[tuple(-a) not in rows for a in cone.normals]]


def _slice_body(gens_c, xi0_c, Q2, normals_c=None):
    """Slice body {z in xi0-perp : xi0 + z in cone} in Q2 coordinates, for the
    cone of generators gens_c: the interval of the normalized generators when
    k = 2, otherwise the facets normals_c cut by the slice, with the
    normalized generators as its vertices."""
    offs = gens_c @ xi0_c
    if np.any(offs <= 1e-12):
        raise TrivializationError("base point not admissible (not interior to the dual)")
    verts = ((gens_c / offs[:, None]) - xi0_c[None, :]) @ Q2.T
    if normals_c is None:
        body = HPolytopeBody.from_vertices(verts)
    else:
        body = HPolytopeBody(-(normals_c @ Q2.T), normals_c @ xi0_c, vertices=verts)
    if np.any(body.b <= 1e-12 * np.linalg.norm(body.A, axis=1)):
        raise TrivializationError("base point not admissible (not interior to the slice)")
    return body


def build_trivialization(E, F, xi0=None):
    """Trivialization mapping the relative dual of F onto that of E.

    E and F must sit at the same stratum level (equal span dimension).  xi0,
    an ambient point of span E, must be strictly interior to both relative
    duals and both face cones; by default the normalized generator
    barycenter of E's relative dual is used.
    """
    cone_e, span_e, k = _side_data(E)
    cone_f, span_f, dim_f = _side_data(F)
    if k != dim_f:
        raise TrivializationError("E, F from different levels")
    if k == 0:
        raise TrivializationError("zero-dimensional faces admit no trivialization")
    n = span_e.shape[1]

    # Orthonormal coordinates Q (k x n) of span E; the F-side span is carried
    # over by orthogonal projection, which is a linear isomorphism for F near E.
    Q = np.linalg.qr(span_e.T)[0][:, :k].T if k < n else np.eye(n)
    ge_c = cone_e.rays @ Q.T
    gf_c = cone_f.rays @ Q.T
    if np.linalg.matrix_rank(gf_c, tol=1e-9) < k:
        raise TrivializationError("faces are not close enough: span projection degenerates")

    if xi0 is None:
        xi0_c = (ge_c / np.linalg.norm(ge_c, axis=1)[:, None]).mean(axis=0)
    else:
        xi0 = np.asarray(xi0, dtype=float)
        if xi0.shape != (n,):
            raise DimensionMismatchError(f"base point needs {n} coordinates, got {xi0.shape}")
        xi0_c = Q @ xi0
        if np.linalg.norm(Q.T @ xi0_c - xi0) > 1e-9 * np.linalg.norm(xi0):
            raise TrivializationError("base point not admissible (outside the span)")
    norm = np.linalg.norm(xi0_c)
    if not norm > 0:
        raise TrivializationError(f"base point not admissible (norm {norm:.3g} in span E)")
    xi0_c = xi0_c / norm
    proj_f = span_f.T @ np.linalg.solve(span_f @ span_f.T, span_f)
    fields = (Q, xi0_c, proj_f, cone_e, cone_f)

    if k == 1:
        # Both reduced cones are the positive axis; the map is the identity.
        if np.any(ge_c @ xi0_c <= 0) or np.any(gf_c @ xi0_c <= 0):
            raise TrivializationError("base point not admissible")
        return Trivialization(1.0, 1.0, *fields)

    Q2 = _perp_basis(xi0_c)
    normals_e = normals_f = None
    if k > 2:
        # A point M c of the reduced F side, M = Q B^T for the span-F rows B,
        # is B^T c in span F, so a normal a of F's relative dual reads
        # M^-T B a there.
        normals_e = _facet_normals(cone_e) @ Q.T
        normals_f = np.linalg.solve((Q @ span_f.T).T, span_f @ _facet_normals(cone_f).T).T
    body_e = _slice_body(ge_c, xi0_c, Q2, normals_e)
    body_f = _slice_body(gf_c, xi0_c, Q2, normals_f)
    r = min(body_e.inradius, body_f.inradius)
    R = max(body_e.outradius, body_f.outradius)
    return Trivialization(r, R, *fields, Q2, body_e, body_f)


def _point_or_rows(rows_fn):
    """rows_fn(triv, X) on rows of ambient points, made to take one point too:
    the dimension is checked, and one point gives back one row or a float."""
    @functools.wraps(rows_fn)
    def fn(triv, x):
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        if X.ndim != 2 or X.shape[1] != triv.Q.shape[1]:
            raise DimensionMismatchError(
                f"points need {triv.Q.shape[1]} coordinates, got shape {x.shape}")
        out = rows_fn(triv, X)
        return out if x.ndim != 1 else out[0] if out.ndim == 2 else float(out[0])
    return fn


def _gauge_ratio(triv, Z2):
    """mu_F / mu_E on rows of xi0-perp coordinates; 1 where mu_E vanishes."""
    mu_e, mu_f = triv.body_e.gauge(Z2), triv.body_f.gauge(Z2)
    return np.where(mu_e > 0, mu_f / np.where(mu_e > 0, mu_e, 1.0), 1.0)


def _reduced_apply(triv, W):
    """Apply the reduced map to rows of W (k coordinates): the height
    t = <w, xi0> stays, the xi0-perp coordinates Z2 scale by the gauge ratio."""
    if triv.Q2 is None:
        return W
    t = W @ triv.xi0_c
    Z2 = (W - np.outer(t, triv.xi0_c)) @ triv.Q2.T
    return (Z2 * _gauge_ratio(triv, Z2)[:, None]) @ triv.Q2 + np.outer(t, triv.xi0_c)


@_point_or_rows
def triv_apply(triv, X):
    """Apply the trivialization to ambient points (maps F-dual into E-dual).

    The part in span F goes through the reduced map, the rest linearly to
    the complement of span E; for solid inputs that rest is zero.
    """
    Q = triv.Q
    Xf = X @ triv.proj_f.T
    comp = X - Xf
    return _reduced_apply(triv, Xf @ Q.T) @ Q + comp - (comp @ Q.T) @ Q


@_point_or_rows
def triv_det(triv, X):
    """Central-difference Jacobian determinant of the reduced map at ambient points."""
    k = triv.span_dim
    if k == 1:
        return np.ones(len(X))
    # w +- h e_i for every reduced point w, one pass per sign; D[p, i] is column i
    W = (X @ triv.Q.T)[:, None, :]
    plus, minus = (_reduced_apply(triv, (W + h * np.eye(k)).reshape(-1, k))
                   for h in (_FD_STEP, -_FD_STEP))
    D = ((plus - minus) / (2 * _FD_STEP)).reshape(len(X), k, k)
    return np.linalg.det(D.transpose(0, 2, 1))


@_point_or_rows
def triv_det_formula(triv, X):
    """Gauge-ratio determinant: (mu_F/mu_E)(N(x) - xi0) ** (k-1)."""
    k = triv.span_dim
    if k == 1:
        return np.ones(len(X))
    W = X @ triv.Q.T
    t = W @ triv.xi0_c
    if np.any(t <= 1e-12):
        raise TrivializationError("determinant formula needs <x, xi0> > 0")
    return _gauge_ratio(triv, (W / t[:, None] - triv.xi0_c) @ triv.Q2.T) ** (k - 1)


def triv_sample_source(triv, rng, count):
    """Random ambient points of the source relative dual (F side)."""
    return rng.random((count, len(triv.cone_f.rays))) @ triv.cone_f.rays


@_point_or_rows
def triv_target_margin(triv, X):
    """Membership margin of ambient points in the target relative dual (E side):
    the least <x, a> / |a| over its normals a, positive for strict membership."""
    normals = triv.cone_e.normals
    return (X @ normals.T / np.linalg.norm(normals, axis=1)).min(axis=1)
