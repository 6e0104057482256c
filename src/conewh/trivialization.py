"""Local trivializations between relative duals of nearby faces.

The map sends the relative dual of a face F onto that of a face E at the
same level: both cones are reduced to orthonormal coordinates Q of span E
(the F side through the orthogonal projector onto span F), cut by the
affine slice <., xi0> = 1, and matched by the ratio of the Minkowski gauges
of the two slice bodies:

    phi(z) = (mu_F(z) / mu_E(z)) * z          on xi0-perp,
    psi(z + t*xi0) = phi(z) + t*xi0           on the whole reduced space.

The gauge data (xi0, r, R) with ball(r) inside both slice bodies inside
ball(R) gives the bi-Lipschitz bound; the Jacobian determinant at
differentiable points is the gauge ratio to the power dim-1.  The
`Trivialization` record holds Q, the reduced base point, the projector onto
span F, the source generators and the exact target relative dual; for span
dimension k >= 2 also the basis of xi0-perp and the two slice bodies (for
k = 1 the reduced map is the identity).
"""

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
    """Normalize a trivialization input to (gens, span_rows, level_dim, exact_dual).

    Accepts an exact Face (the mapped set is its relative dual), an exact
    PolyhedralCone already playing the face role, or a float cone body
    (solid case; the mapped set is its dual cone, only dim <= 2 supported
    for float inputs).
    """
    if isinstance(obj, Face):
        rd = relative_dual(obj)
        gens = np.array([as_float(g) for g in rd.generators])
        span_rows = np.array([as_float(b)
                              for b in span_basis(list(rd.generators), rd.ambient_dim)])
        return gens, span_rows, obj.dim, rd
    if isinstance(obj, PolyhedralCone):
        if not (is_pointed(obj) and is_solid(obj)):
            raise TrivializationError("cone inputs must be pointed and solid")
        rd = dual_cone(obj)
        gens = np.array([as_float(g) for g in rd.generators])
        span_rows = np.eye(obj.ambient_dim)
        return gens, span_rows, obj.ambient_dim, rd
    if isinstance(obj, PolyhedralConeBody):
        if obj.dim != 2 or len(obj.rays) != 2:
            raise TrivializationError(
                "float cone inputs must be solid 2-D cones with two extreme rays")
        # dual of a 2-D cone spanned by extreme rays r1, r2: rotate each ray
        # by 90 degrees, oriented toward the other ray.
        rays = obj.rays
        duals = []
        for i, r in enumerate(rays):
            perp = np.array([-r[1], r[0]])
            if perp @ rays[1 - i] < 0:
                perp = -perp
            duals.append(perp / np.linalg.norm(perp))
        gens = np.array(duals)
        return gens, np.eye(obj.dim), obj.dim, None
    raise TrivializationError(f"unsupported trivialization input {type(obj).__name__}")


@dataclass(frozen=True)
class Trivialization:
    """Slice-gauge matching map from the relative dual of F onto that of E."""

    E: object
    F: object
    xi0: np.ndarray               # ambient base point, unit norm
    r: float                      # common inner slice radius
    R: float                      # common outer slice radius
    Q: np.ndarray                 # k x n orthonormal coordinates of span E
    xi0_c: np.ndarray             # base point in those coordinates
    proj_f: np.ndarray            # n x n orthogonal projector onto span F
    gens_f: np.ndarray            # generators of the source relative dual
    rd_e: object                  # exact target relative dual; None for a float body
    Q2: np.ndarray = None         # (k-1) x k basis of xi0_c-perp; None when k = 1
    body_e: HPolytopeBody = None  # slice bodies in Q2 coordinates; None when k = 1
    body_f: HPolytopeBody = None

    @property
    def span_dim(self):
        return len(self.Q)

    @property
    def lipschitz(self):
        return lipschitz_bound(self.r, self.R)


def _slice_body(gens_c, xi0_c, Q2):
    offs = gens_c @ xi0_c
    if np.any(offs <= 1e-12):
        raise TrivializationError("base point not admissible (not interior to the dual)")
    verts = (gens_c / offs[:, None]) - xi0_c[None, :]
    body = HPolytopeBody.from_vertices(verts @ Q2.T)
    if np.any(body.b <= 1e-12):
        raise TrivializationError("base point not admissible (not interior to the slice)")
    return body


def build_trivialization(E, F, xi0=None):
    """Trivialization mapping the relative dual of F onto that of E.

    E and F must sit at the same stratum level (equal span dimension).  xi0,
    an ambient point of span E, must be strictly interior to both relative
    duals and both face cones; by default the normalized generator
    barycenter of E's relative dual is used.
    """
    gens_e, span_e, k, rd_e = _side_data(E)
    gens_f, span_f, dim_f, _ = _side_data(F)
    if k != dim_f:
        raise TrivializationError("E, F from different levels")
    if k == 0:
        raise TrivializationError("zero-dimensional faces admit no trivialization")
    n = span_e.shape[1]

    # Orthonormal coordinates Q (k x n) of span E; the F-side span is carried
    # over by orthogonal projection, which is a linear isomorphism for F near E.
    Q = np.linalg.qr(span_e.T)[0][:, :k].T if k < n else np.eye(n)
    ge_c = gens_e @ Q.T
    gf_c = gens_f @ Q.T
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
    fields = (Q, xi0_c, proj_f, gens_f, rd_e)

    if k == 1:
        # Both reduced cones are the positive axis; the map is the identity.
        if np.any(ge_c @ xi0_c <= 0) or np.any(gf_c @ xi0_c <= 0):
            raise TrivializationError("base point not admissible")
        return Trivialization(E, F, Q.T @ xi0_c, 1.0, 1.0, *fields)

    Q2 = _perp_basis(xi0_c)
    body_e = _slice_body(ge_c, xi0_c, Q2)
    body_f = _slice_body(gf_c, xi0_c, Q2)
    r = min(body_e.inradius, body_f.inradius)
    R = max(body_e.outradius, body_f.outradius)
    return Trivialization(E, F, Q.T @ xi0_c, r, R, *fields, Q2, body_e, body_f)


def _reduced_apply(triv, W):
    """Apply the reduced map to rows of W (k coordinates)."""
    if triv.Q2 is None:
        return W
    xi0_c, Q2 = triv.xi0_c, triv.Q2
    t = W @ xi0_c
    Z2 = (W - np.outer(t, xi0_c)) @ Q2.T
    mu_e = triv.body_e.gauge(Z2)
    mu_f = triv.body_f.gauge(Z2)
    ratio = np.where(mu_e > 0, mu_f / np.where(mu_e > 0, mu_e, 1.0), 1.0)
    return (Z2 * ratio[:, None]) @ Q2 + np.outer(t, xi0_c)


def triv_apply(triv, x):
    """Apply the trivialization to ambient points (maps F-dual into E-dual).

    The part in span F goes through the reduced map, the rest linearly to
    the complement of span E; for solid inputs that rest is zero.
    """
    Q = triv.Q
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    if X.shape[1] != Q.shape[1]:
        raise DimensionMismatchError("point dimension mismatch")
    Xf = X @ triv.proj_f.T
    comp = X - Xf
    out = _reduced_apply(triv, Xf @ Q.T) @ Q + comp - (comp @ Q.T) @ Q
    return out[0] if x.ndim == 1 else out


def triv_det(triv, x):
    """Central-difference Jacobian determinant of the reduced map at an ambient point."""
    k = triv.span_dim
    if k == 1:
        return 1.0
    w = triv.Q @ np.asarray(x, dtype=float)
    cols = []
    for i in range(k):
        e = np.zeros(k)
        e[i] = _FD_STEP
        cols.append((_reduced_apply(triv, (w + e)[None, :])[0]
                     - _reduced_apply(triv, (w - e)[None, :])[0]) / (2 * _FD_STEP))
    return float(np.linalg.det(np.stack(cols, axis=1)))


def triv_det_formula(triv, x):
    """Gauge-ratio determinant: (mu_F/mu_E)(N(x) - xi0) ** (k-1)."""
    k = triv.span_dim
    if k == 1:
        return 1.0
    w = triv.Q @ np.asarray(x, dtype=float)
    t = w @ triv.xi0_c
    if t <= 1e-12:
        raise TrivializationError("determinant formula needs <x, xi0> > 0")
    z2 = triv.Q2 @ (w / t - triv.xi0_c)
    mu_e = triv.body_e.gauge(z2)
    mu_f = triv.body_f.gauge(z2)
    lam = 1.0 if mu_e == 0 else mu_f / mu_e
    return lam ** (k - 1)


def triv_sample_source(triv, rng, count):
    """Random ambient points of the source relative dual (F side)."""
    return rng.random((count, len(triv.gens_f))) @ triv.gens_f


def triv_target_margin(triv, pts):
    """Membership margin of ambient points in the target relative dual (E side).

    Positive margins mean strict membership; uses E's exact inequality normals
    when available, otherwise the slice gauge.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if triv.rd_e is not None:
        normals = np.array([as_float(a) for a in triv.rd_e.inequalities])
        scale = np.linalg.norm(normals, axis=1)
        return (pts @ normals.T / scale).min(axis=1)
    # gauge-based: x = t*xi0 + z with t > 0 and mu(z/t) <= 1 inside
    W = pts @ triv.Q.T
    t = W @ triv.xi0_c
    Z2 = (W - np.outer(t, triv.xi0_c)) @ triv.Q2.T
    pos = t > 0
    margins = t.copy()
    margins[pos] = t[pos] * (1.0 - triv.body_e.gauge(Z2[pos] / t[pos, None]))
    return margins
