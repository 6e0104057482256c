"""Normalized local trivializations between relative duals of nearby faces.

The map sends the relative dual of one face onto that of a reference face:
both cones are reduced to a common solid picture (coordinates of the
reference span, the other span carried over by orthogonal projection), cut
by the affine slice <., xi0> = 1, and matched by the ratio of the Minkowski
gauges of the two slice bodies:

    phi(z) = (mu_F(z) / mu_E(z)) * z          on xi0-perp,
    psi(z + t*xi0) = phi(z) + t*xi0           on the whole reduced space.

The gauge data (xi0, r, R) with ball(r) inside both slice bodies inside
ball(R) gives the bi-Lipschitz bound; the Jacobian determinant at
differentiable points is the gauge ratio to the power dim-1.
"""

from dataclasses import dataclass, field

import numpy as np

from .cones import Face, PolyhedralCone, dual_cone, is_pointed, is_solid, relative_dual
from .convex import HPolytopeBody, PolyhedralConeBody, _perp_basis
from .errors import DimensionMismatchError, TrivializationError
from .exact import as_float, span_basis

_DET_SAMPLES = 64                 # determinant samples behind the normalization


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


@dataclass
class Trivialization:
    """Slice-gauge matching map between two relative duals, with gauge data."""

    E: object
    F: object
    xi0: np.ndarray               # ambient base point, unit norm
    r: float                      # common inner slice radius
    R: float                      # common outer slice radius
    span_dim: int = 0
    normalized: bool = False
    det_scale: float = 1.0        # rescale factor along the xi0 axis
    det_range: tuple = (1.0, 1.0)  # sampled determinant range before rescaling
    _internal: dict = field(default_factory=dict, repr=False)

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


def build_trivialization(E, F, xi0=None, normalize=False, seed=0):
    """Trivialization mapping the relative dual of F onto that of E.

    E and F must sit at the same stratum level (equal span dimension).  xi0
    must be strictly interior to both relative duals and both face cones; by
    default the normalized generator barycenter of E's relative dual is used.
    """
    gens_e, span_e, dim_e, rd_e = _side_data(E)
    gens_f, span_f, dim_f, _ = _side_data(F)
    if dim_e != dim_f:
        raise TrivializationError("E, F from different levels")
    n = gens_e.shape[1] if gens_e.size else span_e.shape[1]
    k = dim_e
    if k == 0:
        raise TrivializationError("zero-dimensional faces admit no trivialization")

    # Orthonormal coordinates Q (k x n) of span E; the F-side span is carried
    # over by orthogonal projection, which is a linear isomorphism for F near E.
    Q = np.linalg.qr(span_e.T)[0][:, :k].T if k < n else np.eye(n)
    ge_c = gens_e @ Q.T
    gf_c = gens_f @ Q.T
    if np.linalg.matrix_rank(gf_c, tol=1e-9) < k:
        raise TrivializationError("faces are not close enough: span projection degenerates")

    if xi0 is None:
        units = ge_c / np.linalg.norm(ge_c, axis=1)[:, None]
        xi0_c = units.mean(axis=0)
        xi0_c /= np.linalg.norm(xi0_c)
    else:
        xi0 = np.asarray(xi0, dtype=float)
        xi0_c = Q @ xi0 if len(xi0) == n else xi0.astype(float)
        if len(xi0) == n and np.linalg.norm(Q.T @ xi0_c - xi0) > 1e-9 * np.linalg.norm(xi0):
            raise TrivializationError("base point not admissible (outside the span)")
        xi0_c /= np.linalg.norm(xi0_c)

    internal = {"Q": Q, "xi0_c": xi0_c, "gens_e_c": ge_c, "gens_f_c": gf_c,
                "gens_f": gens_f, "span_f": span_f, "rd_e": rd_e, "k": k, "n": n}

    if k == 1:
        # Both reduced cones are the positive axis; the map is the identity.
        if np.any(ge_c @ xi0_c <= 0) or np.any(gf_c @ xi0_c <= 0):
            raise TrivializationError("base point not admissible")
        triv = Trivialization(E, F, Q.T @ xi0_c, 1.0, 1.0, span_dim=1,
                              _internal=internal)
        return triv

    Q2 = _perp_basis(xi0_c)
    body_e = _slice_body(ge_c, xi0_c, Q2)
    body_f = _slice_body(gf_c, xi0_c, Q2)
    internal.update({"Q2": Q2, "body_e": body_e, "body_f": body_f})

    r = min(body_e.inradius, body_f.inradius)
    R = max(body_e.outradius, body_f.outradius)
    triv = Trivialization(E, F, Q.T @ xi0_c, r, R, span_dim=k, _internal=internal)

    if normalize:
        rng = np.random.default_rng(seed)
        dets = []
        for _ in range(_DET_SAMPLES):
            x = triv_sample_source(triv, rng, 1)[0]
            try:
                dets.append(triv_det_formula(triv, x))
            except TrivializationError:
                continue
        dets = np.array([d for d in dets if d > 0])
        if len(dets) == 0:
            raise TrivializationError("could not sample determinants for normalization")
        scale = float(np.exp(np.mean(np.log(dets))))
        triv.normalized = True
        triv.det_scale = 1.0 / scale
        triv.det_range = (float(dets.min()), float(dets.max()))
    return triv


def _reduced_apply(triv, W):
    """Apply the reduced map to rows of W (k coordinates)."""
    it = triv._internal
    xi0_c, k = it["xi0_c"], it["k"]
    if k == 1:
        return W * (triv.det_scale if triv.normalized else 1.0)
    Q2, body_e, body_f = it["Q2"], it["body_e"], it["body_f"]
    t = W @ xi0_c
    Zc = W - np.outer(t, xi0_c)
    Z2 = Zc @ Q2.T
    mu_e = body_e.gauge(Z2)
    mu_f = body_f.gauge(Z2)
    ratio = np.where(mu_e > 0, mu_f / np.where(mu_e > 0, mu_e, 1.0), 1.0)
    phi = Z2 * ratio[:, None]
    t_out = t * (triv.det_scale if triv.normalized else 1.0)
    return phi @ Q2 + np.outer(t_out, xi0_c)


def triv_apply(triv, x):
    """Apply the trivialization to an ambient point (maps F-dual into E-dual)."""
    it = triv._internal
    Q, n, span_f = it["Q"], it["n"], it["span_f"]
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != n:
        raise DimensionMismatchError("point dimension mismatch")
    if triv.span_dim < n:
        Pf = span_f.T @ np.linalg.solve(span_f @ span_f.T, span_f)
        Xf = X @ Pf.T
        W = Xf @ Q.T
        comp = X - Xf
        Pe = Q.T @ Q
        out = _reduced_apply(triv, W) @ Q + comp - comp @ Pe.T
    else:
        out = _reduced_apply(triv, X @ Q.T) @ Q
    return out[0] if single else out


def triv_det(triv, x, h=1e-6):
    """Numeric Jacobian determinant of the reduced map at an ambient point."""
    it = triv._internal
    Q, k = it["Q"], it["k"]
    w = Q @ np.asarray(x, dtype=float)
    if k == 1:
        return triv.det_scale if triv.normalized else 1.0
    cols = []
    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        cols.append((_reduced_apply(triv, (w + e)[None, :])[0]
                     - _reduced_apply(triv, (w - e)[None, :])[0]) / (2 * h))
    return float(np.linalg.det(np.stack(cols, axis=1)))


def triv_det_formula(triv, x):
    """Gauge-ratio determinant: (mu_F/mu_E)(N(x) - xi0) ** (k-1)."""
    it = triv._internal
    Q, k, xi0_c = it["Q"], it["k"], it["xi0_c"]
    if k == 1:
        return triv.det_scale if triv.normalized else 1.0
    w = Q @ np.asarray(x, dtype=float)
    t = w @ xi0_c
    if t <= 1e-12:
        raise TrivializationError("determinant formula needs <x, xi0> > 0")
    z = w / t - xi0_c
    z2 = it["Q2"] @ z
    mu_e = it["body_e"].gauge(z2)
    mu_f = it["body_f"].gauge(z2)
    lam = 1.0 if mu_e == 0 else mu_f / mu_e
    det = lam ** (k - 1)
    return det * triv.det_scale if triv.normalized else det


def triv_sample_source(triv, rng, count, scale=1.0):
    """Random ambient points of the source relative dual (F side)."""
    gens_f = triv._internal["gens_f"]
    coeffs = rng.random((count, len(gens_f))) * scale
    return coeffs @ gens_f


def triv_target_margin(triv, pts):
    """Membership margin of ambient points in the target relative dual (E side).

    Positive margins mean strict membership; uses E's exact inequality normals
    when available, otherwise the slice gauge.
    """
    it = triv._internal
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rd_e = it["rd_e"]
    if rd_e is not None:
        normals = np.array([as_float(a) for a in rd_e.inequalities])
        scale = np.linalg.norm(normals, axis=1)
        return (pts @ normals.T / scale).min(axis=1)
    # gauge-based: x = t*xi0 + z with t > 0 and mu(z/t) <= 1 inside
    xi0_c, Q = it["xi0_c"], it["Q"]
    W = pts @ Q.T
    t = W @ xi0_c
    Z2 = (W - np.outer(t, xi0_c)) @ it["Q2"].T
    pos = t > 0
    margins = t.copy()
    margins[pos] = t[pos] * (1.0 - it["body_e"].gauge(Z2[pos] / t[pos, None]))
    return margins
