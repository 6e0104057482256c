"""Floating-point convex calculus: metric projections, support functionals,
Minkowski gauges with directional derivatives and gradients, and normal cones.

Bodies come in a few concrete shapes (Euclidean ball, H-rep polytope,
polyhedral cone, and gauge bodies sliced from cones).
Polyhedral projections are one active-set solve, exact KKT enumeration over
facet subsets: a polytope's, and a cone's as the polyhedron of its facet
normals.  All sampling takes explicit RNGs; nothing here keeps global state.
"""

import itertools

import numpy as np

from .errors import (
    DimensionMismatchError,
    GaugeDomainError,
    NotDifferentiableError,
    ProjectionError,
)
from .exact import as_float

_TOL = 1e-9
_ANGLE_TOL = 1e-8


class BallBody:
    """Euclidean ball of given radius centred at the origin."""

    def __init__(self, radius, dim):
        if radius <= 0:
            raise GaugeDomainError("ball radius must be positive")
        self.radius = float(radius)
        self.dim = int(dim)

    def contains(self, x, tol=1e-9):
        return np.linalg.norm(x) <= self.radius + tol

    def project(self, x):
        x = np.asarray(x, dtype=float)
        nx = np.linalg.norm(x)
        if nx <= self.radius:
            return x.copy()
        return x * (self.radius / nx)

    def support(self, x):
        return self.radius * float(np.linalg.norm(x))

    def gauge(self, x):
        return float(np.linalg.norm(x)) / self.radius

    def normal_generators(self, x, tol=1e-6):
        nx = np.linalg.norm(x)
        if abs(nx - self.radius) > tol * max(1.0, self.radius):
            return []
        return [np.asarray(x, dtype=float) / nx]

    def gauge_normal_set(self, x):
        # Unique element of the normal set scaled to <y, xhat> = 1.
        x = np.asarray(x, dtype=float)
        return [x / (self.radius * np.linalg.norm(x))]


class HPolytopeBody:
    """Polyhedron {z : A z <= b} with optional vertex list, compact with 0
    inside for the gauge calculus.

    Projection enumerates facet subsets and checks the KKT conditions; for
    bodies with <= ~12 facets and dimension <= 3 this is exact and fast.
    """

    def __init__(self, A, b, vertices=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float)
        self.dim = self.A.shape[1]
        self.vertices = None if vertices is None else np.atleast_2d(np.asarray(vertices, float))
        self._subsets = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_vertices(cls, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        dim = V.shape[1]
        if dim == 1:
            lo, hi = V.min(), V.max()
            return cls([[1.0], [-1.0]], [hi, -lo], vertices=V)
        from scipy.spatial import ConvexHull   # about 0.35 s of import, for dim >= 2 only

        hull = ConvexHull(V)
        eqs = hull.equations  # rows (a, c) with a.x + c <= 0
        rows = []
        for a_c in eqs:
            key = np.round(a_c, 12)
            if not any(np.allclose(key, k) for k in rows):
                rows.append(key)
        A = np.array([r[:-1] for r in rows])
        b = np.array([-r[-1] for r in rows])
        return cls(A, b, vertices=V[hull.vertices])

    @classmethod
    def from_cone_slice(cls, normals, xi0):
        """Body {z in xi0-perp : xi0 + z in K} for K = {y : normals @ y >= 0},
        in intrinsic coordinates of the hyperplane xi0-perp."""
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        xi0 = np.asarray(xi0, dtype=float)
        xi0 = xi0 / np.linalg.norm(xi0)
        offs = normals @ xi0
        if np.any(offs <= 0):
            raise GaugeDomainError("base point not interior to the cone")
        Q = _perp_basis(xi0)
        body = cls(-(normals @ Q.T), offs)
        body.Q = Q
        body.xi0 = xi0
        return body

    # -- geometry ----------------------------------------------------------

    def contains(self, x, tol=1e-9):
        scale = np.linalg.norm(self.A, axis=1)
        return bool(np.all(self.A @ np.asarray(x, float) - self.b <= tol * np.maximum(scale, 1.0)))

    def support(self, x):
        if self.vertices is None:
            raise ProjectionError("support needs a vertex list for this body")
        return float(np.max(self.vertices @ np.asarray(x, dtype=float)))

    def _facet_subsets(self):
        if self._subsets is None:
            m, k = self.A.shape
            subsets = []
            for size in range(1, min(m, self.dim) + 1):
                for S in itertools.combinations(range(m), size):
                    AS = self.A[list(S)]
                    G = AS @ AS.T
                    if np.linalg.matrix_rank(G, tol=1e-12) < size:
                        continue
                    subsets.append((list(S), AS, np.linalg.inv(G)))
            self._subsets = subsets
        return self._subsets

    def project(self, x):
        return self.project_many(np.asarray(x, float)[None, :])[0]

    def project_many(self, X):
        """Batched exact projection via KKT enumeration over facet subsets."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scale = np.maximum(np.linalg.norm(self.A, axis=1), 1.0)
        feas_tol = 1e-9
        best = np.full(X.shape, np.nan)
        best_d = np.full(len(X), np.inf)

        def consider(P, valid):
            nonlocal best, best_d
            d = np.linalg.norm(P - X, axis=1)
            upd = valid & (d < best_d - 1e-15)
            best[upd] = P[upd]
            best_d[upd] = d[upd]

        slack0 = self.b[None, :] - X @ self.A.T
        inside = (slack0 >= -feas_tol * scale[None, :]).all(axis=1)
        consider(X.copy(), inside)

        for S, AS, Ginv in self._facet_subsets():
            lam = (X @ AS.T - self.b[S][None, :]) @ Ginv
            P = X - lam @ AS
            lam_ok = (lam >= -1e-9).all(axis=1)
            slack = self.b[None, :] - P @ self.A.T
            feas = (slack >= -feas_tol * scale[None, :]).all(axis=1)
            consider(P, lam_ok & feas)

        if np.any(np.isinf(best_d)):
            bad = np.where(np.isinf(best_d))[0]
            raise ProjectionError("active-set projection failed",
                                  iterates={"points": X[bad]})
        return best

    # -- gauge calculus ----------------------------------------------------

    def _check_zero_interior(self):
        if np.any(self.b <= 0):
            raise GaugeDomainError("0 not interior")

    def gauge(self, x):
        """Gauge of a point, or of each row of a 2-D array."""
        self._check_zero_interior()
        x = np.asarray(x, dtype=float)
        mu = ((x @ self.A.T) / self.b).max(axis=-1)
        mu = np.where(mu > 0.0, mu, 0.0)
        return float(mu) if x.ndim == 1 else mu

    def active_indices(self, x, tol=1e-6):
        """Facets active at the boundary point x (relative tolerance)."""
        x = np.asarray(x, dtype=float)
        resid = np.abs(self.A @ x - self.b)
        scale = np.maximum(np.linalg.norm(self.A, axis=1) * np.linalg.norm(x), 1e-12)
        return np.where(resid <= tol * scale)[0]

    def normal_generators(self, x, tol=1e-6):
        return [self.A[i].copy() for i in self.active_indices(x, tol)]

    def gauge_normal_set(self, x):
        """Extreme points of {y in N_xhat : <y, x> = mu(x)} (gauge-scaled normals)."""
        self._check_zero_interior()
        mu = self.gauge(x)
        if mu <= 0:
            raise GaugeDomainError("normal set undefined at the origin")
        xhat = np.asarray(x, dtype=float) / mu
        return [self.A[i] / self.b[i] for i in self.active_indices(xhat)]

    @property
    def inradius(self):
        self._check_zero_interior()
        return float(np.min(self.b / np.linalg.norm(self.A, axis=1)))

    @property
    def outradius(self):
        if self.vertices is None:
            raise ProjectionError("outradius needs a vertex list")
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))


class PolyhedralConeBody:
    """Float polyhedral cone {y : normals @ y >= 0} with its rays.

    Membership and projection are those of the polyhedron {y : -normals @ y <= 0},
    built once per body.
    """

    def __init__(self, rays, normals):
        self.rays = np.atleast_2d(np.asarray(rays, dtype=float))
        self.dim = self.rays.shape[1]
        self.normals = np.asarray(normals, dtype=float).reshape(-1, self.dim)
        self._polyhedron = HPolytopeBody(-self.normals, np.zeros(len(self.normals)))

    @classmethod
    def from_exact(cls, cone):
        rays = np.reshape([as_float(g) for g in cone.generators], (-1, cone.ambient_dim))
        return cls(rays, [as_float(a) for a in cone.inequalities])

    def rotated(self, theta):
        """Planar rotation of a 2-D cone by theta radians."""
        if self.dim != 2:
            raise DimensionMismatchError("rotation helper is 2-D only")
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        return PolyhedralConeBody(self.rays @ R.T, self.normals @ R.T)

    def contains(self, x, tol=1e-9):
        return self._polyhedron.contains(x, tol)

    def project(self, x):
        return self._polyhedron.project(x)

    def support(self, x):
        x = np.asarray(x, dtype=float)
        vals = self.rays @ x
        if np.all(vals <= _TOL * np.maximum(np.linalg.norm(self.rays, axis=1), 1.0)):
            return 0.0
        return np.inf


def _perp_basis(v):
    """Orthonormal basis of v-perp as rows, deterministic."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    M = np.eye(n) - np.outer(v, v) / (v @ v)
    q, r = np.linalg.qr(M.T)
    cols = [i for i in range(n) if abs(r[i, i]) > 1e-12]
    basis = q[:, cols].T
    return basis[: n - 1]


# -- spec operations -------------------------------------------------------


def metric_project(body, x):
    """Nearest point of the body (argmin of the Euclidean distance)."""
    return body.project(np.asarray(x, dtype=float))


def support(body_or_sample, x):
    """Support value sup <x, y> over the body or over a finite point sample."""
    from .limits import SampledSet

    if isinstance(body_or_sample, SampledSet):
        if len(body_or_sample) == 0:
            return -np.inf
        return float(np.max(body_or_sample.points @ np.asarray(x, dtype=float)))
    return body_or_sample.support(np.asarray(x, dtype=float))


def gauge(body, x):
    """Minkowski gauge inf{a > 0 : x/a in body} (body compact, 0 interior)."""
    return body.gauge(np.asarray(x, dtype=float))


def normal_cone(body, x, tol=1e-6):
    """Generators of the normal cone at a boundary point (single normal if smooth)."""
    return body.normal_generators(np.asarray(x, dtype=float), tol=tol)


def _distinct_directions(vectors, angle_tol=_ANGLE_TOL):
    dirs = []
    for v in vectors:
        nv = np.linalg.norm(v)
        if nv <= 0:
            continue
        u = v / nv
        if not any(u @ w > 1 - angle_tol for w in dirs):
            dirs.append(u)
    return dirs


def gauge_directional(body, x, v):
    """Right directional derivative of the gauge: support of the normal set."""
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) == 0:
        raise GaugeDomainError("directional derivative undefined at the origin")
    nset = body.gauge_normal_set(x)
    return float(max(np.dot(y, v) for y in nset))


def gauge_gradient(body, x):
    """Gradient of the gauge where the rescaled point is a smooth boundary point.

    Normal-cone form: mu(x)/<y, x> * y for the one direction y of the normal
    set at x/mu(x), the projection form mu(x)/<pi_N(x), x> * pi_N(x) with the
    scale of pi_N(x) cancelled.  Raises if the supporting hyperplane is not
    unique (within angular tolerance 1e-8), attaching the normal generators.
    """
    x = np.asarray(x, dtype=float)
    nset = body.gauge_normal_set(x)
    dirs = _distinct_directions(nset)
    if len(dirs) != 1:
        raise NotDifferentiableError("subdifferential not a singleton",
                                     normal_generators=nset)
    y = dirs[0]
    denom = y @ x
    if denom <= 0:
        raise NotDifferentiableError("degenerate normal projection",
                                     normal_generators=nset)
    return (body.gauge(x) / denom) * y


def gauge_gradient_projection_form(body, x):
    """Exterior-point gradient (x - pi(x)) / <pi(x), x - pi(x)>.

    Valid where the projection lands at a smooth boundary point (then x - pi(x)
    spans the unique normal there).  At points projecting onto a corner the
    gauge may still be differentiable but this form does not apply; use
    projection_form_applies to test.
    """
    x = np.asarray(x, dtype=float)
    p = body.project(x)
    r = x - p
    denom = p @ r
    if denom <= 1e-14:
        raise NotDifferentiableError("projection form needs a differentiable exterior point")
    return r / denom


def projection_form_applies(body, x, tol=1e-6):
    """True when x is exterior and its projection is a smooth boundary point."""
    x = np.asarray(x, dtype=float)
    p = body.project(x)
    if np.linalg.norm(x - p) <= tol:
        return False
    return len(_distinct_directions(body.normal_generators(p, tol=tol))) == 1
