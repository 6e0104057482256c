"""Floating-point convex calculus: metric projections, support functionals,
Minkowski gauges with directional derivatives and gradients, and normal cones.

Bodies come in a few concrete shapes (Euclidean ball, H-rep polytope,
polyhedral cone, and gauge bodies sliced from cones).  A polytope is built
from facets, or from points in dimension 1 or 2 by a planar hull on numpy
alone; no module here imports SciPy.
Every polyhedral projection, a polytope's and a cone's as the polyhedron of
its facet normals, is one least-distance problem solved by Lawson and
Hanson's nonnegative least squares.  All sampling takes explicit RNGs;
nothing here keeps global state.
"""

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    GaugeDomainError,
    NotDifferentiableError,
    ProjectionError,
    RankDeficientError,
)
from .exact import as_float

_TOL = 1e-9
_EPS = np.finfo(float).eps
_ANGLE_TOL = 1e-8                # distinct normal directions: cosine below 1 - _ANGLE_TOL
_ACTIVE_TOL = 1e-6               # active facets (relative); exterior points, by distance
_TURN_TOL = 1e-12                # sine of the least turn a planar hull keeps


class BallBody:
    """Euclidean ball of given radius centred at the origin."""

    def __init__(self, radius, dim):
        if radius <= 0:
            raise GaugeDomainError("ball radius must be positive")
        self.radius = float(radius)
        self.dim = int(dim)

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

    def normal_generators(self, x):
        nx = np.linalg.norm(x)
        if abs(nx - self.radius) > _ACTIVE_TOL * max(1.0, self.radius):
            return []
        return [np.asarray(x, dtype=float) / nx]

    def gauge_normal_set(self, x):
        # Unique element of the normal set scaled to <y, xhat> = 1.
        x = np.asarray(x, dtype=float)
        return [x / (self.radius * np.linalg.norm(x))]


class HPolytopeBody:
    """Polyhedron {z : A z <= b} with optional vertex list, compact with 0
    inside for the gauge calculus."""

    def __init__(self, A, b, vertices=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float)
        self.dim = self.A.shape[1]
        self.vertices = None if vertices is None else np.atleast_2d(np.asarray(vertices, float))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_vertices(cls, vertices):
        """Convex hull of points in dimension 1 (an interval) or 2 (a polygon,
        with unit outward normals and its vertices counter-clockwise)."""
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        dim = V.shape[1]
        if dim == 1:
            lo, hi = V.min(), V.max()
            return cls([[1.0], [-1.0]], [hi, -lo], vertices=V)
        if dim != 2:
            raise DimensionMismatchError(
                f"convex hulls are built in dimension 1 or 2, got dimension {dim}")
        H = V[_planar_hull(V)]
        edges = np.roll(H, -1, axis=0) - H
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        return cls(normals, (normals * H).sum(axis=1), vertices=H)

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
        return body

    # -- geometry ----------------------------------------------------------

    def _violation(self, p, x):
        """Largest facet violation <a, p> - b relative to |a| |x| + |b|."""
        scale = np.linalg.norm(self.A, axis=1) * np.linalg.norm(x) + np.abs(self.b)
        return ((self.A @ p - self.b) / np.maximum(scale, np.finfo(float).tiny)).max()

    def contains(self, x):
        return bool(self._violation(x, x) <= _TOL)

    def support(self, x):
        if self.vertices is None:
            raise ProjectionError("support needs a vertex list for this body")
        return float(np.max(self.vertices @ np.asarray(x, dtype=float)))

    def project(self, x):
        """Nearest point x + z: z = -s r[:n] / r[n] solves the least-distance
        problem min |z| subject to -A z >= h = A x - b, for r = E u - f and u
        the nonnegative least squares solution of E u ~ f = e_{n+1}, with
        E = [-A^T; h^T / s] and s = max|h| (Lawson & Hanson 1974, ch. 23).
        r = 0 means an empty body.  A point that is not finite, or a result
        off a facet by more than 1e-9 of |a| |x| + |b|, is a ProjectionError."""
        x = np.asarray(x, dtype=float)
        violation = np.inf
        if np.isfinite(x).all():
            h = self.A @ x - self.b
            s = np.abs(h).max() or 1.0
            E = np.vstack([-self.A.T, h / s])
            f = np.eye(len(E))[-1]
            r = E @ _nnls(E, f) - f
            if -r[-1] <= _EPS:              # -r[n] = |r|^2: r = 0 to working precision
                raise ProjectionError("the body is empty", iterates={"point": x})
            p = x - r[:-1] * (s / r[-1])
            violation = self._violation(p, x)
        if violation <= _TOL:
            return p
        raise ProjectionError("projection failed", iterates={"point": x, "violation": violation})

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

    def active_indices(self, x):
        """Facets active at the boundary point x (relative tolerance)."""
        x = np.asarray(x, dtype=float)
        resid = np.abs(self.A @ x - self.b)
        scale = np.maximum(np.linalg.norm(self.A, axis=1) * np.linalg.norm(x), 1e-12)
        return np.where(resid <= _ACTIVE_TOL * scale)[0]

    def normal_generators(self, x):
        return [self.A[i].copy() for i in self.active_indices(x)]

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

    def contains(self, x):
        return self._polyhedron.contains(x)

    def project(self, x):
        return self._polyhedron.project(x)

    def support(self, x):
        x = np.asarray(x, dtype=float)
        scale = np.linalg.norm(self.rays, axis=1) * np.linalg.norm(x)
        return 0.0 if np.all(self.rays @ x <= _TOL * scale) else np.inf


def _turns_left(o, a, b):
    """Whether o -> a -> b turns left, by an orientation test relative to the
    lengths of the two edges from o; a repeated point makes no turn."""
    ax, ay, bx, by = a[0] - o[0], a[1] - o[1], b[0] - o[0], b[1] - o[1]
    return ax * by - ay * bx > _TURN_TOL * math.hypot(ax, ay) * math.hypot(bx, by)


def _planar_hull(V):
    """Row indices of the hull vertices of planar points, counter-clockwise
    from the lexicographically least: Andrew's monotone chain (1979), which
    drops duplicate and collinear points."""
    order = np.lexsort((V[:, 1], V[:, 0])).tolist()
    P = V.tolist()
    hull = []
    for chain in (order, order[::-1]):          # lower hull, then upper hull
        part = []
        for i in chain:
            while len(part) >= 2 and not _turns_left(P[part[-2]], P[part[-1]], P[i]):
                part.pop()
            part.append(i)
        hull += part[:-1]
    if len(hull) < 3 or not np.isfinite(V).all():
        raise RankDeficientError(
            f"{len(V)} points span no polygon: their hull has {len(hull)} vertices")
    return hull


def _nnls(E, f):
    """u >= 0 minimizing |E u - f| by Lawson and Hanson's active set (1974,
    ch. 23): the column of largest dual value E^T (f - E u), if above
    max(m, n) eps max|E|, joins the passive set, and where least squares on
    those columns leaves u >= 0 no longer, u steps back along the segment to
    it until an entry reaches 0 and leaves.  Over 3 n steps: ProjectionError."""
    m, n = E.shape
    tol = max(m, n) * _EPS * np.abs(E).max()
    u, s, passive = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        if (s[passive] > 0).all():
            u = s
            w = np.where(passive, -np.inf, E.T @ (f - E @ u))
            j = np.argmax(w)
            if not w[j] > tol:
                return u
            passive[j] = True
        else:
            neg = passive & (s <= 0)
            t = np.divide(u, u - s, out=np.zeros(n), where=neg & (u > 0))
            k = np.flatnonzero(neg)[np.argmin(t[neg])]
            u = u + t[k] * (s - u)
            u[k] = 0.0
            passive &= u > 0
        s = np.zeros(n)
        s[passive] = np.linalg.lstsq(E[:, passive], f, rcond=None)[0]
    raise ProjectionError(f"NNLS took over {3 * n} steps", iterates={"E": E, "f": f})


def _perp_basis(v):
    """Orthonormal basis of v-perp as rows, deterministic: the Q factor of the
    columns of the projector I - v v^T / |v|^2 but one.  Any n - 1 of them
    span v-perp when the one left out is a column i with v_i != 0; the last
    i with |v_i| >= |v| / (2 sqrt n) keeps the rest well conditioned."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    M = np.eye(n) - np.outer(v, v) / (v @ v)
    drop = np.flatnonzero(np.abs(v) >= np.linalg.norm(v) / (2 * np.sqrt(n)))[-1]
    return np.linalg.qr(np.delete(M, drop, axis=1))[0].T


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


def normal_cone(body, x):
    """Generators of the normal cone at a boundary point (single normal if smooth)."""
    return body.normal_generators(np.asarray(x, dtype=float))


def _distinct_directions(vectors):
    dirs = []
    for v in vectors:
        nv = np.linalg.norm(v)
        if nv <= 0:
            continue
        u = v / nv
        if not any(u @ w > 1 - _ANGLE_TOL for w in dirs):
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


def projection_form_applies(body, x):
    """True when x is exterior and its projection is a smooth boundary point."""
    x = np.asarray(x, dtype=float)
    p = body.project(x)
    if np.linalg.norm(x - p) <= _ACTIVE_TOL:
        return False
    return len(_distinct_directions(body.normal_generators(p))) == 1
