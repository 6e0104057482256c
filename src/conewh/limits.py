"""Sampled set-convergence diagnostics on a bounded window.

Closed sets are represented by finite point samples on a uniform grid.  The
limes inferior / superior of a sequence are approximated operationally:
"all but finitely many" means each of the last K sets, "infinitely many"
means at least one hit in every consecutive block.  These are desk-scale
diagnostics, not exact set limits.  Each set gets one KD query bounded by eps,
shared by liminf and limsup; its mask d < eps equals that of full distances.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DomainError
from .exact import as_float


@dataclass(frozen=True)
class SampledSet:
    """Finite float sample of a set, with a description tag."""

    points: np.ndarray            # shape (m, dim); m = 0 represents the empty set
    tag: str = ""

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return len(self.points)


def window_grid(bounds, step, dim):
    """Uniform grid over [lo, hi]^dim as an (m, dim) array."""
    lo, hi = bounds
    axis = np.arange(lo, hi + step / 2, step)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _directed(a, b):
    """max over rows p of a of d(p, b); only rows that are not bitwise rows of b
    (binary search in b's rows, by an argsort) are queried, the others are at 0."""
    pa, pb = (np.ascontiguousarray(s.points, dtype=float) for s in (a, b))
    ra, rb = (p.view(np.dtype((np.void, 8 * p.shape[1]))).ravel() for p in (pa, pb))
    order = np.argsort(rb)
    rest = pa[np.searchsorted(rb, ra, "left", order) == np.searchsorted(rb, ra, "right", order)]
    return cKDTree(pb).query(rest)[0].max() if len(rest) else 0.0


def hausdorff_distance(a: SampledSet, b: SampledSet) -> float:
    """Symmetric Hausdorff distance between two point samples."""
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    return float(max(_directed(a, b), _directed(b, a)))


def _candidate_grid(seq, bounds, step):
    dim = seq[0].dim
    if bounds is None:
        finite = [s.points for s in seq if len(s)]
        if not finite:
            return np.empty((0, dim))
        allpts = np.concatenate(finite)
        lo = float(np.floor(allpts.min()))
        hi = float(np.ceil(allpts.max()))
        bounds = (lo, hi)
    return window_grid(bounds, step, dim)


def _tail(n):
    return range(n - max(2, (n + 1) // 2), n)


def _near_masks(seq, eps, bounds, step, indices):
    """Candidate grid and, for i in indices, the mask d(grid, seq[i]) < eps."""
    if len(seq) < 2:
        raise DomainError("need at least two sets")
    if eps <= 0:
        raise DomainError("eps must be positive")
    grid = _candidate_grid(seq, bounds, eps if step is None else step)
    return grid, {i: cKDTree(seq[i].points).query(grid, distance_upper_bound=eps)[0] < eps
                  if len(seq[i]) else np.zeros(len(grid), dtype=bool) for i in indices}


def _liminf(grid, near, n):
    return SampledSet(grid[np.logical_and.reduce([near[i] for i in _tail(n)])], "pk-liminf")


def _limsup(grid, near, n):
    blocks = np.array_split(np.arange(n), min(3, n))
    hits = [np.logical_or.reduce([near[i] for i in block]) for block in blocks]
    return SampledSet(grid[np.logical_and.reduce(hits)], "pk-limsup")


def pk_liminf(seq, eps, bounds=None, step=None) -> SampledSet:
    """Grid points within eps of each of the last ceil(len/2) sets."""
    return _liminf(*_near_masks(seq, eps, bounds, step, _tail(len(seq))), len(seq))


def pk_limsup(seq, eps, bounds=None, step=None) -> SampledSet:
    """Grid points within eps of at least one set in every consecutive block."""
    return _limsup(*_near_masks(seq, eps, bounds, step, range(len(seq))), len(seq))


def pk_converged(seq, eps, bounds=None, step=None):
    """Declare eps-convergence when liminf and limsup samples coincide within eps."""
    grid, near = _near_masks(seq, eps, bounds, step, range(len(seq)))
    lo, hi = _liminf(grid, near, len(seq)), _limsup(grid, near, len(seq))
    dist = hausdorff_distance(lo, hi)
    return dist <= eps, lo, hi, dist


def sample_cone(cone, bounds, step, shift=None, tag="") -> SampledSet:
    """Window sample of shift - C (or of C when shift is None) for an exact cone.

    Membership of a grid point p means shift - p in C, checked by float margins
    against the canonical inequalities.
    """
    normals = np.array([as_float(a) for a in cone.inequalities], dtype=float)
    grid = window_grid(bounds, step, cone.ambient_dim)
    pts = grid if shift is None else np.asarray(shift, dtype=float) - grid
    if len(normals) == 0:
        keep = np.ones(len(grid), dtype=bool)
    else:
        scale = np.linalg.norm(normals, axis=1)
        margins = (pts @ normals.T) / scale
        keep = (margins >= -1e-9).all(axis=1)
    return SampledSet(grid[keep], tag=tag)
