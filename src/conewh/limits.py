"""Sampled set-convergence diagnostics on a window lattice.

A sampled set is a boolean mask over the lattice lo + k*step of [lo, hi]^dim.
The limes inferior / superior of a sequence are approximated over its tail,
the last max(2, ceil(len/2)) sets: "all but finitely many" means each tail
set, "infinitely many" means at least one hit in every consecutive block of
the tail, with at most three blocks and at least two sets in each.  Both read
the same tail, so liminf <= limsup by construction, as for true set limits
(Rockafellar & Wets, Variational Analysis, 4.A); two sets in a block keep a
sequence that alternates between far-apart sets from reading as converged.
"Within eps" of a set is one binary dilation of its mask by the stencil
{k : |k|*step < eps}, made for all the tail masks at once; a Hausdorff
distance is read from the exact Euclidean distance transform of a mask, in
integers, times step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_BLOCK = 2**18             # elements of one broadcast block of the distance transform


def _axis(bounds, step):
    lo, hi = bounds
    return np.arange(lo, hi + step / 2, step)


@dataclass(frozen=True, eq=False)
class SampledSet:
    """A set sampled on the window lattice (bounds, step), with a description tag."""

    mask: np.ndarray              # bool, one axis per coordinate; all False is the empty set
    bounds: tuple
    step: float
    tag: str = ""

    @property
    def dim(self):
        return self.mask.ndim

    @property
    def points(self):
        """The (m, dim) array of the set's lattice points."""
        axis = _axis(self.bounds, self.step)
        return np.stack([axis[i] for i in np.nonzero(self.mask)], axis=1)

    def __len__(self):
        return int(np.count_nonzero(self.mask))


def _lattice(sets, bounds=None, step=None):
    """The step of the window lattice every set lies on; bounds and step,
    where given, must name that lattice."""
    bounds = tuple(sets[0].bounds if bounds is None else bounds)
    step = sets[0].step if step is None else step
    for s in sets:
        if (tuple(s.bounds), s.step, s.mask.shape) != (bounds, step, sets[0].mask.shape):
            raise DomainError(f"sampled set '{s.tag}' lies on the lattice with step {s.step} "
                              f"on {tuple(s.bounds)}, not with step {step} on {bounds}")
    return step


def _dilate(masks, stencil):
    """The binary dilation of each mask of a stack by a centred stencil, one
    OR per offset for the whole stack."""
    r, n = stencil.shape[0] // 2, masks.shape[1]
    padded = np.pad(masks, [(0, 0)] + [(r, r)] * stencil.ndim)
    out = np.zeros_like(masks)
    for offset in np.argwhere(stencil):
        out |= padded[(slice(None),) + tuple(slice(o, o + n) for o in offset)]
    return out


def _sq_distance(mask):
    """Squared lattice distance of every point to a non-empty mask, exact in
    integers: the minimum of d(j) + (i - j)**2 along one axis at a time
    (the separable Euclidean distance transform of Saito & Toriwaki, 1994).

    The integers are of the narrowest signed type that holds (dim + 1)*n**2,
    above every sum d(j) + (i - j)**2 formed: int16 up to 90**3 and 104**2.
    Each axis is brought to the front of a contiguous copy, and its minimum
    over j is one broadcast per block of output rows i, of at most
    max(_BLOCK, n**dim) elements.  The result is a view in the mask's axis
    order.
    """
    n, dim = mask.shape[0], mask.ndim
    dtype = next(t for t in (np.int16, np.int32, np.int64)
                 if (dim + 1) * n * n <= np.iinfo(t).max)
    d = np.where(mask, dtype(0), dtype(dim * n * n))
    sq = ((np.arange(n)[:, None] - np.arange(n)) ** 2).astype(dtype)[:, :, None]
    rows = max(1, _BLOCK // mask.size)
    for _ in range(dim):
        d = d.reshape(n, -1)
        out = np.empty_like(d)
        for i in range(0, n, rows):
            np.min(d + sq[i:i + rows], axis=1, out=out[i:i + rows])
        d = np.moveaxis(out.reshape(mask.shape), 0, -1)     # the next axis to the front
    return d


def _reach(a, b):
    """max over a's points of the distance to b, in lattice units; points in
    both masks are at 0, so the transform runs only when a is not inside b.
    The root is of a Python int, so it is a float64 whatever the transform's
    integer type."""
    rest = a.mask & ~b.mask
    return np.sqrt(int(_sq_distance(b.mask)[rest].max())) if rest.any() else 0.0


def hausdorff_distance(a: SampledSet, b: SampledSet) -> float:
    """Symmetric Hausdorff distance between two sets on one window lattice."""
    step = _lattice([a, b])
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    return float(step * max(_reach(a, b), _reach(b, a)))


def pk_tail(seq):
    """The tail of seq that the sampled limits read: its last max(2, ceil(len/2))
    items."""
    return seq[-max(2, (len(seq) + 1) // 2):]


def pk_converged(seq, eps, bounds=None, step=None):
    """Sampled liminf and limsup over the tail of seq, their Hausdorff distance,
    and whether it is at most eps.

    bounds and step, where given, must name the window lattice of the sets.
    """
    if len(seq) < 2:
        raise DomainError("need at least two sets")
    if eps <= 0:
        raise DomainError("eps must be positive")
    step = _lattice(seq, bounds, step)
    r = int(np.ceil(eps / step))
    sq = sum(np.meshgrid(*([np.arange(-r, r + 1) ** 2] * seq[0].dim), indexing="ij"))
    stencil = step * np.sqrt(sq) < eps
    near = _dilate(np.stack([s.mask for s in pk_tail(seq)]), stencil)
    blocks = np.array_split(near, max(1, min(3, len(near) // 2)))
    lo = SampledSet(near.all(axis=0), seq[0].bounds, step, "pk-liminf")
    hi = SampledSet(np.all([b.any(axis=0) for b in blocks], axis=0), seq[0].bounds, step,
                    "pk-limsup")
    dist = hausdorff_distance(lo, hi)
    return dist <= eps, lo, hi, dist


def pk_liminf(seq, eps, bounds=None, step=None) -> SampledSet:
    """The sampled liminf of pk_converged (a span name of perfbench/tracing.py)."""
    return pk_converged(seq, eps, bounds, step)[1]


def pk_limsup(seq, eps, bounds=None, step=None) -> SampledSet:
    """The sampled limsup of pk_converged (a span name of perfbench/tracing.py)."""
    return pk_converged(seq, eps, bounds, step)[2]


def sample_cone(cone, bounds, step, shift=None, tag="") -> SampledSet:
    """Window sample of shift - C (or of C when shift is None) for an exact cone.

    Membership of a lattice point p means shift - p in C, checked by float
    margins against the canonical inequalities, summed axis by axis.
    """
    dim, axis = cone.ambient_dim, _axis(bounds, step)
    coords = [axis] * dim if shift is None else [float(s) - axis for s in shift]
    keep = np.ones((len(axis),) * dim, dtype=bool)
    margin, hit = np.empty(keep.shape), np.empty(keep.shape, dtype=bool)
    for normal in np.array(cone.inequalities, dtype=float):
        terms = [(c * w).reshape((-1,) + (1,) * (dim - 1 - i))
                 for i, (c, w) in enumerate(zip(coords, normal))]
        np.add(sum(terms[:-1]), terms[-1], out=margin)
        np.divide(margin, np.linalg.norm(normal), out=margin)
        keep &= np.greater_equal(margin, -1e-9, out=hit)
    return SampledSet(keep, tuple(bounds), step, tag)
