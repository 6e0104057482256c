"""Sampled PK limits and Hausdorff distances against full-distance oracles.

The library works on masks over the window lattice: one binary dilation per
tail set and a distance transform per Hausdorff direction.  The oracles take
the full nearest distance of every point.  On a dyadic step every lattice
distance is exact in floats, so the results must agree bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewh.limits import (
    _BLOCK,
    _sq_distance,
    hausdorff_distance,
    pk_converged,
    sample_cone,
)
from conewh.strata import ray_limit

from oracles import (
    OffLatticeError,
    full_dist_to_set,
    full_hausdorff,
    full_pk_liminf,
    full_pk_limsup,
    full_sample_cone,
    per_row_sq_distance,
    sampled_set_from_points,
    window_grid,
)

STEP = 0.25
BOUNDS = (-1.0, 1.0)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _set(points):
    return sampled_set_from_points(points, BOUNDS, STEP)


@st.composite
def _sample(draw, dim):
    """A lattice sample, as an (m, dim) float array: grid picks or empty."""
    if draw(st.booleans()):
        return np.empty((0, dim))
    grid = window_grid(BOUNDS, STEP, dim)
    return grid[draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=40))]


@st.composite
def _sequences(draw):
    dim = draw(st.sampled_from((2, 3)))
    # Up to 12 sets, so tails of 4 to 6 sets split into two or three blocks.
    seq = draw(st.lists(_sample(dim), min_size=2, max_size=12))
    # 0.25 and 0.5 are lattice distances, so points at exactly eps occur.
    eps = draw(st.sampled_from((0.25, 0.5, 0.3)))
    bounds = draw(st.sampled_from((BOUNDS, None)))
    return seq, eps, bounds


@settings(max_examples=80, deadline=None)
@given(_sequences())
def test_pk_limits_equal_full_distance_oracle(case):
    seq, eps, bounds = case
    sets = [_set(s) for s in seq]
    lo_ref = full_pk_liminf(seq, eps, BOUNDS, STEP)
    hi_ref = full_pk_limsup(seq, eps, BOUNDS, STEP)
    converged, lo, hi, dist = pk_converged(sets, eps, bounds, STEP)
    dist_ref = full_hausdorff(lo_ref, hi_ref)
    assert _same(lo.points, lo_ref) and _same(hi.points, hi_ref)
    assert _same(dist, dist_ref) and converged == (dist_ref <= eps)
    for a in seq:
        for b in seq[:2]:
            assert _same(hausdorff_distance(_set(a), _set(b)), full_hausdorff(a, b))


@settings(max_examples=80, deadline=None)
@given(_sequences())
def test_pk_liminf_inside_limsup(case):
    """liminf <= limsup for every sequence (Rockafellar & Wets, 4.A)."""
    seq, eps, bounds = case
    _, lo, hi, _ = pk_converged([_set(s) for s in seq], eps, bounds, STEP)
    assert not (lo.mask & ~hi.mask).any()
    assert len(lo) <= len(hi)
    assert len(lo) == 0 or full_dist_to_set(lo.points, hi.points).max() == 0.0


@pytest.mark.parametrize("n", range(2, 13))
def test_pk_alternating_sets_do_not_converge(n):
    """A, B, A, B, ... with B = A plus a far point: every limsup block holds
    both, so the far point is in the limsup and not in the liminf."""
    a = np.array([[-1.0, -1.0], [-0.75, -1.0]])
    b = np.vstack([a, [[1.0, 1.0]]])
    seq = [_set(a if i % 2 == 0 else b) for i in range(n)]
    converged, lo, hi, dist = pk_converged(seq, 0.5)
    assert not converged and dist > 0.5
    assert lo.mask[0, 0] and not lo.mask[-1, -1] and hi.mask[-1, -1]


@pytest.mark.parametrize("shape, density, dtype", [
    ((33, 33, 33), 0.002, np.int16), ((33, 33, 33), 0.3, np.int16),
    ((104, 104), 0.001, np.int16), ((105, 105), 0.001, np.int32), ((7,), 0.2, np.int16)])
def test_sq_distance_equals_per_row_oracle(shape, density, dtype):
    """The narrow-integer transform, one broadcast per block of output rows,
    gives the earlier int64 per-row transform's distances on seeded masks;
    104**2 and 105**2 lie either side of the int16/int32 switch."""
    rng = np.random.default_rng(len(shape) * shape[0])
    for _ in range(3):
        mask = rng.random(shape) < density
        mask.flat[rng.integers(mask.size)] = True
        d = _sq_distance(mask)
        assert d.dtype == dtype and np.array_equal(d, per_row_sq_distance(mask))


@pytest.mark.parametrize("shape, dtype", [
    ((33, 33, 33), np.int16), ((90, 90, 90), np.int16), ((91, 91, 91), np.int32),
    ((104, 104), np.int16), ((105, 105), np.int32), ((9,), np.int16)])
def test_sq_distance_of_one_point(shape, dtype):
    """A single point at a corner and at the centre: the farthest corner is at
    dim*(n - 1)**2, the largest distance the transform holds, in the narrowest
    type that holds (dim + 1)*n**2."""
    n = shape[0]
    for point in ((0,) * len(shape), (n // 2,) * len(shape), (n - 1,) + (0,) * (len(shape) - 1)):
        mask = np.zeros(shape, dtype=bool)
        mask[point] = True
        d = _sq_distance(mask)
        closed = sum((np.indices(shape)[i] - p) ** 2 for i, p in enumerate(point))
        assert d.dtype == dtype and np.array_equal(d, closed)
        assert mask.size > 33**3 or np.array_equal(d, per_row_sq_distance(mask))


@pytest.mark.parametrize("n, dim", [(33, 3), (65, 3), (105, 2)])
def test_sq_distance_temporaries_stay_in_blocks(n, dim):
    """At most the distances, one axis-first copy of them, their next axis and
    one broadcast block of max(_BLOCK, n**dim) elements are alive at once."""
    mask = np.random.default_rng(n).random((n,) * dim) < 0.01
    tracemalloc.start()
    try:
        d = _sq_distance(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= d.itemsize * (max(_BLOCK, n**dim) + 3 * n**dim) + 65536


@pytest.mark.parametrize("cone, direction", [
    ("simplicial", (1, 1, 0)), ("fourgonal", (1, 0, 1)), ("fourgonal", (1, 1, 1))])
def test_hausdorff_on_preset_samples_equals_full_oracle(request, cone, direction):
    """On the 33**3 window of the 3-D pklimit goldens (window 4, step 0.25),
    where the transform runs in int16, each distance is the full
    nearest-distance value bit for bit, as a Python float."""
    cone, bounds, x = request.getfixturevalue(cone), (-4.0, 4.0), np.array(direction, dtype=float)
    seq = [sample_cone(cone, bounds, STEP, shift=s * x) for s in (2, 4, 8, 16, 32, 64)]
    _, lo, _, _ = pk_converged(seq, 0.5)
    exact = sample_cone(ray_limit(cone, direction), bounds, STEP)
    for a, b in [(lo, exact), (seq[0], exact), (seq[0], seq[-1])]:
        dist = hausdorff_distance(a, b)
        assert type(dist) is float and dist > 0
        assert _same(dist, full_hausdorff(a.points, b.points))


@st.composite
def _off_lattice(draw):
    """Lattice points with one row moved off the lattice or out of the window:
    a dyadic shift along an axis just inside eps, a non-dyadic shift, a shift
    of two window widths, or a coordinate that is not finite."""
    dim = draw(st.sampled_from((2, 3)))
    grid = window_grid(BOUNDS, STEP, dim)
    points = grid[draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=12))]
    row, axis = draw(st.integers(0, len(points) - 1)), draw(st.integers(0, dim - 1))
    points[row, axis] += draw(st.sampled_from(
        (0.5 - 2**-20, -(0.25 - 2**-20), 0.1, 1e-6, 4.0, -4.0, np.nan, np.inf)))
    return points, points[row]


@settings(max_examples=60, deadline=None)
@given(_off_lattice())
def test_off_lattice_point_raises(case):
    points, bad = case
    with pytest.raises(OffLatticeError) as info:
        _set(points)
    assert str(STEP) in str(info.value) and str(bad.tolist()) in str(info.value)


@pytest.mark.parametrize("step", [0.25, 0.2, 0.15])
@pytest.mark.parametrize("cone, direction", [
    ("quarter", (1, 1)), ("quarter", (1, 0)), ("simplicial", (1, 1, 0)),
    ("fourgonal", (0, 0, 1)), ("fourgonal", (1, 0, 1)), ("fourgonal", (1, 1, 1))])
def test_sample_cone_equals_matrix_product_membership(request, cone, direction, step):
    """Margins summed axis by axis decide membership as the full product does,
    for every scale of the pklimit default and for the ray limit."""
    cone, bounds = request.getfixturevalue(cone), (-4.0, 4.0)
    x = np.array(direction, dtype=float)
    limit = ray_limit(cone, direction)
    normals = np.array(cone.inequalities, dtype=float)
    for s in (None, 2, 4, 8, 16, 32, 64):
        shift = None if s is None else s * x
        assert _same(sample_cone(cone, bounds, step, shift).mask.ravel(),
                     full_sample_cone(normals, bounds, step, shift))
    if limit.inequalities:
        limit_normals = np.array(limit.inequalities, dtype=float)
        assert _same(sample_cone(limit, bounds, step).mask.ravel(),
                     full_sample_cone(limit_normals, bounds, step))
