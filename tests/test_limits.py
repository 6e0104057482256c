"""Sampled PK limits and Hausdorff distances against full-distance oracles.

The library takes one eps-bounded KD query per set and skips rows shared by
both samples of a Hausdorff distance; the oracles take the full nearest
distance of every point.  The results must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conewh.limits import (
    SampledSet,
    hausdorff_distance,
    pk_converged,
    pk_liminf,
    pk_limsup,
    window_grid,
)

from oracles import full_hausdorff, full_pk_liminf, full_pk_limsup

STEP = 0.25
BOUNDS = (-1.0, 1.0)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def _sample(draw, dim):
    """A point sample of one of four kinds, as an (m, dim) float array."""
    kind = draw(st.sampled_from(("grid", "off-grid", "at-eps", "empty")))
    if kind == "empty":
        return np.empty((0, dim))
    grid = window_grid(BOUNDS, STEP, dim)
    if kind == "off-grid":
        coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
        rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))
        return np.array(rows, dtype=float)
    picks = draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=40))
    points = grid[picks]
    if kind == "at-eps":
        # Dyadic shifts along an axis, exact in floats: at exactly eps (or
        # 2 eps) from the grid point they came from, or just inside eps.
        axis = draw(st.integers(0, dim - 1))
        points = points.copy()
        points[:, axis] += draw(st.sampled_from(
            (0.25, 0.5, -0.5, 1.0, 0.5 - 2**-20, -(0.25 - 2**-20))))
    return points


@st.composite
def _sequences(draw):
    dim = draw(st.sampled_from((2, 3)))
    seq = draw(st.lists(_sample(dim), min_size=2, max_size=6))
    eps = draw(st.sampled_from((0.25, 0.5, 0.3)))
    bounds = draw(st.sampled_from((BOUNDS, None)))
    return seq, eps, bounds


@settings(max_examples=80, deadline=None)
@given(_sequences())
def test_pk_limits_equal_full_distance_oracle(case):
    seq, eps, bounds = case
    sets = [SampledSet(s) for s in seq]
    lo_ref = full_pk_liminf(seq, eps, bounds, STEP)
    hi_ref = full_pk_limsup(seq, eps, bounds, STEP)
    assert _same(pk_liminf(sets, eps, bounds, STEP).points, lo_ref)
    assert _same(pk_limsup(sets, eps, bounds, STEP).points, hi_ref)
    converged, lo, hi, dist = pk_converged(sets, eps, bounds, STEP)
    dist_ref = full_hausdorff(lo_ref, hi_ref)
    assert _same(lo.points, lo_ref) and _same(hi.points, hi_ref)
    assert _same(dist, dist_ref) and converged == (dist_ref <= eps)
    for a in seq:
        for b in seq[:2]:
            assert _same(hausdorff_distance(SampledSet(a), SampledSet(b)), full_hausdorff(a, b))
