"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's algorithms: membership by
Caratheodory subset solves, face enumeration by exhaustive active-set
closure over all facet subsets, windings by upper-half-plane zero/pole
counts, projections by parametrized gradient descent.  The double description
and covering-relation oracles are the library's earlier rational
implementations: per-pair exact-rank adjacency and the O(F^3) covering loop.
The sampled-limit oracles take the full nearest distance of every grid point
to every set, and of every sample row in a Hausdorff distance.
"""

import itertools
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from conewh.exact import (
    canonical_ray,
    invert,
    is_zero_vec,
    nullspace,
    rank,
    rvec,
    solve_linear,
    vdot,
    vneg,
)
from conewh.limits import window_grid


def vrep_member(rays, x):
    """Exact membership in cone{rays} by Caratheodory subset enumeration."""
    x = rvec(x)
    if all(c == 0 for c in x):
        return True
    rays = [rvec(r) for r in rays]
    n = len(x)
    for size in range(1, n + 1):
        for subset in itertools.combinations(rays, size):
            if rank(list(subset)) < size:
                continue
            # solve sum mu_i r_i = x exactly: stack columns
            cols = list(zip(*subset))
            sol = solve_linear([rvec(c) for c in cols], x)
            if sol is not None and all(m >= 0 for m in sol):
                # verify (solve_linear returns any solution of the stacked system)
                recon = tuple(sum((m * r[j] for m, r in zip(sol, subset)), Fraction(0))
                              for j in range(n))
                if recon == x and all(m >= 0 for m in sol):
                    return True
    return False


def hrep_member(ineqs, x):
    x = rvec(x)
    return all(vdot(rvec(a), x) >= 0 for a in ineqs)


def integer_grid(n, radius):
    return [tuple(Fraction(c) for c in pt)
            for pt in itertools.product(range(-radius, radius + 1), repeat=n)]


def brute_force_faces(cone):
    """All faces by exhaustive subset enumeration over the facet inequalities.

    Returns the set of closed active sets with their generator tuples and dims.
    """
    m = len(cone.inequalities)
    found = {}
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            gens = [g for g in cone.generators
                    if all(vdot(cone.inequalities[i], g) == 0 for i in subset)]
            closure = tuple(i for i in range(m)
                            if all(vdot(cone.inequalities[i], g) == 0 for g in gens))
            found[closure] = (tuple(sorted(set(gens))), rank(gens))
    return found


def _fraction_extreme_rays(rows, n):
    """Rational double description with the algebraic adjacency test: two rays
    are adjacent iff their common active rows have rank k - 2."""
    rows = [canonical_ray(r) for r in rows if not is_zero_vec(r)]
    lineality = nullspace(rows, n)
    k = n - len(lineality)
    if k == 0:
        return [], lineality
    idx = []
    for i, r in enumerate(rows):
        if len(idx) < k and rank([rows[j] for j in idx] + [r]) > len(idx):
            idx.append(i)
    base = [rows[i] for i in idx]
    ginv = invert([[vdot(a, b) for b in base] for a in base])
    rays = [canonical_ray(tuple(sum((ginv[j][m] * base[m][c] for m in range(k)), Fraction(0))
                                for c in range(n))) for j in range(k)]
    processed = list(idx)
    for t, a in enumerate(rows):
        if t in idx:
            continue
        vals = [vdot(a, r) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        pos = [i for i, v in enumerate(vals) if v > 0]
        active = [frozenset(s for s in processed if vdot(rows[s], r) == 0) for r in rays]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        for i in pos:
            for j in neg:
                common = [rows[s] for s in sorted(active[i] & active[j])]
                if rank(common) == k - 2:
                    new_rays.append(canonical_ray(tuple(
                        vals[i] * y - vals[j] * x for x, y in zip(rays[i], rays[j]))))
        processed.append(t)
        rays = sorted(set(new_rays))
    return rays, lineality


def _fraction_dual_generators(rows, n):
    rays, lineality = _fraction_extreme_rays(rows, n)
    lines = [v for b in lineality for v in (b, vneg(b))]
    return tuple(sorted(set(canonical_ray(g) for g in rays + lines)))


def fraction_dd_cone(rays, n):
    """(generators, inequalities) of cone{rays} in Q^n, as canonical sorted
    Fraction tuples, by the rational double description."""
    vecs = [rvec(r) for r in rays]
    ineqs = _fraction_dual_generators(vecs, n)
    return _fraction_dual_generators(ineqs, n), ineqs


def cubic_covers(faces):
    """Covering pairs (i, j), faces[i] covered by faces[j], of a face list:
    strict active-set containment with no face in between, by the O(F^3) loop."""
    def leq(f, g):
        return set(f.active_set) >= set(g.active_set)

    order = []
    for i, f in enumerate(faces):
        for j, g in enumerate(faces):
            if i == j or not (leq(f, g) and f.active_set != g.active_set):
                continue
            between = any(k not in (i, j) and leq(f, faces[k]) and leq(faces[k], g)
                          and faces[k].active_set not in (f.active_set, g.active_set)
                          for k in range(len(faces)))
            if not between:
                order.append((i, j))
    return tuple(order)


def brute_force_exposed_face(cone, x):
    """Smallest face through x by intersecting all supporting hyperplanes at x."""
    x = rvec(x)
    active = [i for i, a in enumerate(cone.inequalities) if vdot(a, x) == 0]
    gens = [g for g in cone.generators
            if all(vdot(cone.inequalities[i], g) == 0 for i in active)]
    closure = tuple(i for i in range(len(cone.inequalities))
                    if all(vdot(cone.inequalities[i], g) == 0 for g in gens))
    return closure, tuple(sorted(set(gens)))


def winding_from_zero_pole(zeros_upper, poles_upper):
    """Winding under the frozen (xi decreasing) orientation."""
    return poles_upper - zeros_upper


def lorentz_project_descent(x, max_iter=120000):
    """Projection onto {(w, t) : t >= ||w||} by projected gradient descent on
    the parametrization y = (w, ||w|| + s), s >= 0, with the apex compared as
    a separate candidate (the parametrization is non-smooth at w = 0).
    Independent of the closed form."""
    x = np.asarray(x, dtype=float)

    def objective(y):
        return 0.5 * np.sum((y - x) ** 2)

    w = x[:-1].copy()
    if np.linalg.norm(w) == 0:
        w = np.full_like(w, 1e-3)
    s = max(x[-1] - np.linalg.norm(w), 0.0)
    lr = 0.2
    for it in range(max_iter):
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        u = w / nw
        y = np.concatenate([w, [nw + s]])
        r = y - x
        w = w - lr * (r[:-1] + r[-1] * u)
        s = max(s - lr * r[-1], 0.0)
        if it % 20000 == 19999:
            lr *= 0.5
    nw = np.linalg.norm(w)
    best = np.concatenate([w, [nw + s]])
    apex = np.zeros_like(x)
    return apex if objective(apex) < objective(best) else best


def gauge_by_bisection(member, x, hi=1e6, iters=200):
    """inf{a > 0 : x/a in C} by bisection on a membership oracle."""
    lo = 0.0
    hi = float(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if member(x, mid):
            hi = mid
        else:
            lo = mid
    return hi


def complex_singular_split(W, delta_factor=1e-8):
    """Near-kernel split of a finite section from a complex SVD of W.

    The count of singular values below delta_factor * sigma_max, the
    kernel/cokernel attribution by which singular vector (right or left) has
    more mass on the front half, the singular values, sigma_max, and the gap
    ratio above the count.
    """
    U, S, Vh = np.linalg.svd(np.asarray(W).astype(complex))
    n = len(S)
    k = int(np.sum(S < delta_factor * S[0]))
    front = n // 2
    dim_ker = sum(np.linalg.norm(Vh[i, :front]) >= np.linalg.norm(U[:front, i])
                  for i in range(n - k, n))
    gap = S[-k - 1] / S[-k] if 0 < k < n else None
    return {"count": k, "dim_ker": int(dim_ker), "dim_coker": k - int(dim_ker),
            "sigma": S, "sigma_max": float(S[0]), "gap": gap}


def full_dist_to_set(points, sample):
    """Nearest distance of each row of points to a sample (inf for the empty set)."""
    if len(sample) == 0:
        return np.full(len(points), np.inf)
    return cKDTree(sample).query(points, k=1)[0]


def full_hausdorff(a, b):
    """Symmetric Hausdorff distance from full nearest distances of every row."""
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    return float(max(full_dist_to_set(a, b).max(), full_dist_to_set(b, a).max()))


def _full_grid(seq, bounds, step):
    if bounds is None:
        finite = [s for s in seq if len(s)]
        if not finite:
            return np.empty((0, seq[0].shape[1]))
        allpts = np.concatenate(finite)
        bounds = (float(np.floor(allpts.min())), float(np.ceil(allpts.max())))
    return window_grid(bounds, step, seq[0].shape[1])


def full_pk_liminf(seq, eps, bounds, step):
    """Grid points at full distance < eps from each of the last ceil(len/2) sets."""
    grid = _full_grid(seq, bounds, step)
    keep = np.ones(len(grid), dtype=bool)
    for s in seq[-max(2, (len(seq) + 1) // 2):]:
        keep &= full_dist_to_set(grid, s) < eps
    return grid[keep]


def full_pk_limsup(seq, eps, bounds, step):
    """Grid points at full distance < eps from some set of every consecutive block."""
    grid = _full_grid(seq, bounds, step)
    keep = np.ones(len(grid), dtype=bool)
    for block in np.array_split(np.arange(len(seq)), min(3, len(seq))):
        hit = np.zeros(len(grid), dtype=bool)
        for i in block:
            hit |= full_dist_to_set(grid, seq[i]) < eps
        keep &= hit
    return grid[keep]
