"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's algorithms: membership by
Caratheodory subset solves, face enumeration by exhaustive active-set
closure over all facet subsets, windings by upper-half-plane zero/pole
counts, projections by parametrized gradient descent.  The double description
and covering-relation oracles are the library's earlier rational
implementations: per-pair exact-rank adjacency and the O(F^3) covering loop.
The sampled-limit oracles take the full nearest distance of every grid point
to every set, and of every sample row in a Hausdorff distance.  The
Wiener-Hopf oracles are the library's earlier direct-sum twisted face
restriction, the fibre representation rep_L by direct quadrature, the product
symbol, and the change of variables of a simplicial 2-D cone to the quarter
plane.
"""

import itertools
from fractions import Fraction

import numpy as np
from scipy.linalg import toeplitz
from scipy.spatial import cKDTree

from conewh.errors import DimensionMismatchError, KernelWindowError
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
from conewh.wiener_hopf import convolve_kernels, make_symbol, wh_matrix


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


def window_grid(bounds, step, dim):
    """The window lattice lo + k*step of [lo, hi]^dim as an (m, dim) array, in
    the C order of a sampled set's mask."""
    lo, hi = bounds
    mesh = np.meshgrid(*([np.arange(lo, hi + step / 2, step)] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def full_sample_cone(normals, bounds, step, shift=None):
    """Window-lattice membership mask (flat, C order) of shift - C, or of C,
    from one matrix product of every lattice point with the float normals."""
    grid = window_grid(bounds, step, normals.shape[1])
    pts = grid if shift is None else np.asarray(shift, dtype=float) - grid
    return ((pts @ normals.T) / np.linalg.norm(normals, axis=1) >= -1e-9).all(axis=1)


def full_pk_liminf(seq, eps, bounds, step):
    """Grid points at full distance < eps from each of the last
    max(2, ceil(len/2)) sets (the tail)."""
    grid = window_grid(bounds, step, seq[0].shape[1])
    keep = np.ones(len(grid), dtype=bool)
    for s in seq[-max(2, (len(seq) + 1) // 2):]:
        keep &= full_dist_to_set(grid, s) < eps
    return grid[keep]


def full_pk_limsup(seq, eps, bounds, step):
    """Grid points at full distance < eps from some set of every consecutive
    block of the tail (at most three blocks, at least two sets in each), so
    full_pk_liminf is a subset."""
    grid = window_grid(bounds, step, seq[0].shape[1])
    tail = np.arange(len(seq))[-max(2, (len(seq) + 1) // 2):]
    keep = np.ones(len(grid), dtype=bool)
    for block in np.array_split(tail, max(1, min(3, len(tail) // 2))):
        hit = np.zeros(len(grid), dtype=bool)
        for i in block:
            hit |= full_dist_to_set(grid, seq[i]) < eps
        keep &= hit
    return grid[keep]


# -- Wiener-Hopf ---------------------------------------------------------------


def direct_twisted_restriction(symbol, axis, y):
    """Twisted restriction g_y(t) = h * sum_w f(t s + w) e^{-2 pi i w y} as one
    direct sum over all w with the phase e^{-2 pi i x_w y}, through make_symbol."""
    phase = np.exp(-2j * np.pi * symbol.xs * float(y))
    if axis == 0:
        g = symbol.h * (symbol.kernel * phase[None, :]).sum(axis=1)
    else:
        g = symbol.h * (symbol.kernel * phase[:, None]).sum(axis=0)
    return make_symbol(g, 1, symbol.h, symbol.T)


def rep_L(symbol, face, y, h_in):
    """Fibre representation applied to a sampled function on the face grid.

    Direct quadrature of the double integral over the orthocomplement and
    the face's relative dual, with the convolution-class element phi(F,v,z)
    = f(-z) induced by the kernel.  Equals the Wiener-Hopf matrix of the
    (-y)-twisted face restriction applied to the same samples.
    """
    h_in = np.asarray(h_in, dtype=complex)
    N = len(h_in)
    if symbol.dim == 1:
        if float(y) != 0.0:
            raise DimensionMismatchError("half-line fibre has trivial orthocomplement")
        return wh_matrix(symbol, "half-line", N).entries @ h_in
    axis = {"e1": 0, "e2": 1}[face]
    M = (symbol.npoints - 1) // 2
    if N * symbol.h > symbol.T + 1e-12:
        raise KernelWindowError("truncation exceeds the kernel window")
    phase = np.exp(-2j * np.pi * symbol.xs * float(y))
    deltas = np.arange(-(N - 1), N)
    # G(delta) = h * sum_k f(delta*h along face, -w_k across) e^{-2 pi i w_k y}
    if axis == 0:
        block = symbol.kernel[M + deltas][:, ::-1]
    else:
        block = symbol.kernel[:, M + deltas][::-1, :].T
    G = symbol.h * block @ phase
    col = symbol.h * G[N - 1:]
    row = symbol.h * G[N - 1::-1]
    return toeplitz(col, row) @ h_in


def product_symbol(s1, s2):
    """Kernel of the product symbol: (1+f1hat)(1+f2hat) = 1 + (f1+f2+f1*f2)hat."""
    conv = convolve_kernels(s1, s2)
    return make_symbol(s1.kernel + s2.kernel + conv.kernel, s1.dim, s1.h, s1.T,
                       name=f"({s1.name})x({s2.name})")


def cone_section_transform(cone):
    """Change of variables reducing a solid pointed 2-D cone to the quarter
    plane: the generator matrix M (columns = extreme rays) and its determinant,
    for use with cone_transform_symbol."""
    from conewh.cones import is_pointed, is_solid
    from conewh.exact import as_float

    if cone.ambient_dim != 2 or not (is_pointed(cone) and is_solid(cone)):
        raise DimensionMismatchError("section transform needs a solid pointed 2-D cone")
    rays = [as_float(g) for g in cone.generators]
    if len(rays) != 2:
        raise DimensionMismatchError("section transform needs a simplicial cone")
    M = np.column_stack(rays)
    return M, float(np.linalg.det(M))


def cone_transform_symbol(f, h, T, transform):
    """The 2-D kernel |det M| f(M z) sampled on the quarter-plane window, for
    transform = (M, det M), through make_symbol."""
    Mmat, detM = transform
    xs = np.arange(-round(T / h), round(T / h) + 1) * h
    X1, X2 = np.meshgrid(xs, xs, indexing="ij")
    Z1 = Mmat[0, 0] * X1 + Mmat[0, 1] * X2
    Z2 = Mmat[1, 0] * X1 + Mmat[1, 1] * X2
    return make_symbol(abs(detM) * np.asarray(f(Z1, Z2), dtype=complex), 2, h, T)
