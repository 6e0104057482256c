"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's algorithms: membership by
Caratheodory subset solves, face enumeration by exhaustive active-set
closure over all facet subsets, windings by upper-half-plane zero/pole
counts, projections by parametrized gradient descent.  The double description
and covering-relation oracles are the library's earlier rational
implementations: per-pair exact-rank adjacency and the O(F^3) covering loop.
The library's earlier integer construction of a cone is kept here too: a
second double description, of the derived inequalities, for the generators,
the generator-facet incidence by one product per (generator, facet) pair,
and the incidence pairs of the strata by a containment test of every pair of
faces on adjacent levels.
The sampled-limit oracles take the full nearest distance of every grid point
to every set, and of every sample row in a Hausdorff distance; the distance
transform oracle is the library's earlier int64 transform, one minimum per
output row.  The
Wiener-Hopf oracles are the library's earlier direct-sum twisted face
restriction, its earlier structure dispatch of a finite section by N x N
equality checks on the assembled matrix, the fibre representation rep_L by
direct quadrature, the discrete convolution of two kernels by FFT (the
oracle of face_symbol's convolution homomorphism), the product symbol, and
the change of variables of a simplicial 2-D cone to the quarter plane.  The exact linear algebra
oracles are the library's earlier `Fraction` Gauss-Jordan elimination and
Gram-Schmidt; the brute-force and double description oracles run on them,
not on `conewh.exact`; the exact projection onto a span is the library's
earlier dense route, the full rational projector B^T (B B^T)^-1 B applied to
the vector.  The projection onto a float polyhedral cone is the library's
earlier nonnegative least squares on its rays, and a convex hull is the
library's earlier Qhull hull with its duplicate facets merged.  The
face-projection oracles of criterion 4 are the span basis of a face and the
Minkowski sum of two cones from their generators.  The report text oracle is
the standard library's indented `json.dumps`, compared by parsed value.
Sampled sets that tests build from lattice points come from
`sampled_set_from_points`, once `SampledSet.from_points` of the library,
which no command called.
"""

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
from scipy.linalg import toeplitz
from scipy.optimize import nnls
from scipy.signal import fftconvolve
from scipy.spatial import ConvexHull, cKDTree

from conewh.cones import _extreme_rays, cone_from_generators
from conewh.errors import DimensionMismatchError, DomainError, KernelWindowError
from conewh.exact import canonical_ray, is_zero_vec, rvec, span_basis, vdot, vneg
from conewh.limits import SampledSet, _axis
from conewh.wiener_hopf import SymbolGrid, make_symbol, wh_matrix



def fraction_canonical_ray(v):
    """Coprime integer coordinates of v by Fraction multiplication, sign kept."""
    if is_zero_vec(v):
        raise ValueError("zero vector has no ray direction")
    denom = 1
    for a in v:
        denom = denom * a.denominator // math.gcd(denom, a.denominator)
    ints = [int(a * denom) for a in v]
    g = 0
    for a in ints:
        g = math.gcd(g, abs(a))
    return tuple(Fraction(a, g) for a in ints)


def fraction_canonical_line(v):
    w = fraction_canonical_ray(v)
    for a in w:
        if a != 0:
            return w if a > 0 else vneg(w)
    return w


def fraction_rref(rows):
    """Reduced row echelon form over Fraction: (rows, pivot columns)."""
    mat = [[Fraction(a) for a in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [a / pv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def fraction_rank(rows):
    return len(fraction_rref(rows)[0])


def fraction_nullspace(rows, n):
    red, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(fraction_canonical_line(tuple(v)))
    return basis


def fraction_solve_linear(rows, rhs):
    if not rows:
        return None
    n = len(rows[0])
    red, pivots = fraction_rref([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[-1]
    return tuple(x)


def fraction_invert(rows):
    k = len(rows)
    red, pivots = fraction_rref([tuple(r) + tuple(Fraction(int(i == j)) for j in range(k))
                                 for i, r in enumerate(rows)])
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in red]


def fraction_span_basis(vectors, n):
    return [fraction_canonical_line(r) for r in fraction_rref(vectors)[0]
            if not is_zero_vec(r)]


def fraction_gram_schmidt(vectors):
    ortho = []
    for v in vectors:
        w = [Fraction(a) for a in v]
        for u in ortho:
            c = vdot(tuple(w), u) / vdot(u, u)
            w = [a - c * b for a, b in zip(w, u)]
        if not is_zero_vec(w):
            ortho.append(tuple(w))
    return [fraction_canonical_line(u) for u in ortho]


def dense_project_onto_span(basis_rows, v):
    """Projection of v onto the span of independent rows: the rows of the full
    n x n rational projector B^T (B B^T)^-1 B, each dotted with v."""
    if not basis_rows:
        return tuple(Fraction(0) for _ in v)
    k, n = len(basis_rows), len(basis_rows[0])
    ginv = fraction_invert([[vdot(a, b) for b in basis_rows] for a in basis_rows])
    projector = [tuple(sum((basis_rows[a][i] * ginv[a][b] * basis_rows[b][j]
                            for a in range(k) for b in range(k)), Fraction(0))
                       for j in range(n)) for i in range(n)]
    return tuple(vdot(row, v) for row in projector)


def face_span_basis(face):
    """Canonical basis of the linear span of a face."""
    return span_basis(list(face.generators), face.parent.ambient_dim)


def minkowski_sum_cone(gens_a, gens_b, ambient_dim):
    """Conic hull of the union of two generator lists (sum of the two cones)."""
    return cone_from_generators(list(gens_a) + list(gens_b), ambient_dim)


def nnls_project_onto_ray_cone(rays, x):
    """Projection of x onto cone{rays} by nonnegative least squares on the rays."""
    rays = np.atleast_2d(np.asarray(rays, dtype=float))
    x = np.asarray(x, dtype=float)
    if rays.size == 0:
        return np.zeros_like(x)
    return rays.T @ nnls(rays.T, x)[0]


def qhull_body(V):
    """(A, b, vertices) of the convex hull of points by Qhull: unit outward
    facet normals A and offsets b, one row per facet, and the hull vertices.
    Qhull splits a facet of a polytope of dimension >= 3 into simplices; of
    their equations, equal when rounded to 12 decimals, the first is kept."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    hull = ConvexHull(V)
    keys, rows = [], []
    for a_c in hull.equations:                  # rows (a, c) with a.x + c <= 0
        key = np.round(a_c, 12)
        if not any(np.allclose(key, k) for k in keys):
            keys.append(key)
            rows.append(a_c)
    rows = np.array(rows)
    return rows[:, :-1], -rows[:, -1], V[hull.vertices]


def same_rows(P, Q, tol=0.0):
    """Whether two arrays hold the same rows up to order: as many rows, and
    each row within tol (max norm) of some row of the other."""
    P, Q = np.atleast_2d(P), np.atleast_2d(Q)
    if P.shape != Q.shape:
        return False
    D = np.abs(P[:, None, :] - Q[None, :, :]).max(axis=2)
    return bool((D.min(axis=1) <= tol).all() and (D.min(axis=0) <= tol).all())


def vrep_member(rays, x):
    """Exact membership in cone{rays} by Caratheodory subset enumeration."""
    x = rvec(x)
    if all(c == 0 for c in x):
        return True
    rays = [rvec(r) for r in rays]
    n = len(x)
    for size in range(1, n + 1):
        for subset in itertools.combinations(rays, size):
            if fraction_rank(list(subset)) < size:
                continue
            # solve sum mu_i r_i = x exactly: stack columns
            cols = list(zip(*subset))
            sol = fraction_solve_linear([rvec(c) for c in cols], x)
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
            found[closure] = (tuple(sorted(set(gens))), fraction_rank(gens))
    return found


def _fraction_extreme_rays(rows, n):
    """Rational double description with the algebraic adjacency test: two rays
    are adjacent iff their common active rows have rank k - 2."""
    rows = [fraction_canonical_ray(r) for r in rows if not is_zero_vec(r)]
    lineality = fraction_nullspace(rows, n)
    k = n - len(lineality)
    if k == 0:
        return [], lineality
    idx = []
    for i, r in enumerate(rows):
        if len(idx) < k and fraction_rank([rows[j] for j in idx] + [r]) > len(idx):
            idx.append(i)
    base = [rows[i] for i in idx]
    ginv = fraction_invert([[vdot(a, b) for b in base] for a in base])
    rays = [fraction_canonical_ray(tuple(
        sum((ginv[j][m] * base[m][c] for m in range(k)), Fraction(0)) for c in range(n)))
        for j in range(k)]
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
                if fraction_rank(common) == k - 2:
                    new_rays.append(fraction_canonical_ray(tuple(
                        vals[i] * y - vals[j] * x for x, y in zip(rays[i], rays[j]))))
        processed.append(t)
        rays = sorted(set(new_rays))
    return rays, lineality


def _fraction_dual_generators(rows, n):
    rays, lineality = _fraction_extreme_rays(rows, n)
    lines = [v for b in lineality for v in (b, vneg(b))]
    return tuple(sorted(set(fraction_canonical_ray(g) for g in rays + lines)))


def fraction_dd_cone(rays, n):
    """(generators, inequalities) of cone{rays} in Q^n, as canonical sorted
    Fraction tuples, by the rational double description."""
    vecs = [rvec(r) for r in rays]
    ineqs = _fraction_dual_generators(vecs, n)
    return _fraction_dual_generators(ineqs, n), ineqs


def _int_dd_generators(rows, n):
    """Canonical int generators of {x : rows @ x >= 0} by the library's DD."""
    rays, _, lin = _extreme_rays(list(dict.fromkeys(rows)), n)
    return sorted(set(rays) | {v for b in lin for v in (b, vneg(b))})


def two_dd_cone(rays, n):
    """(generators, inequalities) of cone{rays} in Q^n by two integer double
    descriptions: rays -> facets, then facets -> rays."""
    vecs = [canonical_ray(v) for v in map(rvec, rays) if not is_zero_vec(v)]
    ineqs = _int_dd_generators(vecs, n)
    return tuple(_int_dd_generators(ineqs, n)), tuple(ineqs)


def pairwise_incidence(cone):
    """Per generator, the bitmask of the inequalities vanishing on it, by one
    product per (generator, facet) pair."""
    return tuple(sum(1 << i for i, a in enumerate(cone.inequalities) if vdot(a, g) == 0)
                 for g in cone.generators)


def containment_pairs(st, j):
    """(index of E, index of F) of every face F of level j inside a face E of
    level j - 1 of the strata st, by testing every pair."""
    return [(ie, jf) for ie, e in enumerate(st.levels[j - 1])
            for jf, f in enumerate(st.levels[j]) if set(f.active_set) >= set(e.active_set)]


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


def blaschke_power_kernel(a, w):
    """The kernel of b_a^w, b_a(xi) = (s - a)/(s + a) with s = 2 pi i xi, as an
    expression in closed form: for w > 0, sum_j C(w, j) (-2a)^j x^(j-1)
    e^(-ax) / (j-1)! on x > 0 and the midpoint -w a at x = 0, and its mirror
    x -> -x for w < 0; its symbol winds w times."""
    k = abs(w)
    poly = " + ".join(f"({Fraction(math.comb(k, j) * (-2 * a) ** j, math.factorial(j - 1))})"
                      f"*x**{j - 1}" for j in range(1, k + 1))
    expr = f"where(x > 0, ({poly})*exp(-{a}*x), where(x == 0, {-k * a}.0, 0*x))"
    return expr if w > 0 else re.sub(r"\bx\b", "(-x)", expr)


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
    """Near-kernel split of a finite section from a dense SVD of W with
    vectors, in real arithmetic for a real W and complex otherwise.

    The count of singular values below delta_factor * sigma_max, the
    kernel/cokernel attribution by which singular vector (right or left) has
    more mass on the front half, the singular values, sigma_max, and the gap
    ratio above the count, taken over max(sigma, 1e-300) as the split takes
    it, so that an exactly zero singular value gives a finite gap.
    """
    U, S, Vh = np.linalg.svd(np.asarray(W))
    n = len(S)
    k = int(np.sum(S < delta_factor * S[0]))
    front = n // 2
    dim_ker = sum(np.linalg.norm(Vh[i, :front]) >= np.linalg.norm(U[:front, i])
                  for i in range(n - k, n))
    gap = S[-k - 1] / max(S[-k], 1e-300) if 0 < k < n else None
    return {"count": k, "dim_ker": int(dim_ker), "dim_coker": k - int(dim_ker),
            "sigma": S, "sigma_max": float(S[0]), "gap": gap}


def _dense_centrosymmetric_blocks(W):
    """The half-order blocks A11 + A12 J and A11 - A12 J of a Hermitian W with
    J W J = W, sliced out of W itself; for odd N the middle row and column
    enter the + block scaled by sqrt 2, its diagonal entry unscaled."""
    h = len(W) // 2
    n = len(W) - h
    flipped = W[:n, ::-1][:, :n]                    # A12 J, beside the middle column
    plus = W[:n, :n] + flipped
    if n > h:
        plus[:h, h] = np.sqrt(2) * W[:h, h]
        plus[h, :h] = np.sqrt(2) * W[h, :h]
        plus[h, h] = W[h, h]
    return plus, W[:h, :h] - flipped[:h, :h]


def dense_section_form(W):
    """(sigma, W, S, flip) of an assembled section W, as
    wiener_hopf._singular_values returns them for a generator, from the
    structure of W itself by N x N equality checks: the first of W and W J
    (columns reversed) equal to its conjugate transpose is the Hermitian form
    S, factored by eigvalsh; a Hermitian W equal to its reversal J W J takes
    two eigvalsh of half order instead; a W with no Hermitian form takes the
    values-only SVD.  It serves any square matrix, Toeplitz or not, and calls
    the factorizations of the wiener_hopf module, so they are counted where
    the module's are."""
    from conewh import wiener_hopf as wh

    for flip in (False, True):
        S = W[:, ::-1] if flip else W
        if np.array_equal(S, S.T.conj() if np.iscomplexobj(S) else S.T):
            if flip or not np.array_equal(W, W[::-1, ::-1]):
                lam = wh.eigvalsh(S)
            else:
                lam = np.concatenate([wh.eigvalsh(B) for B in _dense_centrosymmetric_blocks(W)])
            return np.sort(np.abs(lam))[::-1], W, S, flip
    return wh.svdvals(W), W, None, False


class OffLatticeError(DomainError):
    """A sample point is not a point of the window lattice it was given for."""

    category = "off-lattice"


def sampled_set_from_points(points, bounds, step, tag=""):
    """The sampled set of the given (m, dim) lattice points.

    A point off the lattice (beyond 1e-9 steps of float rounding) or outside
    the window raises OffLatticeError; it is never moved to a lattice point.
    """
    points = np.asarray(points, dtype=float)
    n = len(_axis(bounds, step))
    k = (points - bounds[0]) / step
    idx = np.rint(k)
    with np.errstate(invalid="ignore"):         # inf - inf: NaN, and bad
        bad = ~((np.abs(k - idx) <= 1e-9) & (idx >= 0) & (idx < n)).all(axis=1)
    if bad.any():
        raise OffLatticeError(
            f"sample point {points[np.argmax(bad)].tolist()} is not a point "
            f"lo + k*step of the window lattice with step {step} on {tuple(bounds)}")
    mask = np.zeros((n,) * points.shape[1], dtype=bool)
    mask[tuple(idx.astype(int).T)] = True
    return SampledSet(mask, tuple(bounds), step, tag)


def full_dist_to_set(points, sample):
    """Nearest distance of each row of points to a sample (inf for the empty set)."""
    if len(sample) == 0:
        return np.full(len(points), np.inf)
    return cKDTree(sample).query(points, k=1)[0]


def per_row_sq_distance(mask):
    """Squared lattice distance of every point to a non-empty mask: the
    library's earlier int64 separable transform, one minimum over j per output
    row i of each axis."""
    n, dim = mask.shape[0], mask.ndim
    d = np.where(mask, 0, dim * n * n)
    sq = (np.arange(n)[:, None] - np.arange(n)).reshape((n, n) + (1,) * (dim - 1)) ** 2
    for axis in range(dim):
        d = np.moveaxis(d, axis, 0)
        d = np.moveaxis(np.stack([(d + sq[i]).min(axis=0) for i in range(n)]), 0, axis)
    return d


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
        return wh_matrix(symbol, "half-line", N) @ h_in
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


def convolve_kernels(s1: SymbolGrid, s2: SymbolGrid) -> SymbolGrid:
    """Discrete convolution h^dim * (f1 * f2), truncated back to the window."""
    if s1.dim != s2.dim or s1.h != s2.h or s1.T != s2.T:
        raise DimensionMismatchError("kernels must share the grid")
    conv = fftconvolve(s1.kernel, s2.kernel, mode="same") * s1.h**s1.dim
    return make_symbol(conv, s1.dim, s1.h, s1.T, name=f"({s1.name})*({s2.name})")


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

    if cone.ambient_dim != 2 or not (is_pointed(cone) and is_solid(cone)):
        raise DimensionMismatchError("section transform needs a solid pointed 2-D cone")
    rays = np.array(cone.generators, dtype=float)
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


def json_dumps_report(obj):
    """Report text by the standard library encoder: 2-space indent, no NaN."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
