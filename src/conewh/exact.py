"""Exact rational vectors and small dense linear algebra over Q.

Vectors are tuples of :class:`fractions.Fraction`; matrices are lists/tuples
of such row vectors.  Everything here is exact; floats never enter.  Ambient
dimensions are small (<= ~7) and row counts moderate (tens, e.g. 48 rays of a
polygonal cone), so plain Gaussian elimination is adequate.  The hot loops of
the cone layer (double description, face lattice) do not come here: they run
on coprime integer rays and bitmasks in :mod:`conewh.cones`.
"""

from fractions import Fraction
from math import gcd

import numpy as np

Vec = tuple  # tuple of Fraction


def rational(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction (floats rejected)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def rvec(coords) -> Vec:
    return tuple(rational(c) for c in coords)


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def vneg(v):
    return tuple(-a for a in v)


def vdot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero_vec(v) -> bool:
    return all(a == 0 for a in v)


def as_float(v) -> np.ndarray:
    return np.array([float(a) for a in v], dtype=float)


def canonical_ray(v) -> Vec:
    """Scale by a positive rational to coprime integer coordinates (sign kept).

    The direction of a ray is only defined up to positive scaling, so the
    sign pattern must be preserved.
    """
    if is_zero_vec(v):
        raise ValueError("zero vector has no ray direction")
    denom = 1
    for a in v:
        denom = denom * a.denominator // gcd(denom, a.denominator)
    ints = [int(a * denom) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(Fraction(a, g) for a in ints)


def canonical_line(v) -> Vec:
    """Like canonical_ray but also flips sign so the first nonzero entry is positive.

    Used where the sign is genuinely free (subspace basis vectors).
    """
    w = canonical_ray(v)
    for a in w:
        if a != 0:
            return w if a > 0 else vneg(w)
    return w


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_column_indices)."""
    mat = [list(r) for r in rows]
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


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows, n):
    """Canonical basis of {x in Q^n : rows @ x = 0}."""
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(canonical_line(tuple(v)))
    return basis


def solve_linear(rows, rhs):
    """One exact solution x of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None
    n = len(rows[0])
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the rhs column
        return None
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[-1]
    return tuple(x)


def invert(rows):
    """Exact inverse of a square matrix given as rows. Raises on singularity."""
    k = len(rows)
    aug = [tuple(r) + tuple(Fraction(1 if i == j else 0) for j in range(k))
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in red]


def matvec(rows, v):
    return tuple(vdot(r, v) for r in rows)


def projection_matrix(basis_rows):
    """Rows of the orthogonal projector onto span(basis_rows): B^T (B B^T)^-1 B."""
    k = len(basis_rows)
    n = len(basis_rows[0])
    gram = [[vdot(basis_rows[i], basis_rows[j]) for j in range(k)] for i in range(k)]
    ginv = invert(gram)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            s = Fraction(0)
            for a in range(k):
                for b in range(k):
                    s += basis_rows[a][i] * ginv[a][b] * basis_rows[b][j]
            row.append(s)
        rows.append(tuple(row))
    return rows


def project_onto_span(basis_rows, v):
    if not basis_rows:
        return tuple(Fraction(0) for _ in v)
    return matvec(projection_matrix(basis_rows), v)


def gram_schmidt(vectors):
    """Exact orthogonalization (no normalization); output canonically scaled."""
    ortho = []
    for v in vectors:
        w = list(v)
        for u in ortho:
            c = vdot(tuple(w), u) / vdot(u, u)
            w = [a - c * b for a, b in zip(w, u)]
        if not is_zero_vec(w):
            ortho.append(tuple(w))
    return [canonical_line(u) for u in ortho]


def span_basis(vectors, n):
    """Canonical basis of the span of the given vectors in Q^n."""
    red, _ = rref(vectors)
    return [canonical_line(r) for r in red if not is_zero_vec(r)]
