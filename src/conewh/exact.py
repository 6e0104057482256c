"""Exact rational vectors and small dense linear algebra over Q.

Vectors are tuples of ints or :class:`fractions.Fraction`; matrices are
lists/tuples of such row vectors.  Everything here is exact; floats never
enter.  A line or ray (`canonical_ray`, `nullspace`, `gram_schmidt`,
`span_basis`) is a primitive int tuple; a truly rational result
(`solve_linear`, `invert`, `project_onto_span`) is a Fraction tuple.

Every elimination (`rank`, `nullspace`, `solve_linear`, `invert`,
`span_basis`, and the pivots of the double description) is one
fraction-free Gauss-Jordan pass on integer rows, in the spirit of Bareiss
(Math. Comp. 22, 1968): each input row is scaled to integers by the lcm of
its denominators (a row of ints is taken as it is), each row is divided by
the gcd of its entries after every update, and Fractions are built only for
the rational results.  `rational` reads an integer as an int, so rows parsed
from integer entries stay ints end to end.
`gram_schmidt` and `canonical_ray` work on integer rows too.  Ambient
dimensions are small (<= ~7) and row counts moderate (tens, e.g. 48 rays of
a polygonal cone).  The hot loops of the cone layer (double description,
face lattice) run on coprime integer rays and bitmasks in
:mod:`conewh.cones`; `vdot` is their one product.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vec = tuple  # tuple of int or Fraction


def rational(x):
    """An exact rational from an int, a string like '3' or '3/2', or a Fraction
    (floats rejected): an int or an integer string gives an int, anything
    else a Fraction."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def rvec(coords) -> Vec:
    return tuple(rational(c) for c in coords)


def vector_text(v) -> str:
    """A vector as text for a message: (1, -3/2)."""
    return f"({', '.join(map(str, v))})"


def vneg(v):
    return tuple(-a for a in v)


def vdot(u, v):
    return sum(map(mul, u, v))


def is_zero_vec(v) -> bool:
    return all(a == 0 for a in v)


def _primitive(row):
    """The row divided by the gcd of its integer entries (a zero row stays)."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _int_row(v):
    """The primitive integer row on the ray of the rational row v: a row of
    ints as it is, any other scaled by the lcm of its denominators."""
    try:
        return _primitive(list(v))          # gcd refuses a Fraction
    except TypeError:
        den = lcm(*(a.denominator for a in v))
        return _primitive([a.numerator * (den // a.denominator) for a in v])


def _line(ints):
    """A primitive integer row as a tuple, first nonzero entry made positive."""
    if next((a for a in ints if a), 0) < 0:
        ints = [-a for a in ints]
    return tuple(ints)


def canonical_ray(v) -> Vec:
    """Scale by a positive rational to a coprime int tuple (sign kept).

    The direction of a ray is only defined up to positive scaling, so the
    sign pattern must be preserved.
    """
    ints = _int_row(v)
    if not any(ints):
        raise ValueError("zero vector has no ray direction")
    return tuple(ints)


def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination of rational rows.

    Returns (ints, pivots): the nonzero rows of the reduced row echelon form,
    each as its primitive integer multiple with a positive pivot entry, and
    their pivot columns.  Row i of the rational RREF is ints[i] / ints[i][pivots[i]].
    """
    mat = [_int_row(r) for r in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = _primitive([pv * a - f * b for a, b in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    ints = [row if row[c] > 0 else [-a for a in row] for row, c in zip(mat, pivots)]
    return ints, pivots


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def nullspace(rows, n):
    """Canonical basis of {x in Q^n : rows @ x = 0}."""
    ints, pivots = _echelon(rows)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        # x_f = 1 and x_p = -R[i][f] / R[i][p], all scaled by the lcm of the
        # pivot entries that enter.
        scale = lcm(*(row[p] for row, p in zip(ints, pivots) if row[f]))
        v = [0] * n
        v[f] = scale
        for row, p in zip(ints, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(_line(_primitive(v)))
    return basis


def solve_linear(rows, rhs):
    """One exact solution x of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None
    n = len(rows[0])
    ints, pivots = _echelon([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if n in pivots:  # pivot in the rhs column
        return None
    x = [Fraction(0)] * n
    for row, p in zip(ints, pivots):
        x[p] = Fraction(row[-1], row[p])
    return tuple(x)


def invert(rows):
    """Exact inverse of a square matrix given as rows. Raises on singularity."""
    k = len(rows)
    ints, pivots = _echelon([tuple(r) + tuple(int(i == j) for j in range(k))
                             for i, r in enumerate(rows)])
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [tuple(Fraction(a, row[p]) for a in row[k:]) for row, p in zip(ints, pivots)]


def project_onto_span(basis_rows, v):
    """Orthogonal projection of v onto span(basis_rows): sum_a c_a b_a for a
    solution c of the Gram system (B B^T) c = B v, which always has one."""
    if not basis_rows:
        return tuple(Fraction(0) for _ in v)
    c = solve_linear([[vdot(a, b) for b in basis_rows] for a in basis_rows],
                     [vdot(b, v) for b in basis_rows])
    return tuple(sum((ca * b[i] for ca, b in zip(c, basis_rows)), Fraction(0))
                 for i in range(len(v)))


def gram_schmidt(vectors):
    """Exact orthogonalization (no normalization); output canonically scaled.

    On primitive integer rows: w <- (u.u) w - (w.u) u for each earlier u, a
    positive multiple of the rational step w - (w.u)/(u.u) u.
    """
    ortho = []
    for v in vectors:
        w = _int_row(v)
        for u, uu in ortho:
            c = sum(a * b for a, b in zip(w, u))
            if c:
                w = _primitive([uu * a - c * b for a, b in zip(w, u)])
        if any(w):
            ortho.append((w, sum(a * a for a in w)))
    return [_line(u) for u, _ in ortho]


def span_basis(vectors, n):
    """Canonical basis of the span of the given vectors in Q^n."""
    # A primitive RREF row is canonical: its pivot, the first nonzero entry, is positive.
    return [tuple(row) for row in _echelon(vectors)[0]]
