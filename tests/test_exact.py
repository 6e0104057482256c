"""Exact rational vector/matrix helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conewh.exact import (
    _echelon,
    canonical_ray,
    gram_schmidt,
    invert,
    nullspace,
    project_onto_span,
    rank,
    rational,
    rvec,
    solve_linear,
    span_basis,
    vdot,
)
from oracles import (
    dense_project_onto_span,
    fraction_canonical_ray,
    fraction_gram_schmidt,
    fraction_invert,
    fraction_nullspace,
    fraction_rank,
    fraction_rref,
    fraction_solve_linear,
    fraction_span_basis,
)


def test_rational_parsing():
    assert rational("3/2") == Fraction(3, 2)
    assert rational(4) == Fraction(4)
    with pytest.raises(TypeError):
        rational(0.5)


def test_canonical_ray_preserves_sign():
    v = rvec(("-3/2", "9/4"))
    assert canonical_ray(v) == (-2, 3) and _all_ints([canonical_ray(v)])
    with pytest.raises(ValueError):
        canonical_ray(rvec((0, 0)))


def test_rref_and_rank():
    rows = [rvec((1, 2, 3)), rvec((2, 4, 6)), rvec((0, 1, 1))]
    assert _echelon(rows)[1] == [0, 1]
    assert rank(rows) == 2


def test_nullspace_orthogonal_to_rows():
    rows = [rvec((1, 1, 0)), rvec((0, 1, 1))]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    assert all(vdot(r, basis[0]) == 0 for r in rows)


def test_solve_linear():
    rows = [rvec((2, 0)), rvec((0, 4))]
    assert solve_linear(rows, [Fraction(1), Fraction(2)]) == rvec(("1/2", "1/2"))
    assert solve_linear([rvec((1, 0)), rvec((2, 0))], [Fraction(1), Fraction(3)]) is None


def test_invert():
    inv = invert([rvec((2, 1)), rvec((1, 1))])
    assert inv == [rvec((1, -1)), rvec((-1, 2))]
    with pytest.raises(ValueError):
        invert([rvec((1, 2)), rvec((2, 4))])


def test_projection_matrix_idempotent():
    basis = [rvec((1, 1, 0))]
    x = rvec((3, 1, 5))
    px = project_onto_span(basis, x)
    assert project_onto_span(basis, px) == px
    assert vdot(tuple(a - b for a, b in zip(x, px)), basis[0]) == 0


def test_gram_schmidt_exact_orthogonality():
    vs = [rvec((1, 1, 0)), rvec((1, 0, 1)), rvec((0, 1, 1))]
    ortho = gram_schmidt(vs)
    assert len(ortho) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert vdot(ortho[i], ortho[j]) == 0


# -- the integer elimination against the Fraction oracles ---------------------

_Q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _matrices(draw, square=False):
    """(n, rows): n <= 7 columns, up to 12 rational rows (n rows if square),
    mixing zero rows, repeated rows, combinations of at most k base rows
    (rank-deficient) and free rows."""
    n = draw(st.integers(1, 7))
    m = n if square else draw(st.integers(0, 12))
    base = [tuple(draw(st.lists(_Q, min_size=n, max_size=n)))
            for _ in range(draw(st.integers(0, n)))]
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("zero", "repeat", "combination", "free")))
        if kind == "zero":
            rows.append((Fraction(0),) * n)
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "combination" and base:
            coeffs = draw(st.lists(_Q, min_size=len(base), max_size=len(base)))
            rows.append(tuple(sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0))
                              for j in range(n)))
        else:
            rows.append(tuple(draw(st.lists(_Q, min_size=n, max_size=n))))
    return n, rows


def _all_fractions(vectors):
    return all(type(a) is Fraction for v in vectors for a in v)


def _all_ints(vectors):
    return all(type(a) is int for v in vectors for a in v)


@seed(13)
@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_elimination_matches_fraction_oracle(case):
    n, rows = case
    ints, pivots = _echelon(rows)
    red = [tuple(Fraction(a, row[c]) for a in row) for row, c in zip(ints, pivots)]
    assert (red, pivots) == fraction_rref(rows) and _all_ints(ints)
    assert rank(rows) == fraction_rank(rows)
    basis = nullspace(rows, n)
    assert basis == fraction_nullspace(rows, n) and _all_ints(basis)
    assert all(vdot(r, b) == 0 for r in rows for b in basis)
    span = span_basis(rows, n)
    assert span == fraction_span_basis(rows, n) and _all_ints(span)
    ortho = gram_schmidt(rows)
    assert ortho == fraction_gram_schmidt(rows) and _all_ints(ortho)
    for v in rows:
        if any(v):
            assert canonical_ray(v) == fraction_canonical_ray(v)
            assert _all_ints([canonical_ray(v)])
        else:
            with pytest.raises(ValueError):
                canonical_ray(v)


@seed(14)
@settings(max_examples=120, deadline=None)
@given(_matrices(), st.data())
def test_solve_linear_matches_fraction_oracle(case, data):
    n, rows = case
    x0 = data.draw(st.lists(_Q, min_size=n, max_size=n))
    consistent = [vdot(r, x0) for r in rows]
    free = data.draw(st.lists(_Q, min_size=len(rows), max_size=len(rows)))
    for rhs in (consistent, free):
        x = solve_linear(rows, rhs)
        assert x == fraction_solve_linear(rows, rhs)
        if x is not None:
            assert [vdot(r, x) for r in rows] == rhs and _all_fractions([x])
    assert solve_linear(rows, consistent) is not None or not rows
    # A vector y with y @ rows = 0 as the right-hand side: y . y > 0 but every
    # solution would give y . rhs = 0.
    for y in nullspace(list(zip(*rows)), len(rows)) if rows else ():
        assert solve_linear(rows, y) is None


@seed(16)
@settings(max_examples=120, deadline=None)
@given(_matrices(), st.data())
def test_project_onto_span_matches_dense_oracle(case, data):
    """The Gram solve equals the dense projector on independent rows, and on
    dependent rows equals it on their span basis; the residual is orthogonal
    to every row."""
    n, rows = case
    v = tuple(data.draw(st.lists(_Q, min_size=n, max_size=n)))
    p = project_onto_span(rows, v)
    assert _all_fractions([p]) and len(p) == n
    assert p == dense_project_onto_span(span_basis(rows, n), v)
    if rows and fraction_rank(rows) == len(rows):
        assert p == dense_project_onto_span(rows, v)
    assert all(vdot(r, tuple(a - b for a, b in zip(v, p))) == 0 for r in rows)
    assert project_onto_span(rows, p) == p


@seed(15)
@settings(max_examples=120, deadline=None)
@given(_matrices(square=True))
def test_invert_matches_fraction_oracle(case):
    n, rows = case
    if fraction_rank(rows) < n:
        with pytest.raises(ValueError):
            invert(rows)
        with pytest.raises(ValueError):
            fraction_invert(rows)
        return
    inv = invert(rows)
    assert inv == fraction_invert(rows) and _all_fractions(inv)
    assert [[vdot(r, c) for c in zip(*inv)] for r in rows] == [
        [int(i == j) for j in range(n)] for i in range(n)]
