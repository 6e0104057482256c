"""Discretized Wiener-Hopf operators: sampled kernels and Fourier symbols,
finite sections on cones, winding numbers, kernel/cokernel index estimation,
face-restricted symbols and the stratified Fredholm report for the quarter
plane.

A symbol is sampled straight into its final arrays (make_symbol): the
kernel is float64 when every sample is real, else complex128, and its DFT
is taken in one complex buffer, transformed and scaled in place.

Every finite section (index pipeline, non-Fredholm sigma_min trend,
hierarchy face) is held as its generator c, the 2N - 1 lag samples with
W[i, j] = c[N - 1 + i - j], and gets its singular values from one
factorization chosen by O(N) tests on c: two eigvalsh of half order when c
is real and even (W symmetric and equal to its reversal J W J), eigvalsh of
the Hankel matrix W J when c is real (a real Toeplitz W is persymmetric, so
W J is symmetric), eigvalsh of W when c is conjugate-even (W Hermitian), a
values-only SVD otherwise; sigma = |lambda|.  Generators are factored in
stacks, one numpy call per structure class, which runs LAPACK once per
matrix; a single section is a stack of one.  Each branch hands LAPACK
strided views of c, so the work copy LAPACK makes is the only N x N array
alive while it factors.  The index pipeline splits a section's k near-null
singular triples, if it has any, between kernel and cokernel.  A triangular
section (c zero at every negative lag, or at every positive one: a
one-sided kernel) splits by its structure alone, (0, k) when lower and
(k, 0) when upper, with no vector and no factorization beyond the count.
Any other section takes its k near-null vectors from one backward-stable
factorization of the same strided view, eigh for a real or conjugate-even
c and a full SVD otherwise, and attributes them by the front mass of their
span.  Real kernel samples are factored in real arithmetic.

All of it runs on numpy.linalg, so the module loads no SciPy and every
factorization runs on one BLAS.  SciPy bundles a second OpenBLAS whose
worker threads spin beside numpy's: on a 2-core Xeon (OpenBLAS 0.3.31, two
threads) an N = 96 scipy.linalg.eigvalsh takes 0.54 ms alone but 4.1 ms
right after one numpy matrix product, against 0.47 ms for numpy's.

The hierarchy report takes the twisted face restrictions g_y for every fibre
frequency y of a face in one pass, as matrix products against cos and sin
tables over w > 0 in folded form, so a kernel even across the face gives
exactly real restrictions.  It factors each bit-identical column once over
both faces (the +-y columns of such a kernel, and the e2 columns of a kernel
symmetric in x and y): a face's new columns in one stack per truncation.

Each report is one typed record whose fields are in the order of its JSON
members: classical_index returns an IndexReport, with the Section that
_split reads off each truncation, and hierarchy_fredholm a HierarchyReport,
with one FaceReport per face.

Conventions, fixed once: Fourier transform with kernel e^{-2*pi*i*<x,xi>}.
With this transform the half-line space maps to the Hardy space of the
*lower* half plane, so the symbol curve is traversed with xi decreasing
(the induced boundary orientation) and closed through the point at infinity
with value 1.  Under that frozen orientation "index = -winding" holds and
is validated against the kernel/cokernel-count oracle, e.g. the kernel
-2 e^x 1_{x<0} has symbol (2 pi i xi + 1)/(2 pi i xi - 1), winding -1, and
operator index +1 (the adjoint annihilates nothing, e^{-x} spans the kernel).
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg import eigh, eigvalsh, svd

from .errors import (
    DimensionMismatchError,
    IndexUnresolvedError,
    KernelWindowError,
    NonFiniteKernelError,
    WindingUndefinedError,
)

_DECAY_TOL = 1e-8
_NONVANISHING_TOL = 1e-8  # a symbol is nonvanishing where min |1 + fhat| exceeds this
_ZERO_TOL = 1e-8          # winding: a zero at |curve| <= _ZERO_TOL * max(|curve|, 1)
_DELTA_FACTOR = 1e-8      # near-null singular values: below _DELTA_FACTOR * sigma_max
_GAP_RATIO = 1e3          # least gap above the near-null values that resolves an index
_STABILITY_RATIO = 0.5    # stable face row: sigma_min(n2) >= _STABILITY_RATIO * sigma_min(n1)


@dataclass
class SymbolGrid:
    """Sampled kernel on a uniform window [-T, T]^dim and its discrete symbol.

    fhat is exactly the (phase-correct) DFT of the kernel samples scaled by
    h^dim; freqs are the matching FFT frequencies, increasing.  kernel is
    float64 when every sample is real, else complex128; fhat is complex128.
    """

    dim: int
    h: float
    T: float
    xs: np.ndarray                # 1-D axis, length 2M+1, symmetric about 0
    kernel: np.ndarray            # float64 or complex128, shape (2M+1,)*dim
    fhat: np.ndarray              # same shape, on freqs x ... x freqs
    freqs: np.ndarray
    l1: float                     # discrete L1 norm h^dim * sum |f|
    name: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def npoints(self):
        return len(self.xs)


def _dft(kernel, h):
    # Grid is symmetric about 0; ifftshift puts x=0 first so that the plain
    # FFT computes sum f(x_j) e^{-2 pi i <x_j, xi_k>} exactly (in place: same bits).
    buf = np.asarray(np.fft.ifftshift(kernel), dtype=complex)
    np.fft.fftn(buf, out=buf)
    buf *= h**kernel.ndim
    freqs = np.fft.fftshift(np.fft.fftfreq(len(kernel), d=h))
    return np.fft.fftshift(buf), freqs


def _check_samples(vals, T, coords, grid_axes):
    """The gates of sampled kernel values, whose axes coords names as (label,
    coordinates): every sample is finite, else the first that is not is
    named; and |f| < 1e-8 wherever one of the leading grid_axes coordinates
    lies outside [-T/2, T/2], else the largest |f| there and the axis are
    named.  Returns sum |f|, inf where it overflows."""
    bad = ~np.isfinite(vals)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), vals.shape)
        point = ", ".join(f"{label} = {c[i]:g}" for (label, c), i in zip(coords, first))
        raise NonFiniteKernelError(f"kernel sample at {point} (index {list(map(int, first))}) "
                                   f"is {vals[first]}, not finite")
    mags = np.abs(vals)
    for axis in range(grid_axes):
        label, c = coords[axis]
        peak = np.compress(np.abs(c) > T / 2, mags, axis=axis).max(initial=0.0)
        if peak >= _DECAY_TOL:
            raise KernelWindowError(f"kernel not window-compatible: |f| reaches {peak:.3g} "
                                    f"where |{label}| > T/2 = {T / 2:g}, not below the "
                                    f"decay tolerance {_DECAY_TOL:g}")
    with np.errstate(over="ignore"):
        return mags.sum()


def make_symbol(f, dim, h, T, name="") -> SymbolGrid:
    """Sample a kernel (callable or array) on the window and attach its symbol.

    The callable is evaluated on the open axes np.ix_(xs, ...), its result
    broadcast to the grid once (zeros_like(x) is (2M+1, 1) in 2-D); an array
    must have the grid's shape.  The kernel is float64 (integers included)
    unless a sample has an imaginary part, and the DFT transforms one complex
    buffer in place.  Every sample must be finite, and so must the discrete
    L1 norm h^dim * sum |f|, which bounds every DFT value and is kept as l1;
    decay |f| < 1e-8 is required outside [-T/2, T/2]^dim, for dim 1 or 2.
    """
    if dim not in (1, 2):
        raise DimensionMismatchError(f"kernel dimension must be 1 or 2, got {dim!r}")
    if h <= 0:
        raise KernelWindowError(f"grid step must be positive, got h = {h}")
    if T < 10 * h:
        raise KernelWindowError(f"window too small: T >= 10*h required, "
                                f"got T = {T}, h = {h}: T < 10*h = {10 * h}")
    M = int(round(T / h))
    xs, shape = np.arange(-M, M + 1) * h, (2 * M + 1,) * dim
    vals = np.asarray(f(*np.ix_(*[xs] * dim)) if callable(f) else f)
    if not callable(f) and vals.shape != shape:
        raise DimensionMismatchError(f"kernel samples must have shape {shape}")
    real = not (np.iscomplexobj(vals) and vals.imag.any())
    vals = np.array(np.broadcast_to(vals.real if real else vals, shape),
                    dtype=float if real else complex)
    total = _check_samples(vals, T, [("x", xs), ("y", xs)][:dim], dim)
    with np.errstate(over="ignore"):
        l1 = h**dim * total
    if not np.isfinite(l1):
        raise NonFiniteKernelError(f"kernel L1 norm h^{dim} * sum |f| is {l1}, not finite")
    return SymbolGrid(dim, h, T, xs, vals, *_dft(vals, h), float(l1), name=name)


def _generator(kernel, h, T, N, identity_shift, dim=1):
    """The generator c of a finite section, from kernel samples centred on the
    window: the h^dim-scaled samples at the lags -(N-1), ..., N-1 along each of
    the last dim axes (leading axes stack 1-D generators), with the identity
    shift added at lag 0, so that (per axis) W[i, j] = c[N - 1 + i - j].  It is
    real when the samples it uses have no imaginary part.  Every finite
    section, the face sections included, starts here."""
    if N * h > T + 1e-12:
        raise KernelWindowError(f"truncation exceeds the kernel window: N*h <= T required, "
                                f"got N = {N}, h = {h}: N*h = {N * h} > T = {T}")
    M = (kernel.shape[-1] - 1) // 2
    lags = slice(M - N + 1, M + N)                  # x_i - x_j for i, j < N
    c = h**dim * kernel[(..., *(lags,) * dim)]
    if not c.imag.any():
        c = c.real
    if identity_shift:
        c[(..., *(N - 1,) * dim)] += 1.0
    return c


def _toeplitz_view(c):
    """The section of the generator c as a view of it: the windows of side N
    of the reversed generator, last first (a 1-D c gives W itself)."""
    N = (len(c) + 1) // 2
    rev = (slice(None, None, -1),) * c.ndim
    return sliding_window_view(c[rev], (N,) * c.ndim)[rev]


def _toeplitz(c):
    """The section of the generator c, _toeplitz_view copied once (20 times
    faster than an index gather at N = 1024); rows are row-major over the
    index pairs."""
    N = (len(c) + 1) // 2
    return _toeplitz_view(c).copy().reshape(N**c.ndim, N**c.ndim)


def wh_matrix(symbol: SymbolGrid, cone: str, N: int, identity_shift=False) -> np.ndarray:
    """Riemann-sum finite section, one matrix: entries h^dim * f(x_i - x_j) over the
    cone grid.

    1-D sections are Toeplitz; the quarter plane gives a block-Toeplitz matrix
    with Toeplitz blocks (row-major over the index pairs).  The section is real
    when the kernel samples it uses have no imaginary part.
    """
    dims = {"half-line": 1, "quarter-plane": 2}
    if cone not in dims:
        raise DimensionMismatchError(f"unsupported cone '{cone}'")
    if symbol.dim != dims[cone]:
        raise DimensionMismatchError(f"{cone} needs a {dims[cone]}-D symbol")
    return _toeplitz(_generator(symbol.kernel, symbol.h, symbol.T, N, identity_shift,
                                symbol.dim))


def winding_number(curve) -> int:
    """Winding of a sampled closed complex curve about the origin.

    Total unwrapped phase increment over 2*pi, rounded to the nearest
    integer; the curve must stay away from 0 and close up, against the
    scale max |curve|, and each error names its numbers.
    """
    curve = np.asarray(curve, dtype=complex)
    scale, least, gap = np.abs(curve).max(), np.abs(curve).min(), abs(curve[0] - curve[-1])
    if least <= _ZERO_TOL * max(scale, 1.0):
        raise WindingUndefinedError(f"winding undefined: least |curve| = {least:.3g} <= "
                                    f"{_ZERO_TOL * max(scale, 1.0):.3g} = {_ZERO_TOL:g} * "
                                    f"max(scale, 1), scale = {scale:.3g}")
    if gap > 1e-6 * max(scale, 1.0):
        raise WindingUndefinedError(f"curve does not close: |curve[0] - curve[-1]| = {gap:.3g} > "
                                    f"{1e-6 * max(scale, 1.0):.3g} = 1e-06 * max(scale, 1)")
    phase = np.unwrap(np.angle(curve))
    total = (phase[-1] - phase[0]) / (2 * np.pi)
    w = int(round(total))
    if abs(total - w) > 0.05:
        raise WindingUndefinedError(f"phase increment is not an integer multiple of 2*pi: "
                                    f"{total:.6g} turns, {abs(total - w):.3g} from {w}, above 0.05")
    return w


def symbol_curve(symbol: SymbolGrid):
    """1 + fhat along the frozen orientation (xi decreasing), compactified
    by the value 1 at the point at infinity."""
    if symbol.dim != 1:
        raise DimensionMismatchError(f"symbol curve is 1-D only, got a {symbol.dim}-D one")
    vals = 1.0 + symbol.fhat[::-1]
    return np.concatenate([[1.0 + 0j], vals, [1.0 + 0j]])


@dataclass(frozen=True)
class Section:
    """What _split reads off one finite section: its extreme singular values,
    the count of near-null ones, the gap above them (None when there are
    none) and their split between kernel and cokernel.  A non-Fredholm
    symbol's sections carry sigma_min only."""

    sigma_min: float
    sigma_max: float = None
    count: int = None
    gap: float = None
    dim_ker: int = None
    dim_coker: int = None


@dataclass
class IndexReport:
    """The index1d report, fields in the order of its JSON members."""

    symbol_nonvanishing: bool
    symbol_min: float             # min |1 + fhat| over grid and compactification
    winding: int = None           # None unless the symbol is nonvanishing
    index: int = None             # -winding
    numerical_index: int = None
    sections: dict = field(default_factory=dict)      # N -> Section
    verdict: str = ""


def _section(symbol, N):
    """The generator of the identity-shifted half-line section I + W_N."""
    return _generator(symbol.kernel, symbol.h, symbol.T, N, True)


def svdvals(a):
    """Singular values of a, descending: the values-only SVD."""
    return svd(a, compute_uv=False)


def _centrosymmetric_block(C, sign):
    """The half-order block A11 + A12 J (sign 1) or A11 - A12 J (sign -1) of
    the section W of each real even generator c of the stack C (W = W^T =
    J W J); both blocks' eigenvalues are those of W (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976).  Read off c without W: over the leading
    n = ceil(N/2) rows and columns, A11 is the Toeplitz window c[N - 1 + i - j]
    and A12 J the Hankel window c[i + j].  For odd N the middle row and column
    enter the + block scaled by sqrt 2, its diagonal entry unscaled."""
    N = (C.shape[-1] + 1) // 2
    h = N // 2
    n = N - h
    toeplitz = sliding_window_view(C[:, ::-1], n, axis=-1)[:, N - n:N][:, ::-1]
    hankel = sliding_window_view(C, n, axis=-1)[:, :n]
    if sign < 0:
        return toeplitz[:, :h, :h] - hankel[:, :h, :h]
    plus = toeplitz + hankel
    if n > h:
        plus[:, :h, h] = np.sqrt(2) * toeplitz[:, :h, h]
        plus[:, h, :h] = np.sqrt(2) * toeplitz[:, h, :h]
        plus[:, h, h] = toeplitz[:, h, h]
    return plus


def _singular_values(C):
    """The singular values sigma (m, N), descending, of the sections
    W[i, j] = c[N - 1 + i - j] of a stack C (m, 2N - 1) of 1-D generators c
    (one c is the stack c[None]).

    Realness and class are read off each generator by O(N) tests, realness as
    _generator decides it for one generator:
      * c real and even (W symmetric, so also J W J = W): two eigvalsh of
        half order (_centrosymmetric_block), with no N x N matrix: 30
        against 77 ms for one eigvalsh of full order at N = 1024, 1.1
        against 2.0 ms at N = 192 (2-core Xeon, OpenBLAS on two threads);
      * c real (J W J = W^T, so W J is symmetric): eigvalsh of the Hankel
        matrix W J, whose entries c[i + j] are the length-N windows of c;
      * c conjugate-even (W Hermitian): eigvalsh of W;
      * otherwise a values-only SVD of W.
    Each class is one stacked call on views of C (per block: the + block is
    freed before the - block is built); numpy runs LAPACK once per matrix of
    a stack, so each row gets the bits of a call on it alone, and LAPACK's
    work copy of one matrix, 8 MB at N = 1024, is the only N x N array.
    sigma = |lambda|."""
    m, N = len(C), (C.shape[-1] + 1) // 2
    real, mirror = ~C.imag.any(axis=-1), np.equal(C, C[:, ::-1].conj()).all(axis=-1)
    sigma = np.empty((m, N))
    for is_real, is_mirror in ((True, True), (True, False), (False, True), (False, False)):
        rows = (real == is_real) & (mirror == is_mirror)
        if rows.any():
            c = C if rows.all() else C[rows]
            if is_real and is_mirror:
                lam = np.concatenate([eigvalsh(_centrosymmetric_block(c.real, sign))
                                      for sign in (1, -1)], axis=-1)
            elif is_real:
                lam = eigvalsh(sliding_window_view(c.real, N, axis=-1))
            else:
                W = sliding_window_view(c[:, ::-1], N, axis=-1)[:, ::-1]
                lam = eigvalsh(W) if is_mirror else None
            sigma[rows] = svdvals(W) if lam is None else np.sort(np.abs(lam), axis=-1)[:, ::-1]
    return sigma


def _lower_generator(c):
    """(g, reverse) for a triangular section W[i, j] = c[N - 1 + i - j] with a
    nonzero diagonal, read off c in O(N): W is lower triangular when c
    vanishes at every negative lag (a kernel on x >= 0), g = c and W is the
    section L of g; W is upper triangular when c vanishes at every positive
    lag, g = c reversed and W = J L J.  None for any other c, and for a zero
    diagonal, where W is exactly singular.

    L with its nonzero diagonal is invertible, and (I + K)u = 0 for a kernel
    on x >= 0 is a Volterra equation with only the trivial solution, so the
    near-null triples of L belong to the cokernel and those of J L J to the
    kernel: by Coburn's lemma (Boettcher & Silbermann, 1999) one side is
    always trivial."""
    N = (len(c) + 1) // 2
    if c[N - 1] != 0:
        if not c[:N - 1].any():
            return c, False
        if not c[N:].any():
            return c[::-1], True
    return None


def _near_null_pairs(c, k):
    """Left and right vectors (U, V), N x k each, of the k smallest singular
    triples of the section W of the generator c, from one backward-stable
    factorization of the strided view that _singular_values factors for the
    same structure class:
      * c real: eigh of the symmetric Hankel form W J = Q diag(lambda) Q^T,
        so that W (J q) = lambda q: v = J q;
      * c conjugate-even: eigh of the Hermitian W, v = q;
      * otherwise a full svd of W.
    The eigh paths take the k eigenvalues of least modulus, and the left
    vectors u = J conj(v): a Toeplitz W is persymmetric, W^T = J W J, so
    ||W^H J conj(v)|| = ||J W v|| (u is the left singular vector up to a
    unit factor).  Each residual ||W v||, ||W^H u|| is of order
    N * eps * sigma_max above sigma."""
    N = (len(c) + 1) // 2
    real = not c.imag.any()
    if not (real or np.array_equal(c, c[::-1].conj())):
        P, _, Qh = svd(_toeplitz_view(c))
        return P[:, -k:], Qh[-k:].conj().T
    lam, Q = eigh(sliding_window_view(c.real, N) if real else _toeplitz_view(c))
    near = np.argsort(np.abs(lam), kind="stable")[:k]
    V = Q[::-1, near] if real else Q[:, near]
    return V[::-1].conj(), V


def _front_excess(B):
    """B_f^H B_f - B_b^H B_b for the front rows B_f = B[:N // 2] (the origin
    edge) and the back rows B_b = B[::-1][:N // 2] of the columns B, whose
    eigenvalues are the front mass minus the back mass of the span of B:
    a mirrored column (B_b = +-B_f) gives exactly 0."""
    front, back = B[:len(B) // 2], B[::-1][:len(B) // 2]
    return front.conj().T @ front - back.conj().T @ back


def _split(c, delta_factor, gap_ratio):
    """The Section of the finite section with generator c.

    The singular values sigma of c[None] (_singular_values) give the count k
    of those below delta_factor * sigma_max and the gap above them.  A
    triangular section (_lower_generator) splits by its structure alone, as
    (0, k) when lower and (k, 0) when upper, with no vector and no further
    factorization.  Any other section with k > 0 takes its k near-null
    vectors (_near_null_pairs) and attributes them by subspace, in one
    eigvalsh of the two k x k matrices _front_excess: dim ker is the number
    of eigenvalues of the right vectors' matrix that are >= 0 (at least half
    of the mass of the two halves lies on the front half, the origin edge),
    and dim coker the number of the left vectors' that are > 0, so that an
    exact tie, as on a centrosymmetric section, goes to the kernel.  Counts
    that do not add up to k leave the index unresolved.  k = N (the zero
    section, or delta_factor > 1) has nothing above the count: its gap is 0
    and the split raises.
    """
    sigma = _singular_values(c[None])[0]
    N = len(sigma)
    smax = sigma[0] if sigma[0] > 0 else 1.0
    k = int(np.sum(sigma < delta_factor * smax))
    dim_ker, gap = 0, None
    if k:
        gap = float(sigma[-k - 1] / max(sigma[-k], 1e-300)) if k < N else 0.0
        if gap < gap_ratio:
            raise IndexUnresolvedError(f"index not resolved at N={N}: gap {gap:.3g} above "
                                       f"{k} near-zero singular values is below {gap_ratio:g}")
        triangle = _lower_generator(c)
        if triangle is not None:            # upper (reversed) triangular: all kernel
            dim_ker = k if triangle[1] else 0
        else:
            left, right = eigvalsh(np.stack([_front_excess(B) for B in _near_null_pairs(c, k)]))
            dim_ker, dim_coker = int(np.sum(right >= 0)), int(np.sum(left > 0))
            if dim_ker + dim_coker != k:
                raise IndexUnresolvedError(
                    f"index not resolved at N={N}: the front-minus-back masses of the {k} "
                    f"near-null right vectors {np.round(right, 3).tolist()} and left vectors "
                    f"{np.round(left, 3).tolist()} give {dim_ker} kernel and {dim_coker} "
                    f"cokernel directions, not {k}")
    return Section(float(sigma[-1]), float(smax), k, gap, dim_ker, k - dim_ker)


def numerical_index(symbol: SymbolGrid, truncations=(512, 1024)):
    """(index, {N: Section}): the finite-section index dim ker - dim coker,
    accepted only when the kernel/cokernel counts agree at every truncation
    size, and the Section of each truncation."""
    if len(truncations) < 2:
        raise IndexUnresolvedError(f"need two truncation sizes, got {len(truncations)}: "
                                    f"{list(truncations)}")
    sections = {N: _split(_section(symbol, N), _DELTA_FACTOR, _GAP_RATIO) for N in truncations}
    counts = {N: (s.dim_ker, s.dim_coker) for N, s in sections.items()}
    if len(set(counts.values())) != 1:
        raise IndexUnresolvedError(
            f"index not resolved: (dim_ker, dim_coker) differ across truncations {counts}")
    dk, dc = counts[truncations[0]]
    return dk - dc, sections


def classical_index(symbol: SymbolGrid, truncations=(512, 1024)) -> IndexReport:
    """The IndexReport of a 1-D symbol: nonvanishing test of 1 + fhat,
    winding, and the finite-section index with the Section of each
    truncation.

    Non-Fredholm symbols get a report (not an error) whose sections hold the
    sigma_min trend at the requested truncations.  A Fredholm symbol's
    sections are those of numerical_index, one factorization per truncation.
    """
    if symbol.dim != 1:
        raise DimensionMismatchError(f"classical index is 1-D, got a {symbol.dim}-D one")
    curve = symbol_curve(symbol)
    symbol_min = float(np.abs(curve).min())
    if not symbol_min > _NONVANISHING_TOL:
        return IndexReport(False, symbol_min, sections={
            N: Section(float(_singular_values(_section(symbol, N)[None])[0, -1]))
            for N in truncations}, verdict="non-fredholm")
    winding = winding_number(curve)
    idx, sections = numerical_index(symbol, truncations)
    return IndexReport(True, symbol_min, winding, -winding, idx, sections,
                       "fredholm" if idx == -winding else "fredholm (numerical index disagrees)")


# -- face restrictions -------------------------------------------------------


_FACE_AXES = {0: 0, 1: 1, "e1": 0, "e2": 1}


def _face_axis(face):
    """Axis index of a quarter-plane face, given as the axis 0/1 or "e1"/"e2"."""
    if isinstance(face, (int, str)) and face in _FACE_AXES:
        return _FACE_AXES[face]
    got = repr(face) if isinstance(face, (int, str)) else f"a {type(face).__name__}"
    raise DimensionMismatchError(f"unsupported face: the axis 0/1 or 'e1'/'e2' only, got {got}")


def _real_product(A, B):
    """A @ B for a real B, as real matrix products on each part of A."""
    out = np.ascontiguousarray(A.real) @ B
    return out + 1j * (np.ascontiguousarray(A.imag) @ B) if A.imag.any() else out


def _twisted_restrictions(symbol: SymbolGrid, axis, y_values):
    """Twisted restrictions g_y(t) = h * sum_w f(t s + w) e^{-2 pi i w y} of a
    2-D kernel to the face along axis, one column per y, in folded form

        h [f(t, 0) + sum_{w>0} (f(t, w) + f(t, -w)) cos 2 pi w y
                             - i (f(t, w) - f(t, -w)) sin 2 pi w y],

    as matrix products against the cos and sin tables.  A kernel even across
    the face gives exactly real columns.  The rows t >= 0 and t <= 0 are
    products of the same shape, so a kernel with f(-z) = conj f(z) gives
    g_y(-t) = conj g_y(t) bit for bit, and Hermitian sections.  The column
    block passes the finiteness and decay gates of make_symbol.
    """
    K = symbol.kernel if axis == 0 else symbol.kernel.T       # K[t, w]
    M = (symbol.npoints - 1) // 2
    y_values = np.asarray(y_values, dtype=float)
    arg = 2 * np.pi * np.outer(symbol.xs[M + 1:], y_values)
    cos, sin = np.cos(arg), np.sin(arg)
    halves = []
    for rows in (K[M::-1], K[M:]):                  # t = 0, -h, ..., -T and 0, h, ..., T
        pos, neg = rows[:, M + 1:], rows[:, M - 1::-1]
        halves.append(rows[:, M, None] + _real_product(pos + neg, cos)
                      - 1j * _real_product(pos - neg, sin))
    g = symbol.h * np.concatenate([halves[0][:0:-1], halves[1]])
    _check_samples(g, symbol.T, [("t", symbol.xs), ("y", y_values)], 1)
    return g


def face_symbol_twisted(symbol: SymbolGrid, face, y) -> SymbolGrid:
    """Twisted restriction g_y of a 2-D kernel to a 1-D face, one column of
    _twisted_restrictions.

    Its discrete symbol satisfies ghat(xi) = fhat at (xi along the face,
    y along the orthocomplement), exactly on the frequency grid.
    """
    if symbol.dim != 2:
        raise DimensionMismatchError(f"face symbol needs a 2-D symbol, got a {symbol.dim}-D one")
    axis = _face_axis(face)
    g = _twisted_restrictions(symbol, axis, [y])[:, 0]
    return SymbolGrid(1, symbol.h, symbol.T, symbol.xs, g, *_dft(g, symbol.h),
                      float(symbol.h * np.abs(g).sum()),
                      name=f"{symbol.name}|face-{'e1' if axis == 0 else 'e2'}@y={y}")


def face_symbol(symbol: SymbolGrid, face) -> SymbolGrid:
    """Restrict a 2-D kernel to a 1-D face: integrate out the orthogonal
    direction, the twisted restriction at y = 0."""
    return face_symbol_twisted(symbol, face, 0.0)


# -- stratified Fredholm diagnostics for the quarter plane ------------------


@dataclass(frozen=True)
class FaceReport:
    """One face of a HierarchyReport, fields in the order of its JSON members;
    rows, (y, {N: sigma_min}) per fibre frequency, are the CSV's."""

    face: str
    margin: float
    stable: bool
    ok: bool
    margin_at_infinity: float
    decreasing_at: list
    rows: list


@dataclass
class HierarchyReport:
    """The hierarchy2d report, fields in the order of its JSON members."""

    symbol_nonvanishing: bool
    symbol_min: float
    l1_norm: float
    neumann_margin: float
    failing_faces: list
    faces: list                   # FaceReport per face, e1 then e2
    verdict: str


def hierarchy_fredholm(symbol: SymbolGrid, truncations=(48, 96), y_values=None,
                       margin_tol=1e-6) -> HierarchyReport:
    """Level-wise Fredholm report, a HierarchyReport: full-symbol nonvanishing
    plus, per 1-D face, a FaceReport of the invertibility margin of the
    twisted face operators over a window of fibre frequencies, at two
    truncation sizes.

    The verdict is "hierarchy-fredholm" iff the 2-D symbol stays away from
    -1 and every face family keeps a positive, truncation-stable margin.
    A discrete L1 norm below 1 certifies the verdict outright with Neumann
    margin 1 - ||f||_1, when that margin exceeds margin_tol: a margin at
    rounding level cannot rule out a vanishing symbol.

    Each bit-identical column of restrictions (the +-y columns of a kernel
    even across a face, every e2 column of a kernel symmetric in x and y) is
    factored once over both faces, face by face: a face's new columns at one
    truncation are one stack of generators, one call per structure class.
    """
    if symbol.dim != 2:
        raise DimensionMismatchError(f"hierarchy report needs a 2-D symbol, "
                                     f"got a {symbol.dim}-D one")
    symbol_min = float(min(np.min([np.abs(1.0 + symbol.fhat[i:i + 32]).min()  # no full 1 + fhat
                                   for i in range(0, len(symbol.fhat), 32)]), 1.0))
    nonvanishing = symbol_min > _NONVANISHING_TOL

    if y_values is None:
        fstep = symbol.freqs[1] - symbol.freqs[0]
        picks = np.unique(np.round(np.geomspace(1, len(symbol.freqs) // 2, 4)).astype(int))
        y_values = np.concatenate([[0.0], picks * fstep, -picks * fstep])
    y_values = np.asarray(sorted(y_values), dtype=float)

    neumann_margin = 1.0 - symbol.l1

    n1, n2 = min(truncations), max(truncations)
    largest = max(y_values, key=abs)
    faces = []
    sigma_min = {}                      # column bytes -> {N: sigma_min}, over both faces
    for axis, label in ((0, "e1"), (1, "e2")):
        G = _twisted_restrictions(symbol, axis, y_values).T        # one row per y
        keys = [g.tobytes() for g in G]
        new = dict.fromkeys(key for key in keys if key not in sigma_min)
        cols = G[[keys.index(key) for key in new]]
        mins = [_singular_values(_generator(cols, symbol.h, symbol.T, N, True))[:, -1].tolist()
                for N in truncations]
        sigma_min.update((key, dict(zip(truncations, col))) for key, *col in zip(new, *mins))
        rows = [(float(y), dict(sigma_min[k])) for y, k in zip(y_values, keys)]
        margin = min(min(mins.values()) for _, mins in rows)
        decreasing = [y for y, mins in rows if mins[n2] < _STABILITY_RATIO * mins[n1]]
        far = next(mins for y, mins in rows if y == largest)
        faces.append(FaceReport(label, margin, not decreasing,
                                margin > margin_tol and not decreasing,
                                min(far.values()), decreasing, rows))

    # A Neumann margin certifies every stratum at once.
    verdict_ok = (nonvanishing and all(f.ok for f in faces)) or neumann_margin > margin_tol
    return HierarchyReport(nonvanishing, symbol_min, symbol.l1, neumann_margin,
                           [f.face for f in faces if not f.ok], faces,
                           "hierarchy-fredholm" if verdict_ok else "not-hierarchy-fredholm")

