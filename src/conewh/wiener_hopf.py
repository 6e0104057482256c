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
values-only SVD otherwise; sigma = |lambda|.  Each branch hands LAPACK a
strided view of c, so the work copy LAPACK makes is the only N x N array
alive while it factors.  The index pipeline adds one solve, against the same
view, only for a section with near-null singular triples, to find their
vectors, and builds the section once, after that solve, for the product
that pairs them.  Sections with real kernel samples are factored in real
arithmetic.

All of it runs on numpy.linalg, so the module loads no SciPy and every
factorization runs on one BLAS.  SciPy bundles a second OpenBLAS whose
worker threads spin beside numpy's: on a 2-core Xeon (OpenBLAS 0.3.31, two
threads) an N = 96 scipy.linalg.eigvalsh takes 0.54 ms alone but 4.1 ms
right after one numpy matrix product, against 0.47 ms for numpy's.

The hierarchy report takes the twisted face restrictions g_y for every fibre
frequency y of a face in one pass, as matrix products against cos and sin
tables over w > 0 in folded form, so a kernel even across the face gives
exactly real restrictions, and factors each bit-identical column once (the
+-y columns of such a kernel).

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
from numpy.linalg import LinAlgError, eigvalsh, qr, solve, svd

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
    name: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def npoints(self):
        return len(self.xs)

    def l1_norm(self):
        """Discrete L1 norm h^dim * sum |f|."""
        return float(np.sum(np.abs(self.kernel)) * self.h**self.dim)


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
    lies outside [-T/2, T/2].  Returns sum |f|, inf where it overflows."""
    bad = ~np.isfinite(vals)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), vals.shape)
        point = ", ".join(f"{label} = {c[i]:g}" for (label, c), i in zip(coords, first))
        raise NonFiniteKernelError(f"kernel sample at {point} (index {list(map(int, first))}) "
                                   f"is {vals[first]}, not finite")
    mags = np.abs(vals)
    for axis in range(grid_axes):
        outside = np.abs(coords[axis][1]) > T / 2
        if np.compress(outside, mags, axis=axis).max(initial=0.0) >= _DECAY_TOL:
            raise KernelWindowError("kernel not window-compatible")
    with np.errstate(over="ignore"):
        return mags.sum()


def make_symbol(f, dim, h, T, name="") -> SymbolGrid:
    """Sample a kernel (callable or array) on the window and attach its symbol.

    The callable is evaluated on the open axes np.ix_(xs, ...), its result
    broadcast to the grid once (zeros_like(x) is (2M+1, 1) in 2-D); an array
    must have the grid's shape.  The kernel is float64 (integers included)
    unless a sample has an imaginary part, and the DFT transforms one complex
    buffer in place.  Every sample must be finite, and so must the discrete
    L1 norm h^dim * sum |f|, which bounds every DFT value; decay |f| < 1e-8
    is required outside [-T/2, T/2]^dim, for dim 1 or 2.
    """
    if dim not in (1, 2):
        raise DimensionMismatchError(f"kernel dimension must be 1 or 2, got {dim!r}")
    if h <= 0:
        raise KernelWindowError("grid step must be positive")
    if T < 10 * h:
        raise KernelWindowError("window too small: T >= 10*h required")
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
    return SymbolGrid(dim, h, T, xs, vals, *_dft(vals, h), name=name)


def _generator(kernel, h, T, N, identity_shift):
    """The generator c of a finite section, from kernel samples centred on the
    window: the h^dim-scaled samples at the lags -(N-1), ..., N-1 along each
    axis, with the identity shift added at lag 0, so that (per axis)
    W[i, j] = c[N - 1 + i - j].  It is real when the samples it uses have no
    imaginary part.  Every finite section, the face sections included, starts
    here."""
    if N * h > T + 1e-12:
        raise KernelWindowError("truncation exceeds the kernel window: N*h <= T required")
    M = (len(kernel) - 1) // 2
    lags = slice(M - N + 1, M + N)                  # x_i - x_j for i, j < N
    c = h**kernel.ndim * kernel[(lags,) * kernel.ndim]
    if not c.imag.any():
        c = c.real
    if identity_shift:
        c[(N - 1,) * kernel.ndim] += 1.0
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
    return _toeplitz(_generator(symbol.kernel, symbol.h, symbol.T, N, identity_shift))


def winding_number(curve) -> int:
    """Winding of a sampled closed complex curve about the origin.

    Total unwrapped phase increment over 2*pi, rounded to the nearest
    integer; the curve must stay away from 0 and close up.
    """
    curve = np.asarray(curve, dtype=complex)
    scale = np.abs(curve).max()
    if np.abs(curve).min() <= _ZERO_TOL * max(scale, 1.0):
        raise WindingUndefinedError("winding undefined")
    if abs(curve[0] - curve[-1]) > 1e-6 * max(scale, 1.0):
        raise WindingUndefinedError("curve does not close")
    phase = np.unwrap(np.angle(curve))
    total = (phase[-1] - phase[0]) / (2 * np.pi)
    w = int(round(total))
    if abs(total - w) > 0.05:
        raise WindingUndefinedError("phase increment is not an integer multiple of 2*pi")
    return w


def symbol_curve(symbol: SymbolGrid):
    """1 + fhat along the frozen orientation (xi decreasing), compactified
    by the value 1 at the point at infinity."""
    if symbol.dim != 1:
        raise DimensionMismatchError("symbol curve is 1-D only")
    vals = 1.0 + symbol.fhat[::-1]
    return np.concatenate([[1.0 + 0j], vals, [1.0 + 0j]])


@dataclass
class FredholmReport:
    """Outcome of the symbol / finite-section diagnostics."""

    symbol_nonvanishing: bool
    symbol_min: float             # min |1 + fhat| over grid and compactification
    winding: object = None        # int when defined (1-D)
    index: object = None          # -winding when Fredholm
    numerical_index: object = None
    diagnostics: dict = field(default_factory=dict)
    face_reports: tuple = ()
    verdict: str = ""


def _section(symbol, N):
    """The generator of the identity-shifted half-line section I + W_N."""
    return _generator(symbol.kernel, symbol.h, symbol.T, N, True)


def svdvals(a):
    """Singular values of a, descending: the values-only SVD."""
    return svd(a, compute_uv=False)


def _centrosymmetric_blocks(c):
    """The half-order blocks A11 + A12 J and A11 - A12 J of the section W of a
    real even generator c (W = W^T = J W J), whose eigenvalues together are
    those of W (Cantoni & Butler, Linear Algebra Appl. 13, 1976), read off c
    without W: over the leading n = ceil(N/2) rows and columns, A11 is the
    Toeplitz window c[N - 1 + i - j] and A12 J the Hankel window c[i + j].
    For odd N the middle row and column enter the + block scaled by sqrt 2,
    its diagonal entry unscaled."""
    N = (len(c) + 1) // 2
    h = N // 2
    n = N - h
    toeplitz = sliding_window_view(c[::-1], n)[N - n:N][::-1]
    hankel = sliding_window_view(c, n)[:n]
    plus = toeplitz + hankel
    if n > h:
        plus[:h, h] = np.sqrt(2) * toeplitz[:h, h]
        plus[h, :h] = np.sqrt(2) * toeplitz[h, :h]
        plus[h, h] = toeplitz[h, h]
    return plus, toeplitz[:h, :h] - hankel[:h, :h]


def _singular_values(c):
    """(sigma, W, S, flip) of the section W[i, j] = c[N - 1 + i - j] of a 1-D
    generator c: its singular values, descending, from the one factorization
    its structure allows; the section W as a view of c, or None when c is
    real; and its Hermitian form S = W P as a view of c, with P = J (columns
    reversed) when flip, else the identity, or None when W has none or when c
    is real and even.

    The structure is read off c by O(N) tests:
      * c real and even (W symmetric, so also J W J = W): two eigvalsh of
        half order (_centrosymmetric_blocks), with no N x N matrix: 30
        against 77 ms for one eigvalsh of full order at N = 1024, 1.1
        against 2.0 ms at N = 192 (2-core Xeon, OpenBLAS on two threads);
      * c real (J W J = W^T, so W J is symmetric): eigvalsh of the Hankel
        matrix S = W J, S[i, j] = c[i + j], the length-N windows of c;
      * c conjugate-even (W Hermitian): eigvalsh of W;
      * otherwise a values-only SVD of W.
    No branch copies c into an N x N array: LAPACK's work copy of the view
    is the only one, 8 MB at N = 1024.  sigma is the sorted |lambda| of the
    eigenvalues."""
    if not np.iscomplexobj(c):
        if np.array_equal(c, c[::-1]):
            lam = np.concatenate([eigvalsh(B) for B in _centrosymmetric_blocks(c)])
            return np.sort(np.abs(lam))[::-1], None, None, False
        S = sliding_window_view(c, (len(c) + 1) // 2)
        return np.sort(np.abs(eigvalsh(S)))[::-1], None, S, True
    W = _toeplitz_view(c)
    if np.array_equal(c, c[::-1].conj()):
        return np.sort(np.abs(eigvalsh(W)))[::-1], W, W, False
    return svdvals(W), W, None, False


def _shifted_solve(A, B, smax):
    """solve(A, B), or for an exactly singular A, on a copy shifted by eps * smax I."""
    try:
        return solve(A, B)
    except LinAlgError:
        A = np.array(A)
        A[range(len(A)), range(len(A))] += np.finfo(float).eps * smax
        return solve(A, B)


def _near_null_pairs(W, S, flip, k, smax, c=None):
    """Paired left and right vectors (U, V) of the k smallest singular triples
    of W, by an oversampled range finder (Halko, Martinsson & Tropp, SIAM
    Review 53, 2011): V spans W^-1 and U spans W^-H applied to
    k + 8 seeded columns each, which the gap above the k near-null values
    makes dominant; the SVD of the projected U^H W V pairs the k smallest.

    With W = S P for the Hermitian form S of _singular_values (P = I or J,
    J = J^-1), W^-1 = P S^-1 and W^-H = S^-1 P, so both blocks come from one
    solve against S (P times a seeded block is another seeded block).  A
    section with no Hermitian form solves W, and W^T for the conjugate of U:
    the seeds are real, so W^H x = b is the conjugate of W^T conj(x) = b,
    and W is copied only by LAPACK.  At N = 1024 the one solve of 2 (k + 8)
    columns takes 26 ms, a third of the eigvalsh before it (2-core Xeon,
    OpenBLAS on two threads).  The product reads W, or for a generator c its
    contiguous section _toeplitz(c), which numpy hands to BLAS (37 times
    faster than a reversed view at N = 512); it is built only after the solve
    has returned, so that it and LAPACK's work copy are never alive at once."""
    N = len(W if S is None else S)
    m = min(k + 8, N)
    seeds = np.random.default_rng(0).standard_normal((N, 2 * m))
    if S is None:
        V = _shifted_solve(W, seeds[:, :m], smax)
        U = _shifted_solve(W.T, seeds[:, m:], smax).conj()
    else:
        X = _shifted_solve(S, seeds, smax)
        V, U = X[:, :m], X[:, m:]
        if flip:
            V = V[::-1]                                 # W^-1 = J S^-1
    U, V = qr(U)[0], qr(V)[0]
    P, _, Qh = svd(U.conj().T @ (W if c is None else _toeplitz(c)) @ V)
    return U @ P[:, -k:], V @ Qh[-k:].conj().T


def _small_singular_split(c, delta_factor, gap_ratio):
    """(dim_ker, dim_coker, diag) of the finite section with generator c: the
    split of _split_form on the factorization of _singular_values."""
    return _split_form(*_singular_values(c), delta_factor, gap_ratio, c)


def _split_form(sigma, W, S, flip, delta_factor, gap_ratio, c=None):
    """(dim_ker, dim_coker, diag) of a section from (sigma, W, S, flip) as
    _singular_values returns them for the generator c, or as an assembled
    section W gives them with c None.  The near-null solve of a real even c
    runs against the Toeplitz view of c, its own Hermitian form; the pairing
    product of a generator reads its section, built by _toeplitz.

    sigma gives the count k of the singular values below
    delta_factor * sigma_max and the gap above them.  Each of the k near-null
    triples (_near_null_pairs) goes to the kernel when its right vector has at
    least as much mass on the front half (the origin edge) as its left one,
    else to the cokernel.  k = N (the zero section, or delta_factor > 1) has
    nothing above the count: its gap is 0 and the split raises.
    """
    N = len(sigma)
    smax = sigma[0] if sigma[0] > 0 else 1.0
    k = int(np.sum(sigma < delta_factor * smax))
    diag = {"sigma_min": float(sigma[-1]), "sigma_max": float(smax), "count": k}
    dim_ker = 0
    if k:
        diag["gap"] = gap = float(sigma[-k - 1] / max(sigma[-k], 1e-300)) if k < N else 0.0
        if gap < gap_ratio:
            raise IndexUnresolvedError(f"index not resolved at N={N}: gap {gap:.3g} above "
                                       f"{k} near-zero singular values is below {gap_ratio:g}")
        if W is None and S is None:
            S = _toeplitz_view(c)
        U, V = _near_null_pairs(W, S, flip, k, smax, c)
        half = N // 2
        dim_ker = int(np.count_nonzero(
            np.linalg.norm(V[:half], axis=0) >= np.linalg.norm(U[:half], axis=0)))
    diag.update(dim_ker=dim_ker, dim_coker=k - dim_ker)
    return dim_ker, k - dim_ker, diag


def numerical_index(symbol: SymbolGrid, truncations=(512, 1024)):
    """Finite-section index dim ker - dim coker, accepted only when the
    kernel/cokernel counts agree at both truncation sizes."""
    if len(truncations) < 2:
        raise IndexUnresolvedError("need two truncation sizes")
    diags = {N: _small_singular_split(_section(symbol, N), _DELTA_FACTOR, _GAP_RATIO)[2]
             for N in truncations}
    counts = {N: (d["dim_ker"], d["dim_coker"]) for N, d in diags.items()}
    if len(set(counts.values())) != 1:
        raise IndexUnresolvedError(
            f"index not resolved: (dim_ker, dim_coker) differ across truncations {counts}")
    dk, dc = counts[truncations[0]]
    return dk - dc, {"per_truncation": diags, "dim_ker": dk, "dim_coker": dc}


def classical_index(symbol: SymbolGrid, truncations=(512, 1024)) -> FredholmReport:
    """Nonvanishing test of 1 + fhat, winding, and the finite-section index.

    Non-Fredholm symbols get a report (not an error) with the sigma_min trend
    recorded at the requested truncations.  A Fredholm symbol takes sigma_min
    from the one factorization per truncation that numerical_index makes.
    """
    if symbol.dim != 1:
        raise DimensionMismatchError("classical index is 1-D")
    curve = symbol_curve(symbol)
    symbol_min = float(np.abs(curve).min())
    nonvanishing = symbol_min > _NONVANISHING_TOL
    report = FredholmReport(nonvanishing, symbol_min)
    if not nonvanishing:
        report.diagnostics["sigma_min"] = {N: float(_singular_values(_section(symbol, N))[0][-1])
                                           for N in truncations}
        report.verdict = "non-fredholm"
        return report
    report.winding = winding_number(curve)
    report.index = -report.winding
    idx, diag = numerical_index(symbol, truncations)
    report.numerical_index = idx
    report.diagnostics["sigma_min"] = {N: d["sigma_min"]
                                       for N, d in diag["per_truncation"].items()}
    report.diagnostics.update(diag)
    report.verdict = ("fredholm" if idx == report.index
                      else "fredholm (numerical index disagrees)")
    return report


# -- face restrictions -------------------------------------------------------


_FACE_AXES = {0: 0, 1: 1, "e1": 0, "e2": 1}


def _face_axis(face):
    """Axis index of a quarter-plane face, given as the axis 0/1 or "e1"/"e2"."""
    if isinstance(face, (int, str)) and face in _FACE_AXES:
        return _FACE_AXES[face]
    raise DimensionMismatchError("unsupported face: the axis 0/1 or 'e1'/'e2' only")


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
        raise DimensionMismatchError("face symbol needs a 2-D symbol")
    axis = _face_axis(face)
    g = _twisted_restrictions(symbol, axis, [y])[:, 0]
    return SymbolGrid(1, symbol.h, symbol.T, symbol.xs, g, *_dft(g, symbol.h),
                      name=f"{symbol.name}|face-{'e1' if axis == 0 else 'e2'}@y={y}")


def face_symbol(symbol: SymbolGrid, face) -> SymbolGrid:
    """Restrict a 2-D kernel to a 1-D face: integrate out the orthogonal
    direction, the twisted restriction at y = 0."""
    return face_symbol_twisted(symbol, face, 0.0)


# -- stratified Fredholm diagnostics for the quarter plane ------------------


def hierarchy_fredholm(symbol: SymbolGrid, truncations=(48, 96), y_values=None,
                       margin_tol=1e-6) -> FredholmReport:
    """Level-wise Fredholm report: full-symbol nonvanishing plus, per 1-D
    face, the invertibility margin of the twisted face operators over a
    window of fibre frequencies, at two truncation sizes.

    The verdict is "hierarchy-fredholm" iff the 2-D symbol stays away from
    -1 and every face family keeps a positive, truncation-stable margin.
    A discrete L1 norm below 1 certifies the verdict outright with Neumann
    margin 1 - ||f||_1, when that margin exceeds margin_tol: a margin at
    rounding level cannot rule out a vanishing symbol.
    """
    if symbol.dim != 2:
        raise DimensionMismatchError("hierarchy report needs a 2-D symbol")
    symbol_min = float(min(np.min([np.abs(1.0 + symbol.fhat[i:i + 32]).min()  # no full 1 + fhat
                                   for i in range(0, len(symbol.fhat), 32)]), 1.0))
    nonvanishing = symbol_min > _NONVANISHING_TOL

    if y_values is None:
        fstep = symbol.freqs[1] - symbol.freqs[0]
        picks = np.unique(np.round(np.geomspace(1, len(symbol.freqs) // 2, 4)).astype(int))
        y_values = np.concatenate([[0.0], picks * fstep, -picks * fstep])
    y_values = np.asarray(sorted(y_values), dtype=float)

    l1 = symbol.l1_norm()
    neumann_margin = 1.0 - l1

    face_reports = []
    all_ok = True
    for axis, label in ((0, "e1"), (1, "e2")):
        G = _twisted_restrictions(symbol, axis, y_values)
        # Bit-identical columns (the +-y columns of a kernel even across the
        # face) are factored once.
        sigma_min, rows = {}, []
        for y, g in zip(y_values, G.T):
            key = g.tobytes()
            if key not in sigma_min:
                sigma_min[key] = {N: float(_singular_values(
                    _generator(g, symbol.h, symbol.T, N, True))[0][-1]) for N in truncations}
            rows.append({"y": float(y), "sigma_min": dict(sigma_min[key])})
        n1, n2 = min(truncations), max(truncations)
        margin = min(min(r["sigma_min"].values()) for r in rows)
        decreasing = [r["y"] for r in rows
                      if r["sigma_min"][n2] < _STABILITY_RATIO * r["sigma_min"][n1]]
        stable = not decreasing
        ok = margin > margin_tol and stable
        largest = max(y_values, key=abs)
        far = next(r for r in rows if r["y"] == largest)
        face_reports.append({
            "face": label,
            "margin": margin,
            "stable": stable,
            "ok": ok,
            "rows": rows,
            "decreasing_at": decreasing,
            "margin_at_infinity": min(far["sigma_min"].values()),
        })
        all_ok &= ok

    verdict_ok = nonvanishing and all_ok
    if neumann_margin > margin_tol:
        verdict_ok = True  # Neumann series certifies every stratum at once
    report = FredholmReport(
        nonvanishing, symbol_min,
        face_reports=tuple(face_reports),
        verdict="hierarchy-fredholm" if verdict_ok else "not-hierarchy-fredholm",
    )
    report.diagnostics["l1_norm"] = l1
    report.diagnostics["neumann_margin"] = neumann_margin
    report.diagnostics["failing_faces"] = [fr["face"] for fr in face_reports
                                           if not fr["ok"]]
    return report

