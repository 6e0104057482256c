"""Discretized Wiener-Hopf operators: sampled kernels and Fourier symbols,
finite sections on cones, winding numbers, kernel/cokernel index estimation,
face-restricted symbols and the stratified Fredholm report for the quarter
plane.

The index pipeline makes one values-only SVD per finite section, plus one LU
only for a section with near-null singular triples, to find their vectors.
Sections with real kernel samples are assembled and factored in real arithmetic.

The hierarchy report takes the twisted face restrictions g_y for every fibre
frequency y of a face in one pass, as matrix products against cos and sin
tables over w > 0 in folded form, so a kernel even across the face gives
exactly real restrictions.  Each face section gets sigma_min from one
factorization chosen by its exact structure: eigvalsh (sigma = |lambda|) when
the section is Hermitian, a values-only SVD otherwise.

Conventions, fixed once: Fourier transform with kernel e^{-2*pi*i*<x,xi>}.
With this transform the half-line space maps to the Hardy space of the
*lower* half plane, so the symbol curve is traversed with xi decreasing
(the induced boundary orientation) and closed through the point at infinity
with value 1.  Under that frozen orientation "index = -winding" holds and
is validated against the kernel/cokernel-count oracle, e.g. the kernel
-2 e^x 1_{x<0} has symbol (2 pi i xi + 1)/(2 pi i xi - 1), winding -1, and
operator index +1 (the adjoint annihilates nothing, e^{-x} spans the kernel).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import (LinAlgWarning, eigvalsh, lu_factor, lu_solve, svd, svdvals,
                          toeplitz)

from .errors import (
    DimensionMismatchError,
    IndexUnresolvedError,
    KernelWindowError,
    NonFiniteKernelError,
    WindingUndefinedError,
)

_DECAY_TOL = 1e-8


@dataclass
class SymbolGrid:
    """Sampled kernel on a uniform window [-T, T]^dim and its discrete symbol.

    fhat is exactly the (phase-correct) DFT of the kernel samples scaled by
    h^dim; freqs are the matching FFT frequencies, increasing.
    """

    dim: int
    h: float
    T: float
    xs: np.ndarray                # 1-D axis, length 2M+1, symmetric about 0
    kernel: np.ndarray            # complex, shape (2M+1,)*dim
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


def _axis(h, T):
    M = int(round(T / h))
    return np.arange(-M, M + 1) * h, M


def _dft(kernel, h, dim):
    # Grid is symmetric about 0; ifftshift puts x=0 first so that the plain
    # FFT computes sum f(x_j) e^{-2 pi i x_j xi_k} exactly.
    if dim == 1:
        out = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(kernel))) * h
        freqs = np.fft.fftshift(np.fft.fftfreq(len(kernel), d=h))
    else:
        out = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(kernel))) * h**2
        freqs = np.fft.fftshift(np.fft.fftfreq(kernel.shape[0], d=h))
    return out, freqs


def _check_samples(vals, T, coords, grid_axes):
    """The gates of sampled kernel values, whose axes coords names as (label,
    coordinates): every sample is finite, else the first that is not is
    named; and |f| < 1e-8 wherever one of the leading grid_axes coordinates
    lies outside [-T/2, T/2]."""
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


def make_symbol(f, dim, h, T, name="") -> SymbolGrid:
    """Sample a kernel (callable or array) on the window and attach its symbol.

    The callable is evaluated on the grid; every sample must be finite, and
    decay |f| < 1e-8 is required outside [-T/2, T/2]^dim.
    """
    if h <= 0:
        raise KernelWindowError("grid step must be positive")
    if T < 10 * h:
        raise KernelWindowError("window too small: T >= 10*h required")
    xs, M = _axis(h, T)
    if callable(f):
        if dim == 1:
            vals = np.asarray(f(xs), dtype=complex)
        else:
            X1, X2 = np.meshgrid(xs, xs, indexing="ij")
            vals = np.asarray(f(X1, X2), dtype=complex)
    else:
        vals = np.asarray(f, dtype=complex)
        expected = (2 * M + 1,) * dim
        if vals.shape != expected:
            raise DimensionMismatchError(f"kernel samples must have shape {expected}")
    _check_samples(vals, T, [("x", xs), ("y", xs)][:dim], dim)
    fhat, freqs = _dft(vals, h, dim)
    return SymbolGrid(dim, h, T, xs, vals, fhat, freqs, name=name)


@dataclass
class WHMatrix:
    """Finite section of the Wiener-Hopf operator on a discretized cone."""

    cone: str                     # "half-line" or "quarter-plane"
    N: int
    h: float
    entries: np.ndarray
    identity_shift: bool = False  # True when the matrix represents 1 + W_f


def _assemble(kernel, h, T, N, identity_shift):
    """The section of wh_matrix from kernel samples centred on the window: the
    one assembly of every finite section, the face sections included."""
    if N * h > T + 1e-12:
        raise KernelWindowError("truncation exceeds the kernel window: N*h <= T required")
    M = (len(kernel) - 1) // 2
    lags = slice(M - N + 1, M + N)                  # x_i - x_j for i, j < N
    used = h**kernel.ndim * kernel[(lags,) * kernel.ndim]
    if not used.imag.any():
        used = used.real
    if kernel.ndim == 1:
        W = toeplitz(used[N - 1:], used[N - 1::-1])
    else:
        idx = np.arange(N)
        D = N - 1 + (idx[:, None] - idx[None, :])   # lag index into used
        W = used[D[:, None, :, None], D[None, :, None, :]].reshape(N * N, N * N)
    if identity_shift:
        W.flat[::len(W) + 1] += 1.0
    return W


def wh_matrix(symbol: SymbolGrid, cone: str, N: int, identity_shift=False) -> WHMatrix:
    """Riemann-sum finite section: entries h^dim * f(x_i - x_j) over the cone grid.

    1-D sections are Toeplitz; the quarter plane gives a block-Toeplitz matrix
    with Toeplitz blocks (row-major over the index pairs).  The section is real
    when the kernel samples it uses have no imaginary part.
    """
    dims = {"half-line": 1, "quarter-plane": 2}
    if cone not in dims:
        raise DimensionMismatchError(f"unsupported cone '{cone}'")
    if symbol.dim != dims[cone]:
        raise DimensionMismatchError(f"{cone} needs a {dims[cone]}-D symbol")
    W = _assemble(symbol.kernel, symbol.h, symbol.T, N, identity_shift)
    return WHMatrix(cone, N, symbol.h, W, identity_shift)


def winding_number(curve, zero_tol=1e-8) -> int:
    """Winding of a sampled closed complex curve about the origin.

    Total unwrapped phase increment over 2*pi, rounded to the nearest
    integer; the curve must stay away from 0 and close up.
    """
    curve = np.asarray(curve, dtype=complex)
    scale = np.abs(curve).max()
    if np.abs(curve).min() <= zero_tol * max(scale, 1.0):
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
    """The identity-shifted half-line section I + W_N."""
    return wh_matrix(symbol, "half-line", N, identity_shift=True).entries


def _sigma_min(W):
    """Smallest singular value of an assembled section from one factorization:
    min |lambda| from eigvalsh when the section is exactly Hermitian, where the
    singular values are the |lambda|; else the last of a values-only SVD."""
    if np.array_equal(W, W.conj().T):
        return float(np.abs(eigvalsh(W)).min())
    return float(svdvals(W)[-1])


def _near_null_pairs(Wop, k, smax):
    """Paired left and right vectors (U, V) of the k smallest singular triples
    of A = Wop by block inverse iteration on one LU: two steps of
    V <- orth(A^-1 A^-H V) from a seeded start, each shrinking the rest by
    (sigma_k / sigma_k+1)^2, then U = orth(A^-H V); the SVD of the k x k
    matrix U^H A V pairs them.  An exactly zero pivot becomes eps * sigma_max."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)      # exactly zero pivot
        lu, piv = lu_factor(Wop, check_finite=False)
    zero = np.flatnonzero(lu.diagonal() == 0)
    lu[zero, zero] = np.finfo(float).eps * smax

    def orth_solve(X, trans):
        return np.linalg.qr(lu_solve((lu, piv), X, trans=trans, check_finite=False))[0]

    V = np.random.default_rng(0).standard_normal((len(Wop), k))
    for _ in range(2):
        V = orth_solve(orth_solve(V, 2), 0)
    U = orth_solve(V, 2)
    P, _, Qh = svd(U.conj().T @ Wop @ V)
    return U @ P, V @ Qh.conj().T


def _small_singular_split(Wop, delta_factor, gap_ratio):
    """(dim_ker, dim_coker, diag) of a finite section.

    One values-only SVD gives the count k of singular values below
    delta_factor * sigma_max and the gap above them.  Each of the k near-null
    triples (_near_null_pairs) goes to the kernel when its right vector has at
    least as much mass on the front half (the origin edge) as its left one,
    else to the cokernel.  k = N (the zero section, or delta_factor > 1) has
    nothing above the count: its gap is 0 and the split raises.
    """
    N = len(Wop)
    S = svdvals(Wop)
    smax = S[0] if S[0] > 0 else 1.0
    k = int(np.sum(S < delta_factor * smax))
    diag = {"sigma_min": float(S[-1]), "sigma_max": float(smax), "count": k}
    dim_ker = 0
    if k:
        diag["gap"] = gap = float(S[-k - 1] / max(S[-k], 1e-300)) if k < N else 0.0
        if gap < gap_ratio:
            raise IndexUnresolvedError(f"index not resolved at N={N}: gap {gap:.3g} above "
                                       f"{k} near-zero singular values is below {gap_ratio:g}")
        U, V = _near_null_pairs(Wop, k, smax)
        half = N // 2
        dim_ker = int(np.count_nonzero(
            np.linalg.norm(V[:half], axis=0) >= np.linalg.norm(U[:half], axis=0)))
    diag.update(dim_ker=dim_ker, dim_coker=k - dim_ker)
    return dim_ker, k - dim_ker, diag


def numerical_index(symbol: SymbolGrid, truncations=(512, 1024),
                    delta_factor=1e-8, gap_ratio=1e3):
    """Finite-section index dim ker - dim coker, accepted only when the
    kernel/cokernel counts agree at both truncation sizes."""
    if len(truncations) < 2:
        raise IndexUnresolvedError("need two truncation sizes")
    diags = {N: _small_singular_split(_section(symbol, N), delta_factor, gap_ratio)[2]
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
    from the one SVD per truncation that numerical_index makes.
    """
    if symbol.dim != 1:
        raise DimensionMismatchError("classical index is 1-D")
    curve = symbol_curve(symbol)
    symbol_min = float(np.abs(curve).min())
    nonvanishing = symbol_min > 1e-8
    report = FredholmReport(nonvanishing, symbol_min)
    if not nonvanishing:
        report.diagnostics["sigma_min"] = {N: _sigma_min(_section(symbol, N))
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


def _face_axis(face_or_axis):
    """Axis index 0/1 of an axis-aligned 1-D face (spec objects or shorthand)."""
    if isinstance(face_or_axis, int):
        if face_or_axis not in (0, 1):
            raise DimensionMismatchError("axis must be 0 or 1")
        return face_or_axis
    if isinstance(face_or_axis, str):
        try:
            return {"e1": 0, "x": 0, "e2": 1, "y": 1}[face_or_axis]
        except KeyError:
            raise DimensionMismatchError(f"unsupported face '{face_or_axis}'")
    gens = getattr(face_or_axis, "generators", None)
    if gens is not None and len(gens) == 1:
        g = gens[0]
        nz = [i for i, c in enumerate(g) if c != 0]
        if len(nz) == 1 and g[nz[0]] > 0:
            return nz[0]
    raise DimensionMismatchError("unsupported face orientation (axis-aligned faces only)")


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
    fhat, freqs = _dft(g, symbol.h, 1)
    return SymbolGrid(1, symbol.h, symbol.T, symbol.xs, g, fhat, freqs,
                      name=f"{symbol.name}|face-{'e1' if axis == 0 else 'e2'}@y={y}")


def face_symbol(symbol: SymbolGrid, face) -> SymbolGrid:
    """Restrict a 2-D kernel to a 1-D face: integrate out the orthogonal
    direction, the twisted restriction at y = 0."""
    return face_symbol_twisted(symbol, face, 0.0)


# -- stratified Fredholm diagnostics for the quarter plane ------------------


def hierarchy_fredholm(symbol: SymbolGrid, cone="quarter-plane",
                       truncations=(48, 96), y_values=None,
                       margin_tol=1e-6, stability_ratio=0.5) -> FredholmReport:
    """Level-wise Fredholm report: full-symbol nonvanishing plus, per 1-D
    face, the invertibility margin of the twisted face operators over a
    window of fibre frequencies, at two truncation sizes.

    The verdict is "hierarchy-fredholm" iff the 2-D symbol stays away from
    -1 and every face family keeps a positive, truncation-stable margin.
    A discrete L1 norm below 1 certifies the verdict outright with Neumann
    margin 1 - ||f||_1, when that margin exceeds margin_tol: a margin at
    rounding level cannot rule out a vanishing symbol.
    """
    if cone != "quarter-plane":
        raise DimensionMismatchError("hierarchy report implemented for the quarter plane")
    if symbol.dim != 2:
        raise DimensionMismatchError("hierarchy report needs a 2-D symbol")
    symbol_min = float(min(np.abs(1.0 + symbol.fhat).min(), 1.0))
    nonvanishing = symbol_min > 1e-8

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
        rows = [{"y": float(y),
                 "sigma_min": {N: _sigma_min(_assemble(g, symbol.h, symbol.T, N, True))
                               for N in truncations}}
                for y, g in zip(y_values, G.T)]
        n1, n2 = truncations[0], truncations[-1]
        margin = min(min(r["sigma_min"].values()) for r in rows)
        stable = all(r["sigma_min"][n2] >= stability_ratio * r["sigma_min"][n1]
                     for r in rows)
        ok = margin > margin_tol and stable
        decreasing = [r["y"] for r in rows
                      if r["sigma_min"][n2] < 0.5 * r["sigma_min"][n1]]
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


# -- symbol algebra helpers --------------------------------------------------


def convolve_kernels(s1: SymbolGrid, s2: SymbolGrid) -> SymbolGrid:
    """Discrete convolution h^dim * (f1 * f2), truncated back to the window."""
    if s1.dim != s2.dim or s1.h != s2.h or s1.T != s2.T:
        raise DimensionMismatchError("kernels must share the grid")
    from scipy.signal import fftconvolve

    conv = fftconvolve(s1.kernel, s2.kernel, mode="same") * s1.h**s1.dim
    return make_symbol(conv, s1.dim, s1.h, s1.T, name=f"({s1.name})*({s2.name})")
