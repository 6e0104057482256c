"""Discretized Wiener-Hopf operators: sampled kernels and Fourier symbols,
finite sections on cones, winding numbers, kernel/cokernel index estimation,
face-restricted symbols, fibre representations, and the stratified
Fredholm report for the quarter plane.

The index pipeline makes one values-only SVD per finite section, plus one LU
only for a section with near-null singular triples, to find their vectors.
Sections with real kernel samples are assembled and factored in real arithmetic.

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
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, svd, svdvals, toeplitz

from .errors import (
    DimensionMismatchError,
    IndexUnresolvedError,
    KernelWindowError,
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


def make_symbol(f, dim, h, T, name="", cone_transform=None) -> SymbolGrid:
    """Sample a kernel (callable or array) on the window and attach its symbol.

    The callable is evaluated on the grid; decay |f| < 1e-8 is required
    outside [-T/2, T/2]^dim.  With cone_transform=(M, detM) the kernel is
    resampled as |det M| f(M z), reducing a simplicial 2-D cone to the
    quarter plane.
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
            if cone_transform is not None:
                Mmat, detM = cone_transform
                Z1 = Mmat[0, 0] * X1 + Mmat[0, 1] * X2
                Z2 = Mmat[1, 0] * X1 + Mmat[1, 1] * X2
                vals = abs(detM) * np.asarray(f(Z1, Z2), dtype=complex)
            else:
                vals = np.asarray(f(X1, X2), dtype=complex)
    else:
        vals = np.asarray(f, dtype=complex)
        expected = (2 * M + 1,) * dim
        if vals.shape != expected:
            raise DimensionMismatchError(f"kernel samples must have shape {expected}")

    # decay check outside the half window
    mask = np.abs(xs) > T / 2
    if dim == 1:
        tail = np.abs(vals[mask])
    else:
        m2 = np.zeros(vals.shape, dtype=bool)
        m2[mask, :] = True
        m2[:, mask] = True
        tail = np.abs(vals[m2])
    if tail.size and tail.max() >= _DECAY_TOL:
        raise KernelWindowError("kernel not window-compatible")

    fhat, freqs = _dft(vals, h, dim)
    return SymbolGrid(dim, h, T, xs, vals, fhat, freqs, name=name)


def cone_section_transform(cone):
    """Change of variables reducing a solid pointed 2-D cone to the quarter
    plane: the generator matrix M (columns = extreme rays) and its determinant,
    for use as make_symbol(..., cone_transform=...)."""
    from .cones import is_pointed, is_solid
    from .exact import as_float

    if cone.ambient_dim != 2 or not (is_pointed(cone) and is_solid(cone)):
        raise DimensionMismatchError("section transform needs a solid pointed 2-D cone")
    rays = [as_float(g) for g in cone.generators]
    if len(rays) != 2:
        raise DimensionMismatchError("section transform needs a simplicial cone")
    M = np.column_stack(rays)
    return M, float(np.linalg.det(M))


@dataclass
class WHMatrix:
    """Finite section of the Wiener-Hopf operator on a discretized cone."""

    cone: str                     # "half-line" or "quarter-plane"
    N: int
    h: float
    entries: np.ndarray
    identity_shift: bool = False  # True when the matrix represents 1 + W_f


def wh_matrix(symbol: SymbolGrid, cone: str, N: int, identity_shift=False) -> WHMatrix:
    """Riemann-sum finite section: entries h^dim * f(x_i - x_j) over the cone grid.

    1-D sections are Toeplitz; the quarter plane gives a block-Toeplitz matrix
    with Toeplitz blocks (row-major over the index pairs).  The section is real
    when the kernel samples it uses have no imaginary part.
    """
    M = (symbol.npoints - 1) // 2
    if N * symbol.h > symbol.T + 1e-12:
        raise KernelWindowError("truncation exceeds the kernel window: N*h <= T required")
    dims = {"half-line": 1, "quarter-plane": 2}
    if cone not in dims:
        raise DimensionMismatchError(f"unsupported cone '{cone}'")
    if symbol.dim != dims[cone]:
        raise DimensionMismatchError(f"{cone} needs a {dims[cone]}-D symbol")
    lags = slice(M - N + 1, M + N)                  # x_i - x_j for i, j < N
    used = symbol.h**symbol.dim * symbol.kernel[(lags,) * symbol.dim]
    if not used.imag.any():
        used = used.real
    if cone == "half-line":
        W = toeplitz(used[N - 1:], used[N - 1::-1])
    else:
        idx = np.arange(N)
        D = N - 1 + (idx[:, None] - idx[None, :])   # lag index into used
        W = used[D[:, None, :, None], D[None, :, None, :]].reshape(N * N, N * N)
    if identity_shift:
        W.flat[::len(W) + 1] += 1.0
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


def _sigma_min(symbol, N):
    """Smallest singular value of the section from one values-only SVD."""
    return float(svdvals(_section(symbol, N))[-1])


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
        report.diagnostics["sigma_min"] = {N: _sigma_min(symbol, N) for N in truncations}
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


# -- face restrictions and fibre representations ---------------------------


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


def face_symbol(symbol: SymbolGrid, face) -> SymbolGrid:
    """Restrict a 2-D kernel to a 1-D face: integrate out the orthogonal direction."""
    if symbol.dim != 2:
        raise DimensionMismatchError("face symbol needs a 2-D symbol")
    axis = _face_axis(face)
    g = symbol.h * symbol.kernel.sum(axis=1 - axis)
    return make_symbol(g, 1, symbol.h, symbol.T,
                       name=f"{symbol.name}|face-{'e1' if axis == 0 else 'e2'}")


def face_symbol_twisted(symbol: SymbolGrid, face, y) -> SymbolGrid:
    """Twisted restriction g_y(t) = h * sum_w f(t s + w) e^{-2 pi i w y}.

    Its discrete symbol satisfies ghat(xi) = fhat at (xi along the face,
    y along the orthocomplement), exactly on the frequency grid.
    """
    if symbol.dim != 2:
        raise DimensionMismatchError("face symbol needs a 2-D symbol")
    axis = _face_axis(face)
    phase = np.exp(-2j * np.pi * symbol.xs * float(y))
    if axis == 0:
        g = symbol.h * (symbol.kernel * phase[None, :]).sum(axis=1)
    else:
        g = symbol.h * (symbol.kernel * phase[:, None]).sum(axis=0)
    return make_symbol(g, 1, symbol.h, symbol.T,
                       name=f"{symbol.name}|face-{'e1' if axis == 0 else 'e2'}@y={y}")


def rep_L(symbol: SymbolGrid, face, y, h_in):
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
        Wop = wh_matrix(symbol, "half-line", N).entries
        return Wop @ h_in
    axis = _face_axis(face)
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
        rows = []
        for y in y_values:
            g = face_symbol_twisted(symbol, axis, y)
            sig = {N: _sigma_min(g, N) for N in truncations}
            rows.append({"y": float(y), "sigma_min": sig})
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


def product_symbol(s1: SymbolGrid, s2: SymbolGrid) -> SymbolGrid:
    """Kernel of the product symbol: (1+f1hat)(1+f2hat) = 1 + (f1+f2+f1*f2)hat."""
    conv = convolve_kernels(s1, s2)
    return make_symbol(s1.kernel + s2.kernel + conv.kernel, s1.dim, s1.h, s1.T,
                       name=f"({s1.name})x({s2.name})")
