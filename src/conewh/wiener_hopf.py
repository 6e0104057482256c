"""Discretized Wiener-Hopf operators: sampled kernels and Fourier symbols,
finite sections on cones, winding numbers, kernel/cokernel index estimation,
face-restricted symbols, fibre representations, and the stratified
Fredholm report for the quarter plane.

The index pipeline factors each finite section once per truncation, and a
section with no imaginary part is factored in real arithmetic.

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
from scipy.linalg import svdvals, toeplitz

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

    def operator(self):
        if self.identity_shift:
            return self.entries
        return np.eye(len(self.entries), dtype=complex) + self.entries


def wh_matrix(symbol: SymbolGrid, cone: str, N: int, identity_shift=False) -> WHMatrix:
    """Riemann-sum finite section: entries h^dim * f(x_i - x_j) over the cone grid.

    1-D sections are Toeplitz; the quarter plane gives a block-Toeplitz matrix
    with Toeplitz blocks (row-major over the index pairs).
    """
    M = (symbol.npoints - 1) // 2
    if N * symbol.h > symbol.T + 1e-12:
        raise KernelWindowError("truncation exceeds the kernel window: N*h <= T required")
    if cone == "half-line":
        if symbol.dim != 1:
            raise DimensionMismatchError("half-line needs a 1-D symbol")
        col = symbol.h * symbol.kernel[M:M + N]
        row = symbol.h * symbol.kernel[M::-1][:N]
        W = toeplitz(col, row)
    elif cone == "quarter-plane":
        if symbol.dim != 2:
            raise DimensionMismatchError("quarter plane needs a 2-D symbol")
        idx = np.arange(N)
        D = M + (idx[:, None] - idx[None, :])       # difference index matrix
        W = symbol.h**2 * symbol.kernel[D[:, None, :, None], D[None, :, None, :]]
        W = W.reshape(N * N, N * N)
    else:
        raise DimensionMismatchError(f"unsupported cone '{cone}'")
    if identity_shift:
        W = np.eye(len(W), dtype=complex) + W
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


def _real_section(W):
    """W itself, or W.real when its imaginary part is exactly zero, so that a
    real section is factored in real arithmetic (same singular values, real
    singular vectors)."""
    return W.real if not W.imag.any() else W


def _sigma_min(Wop):
    """Smallest singular value from one values-only factorization."""
    return float(svdvals(_real_section(Wop))[-1])


def _small_singular_split(Wop, delta_factor, gap_ratio):
    """SVD split of a finite section: near-kernel count and side classification.

    Returns (dim_ker, dim_coker, diag).  Each near-zero singular triple is
    attributed to the kernel when its right singular vector is concentrated
    at the origin edge of the section, and to the cokernel when the left one
    is (adjoint kernel vectors are left singular vectors).
    """
    N = len(Wop)
    U, S, Vh = np.linalg.svd(_real_section(Wop))
    smax = S[0] if S[0] > 0 else 1.0
    delta = delta_factor * smax
    k = int(np.sum(S < delta))
    diag = {"sigma_min": float(S[-1]), "sigma_max": float(smax), "count": k}
    if 0 < k < N:
        gap = S[-k - 1] / max(S[-k], 1e-300)
        diag["gap"] = float(gap)
        if gap < gap_ratio:
            raise IndexUnresolvedError("index not resolved at this truncation")
    dim_ker = dim_coker = 0
    half = N // 2
    for i in range(N - k, N):
        right = Vh[i]
        left = U[:, i]
        right_front = np.linalg.norm(right[:half]) ** 2
        left_front = np.linalg.norm(left[:half]) ** 2
        if right_front >= left_front:
            dim_ker += 1
        else:
            dim_coker += 1
    diag["dim_ker"] = dim_ker
    diag["dim_coker"] = dim_coker
    return dim_ker, dim_coker, diag


def numerical_index(symbol: SymbolGrid, truncations=(512, 1024),
                    delta_factor=1e-8, gap_ratio=1e3):
    """Finite-section index dim ker - dim coker, accepted only when the
    kernel/cokernel counts agree at both truncation sizes."""
    if len(truncations) < 2:
        raise IndexUnresolvedError("need two truncation sizes")
    results = []
    diags = {}
    for N in truncations:
        Wop = wh_matrix(symbol, "half-line", N, identity_shift=True).entries
        dk, dc, diag = _small_singular_split(Wop, delta_factor, gap_ratio)
        results.append((dk, dc))
        diags[N] = diag
    if len(set(results)) != 1:
        raise IndexUnresolvedError("index not resolved at this truncation")
    dk, dc = results[0]
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
        report.diagnostics["sigma_min"] = {
            N: _sigma_min(wh_matrix(symbol, "half-line", N, identity_shift=True).entries)
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
            sig = {N: _sigma_min(wh_matrix(g, "half-line", N, identity_shift=True).entries)
                   for N in truncations}
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
