"""Symbols, finite sections, windings, indices, face restrictions, hierarchy."""

import numpy as np
import pytest

from conewh.errors import (
    DimensionMismatchError,
    IndexUnresolvedError,
    KernelWindowError,
    NonFiniteKernelError,
    WindingUndefinedError,
)
from conewh.presets import RATIONAL_ZERO_POLE, symbol_preset
from conewh.wiener_hopf import (
    _section,
    _toeplitz,
    classical_index,
    face_symbol,
    face_symbol_twisted,
    hierarchy_fredholm,
    make_symbol,
    numerical_index,
    symbol_curve,
    wh_matrix,
    winding_number,
)

from oracles import (
    complex_singular_split,
    cone_section_transform,
    cone_transform_symbol,
    convolve_kernels,
    dense_section_form,
    direct_twisted_restriction,
    product_symbol,
    rep_L,
    winding_from_zero_pole,
)


def gauss(x):
    return np.exp(-np.pi * x**2)


# -- make_symbol ---------------------------------------------------------------


def test_gaussian_self_transform():
    S = make_symbol(gauss, 1, 0.05, 20.0)
    assert np.abs(S.fhat - gauss(S.freqs)).max() < 1e-8


def test_zero_symbol():
    S = make_symbol(lambda x: np.zeros_like(x), 1, 0.05, 10.0)
    assert np.abs(S.fhat).max() == 0.0


def test_dft_consistency_is_exact():
    S = make_symbol(gauss, 1, 0.1, 15.0)
    M = (S.npoints - 1) // 2
    ref = np.array([S.h * np.sum(S.kernel * np.exp(-2j * np.pi * S.xs * xi))
                    for xi in S.freqs[M - 3:M + 4]])
    assert np.abs(ref - S.fhat[M - 3:M + 4]).max() < 1e-10


def test_rational_symbol_closed_form_on_window():
    """DFT symbol vs (2 pi i xi - 1)/(2 pi i xi + 1) on |xi| <= 1, and the
    quadratic error trend in h."""
    S = symbol_preset("rational-w+1", 5e-4, 40.0)
    closed = (2j * np.pi * S.freqs - 1) / (2j * np.pi * S.freqs + 1)
    win = np.abs(S.freqs) <= 1.0
    assert np.abs((1 + S.fhat) - closed)[win].max() < 1e-6
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        Sh = symbol_preset("rational-w+1", h, 40.0)
        win = np.abs(Sh.freqs) <= 1.0
        closed = (2j * np.pi * Sh.freqs - 1) / (2j * np.pi * Sh.freqs + 1)
        errs.append(np.abs((1 + Sh.fhat) - closed)[win].max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_decay_check():
    with pytest.raises(KernelWindowError):
        make_symbol(lambda x: np.exp(-0.01 * x**2), 1, 0.05, 10.0)
    with pytest.raises(KernelWindowError):
        make_symbol(gauss, 1, 0.5, 2.0)  # T < 10h


def test_non_finite_samples_rejected_with_position():
    vals = np.zeros((241, 241))
    vals[120, 67] = np.inf
    vals[121, 3] = np.nan
    with pytest.raises(NonFiniteKernelError, match=r"x = 0, y = -5.3 \(index \[120, 67\]\)"):
        make_symbol(vals, 2, 0.1, 12.0)
    with pytest.raises(NonFiniteKernelError,
                       match=r"x = -2 \(index \[160\]\) is nan, not finite"):
        make_symbol(lambda x: np.where(np.arange(len(x)) == 160, np.nan, 0.0), 1, 0.05, 10.0)


_GRIDS = {1: (0.05, 20.0), 2: (0.1, 12.0)}
_A, _B, _M = np.random.default_rng(28).uniform([0.2, -1.0, 1.0], [0.8, 1.0, 4.0])
# name: (dim, callable); some return integers, some a shape that broadcasts
# to the grid.  Only kernels below the decay gate everywhere may be constant
# along an axis.
_CALLABLES = {
    "real-1d": (1, lambda x: _A * gauss(x - _B)),
    "complex-1d": (1, lambda x: _A * gauss(x - _B) * np.exp(1j * _M * x)),
    "zero-imaginary-1d": (1, lambda x: _A * gauss(x) + 0j),
    "integer-1d": (1, lambda x: np.where(np.abs(x) <= 2, 3, -1 * (np.abs(x) <= 4))),
    "broadcast-scalar-1d": (1, lambda x: 0.0),
    "real-2d": (2, lambda x, y: _A * np.exp(-np.pi * (x**2 + _B * x * y + 2 * y**2))),
    "complex-2d": (2, lambda x, y: _A * np.exp(-np.pi * ((x - _B)**2 + y**2) + 1j * _M * x * y)),
    "integer-2d": (2, lambda x, y: np.where((np.abs(x) <= 1) & (np.abs(y) <= 2), 2, 0)),
    "broadcast-row-2d": (2, lambda x, y: 1e-9 * _A * gauss(x)),
    "broadcast-complex-2d": (2, lambda x, y: 1e-9j * _A * gauss(y - _B) * np.exp(1j * _M * y)),
    "broadcast-zeros-2d": (2, lambda x, y: np.zeros_like(x)),
    "broadcast-scaled-2d": (2, lambda x, y: 0 * x),
}
_ARRAYS = {"real": lambda rng, n: rng.standard_normal(n),
           "complex": lambda rng, n: rng.standard_normal(n) + 1j * rng.standard_normal(n),
           "integer": lambda rng, n: rng.integers(-5, 6, n)}
SAMPLING_CASES = list(_CALLABLES) + [f"array-{kind}-{dim}d" for kind in _ARRAYS for dim in (1, 2)]


def _seeded_samples(case):
    """(f, dim, h, T) of a sampling case: a callable of _CALLABLES, or seeded
    samples that vanish outside [-T/2, T/2]^dim."""
    if case in _CALLABLES:
        dim, f = _CALLABLES[case]
        return (f, dim, *_GRIDS[dim])
    _, kind, d = case.split("-")
    dim = int(d[0])
    h, T = _GRIDS[dim]
    xs = np.arange(-round(T / h), round(T / h) + 1) * h
    inside = np.abs(xs) <= T / 2
    if dim == 2:
        inside = inside[:, None] & inside[None, :]
    vals = _ARRAYS[kind](np.random.default_rng(sum(map(ord, case))), (len(xs),) * dim)
    return np.where(inside, vals, 0), dim, h, T


@pytest.mark.parametrize("case", SAMPLING_CASES)
def test_sampling_contract(case):
    """The kernel holds the samples, float64 exactly when every sample is real
    and complex128 otherwise, and fhat is the shifted FFT of the complex
    kernel scaled by h^dim, bit for bit."""
    f, dim, h, T = _seeded_samples(case)
    S = make_symbol(f, dim, h, T)
    shape = (S.npoints,) * dim
    samples = np.broadcast_to(f(*np.meshgrid(*[S.xs] * dim, indexing="ij"))
                              if callable(f) else f, shape)
    real = not np.iscomplexobj(samples) or not samples.imag.any()
    assert S.kernel.dtype == (np.float64 if real else np.complex128)
    assert S.kernel.shape == shape and S.kernel.flags.writeable and S.kernel.flags.owndata
    assert np.array_equal(S.kernel, samples)
    ref = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(S.kernel.astype(complex)))) * h**dim
    assert S.fhat.dtype == np.complex128
    assert S.fhat.tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", [c for c in SAMPLING_CASES if c.endswith("2d")])
def test_hierarchy_symbol_min_is_the_full_minimum(case):
    """symbol_min, taken over blocks of rows of fhat, equals the minimum of
    |1 + fhat| over the whole grid, capped at 1, bit for bit."""
    S = make_symbol(*_seeded_samples(case))
    report = hierarchy_fredholm(S, truncations=(8, 16), y_values=[0.0])
    assert report.symbol_min == float(min(np.abs(1 + S.fhat).min(), 1.0))


def test_hierarchy_symbol_min_keeps_a_nan_of_a_later_block():
    """A NaN in fhat past the first block of rows (an overflowing DFT of
    finite samples) makes symbol_min NaN, as the full minimum does, so the
    symbol is not reported nonvanishing."""
    S = make_symbol(*_seeded_samples("real-2d"))
    S.fhat[len(S.fhat) - 3, 5] = np.nan
    report = hierarchy_fredholm(S, truncations=(8, 16), y_values=[0.0])
    assert np.isnan(float(min(np.abs(1 + S.fhat).min(), 1.0)))
    assert np.isnan(report.symbol_min) and not report.symbol_nonvanishing


def test_kernel_array_of_another_shape_rejected():
    """An array of samples must fill the grid; only a callable's result is
    broadcast to it."""
    with pytest.raises(DimensionMismatchError, match=r"must have shape \(121,\)"):
        make_symbol(np.zeros(120), 1, 0.05, 3.0)
    with pytest.raises(DimensionMismatchError, match=r"must have shape \(121, 121\)"):
        make_symbol(np.zeros((121, 1)), 2, 0.1, 6.0)


def test_sampling_peak_on_the_finest_hierarchy_grid():
    """Sampling the perfbench hierarchy kernel on 481 x 481 points holds the
    float kernel, one complex FFT buffer and the shifted fhat at most: numpy's
    traced peak stays under 9.5 MiB."""
    import tracemalloc

    from conewh.presets import symbol_from_expression

    expr = "0.5*exp(-pi*(x**2+y**2))"
    symbol_from_expression(expr, 2, 0.05, 12.0)
    tracemalloc.start()
    try:
        S = symbol_from_expression(expr, 2, 0.05, 12.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.kernel.shape == (481, 481) and S.kernel.dtype == np.float64
    assert peak <= 9.5 * 2**20


def _never_sampled(*coords):
    raise AssertionError("the kernel was sampled")


@pytest.mark.parametrize("f, dim", [
    (np.zeros((25, 25, 25)), 3),
    (_never_sampled, 3),
    (np.zeros(()), 0),
    (_never_sampled, 0),
])
def test_kernel_dimension_other_than_one_or_two_rejected(f, dim):
    with pytest.raises(DimensionMismatchError, match=f"must be 1 or 2, got {dim}"):
        make_symbol(f, dim, 0.5, 6.0)


# -- wh_matrix -------------------------------------------------------------------


def test_wh_matrix_toeplitz_structure():
    S = symbol_preset("rational-w+1", 0.05, 52.0)
    W = wh_matrix(S, "half-line", 8)
    M = (S.npoints - 1) // 2
    for i in range(8):
        assert W[i, 0] == S.h * S.kernel[M + i]
    idx = np.arange(8)
    D = idx[:, None] - idx[None, :]
    for d in range(-7, 8):
        vals = W[D == d]
        assert np.all(vals == vals[0])


def test_wh_matrix_zero_kernel():
    S = make_symbol(lambda x: np.zeros_like(x), 1, 0.05, 10.0)
    assert np.abs(wh_matrix(S, "half-line", 16)).max() == 0.0


def test_wh_matrix_kronecker_separable():
    S2 = make_symbol(lambda x, y: gauss(x) * gauss(y), 2, 0.1, 12.0)
    S1 = make_symbol(gauss, 1, 0.1, 12.0)
    W2 = wh_matrix(S2, "quarter-plane", 8)
    W1 = wh_matrix(S1, "half-line", 8)
    assert np.abs(W2 - np.kron(W1, W1)).max() < 1e-12


def _complex_assembly(symbol, N):
    """The identity-shifted half-line section assembled in complex arithmetic:
    the Toeplitz matrix of the scaled samples plus a complex identity."""
    from scipy.linalg import toeplitz

    M = (symbol.npoints - 1) // 2
    col = symbol.h * symbol.kernel[M:M + N]
    row = symbol.h * symbol.kernel[M::-1][:N]
    return np.eye(N, dtype=complex) + toeplitz(col, row)


@pytest.mark.parametrize("name, T, twist, real", [
    ("rational-w-2", 52.0, None, True),
    ("gauss-small", 12.0, None, True),
    ("gauss2d-small", 12.0, 0.0, True),
    ("gauss2d-small", 12.0, 0.25, True),
    ("exp(-pi*(x**2+(y-0.3)**2))", 12.0, 0.25, False),
])
def test_wh_matrix_real_when_used_samples_are_real(name, T, twist, real):
    """A section is assembled in real arithmetic exactly when the samples it
    uses have no imaginary part, with the entries of the complex assembly.
    A twisted restriction is real for a kernel even across the face, complex
    for one shifted across it."""
    from conewh.presets import symbol_from_expression

    S = (symbol_from_expression(name, 2, 0.1, T) if "(" in name
         else symbol_preset(name, 0.1, T))
    if twist is not None:
        S = face_symbol_twisted(S, 0, twist)
    W = wh_matrix(S, "half-line", 48, identity_shift=True)
    ref = _complex_assembly(S, 48)
    assert (W.dtype == np.float64) is real
    assert np.array_equal(W, ref.real if real else ref)


def test_wh_matrix_decides_realness_on_the_used_lags():
    """Imaginary samples beyond the lags a section uses leave it real."""
    S = symbol_preset("gauss-small", 0.1, 12.0)
    M = (S.npoints - 1) // 2
    S.kernel = S.kernel.astype(complex)
    S.kernel[M + 60] += 1e-12j
    assert wh_matrix(S, "half-line", 60).dtype == np.float64
    assert wh_matrix(S, "half-line", 61).dtype == np.complex128


def test_wh_matrix_quarter_plane_identity_shift():
    S2 = symbol_preset("gauss2d-small", 0.1, 12.0)
    W = wh_matrix(S2, "quarter-plane", 6)
    shifted = wh_matrix(S2, "quarter-plane", 6, identity_shift=True)
    assert W.dtype == shifted.dtype == np.float64
    assert np.array_equal(shifted, W + np.eye(36))


def test_wh_matrix_errors():
    S = make_symbol(gauss, 1, 0.05, 10.0)
    with pytest.raises(KernelWindowError):
        wh_matrix(S, "half-line", 500)
    with pytest.raises(DimensionMismatchError):
        wh_matrix(S, "quarter-plane", 8)


# -- winding ---------------------------------------------------------------------


def test_winding_circles():
    theta = np.linspace(0, 2 * np.pi, 400)
    assert winding_number(1 + 0.5 * np.exp(1j * theta)) == 0
    assert winding_number(np.exp(1j * theta)) == 1
    assert winding_number(np.exp(-2j * theta)) == -2


def test_winding_errors():
    theta = np.linspace(0, 2 * np.pi, 100)
    with pytest.raises(WindingUndefinedError):
        winding_number(1e-10 * np.exp(1j * theta))
    with pytest.raises(WindingUndefinedError):
        winding_number(np.exp(1j * theta[:50]))  # not closed


@pytest.mark.parametrize("name", sorted(RATIONAL_ZERO_POLE))
def test_winding_matches_zero_pole_oracle(name):
    S = symbol_preset(name, 0.05, 52.0)
    z_up, p_up = RATIONAL_ZERO_POLE[name]
    assert winding_number(symbol_curve(S)) == winding_from_zero_pole(z_up, p_up)


def test_winding_additivity():
    h, T = 0.05, 60.0  # convolution tails need the wider window
    for a, b in (("rational-w-1", "rational-w+1"),
                 ("rational-w-1", "rational-w-1"),
                 ("rational-w+1", "rational-w+2")):
        Sa, Sb = symbol_preset(a, h, T), symbol_preset(b, h, T)
        Sab = product_symbol(Sa, Sb)
        wa = winding_number(symbol_curve(Sa))
        wb = winding_number(symbol_curve(Sb))
        assert winding_number(symbol_curve(Sab)) == wa + wb
    # pointwise product of the sampled curves winds additively too
    ca = symbol_curve(symbol_preset("rational-w-2", h, T))
    cb = symbol_curve(symbol_preset("rational-w+1", h, T))
    assert winding_number(ca * cb) == winding_number(ca) + winding_number(cb)


# -- classical and numerical index ------------------------------------------------


def test_classical_index_identity():
    S = symbol_preset("zero", 0.05, 52.0)
    rep = classical_index(S, truncations=(64, 128))
    assert rep.symbol_nonvanishing and rep.winding == 0
    assert rep.index == 0 and rep.numerical_index == 0


def test_classical_index_rational():
    rep = classical_index(symbol_preset("rational-w-1", 0.05, 52.0))
    assert rep.winding == -1
    assert rep.index == 1
    assert rep.numerical_index == 1  # kernel-count oracle fixes the sign
    assert rep.verdict == "fredholm"


def test_classical_index_non_fredholm_trend():
    S = symbol_preset("singular-zero", 0.05, 30.0)
    rep = classical_index(S, truncations=(64, 128, 256))
    assert not rep.symbol_nonvanishing
    assert rep.winding is None and rep.verdict == "non-fredholm"
    sig = rep.diagnostics["sigma_min"]
    assert sig[64] > sig[128] > sig[256]


def test_numerical_index_additivity():
    h, T = 0.05, 52.0
    prod = product_symbol(symbol_preset("rational-w-1", h, T),
                          symbol_preset("rational-w+1", h, T))
    idx, _ = numerical_index(prod, truncations=(256, 512))
    assert idx == 0


def test_numerical_index_unresolved_at_small_truncation():
    S = symbol_preset("rational-w-1", 0.05, 52.0)
    with pytest.raises(IndexUnresolvedError):
        numerical_index(S, truncations=(256, 384))


class _Calls(list):
    """(routine, dtype) of each factorization, with its argument in args."""

    def __init__(self):
        super().__init__()
        self.args = []
        self.depth = 0

    def clear(self):
        super().clear()
        self.args.clear()

    def exactly_hermitian(self, routine):
        """Whether every argument of routine equals its conjugate transpose."""
        return all(np.array_equal(a, a.conj().T)
                   for call, a in zip(self, self.args) if call[0] == routine)


@pytest.fixture
def factorizations(monkeypatch):
    """(routine, dtype) of every factorization the wiener_hopf module makes:
    its eigvalsh, solve, values-only svdvals, and the qr and full svd of the
    near-null pairing, each bound in the module.  A factorization made inside
    a counted one (the svd that svdvals calls) is part of it, not another."""
    import conewh.wiener_hopf as wh

    calls = _Calls()

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            if calls.depth:
                return fn(a, *args, **kwargs)
            calls.append((name, np.asarray(a).dtype))
            calls.args.append(np.asarray(a))
            calls.depth += 1
            try:
                return fn(a, *args, **kwargs)
            finally:
                calls.depth -= 1
        return wrapper

    for name in ("svdvals", "svd", "eigvalsh", "solve", "qr"):
        monkeypatch.setattr(wh, name, counted(name, getattr(wh, name)))
    return calls


def _pairing(dtype=np.float64):
    """The factorizations of one near-null pairing after its solve: the qr of
    each side's block and the svd of the projected section."""
    return [("qr", dtype)] * 2 + [("svd", dtype)]


def _same_bits(a, b):
    """Whether two arrays hold the same dtype, shape and bytes."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _half_orders(calls):
    """The orders of the eigvalsh arguments, in pairs."""
    orders = [len(a) for a in calls.args]
    return list(zip(orders[::2], orders[1::2]))


def test_classical_index_one_factorization_per_truncation(factorizations):
    """One factorization per truncation, chosen by the section's structure,
    plus one solve against its Hermitian form only for a section with
    near-null singular triples; the sigma_min trend of a non-Fredholm symbol
    takes the same one factorization per truncation."""
    # A real Toeplitz section that is not symmetric is persymmetric: its
    # column-reversed form is symmetric and goes to eigvalsh, and the
    # near-null vectors come from one solve against that same form.
    real_flipped, real_solve = ("eigvalsh", np.float64), ("solve", np.float64)
    S = symbol_preset("rational-w+1", 0.2, 52.0)
    rep = classical_index(S, truncations=(128, 256))
    assert rep.numerical_index == rep.index == -1
    assert [d["count"] for d in rep.diagnostics["per_truncation"].values()] == [1, 1]
    assert factorizations == ([real_flipped, real_solve] + _pairing()) * 2
    assert factorizations.exactly_hermitian("eigvalsh")
    assert factorizations.exactly_hermitian("solve")
    for N, eig_arg, solve_arg in zip((128, 256), factorizations.args[::5],
                                     factorizations.args[1::5]):
        W = wh_matrix(S, "half-line", N, identity_shift=True)
        assert not np.array_equal(W, W.T)
        assert np.array_equal(eig_arg, W[:, ::-1]) and np.array_equal(solve_arg, eig_arg)
    # k + 8 = 9 seeded columns per side, and the 9 x 9 projection
    assert [a.shape for call, a in zip(factorizations, factorizations.args)
            if call[0] in ("qr", "svd")] == [(128, 9), (128, 9), (9, 9),
                                            (256, 9), (256, 9), (9, 9)]
    per = rep.diagnostics["per_truncation"]
    assert rep.diagnostics["sigma_min"] == {N: per[N]["sigma_min"] for N in (128, 256)}

    factorizations.clear()
    # Even kernels give symmetric sections, which also equal their reversal:
    # their singular values are the |lambda| of two half-order blocks.
    rep = classical_index(symbol_preset("gauss-small", 0.05, 52.0), truncations=(64, 128))
    assert rep.verdict == "fredholm" and rep.diagnostics["dim_ker"] == 0
    assert factorizations == [("eigvalsh", np.float64)] * 4
    assert factorizations.exactly_hermitian("eigvalsh")
    assert _half_orders(factorizations) == [(32, 32), (64, 64)]

    factorizations.clear()
    rep = classical_index(symbol_preset("singular-zero", 0.05, 30.0), truncations=(64, 128))
    assert rep.verdict == "non-fredholm"
    assert factorizations == [("eigvalsh", np.float64)] * 4
    assert _half_orders(factorizations) == [(32, 32), (64, 64)]


@pytest.mark.parametrize("name", ["rational-w-1", "rational-w+1", "rational-w-2",
                                  "rational-w+2", "gauss-small"])
def test_real_split_matches_complex_oracle(name):
    """The real-arithmetic split agrees with a dense SVD with vectors of the
    same section."""
    from conewh.wiener_hopf import _small_singular_split

    S = symbol_preset(name, 0.05, 52.0)
    c = _section(S, 512)
    W = wh_matrix(S, "half-line", 512, identity_shift=True)
    assert not W.imag.any() and c.dtype == np.float64
    dim_ker, dim_coker, diag = _small_singular_split(c, 1e-8, 1e3)
    ref = complex_singular_split(W)
    assert (diag["count"], dim_ker, dim_coker) == (ref["count"], ref["dim_ker"],
                                                    ref["dim_coker"])
    assert diag["sigma_max"] == pytest.approx(ref["sigma_max"], rel=1e-10)
    k = diag["count"]
    if name == "gauss-small":
        assert k == 0 and "gap" not in diag
        return
    # The gap divides by a singular value at the rounding floor, which any
    # backward-stable SVD fixes only to about N * eps * sigma_max absolutely.
    floor = 512 * np.finfo(float).eps * ref["sigma_max"] / ref["sigma"][-k]
    assert k > 0 and diag["gap"] == pytest.approx(ref["gap"], rel=1e-10 + floor)


def _rational_kernel(winding, a, c=None):
    """Kernel of a rational symbol with pole scale a (and c for winding 0),
    sampled with the midpoint value at x = 0 like the packaged presets."""
    def decay(x, scale):
        return np.exp(-scale * np.minimum(np.abs(x), 60.0 / scale))

    def f(x):
        if winding in (1, -1):
            side = x > 0 if winding == 1 else x < 0
            return np.where(side, -2 * a * decay(x, a), np.where(x == 0, -a, 0.0))
        if winding in (2, -2):
            side, t = (x > 0, a * x) if winding == 2 else (x < 0, -a * x)
            return np.where(side, 4 * a * decay(x, a) * (t - 1), np.where(x == 0, -2 * a, 0.0))
        k = 4 * a * c / (a + c)                     # b_a / b_c: winding 0
        p, q = k - 2 * a, k - 2 * c
        return np.where(x > 0, p * decay(x, a), np.where(x < 0, q * decay(x, c), (p + q) / 2))
    return f


def _seeded_rational_section(winding, N, seed, modulation=0.0):
    """The generator of I + W_N for a rational kernel with seeded pole scales
    in [1, 2], times e^{i m x} for a nonzero modulation m (a complex section)."""
    rng = np.random.default_rng(seed)
    a, c = rng.uniform(1.0, 2.0, 2)
    f = _rational_kernel(winding, a, c)
    S = make_symbol(lambda x: f(x) * np.exp(1j * modulation * x), 1, 0.05, 52.0)
    return _section(S, N)


def _zero_pivot_section():
    """The gauss-small section with its rows moved up by one and a zero last
    row: LU with partial pivoting meets an exactly zero last pivot; the
    null vector is at the front, the left one is e_N."""
    W = wh_matrix(symbol_preset("gauss-small", 0.05, 52.0), "half-line", 512,
                  identity_shift=True)
    return np.vstack([W[1:], np.zeros(512)])


def _unresolved_section():
    """Singular values 1, ..., 1, 1.5e-8, 1e-9 in random bases: the one value
    below 1e-8 sits under a gap of 15 < 1e3."""
    rng = np.random.default_rng(3)
    Q1, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    Q2, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    return (Q1 * np.r_[np.ones(62), 1.5e-8, 1e-9]) @ Q2.T


def _kernel_and_cokernel_section():
    """Two kernel-type triples (right e_0, e_1; left e_63, e_62) and one
    cokernel-type triple (right e_61, left e_2) with singular values 1e-11,
    1.1e-11 and 1.2e-11 beside a random orthogonal bulk.  The values are so
    close that the iterated block still mixes the three triples, so the
    attribution needs the k x k pairing."""
    rows = [i for i in range(64) if i not in (2, 62, 63)]
    cols = [i for i in range(64) if i not in (0, 1, 61)]
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((61, 61)))
    A = np.zeros((64, 64))
    A[np.ix_(rows, cols)] = Q
    A[63, 0], A[62, 1], A[2, 61] = 1e-11, 1.1e-11, 1.2e-11
    return A


def _hermitian_section(near_null, seed, complex_basis):
    """A section equal to its conjugate transpose, so the split factors it by
    eigvalsh: eigenvalues +-1 and the planted near-null ones, in a seeded real
    orthogonal or complex unitary basis.  Near-null values of both signs pair
    up: rounding mixes their two triples, which moves the front masses of the
    right and left vectors apart (u = +-v for an exact Hermitian triple)."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((64, 64))
    if complex_basis:
        Z = Z + 1j * rng.standard_normal((64, 64))
    Q, _ = np.linalg.qr(Z)
    lam = np.r_[rng.choice([-1.0, 1.0], 64 - len(near_null)), near_null]
    A = (Q * lam) @ Q.conj().T
    A = (A + A.conj().T) / 2
    assert np.array_equal(A, A.conj().T)
    return A


_ORACLE_CASES = (
    [pytest.param(lambda w=w, N=N: _seeded_rational_section(w, N, 40 + w),
                  id=f"rational-w{w:+d}-N{N}")
     for w in (-2, -1, 0, 1, 2) for N in (512, 1024)]
    + [pytest.param(lambda w=w: _seeded_rational_section(w, 512, 50 + w, modulation=3.0),
                    id=f"modulated-w{w:+d}-N512") for w in (-2, -1, 1)]
    + [pytest.param(_kernel_and_cokernel_section, id="kernel-and-cokernel"),
       pytest.param(_zero_pivot_section, id="zero-pivot"),
       pytest.param(_unresolved_section, id="gap-below-ratio")]
    # resolved: gap 5e10 above 1e-11 and -2e-11; unresolved: 1.5e-8 sits 3x
    # above -5e-9 and 2e-9
    + [pytest.param(lambda v=v, c=c: _hermitian_section(v, 60 + c, c),
                    id=f"{'hermitian' if c else 'symmetric'}-{case}")
       for c in (False, True)
       for case, v in (("resolved", [1e-11, -2e-11]),
                       ("gap-below-ratio", [1.5e-8, -5e-9, 2e-9]))])


def _dense_split(W, delta_factor, gap_ratio):
    """The count, gap, pairing and attribution back end on a matrix that need
    not be Toeplitz, through the dense structure dispatch of the oracles."""
    from conewh.wiener_hopf import _split_form

    return _split_form(*dense_section_form(W), delta_factor, gap_ratio)


@pytest.mark.parametrize("section", _ORACLE_CASES)
def test_split_matches_complex_oracle(section):
    """The split (eigvalsh or values-only SVD, plus one solve) agrees with a
    dense SVD with vectors on the count, the kernel/cokernel attribution and
    the gap verdict.  A Toeplitz case is a generator and takes the generator
    dispatch; the others take the back end through the dense one."""
    from conewh.wiener_hopf import _small_singular_split

    A = section()
    W = _toeplitz(A) if A.ndim == 1 else A
    split = _small_singular_split if A.ndim == 1 else _dense_split
    ref = complex_singular_split(W)
    if ref["gap"] is not None and ref["gap"] < 1e3:
        with pytest.raises(IndexUnresolvedError):
            split(A, 1e-8, 1e3)
        return
    dim_ker, dim_coker, diag = split(A, 1e-8, 1e3)
    assert (diag["count"], dim_ker, dim_coker) == (ref["count"], ref["dim_ker"],
                                                    ref["dim_coker"])
    assert ("gap" in diag) == (ref["gap"] is not None)


@pytest.mark.parametrize("N", [512, 1024])
@pytest.mark.parametrize("w", [-2, -1, 0, 1, 2])
def test_flipped_section_singular_values_match_dense_svd(factorizations, w, N):
    """A real rational section is Toeplitz but not symmetric: its singular
    values come from one eigvalsh of the column-reversed section and agree
    with a dense SVD to N * eps * sigma_max, with the same near-null count
    and both gaps above the 1e3 rule."""
    from conewh.wiener_hopf import _singular_values

    c = _seeded_rational_section(w, N, 40 + w)
    W = _toeplitz(c)
    assert W.dtype == np.float64 and not np.array_equal(W, W.T)
    S, section, form, flip = _singular_values(c)
    assert factorizations == [("eigvalsh", np.float64)]
    assert np.array_equal(factorizations.args[0], W[:, ::-1])
    assert flip and form is factorizations.args[0]
    # the Hankel form is a view of the generator, and no section is built
    assert section is None and np.shares_memory(form, c)
    ref = complex_singular_split(W)
    assert np.abs(S - ref["sigma"]).max() <= N * np.finfo(float).eps * ref["sigma_max"]
    k = int(np.sum(S < 1e-8 * S[0]))
    assert k == ref["count"] == abs(w)
    if k:
        assert min(S[-k - 1] / S[-k], ref["gap"]) >= 1e3


def test_real_section_that_is_not_persymmetric_gets_svdvals(factorizations):
    """eigvalsh reads one triangle only, so a real section equal to neither
    its transpose nor, column-reversed, its own transpose takes the SVD."""
    W = _kernel_and_cokernel_section()
    assert not np.array_equal(W[:, ::-1], W[:, ::-1].T)
    S, _, form, _ = dense_section_form(W)
    assert factorizations == [("svdvals", np.float64)] and form is None
    assert np.allclose(S, complex_singular_split(W)["sigma"], rtol=0, atol=1e-14)


def _symmetric_toeplitz(N, seed, shifted):
    """The seeded, decaying, real even generator of a symmetric Toeplitz
    section; shifted by the section's middle eigenvalue at lag 0, the section
    has one singular value at the rounding floor."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(N) * np.exp(-np.arange(N) / 8)
    c = np.concatenate([g[:0:-1], g])
    if shifted:
        c[N - 1] -= np.linalg.eigvalsh(_toeplitz(c))[N // 2]
    return c


@pytest.mark.parametrize("N, shifted", [(1, False)] + [(N, s) for N in (2, 3, 47, 48, 513, 1024)
                                                       for s in (False, True)])
def test_centrosymmetric_split_matches_complex_oracle(factorizations, N, shifted):
    """A real symmetric Toeplitz section equals its reversal J W J: its
    singular values come from two eigvalsh of orders ceil(N/2) and floor(N/2)
    and agree with a dense SVD to N * eps * sigma_max, with the same
    near-null count; the near-null vectors come from one solve against W."""
    from conewh.wiener_hopf import _singular_values, _small_singular_split

    c = _symmetric_toeplitz(N, 70 + N, shifted)
    W = _toeplitz(c)
    assert np.array_equal(W, W.T) and np.array_equal(W, W[::-1, ::-1])
    S, section, form, flip = _singular_values(c)
    assert factorizations == [("eigvalsh", np.float64)] * 2
    assert factorizations.exactly_hermitian("eigvalsh")
    assert _half_orders(factorizations) == [((N + 1) // 2, N // 2)]
    # no N x N matrix is built; the Hermitian form is W itself, unflipped
    assert section is None and form is None and not flip
    ref = complex_singular_split(W)
    assert np.abs(S - ref["sigma"]).max() <= N * np.finfo(float).eps * ref["sigma_max"]
    k = int(np.sum(S < 1e-8 * S[0]))
    assert k == ref["count"] == int(shifted)
    if shifted:
        factorizations.clear()
        assert _small_singular_split(c, 1e-8, 1e3)[2]["count"] == 1
        solves = factorizations.args[2:-3]
        assert factorizations[:2] == [("eigvalsh", np.float64)] * 2
        assert factorizations[2:-3] == [("solve", np.float64)] * len(solves)
        assert np.array_equal(solves[0], W) and factorizations[-3:] == _pairing()
        # A second solve, shifted, only when W is exactly singular (at N = 3
        # the shift can make the first and last rows equal).
        try:
            np.linalg.solve(W, np.ones(N))
            assert len(solves) == 1
        except np.linalg.LinAlgError:
            assert len(solves) == 2
            assert np.array_equal(solves[1], W + np.finfo(float).eps * S[0] * np.eye(N))


@pytest.mark.parametrize("N", [1, 2, 5, 8, 33])
def test_complex_hermitian_centrosymmetric_split_matches_complex_oracle(factorizations, N):
    """The split needs only W = W^H = J W J, so it serves a complex Hermitian
    matrix that equals its reversal as well (a Toeplitz one would be real)."""
    rng = np.random.default_rng(80 + N)
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    A = A + A[::-1, ::-1]
    W = (A + A.conj().T) / 2
    assert np.array_equal(W, W.conj().T) and np.array_equal(W, W[::-1, ::-1])
    S, _, form, flip = dense_section_form(W)
    assert factorizations == [("eigvalsh", np.complex128)] * 2
    assert factorizations.exactly_hermitian("eigvalsh")
    assert form is W and not flip
    ref = complex_singular_split(W)
    assert np.abs(S - ref["sigma"]).max() <= N * np.finfo(float).eps * ref["sigma_max"]


def test_symmetric_section_that_is_not_persymmetric_skips_the_split(factorizations):
    """A real symmetric matrix that does not equal its reversal takes one
    eigvalsh of full order, and its near-null vectors one solve against it."""
    W = _toeplitz(_symmetric_toeplitz(64, 9, False))
    W[0, 5] = W[5, 0] = W[0, 5] + 0.25
    assert np.array_equal(W, W.T) and not np.array_equal(W, W[::-1, ::-1])
    W.flat[::65] -= np.linalg.eigvalsh(W)[32]
    S, _, form, flip = dense_section_form(W)
    assert factorizations == [("eigvalsh", np.float64)] and factorizations.args[0] is W
    assert form is W and not flip
    ref = complex_singular_split(W)
    assert np.abs(S - ref["sigma"]).max() <= 64 * np.finfo(float).eps * ref["sigma_max"]
    assert int(np.sum(S < 1e-8 * S[0])) == ref["count"] == 1
    factorizations.clear()
    assert _dense_split(W, 1e-8, 1e3)[2]["count"] == 1
    assert factorizations == [("eigvalsh", np.float64), ("solve", np.float64)] + _pairing()
    assert factorizations.args[1] is W


def test_exactly_singular_section_is_solved_shifted(factorizations):
    """The zero-pivot section has no Hermitian form: W and W^T are solved in
    turn, each meets the exactly zero pivot and is solved once more shifted
    by eps * sigma_max * I; the split still matches the oracle."""
    W = _zero_pivot_section()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(W, np.ones(512))
    dim_ker, dim_coker, diag = _dense_split(W, 1e-8, 1e3)
    assert factorizations == ([("svdvals", np.float64)] + [("solve", np.float64)] * 4
                              + _pairing())
    plain, shifted, plain_t, shifted_t = factorizations.args[1:5]
    shift = np.finfo(float).eps * diag["sigma_max"] * np.eye(512)
    assert np.array_equal(plain, W) and np.array_equal(shifted, W + shift)
    assert np.array_equal(plain_t, W.T) and np.array_equal(shifted_t, W.T + shift)
    ref = complex_singular_split(W)
    assert (diag["count"], dim_ker, dim_coker) == (ref["count"], ref["dim_ker"],
                                                    ref["dim_coker"]) == (1, 1, 0)


def test_zero_pivot_section_is_exactly_singular():
    from scipy.linalg import LinAlgWarning, lu_factor

    with pytest.warns(LinAlgWarning):
        lu, _ = lu_factor(_zero_pivot_section())
    assert np.count_nonzero(lu.diagonal() == 0) == 1


def test_modulated_section_is_complex_with_the_real_split():
    """e^{i m x} times the kernel is a diagonal unitary similarity of the real
    section: complex entries, the same count and attribution."""
    from conewh.wiener_hopf import _small_singular_split

    cc = _seeded_rational_section(-1, 512, 7, modulation=3.0)
    cr = _seeded_rational_section(-1, 512, 7)
    assert cc.dtype == np.complex128 and cr.dtype == np.float64
    split_c = _small_singular_split(cc, 1e-8, 1e3)
    split_r = _small_singular_split(cr, 1e-8, 1e3)
    assert split_c[:2] == split_r[:2] == (1, 0)


@pytest.mark.parametrize("c, delta_factor", [
    pytest.param(np.zeros(15), 1e-8, id="zero-section"),
    pytest.param(_section(symbol_preset("rational-w-1", 0.05, 52.0), 32), 2.0,
                 id="delta-above-sigma-max"),
])
def test_split_with_every_value_near_zero_is_unresolved(c, delta_factor):
    """k = N leaves no singular value above the count, so there is no gap to
    resolve the index: the split raises instead of attributing an arbitrary
    basis of the whole space."""
    from conewh.wiener_hopf import _small_singular_split

    with pytest.raises(IndexUnresolvedError, match="gap 0 above"):
        _small_singular_split(c, delta_factor, 1e3)


def test_twisted_face_sections_factor_by_structure(factorizations):
    """An even kernel gives real symmetric face sections that equal their
    reversal, factored by two half-order eigvalsh; a kernel shifted across
    the face keeps complex sections and svdvals."""
    S = symbol_preset("gauss2d-small", 0.1, 12.0)
    y = S.freqs[1] - S.freqs[0]
    hierarchy_fredholm(S, truncations=(16, 32), y_values=[0.0, y])
    assert factorizations == [("eigvalsh", np.float64)] * 16
    assert _half_orders(factorizations) == [(8, 8), (16, 16)] * 4
    for face in ("e1", "e2"):
        for twist in (0.0, y):
            W = wh_matrix(face_symbol_twisted(S, face, twist), "half-line", 32,
                          identity_shift=True)
            assert W.dtype == np.float64 and np.array_equal(W, W.T)

    factorizations.clear()
    shifted = make_symbol(lambda x, y: np.exp(-np.pi * (x**2 + (y - 0.3)**2)), 2, 0.1, 12.0)
    rep = hierarchy_fredholm(shifted, truncations=(16, 32), y_values=[0.0, y])
    real_symmetric, real, cplx = (("eigvalsh", np.float64), ("eigvalsh", np.float64),
                                  ("svdvals", np.complex128))
    # face e1 restricts across y, where the kernel is shifted: at y = 0 its
    # sections are real symmetric Toeplitz, split in halves.  Face e2 restricts
    # along it, with real sections that are not symmetric: eigvalsh factors
    # their column-reversed form.  The complex ones are complex symmetric when
    # reversed, not Hermitian, and keep svdvals.
    assert factorizations == [real_symmetric] * 4 + [cplx] * 2 + [real] * 4
    assert factorizations.exactly_hermitian("eigvalsh")
    assert [len(a) for a in factorizations.args[:4]] == [8, 8, 16, 16]
    assert not any(np.array_equal(a[:, ::-1], a[:, ::-1].T) for a in factorizations.args[6:])
    e1 = next(fr for fr in rep.face_reports if fr["face"] == "e1")
    twisted = next(r for r in e1["rows"] if r["y"] != 0.0)
    W = wh_matrix(face_symbol_twisted(shifted, "e1", twisted["y"]), "half-line", 32,
                  identity_shift=True)
    assert W.imag.any()
    ref = np.linalg.svd(W, compute_uv=False)[-1]
    assert twisted["sigma_min"][32] == pytest.approx(ref, rel=1e-10)


def test_hierarchy_factors_each_distinct_face_column_once(factorizations):
    """The default fibre grid is symmetric in y and the hierarchy-gauss2d-small
    kernel is even across both faces, so its +-y restrictions are bit-identical:
    each face factors 6 distinct columns of 9, at both truncations, and every
    row reads the sigma_min of its own section."""
    from conewh.presets import preset_spec
    from conewh.wiener_hopf import _generator, _singular_values, _twisted_restrictions

    spec = preset_spec("experiments", "hierarchy-gauss2d-small")
    S = symbol_preset(spec["symbol"], spec["h"], spec["T"])
    rep = hierarchy_fredholm(S, truncations=tuple(spec["N"]))
    assert factorizations == [("eigvalsh", np.float64)] * (2 * 6 * 2 * 2)
    assert _half_orders(factorizations) == [(24, 24), (48, 48)] * 12
    for axis, fr in enumerate(rep.face_reports):
        ys = [r["y"] for r in fr["rows"]]
        assert len(ys) == 9 and sorted(ys) == sorted(-y for y in ys)
        G = _twisted_restrictions(S, axis, ys)
        assert len({g.tobytes() for g in G.T}) == 6
        for r, g in zip(fr["rows"], G.T):
            assert r["sigma_min"] == {N: float(_singular_values(
                _generator(g, S.h, S.T, N, True))[0][-1]) for N in spec["N"]}


def _seeded_generator(kind, N, seed):
    """A seeded, decaying generator of the given structure, with the identity
    shift at lag 0: real and even, real, complex and conjugate-even, or
    complex with no structure.  As in the module, it is complex only when an
    imaginary part is nonzero, so at N = 1 every kind but the last is real
    and even."""
    rng = np.random.default_rng(seed)
    decay = np.exp(-np.abs(np.arange(1 - N, N)) / 8)
    if kind == "real-even":
        g = rng.standard_normal(N)
        c = np.concatenate([g[:0:-1], g])
    elif kind == "conjugate-even":
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        g[0] = g[0].real
        c = np.concatenate([g[:0:-1].conj(), g])
    elif kind == "real":
        c = rng.standard_normal(2 * N - 1)
    else:
        c = rng.standard_normal(2 * N - 1) + 1j * rng.standard_normal(2 * N - 1)
    c = c * decay
    c[N - 1] += 1.0
    return c if c.imag.any() else c.real


@pytest.mark.parametrize("N", [1, 2, 3, 47, 48, 513, 1024])
@pytest.mark.parametrize("kind", ["real-even", "real", "conjugate-even", "complex-general"])
def test_generator_dispatch_matches_dense_form(factorizations, kind, N):
    """The O(N) tests on a generator pick the form that the N x N equality
    checks pick on its section, and every factorization, the solve and the
    pairing included, reads the same bits on both paths."""
    from conewh.wiener_hopf import _singular_values, _small_singular_split, _split_form

    c = _seeded_generator(kind, N, 90 + N)
    W = _toeplitz(c)
    sigma, section, S, flip = _singular_values(c)
    calls, args = list(factorizations), list(factorizations.args)
    factorizations.clear()
    ref_sigma, _, ref_S, ref_flip = dense_section_form(W)
    assert calls == factorizations
    assert all(_same_bits(a, b) for a, b in zip(args, factorizations.args))
    assert _same_bits(sigma, ref_sigma) and flip == ref_flip
    form = kind if N > 1 or kind == "complex-general" else "real-even"
    if form == "real-even":                 # two half-order blocks, no N x N matrix
        assert section is S is None and ref_S is W
        assert calls == [("eigvalsh", np.float64)] * 2
    else:
        assert _same_bits(S, ref_S) if S is not None else ref_S is None
        if form == "real":              # the Hankel form is a view of c; no section
            assert section is None and np.shares_memory(S, c)
        else:
            assert _same_bits(section, W) and np.shares_memory(section, c)
        assert len(calls) == 1 and calls[0][0] == ("svdvals" if form == "complex-general"
                                                   else "eigvalsh")
    assert flip is (form == "real")
    # A count that takes the k = min(2, N - 1) smallest values under a gap
    # ratio of 1, so that both paths solve and pair.
    k = min(2, N - 1)
    delta_factor = (sigma[-k - 1] + sigma[-k]) / 2 / sigma[0] if k else 1e-8
    factorizations.clear()
    split = _small_singular_split(c, delta_factor, 1.0)
    calls, args = list(factorizations), list(factorizations.args)
    factorizations.clear()
    assert _split_form(*dense_section_form(W), delta_factor, 1.0) == split
    assert split[2]["count"] == k
    assert calls == factorizations
    assert all(_same_bits(a, b) for a, b in zip(args, factorizations.args))
    if k:
        assert [name for name, _ in calls][-4:] == ["solve", "qr", "qr", "svd"]



def test_real_section_factors_with_no_section_copy(monkeypatch):
    """A real section at N = 1024 is factored and solved from views of its
    generator: numpy holds under a quarter of one N x N array when eigvalsh
    and the solve start, and at most one N x N array, the section built for
    the pairing product, when the pairing svd starts.  LAPACK's own work
    arrays are not traced, so this bounds the module's arrays only."""
    import tracemalloc

    import conewh.wiener_hopf as wh

    N = 1024
    c = _seeded_rational_section(-1, N, 39)
    held = []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            held.append((name, tracemalloc.get_traced_memory()[0]))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "solve", "svd"):
        monkeypatch.setattr(wh, name, traced(name, getattr(wh, name)))
    tracemalloc.start()
    try:
        split = wh._small_singular_split(c, 1e-8, 1e3)
    finally:
        tracemalloc.stop()
    assert split[:2] == (1, 0)
    assert [name for name, _ in held] == ["eigvalsh", "solve", "svd"]
    section = N * N * 8
    assert all(size < section / 4 for name, size in held if name != "svd")
    assert held[-1][1] <= section


def test_complex_general_solve_copies_no_section(monkeypatch):
    """A complex section with no Hermitian form (an e^{3ix}-modulated rational
    section at N = 1024) is solved against W and against W^T, whose solution
    is the conjugate of W^-H applied to the real seeds: numpy's traced peak
    from the start of the near-null pairing to its first qr stays under an
    eighth of one complex N x N array (a stacked copy of W and W^H held
    three), and both blocks equal that stacked solve's to the last bit (a
    zero imaginary part may change sign under the conjugation)."""
    import tracemalloc

    import conewh.wiener_hopf as wh

    N = 1024
    c = _seeded_rational_section(-1, N, 49, modulation=3.0)
    near_null_pairs, qr = wh._near_null_pairs, wh.qr
    blocks, peaks = [], []

    def traced_pairs(*args, **kwargs):
        tracemalloc.start()
        try:
            return near_null_pairs(*args, **kwargs)
        finally:
            tracemalloc.stop()

    def traced_qr(a, *args, **kwargs):
        if not blocks:
            peaks.append(tracemalloc.get_traced_memory()[1])
        blocks.append(a)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(wh, "_near_null_pairs", traced_pairs)
    monkeypatch.setattr(wh, "qr", traced_qr)
    assert wh._small_singular_split(c, 1e-8, 1e3)[:2] == (1, 0)
    W = _toeplitz(c)
    assert W.dtype == np.complex128 and not np.array_equal(W, W.T.conj())
    U, V = blocks
    m = U.shape[1]
    seeds = np.random.default_rng(0).standard_normal((N, 2 * m))
    ref_V, ref_U = np.linalg.solve(np.stack([W, W.T.conj()]),
                                   np.stack([seeds[:, :m], seeds[:, m:]]))
    assert _same_bits(V, ref_V) and np.array_equal(U, ref_U)
    assert peaks[0] < N * N * 16 / 8

_INDEX_PRESETS = ["rational-w-1", "rational-w+1", "rational-w-2", "rational-w+2",
                  "gauss-small", "singular-zero", "zero"]


@pytest.mark.parametrize("command, preset", [("index1d", p) for p in _INDEX_PRESETS]
                         + [("hierarchy2d", "hierarchy-gauss2d-small")])
def test_structure_checks_read_the_generator_only(tmp_path, monkeypatch, command, preset):
    """On every packaged section, no structure comparison in the module reads
    more than the 2N - 1 entries of the generator, and a centrosymmetric
    section (a real even generator) is factored without an N x N array: it
    takes no window of c longer than ceil(N/2), and its traced allocations
    peak below one N x N array beyond the two buffers of numpy's ufunc loops
    (np.getbufsize() elements each)."""
    import sys
    import tracemalloc

    import conewh.wiener_hopf as wh
    from conewh.cli import RunConfig, run

    array_equal, singular_values, window_view = (np.array_equal, wh._singular_values,
                                                 wh.sliding_window_view)
    sections, compared, windows, peaks = [], [], [], []
    factoring = [None]                  # N of the centrosymmetric section in the dispatch

    def counted_equal(a, b, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == wh.__name__:
            compared.append((max(np.size(a), np.size(b)), len(sections[-1])))
        return array_equal(a, b, *args, **kwargs)

    def counted_window_view(x, window_shape, *args, **kwargs):
        windows.append((factoring[0], int(np.max(window_shape))))
        return window_view(x, window_shape, *args, **kwargs)

    def traced_singular_values(c):
        sections.append(c)
        if np.iscomplexobj(c) or not array_equal(c, c[::-1]):
            return singular_values(c)
        factoring[0] = N = (len(c) + 1) // 2
        tracemalloc.start()
        try:
            out = singular_values(c)
            peaks.append((N, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
            factoring[0] = None
        return out

    monkeypatch.setattr(np, "array_equal", counted_equal)
    monkeypatch.setattr(wh, "_singular_values", traced_singular_values)
    monkeypatch.setattr(wh, "sliding_window_view", counted_window_view)
    assert run(RunConfig(command, preset, str(tmp_path), None)) == 0
    assert sections and compared
    assert all(entries <= width for entries, width in compared)
    even = preset in ("gauss-small", "singular-zero", "zero") or command == "hierarchy2d"
    assert len(peaks) == (len(sections) if even else 0)
    buffers = 2 * np.getbufsize() * 8
    assert all(peak - buffers < N * N * 8 for N, peak in peaks)
    assert all(length <= (N + 1) // 2 for N, length in windows if N is not None)
    if even:                            # no near-null triple, so no section built later
        assert windows and all(N is not None for N, _ in windows)


_FACE_KERNELS = [
    pytest.param(lambda x, y: np.exp(-np.pi * (x**2 + y**2)), id="even"),
    pytest.param(lambda x, y: np.exp(-np.pi * (x**2 + (y - 0.3)**2)), id="shifted"),
    pytest.param(lambda x, y: np.exp(-np.pi * (x**2 + y**2)) * np.exp(2j * np.pi * 0.3 * x),
                 id="complex-hermitian"),
    pytest.param(lambda x, y: (np.exp(-np.pi * ((x - 0.2)**2 + 2 * (y + 0.1)**2))
                               * np.exp(1j * (0.7 * x - 1.3 * y + 0.4 * x * y))),
                 id="complex-general"),
]


@pytest.mark.parametrize("f", _FACE_KERNELS)
def test_batched_restrictions_match_direct_sum(f):
    """Each folded, batched column equals the direct-sum restriction to
    rounding, and each row's sigma_min the dense SVD of its section within
    N * eps * sigma_max."""
    from conewh.wiener_hopf import _twisted_restrictions

    S = make_symbol(f, 2, 0.1, 12.0)
    M = (S.npoints - 1) // 2
    y_values = [-2.3, -0.5, 0.0, S.freqs[M + 7], 1.9]
    truncations = (16, 48)
    rep = hierarchy_fredholm(S, truncations=truncations, y_values=y_values)
    for axis, fr in enumerate(rep.face_reports):
        G = _twisted_restrictions(S, axis, y_values)
        # a sum of n terms rounds to within n * eps of the sum of their magnitudes
        tol = S.npoints * np.finfo(float).eps * S.h * np.abs(S.kernel).sum(axis=1 - axis).max()
        for j, (y, row) in enumerate(zip(sorted(y_values), fr["rows"])):
            ref = direct_twisted_restriction(S, axis, y).kernel
            g = face_symbol_twisted(S, axis, y)
            for col in (G[:, j], g.kernel):
                assert np.abs(col - ref).max() <= tol
            for N in truncations:
                W = wh_matrix(g, "half-line", N, identity_shift=True)
                s = np.linalg.svd(W.astype(complex), compute_uv=False)
                assert abs(row["sigma_min"][N] - s[-1]) <= N * np.finfo(float).eps * s[0]


def test_restrictions_are_real_for_even_and_conjugate_symmetric_for_hermitian_kernels():
    """The fold gives exactly real columns for a kernel even across the face,
    and a kernel with f(-z) = conj f(z) gives g_y(-t) = conj g_y(t) exactly,
    so its sections are Hermitian."""
    from conewh.wiener_hopf import _twisted_restrictions

    even = make_symbol(_FACE_KERNELS[0].values[0], 2, 0.1, 12.0)
    herm = make_symbol(_FACE_KERNELS[2].values[0], 2, 0.1, 12.0)
    for axis in (0, 1):
        assert not _twisted_restrictions(even, axis, [-1.1, 0.0, 0.4]).imag.any()
    for axis in (0, 1):
        G = _twisted_restrictions(herm, axis, [-1.1, 0.0, 0.4])
        assert np.array_equal(G[::-1], G.conj())
        # across the modulated axis the sum is the (real) Gaussian transform
        assert bool(G.imag.any()) is (axis == 0)


def test_restriction_block_gates():
    """The batched restriction keeps the gates of make_symbol: a column that
    overflows is a non-finite sample, and a constant floor below the 2-D decay
    tolerance adds up to a restriction tail above it.  make_symbol itself
    rejects a kernel whose L1 norm overflows, so the overflowing kernel is
    put on a grid that make_symbol built from zeros."""
    def disc(x, y):
        return np.where(x**2 + y**2 < 4, 1e308, 0.0)

    with pytest.raises(NonFiniteKernelError, match=r"kernel L1 norm h\^2 \* sum \|f\| is inf"):
        make_symbol(disc, 2, 0.1, 12.0)
    huge = make_symbol(lambda x, y: 0 * x * y, 2, 0.1, 12.0)
    huge.kernel = disc(huge.xs[:, None], huge.xs)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteKernelError, match=r"kernel sample at t = -1.9, y = 0 "):
        hierarchy_fredholm(huge, truncations=(16, 32), y_values=[0.0])
    floor = make_symbol(lambda x, y: 9e-9 + 0.3 * np.exp(-np.pi * (x**2 + y**2)), 2, 0.1, 12.0)
    with pytest.raises(KernelWindowError, match="not window-compatible"):
        hierarchy_fredholm(floor, truncations=(16, 32))
    with pytest.raises(KernelWindowError, match="not window-compatible"):
        face_symbol_twisted(floor, "e2", 0.0)


# -- face restrictions -------------------------------------------------------------


@pytest.fixture(scope="module")
def g2d():
    return symbol_preset("gauss2d", 0.1, 12.0)


def test_face_symbol_separable_factor(g2d):
    g = face_symbol(g2d, "e1")
    scale = g2d.h * np.sum(gauss(g2d.xs))  # integral of the other factor
    assert np.abs(g.kernel - scale * gauss(g.xs)).max() < 1e-12


def test_face_symbol_gaussian_closed_form(g2d):
    g = face_symbol(g2d, "e2")
    assert np.abs(g.kernel - gauss(g.xs)).max() < 1e-8  # analytic marginal


def test_face_symbol_zero():
    S = make_symbol(lambda x, y: np.zeros_like(x), 2, 0.1, 12.0)
    assert np.abs(face_symbol(S, "e1").kernel).max() == 0.0


def test_face_symbol_fourier_slice(g2d):
    M = (g2d.npoints - 1) // 2
    for axis, sl in (("e1", g2d.fhat[:, M]), ("e2", g2d.fhat[M, :])):
        g = face_symbol(g2d, axis)
        assert np.abs(g.fhat - sl).max() < 1e-8


def test_face_symbol_twisted_slice(g2d):
    M = (g2d.npoints - 1) // 2
    for k in (5, 17, 40):
        y = g2d.freqs[M + k]
        g = face_symbol_twisted(g2d, "e1", y)
        assert np.abs(g.fhat - g2d.fhat[:, M + k]).max() < 1e-8


def test_face_symbol_unsupported_orientation(g2d, quarter):
    from conewh.cones import exposed_face

    diag = exposed_face(quarter, (1, 1))
    with pytest.raises(DimensionMismatchError):
        face_symbol(g2d, diag)


def test_face_symbol_convolution_homomorphism(g2d):
    other = symbol_preset("gauss2d-small", 0.1, 12.0)
    lhs = face_symbol(convolve_kernels(g2d, other), "e1")
    rhs = convolve_kernels(face_symbol(g2d, "e1"), face_symbol(other, "e1"))
    assert np.abs(lhs.kernel - rhs.kernel).max() < 1e-6


def test_rep_L_untwisted_is_face_operator(g2d):
    rng = np.random.default_rng(0)
    h_in = rng.normal(size=64) + 1j * rng.normal(size=64)
    out = rep_L(g2d, "e1", 0.0, h_in)
    ref = wh_matrix(face_symbol(g2d, "e1"), "half-line", 64) @ h_in
    assert np.abs(out - ref).max() < 1e-6


def test_rep_L_zero_kernel():
    S = make_symbol(lambda x, y: np.zeros_like(x), 2, 0.1, 12.0)
    out = rep_L(S, "e1", 0.3, np.ones(32))
    assert np.abs(out).max() == 0.0


def test_rep_L_matches_twisted_matrix(g2d):
    rng = np.random.default_rng(1)
    h_in = rng.normal(size=64) + 1j * rng.normal(size=64)
    M = (g2d.npoints - 1) // 2
    y = g2d.freqs[M + 11]
    out = rep_L(g2d, "e1", y, h_in)
    ref = wh_matrix(face_symbol_twisted(g2d, "e1", -y), "half-line", 64) @ h_in
    assert np.abs(out - ref).max() < 1e-6


def test_rep_L_modulated_closed_form(g2d):
    """Gaussian kernel, fibre at y: the twisted restriction matches the
    analytic modulation identity ghat_y(xi) = fhat(xi, y)."""
    y = 1.0
    g = face_symbol_twisted(g2d, "e1", y)
    expected = gauss(g.freqs) * gauss(np.array([y]))
    assert np.abs(g.fhat - expected).max() < 1e-8


def test_rep_L_halfline_regular(g2d):
    S1 = make_symbol(gauss, 1, 0.1, 12.0)
    rng = np.random.default_rng(2)
    h_in = rng.normal(size=32)
    out = rep_L(S1, None, 0.0, h_in)
    ref = wh_matrix(S1, "half-line", 32) @ h_in
    assert np.abs(out - ref).max() < 1e-12


# -- triviality at infinity ---------------------------------------------------------


def test_face_family_trivial_at_infinity():
    """A perturbation compactly supported in frequency does not change the
    face-family margins beyond its frequency support."""
    h, T = 0.1, 12.0
    base = symbol_preset("gauss2d-small", h, T)
    # bump supported on |xi| <= y0 in both frequency axes, defined spectrally
    y0 = 1.0
    F1, F2 = np.meshgrid(base.freqs, base.freqs, indexing="ij")
    bump = 0.05 * np.where((np.abs(F1) <= y0) & (np.abs(F2) <= y0),
                           np.cos(np.pi * F1 / (2 * y0)) ** 2
                           * np.cos(np.pi * F2 / (2 * y0)) ** 2, 0.0)
    pk = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(bump))) / h**2
    # assembled directly: an exactly frequency-supported perturbation cannot
    # also pass the spatial decay gate of make_symbol
    from conewh.wiener_hopf import SymbolGrid

    pert = SymbolGrid(2, h, T, base.xs, base.kernel + pk, base.fhat + bump,
                      base.freqs, name="perturbed")
    M = (base.npoints - 1) // 2
    for k in (60, 90):  # fibre frequencies beyond y0
        y = base.freqs[M + k]
        assert abs(y) > y0
        for axis in ("e1", "e2"):
            gb = face_symbol_twisted(base, axis, y)
            gp = face_symbol_twisted(pert, axis, y)
            from scipy.linalg import svdvals

            for N in (32, 64):
                sb = svdvals(wh_matrix(gb, "half-line", N, identity_shift=True))[-1]
                sp = svdvals(wh_matrix(gp, "half-line", N, identity_shift=True))[-1]
                assert abs(sb - sp) < 1e-8


# -- hierarchy report ----------------------------------------------------------------


def test_hierarchy_identity():
    S = make_symbol(lambda x, y: np.zeros_like(x), 2, 0.1, 12.0)
    rep = hierarchy_fredholm(S, truncations=(32, 64))
    assert rep.verdict == "hierarchy-fredholm"
    assert rep.symbol_nonvanishing


def test_hierarchy_singular_face():
    S = symbol_preset("separable-singular-face", 0.1, 12.0)
    rep = hierarchy_fredholm(S, truncations=(48, 96))
    assert rep.verdict == "not-hierarchy-fredholm"
    assert "e1" in rep.diagnostics["failing_faces"]
    e1 = next(fr for fr in rep.face_reports if fr["face"] == "e1")
    row0 = next(r for r in e1["rows"] if r["y"] == 0.0)
    assert row0["sigma_min"][96] < 0.5 * row0["sigma_min"][48]


def test_hierarchy_face_verdicts_do_not_depend_on_truncation_order():
    """Stability compares the smallest truncation with the largest, whatever
    the order they are given in: reversed, the singular e1 face still fails."""
    S = symbol_preset("separable-singular-face", 0.1, 12.0)
    forward = hierarchy_fredholm(S, truncations=(48, 96))
    reverse = hierarchy_fredholm(S, truncations=(96, 48))
    assert [(fr["face"], fr["stable"], fr["ok"], fr["decreasing_at"])
            for fr in reverse.face_reports] == [
        (fr["face"], fr["stable"], fr["ok"], fr["decreasing_at"])
        for fr in forward.face_reports]
    assert reverse.verdict == forward.verdict == "not-hierarchy-fredholm"
    assert reverse.diagnostics["failing_faces"] == forward.diagnostics["failing_faces"]


def test_hierarchy_neumann_certificate():
    S = symbol_preset("gauss2d-small", 0.1, 12.0)
    rep = hierarchy_fredholm(S, truncations=(48, 96))
    assert rep.verdict == "hierarchy-fredholm"
    l1 = S.h**2 * np.abs(S.kernel).sum()
    assert abs(rep.diagnostics["neumann_margin"] - (1.0 - l1)) < 1e-8
    for fr in rep.face_reports:
        assert fr["margin"] > rep.diagnostics["neumann_margin"] - 1e-9


def test_hierarchy_neumann_margin_at_rounding_level():
    """A unit-mass kernel whose sampled L1 norm rounds just below 1 has a
    vanishing symbol; a Neumann margin of 1e-16 must not certify it."""
    from conewh.presets import symbol_from_expression

    S = symbol_from_expression("-0.8*exp(-pi*(0.8*x)**2)*exp(-pi*y**2)", 2, 0.1, 12.0)
    rep = hierarchy_fredholm(S, truncations=(48, 96), y_values=[0.0])
    assert 0 < rep.diagnostics["neumann_margin"] < 1e-12
    assert not rep.symbol_nonvanishing
    assert rep.verdict == "not-hierarchy-fredholm"


# -- expression symbols and cone transforms ------------------------------------


def test_symbol_from_expression():
    from conewh.presets import symbol_from_expression

    S = symbol_from_expression("0.5*exp(-pi*x**2)", 1, 0.05, 10.0)
    assert np.abs(S.fhat - 0.5 * gauss(S.freqs)).max() < 1e-8
    S2 = symbol_from_expression("exp(-pi*(x**2 + y**2))", 2, 0.1, 12.0)
    assert S2.dim == 2


def test_bad_expression_rejected():
    from conewh.errors import ConfigError
    from conewh.presets import symbol_from_expression

    with pytest.raises(ConfigError):
        symbol_from_expression("__import__('os')", 1, 0.05, 10.0)


# The expression forms the benchmark workloads and set-up probe generate.
_EXPRESSION_FORMS = [
    ("where(x > 0, -2*1.250000*exp(-1.250000*abs(x)), where(x == 0, -1.250000, 0*x))", 1),
    ("where(x < 0, -2*1.250000*exp(-1.250000*abs(x)), where(x == 0, -1.250000, 0*x))", 1),
    ("where(x > 0, 4*1.5*exp(-1.5*abs(x))*(1.5*x - 1), where(x == 0, -2*1.5, 0*x))", 1),
    ("where(x < 0, 4*1.5*exp(-1.5*abs(x))*(-1.5*x - 1), where(x == 0, -2*1.5, 0*x))", 1),
    ("where(x > 0, -0.4*exp(-1.2*abs(x)), where(x < 0, 0.3*exp(-1.7*abs(x)), "
     "-0.05 + 0*x))", 1),
    ("-0.350000*exp(-pi*x**2)", 1),
    ("-0.950000*exp(-pi*(0.950000*x)**2)", 1),
    ("0.3*exp(-40*x**2)", 1),
    ("1.700000*exp(-pi*(x**2+y**2))", 2),
    ("-1.100000*exp(-pi*(1.100000*x)**2)*exp(-pi*y**2)", 2),
    ("0.3*exp(-100*(x**2+y**2))", 2),
    ("(cos(2*pi*x) + sin(x)*sqrt(abs(x)) / e) * exp(-pi*x**2) + 0*(x % 7) + 0*(x // 2)",
     1),
]


@pytest.mark.parametrize("expr, dim", _EXPRESSION_FORMS)
def test_allowed_expressions_sample_as_plain_eval(expr, dim):
    """The whitelist accepts every generated form, and the samples equal those
    of a plain restricted eval bit for bit."""
    from conewh.presets import symbol_from_expression

    h, T = (0.05, 52.0) if dim == 1 else (0.1, 12.0)
    S = symbol_from_expression(expr, dim, h, T)
    ns = {"exp": np.exp, "cos": np.cos, "sin": np.sin, "sqrt": np.sqrt,
          "abs": np.abs, "where": np.where, "pi": np.pi, "e": np.e}
    if dim == 1:
        ns["x"] = S.xs
    else:
        ns["x"], ns["y"] = np.meshgrid(S.xs, S.xs, indexing="ij")
    ref = np.asarray(eval(expr, {"__builtins__": {}}, ns), dtype=complex)
    assert np.array_equal(S.kernel, ref)


@pytest.mark.parametrize("expr, dim", [
    ("().__class__.__name__ and 0*x", 1),
    ("x.real", 1),
    ("(lambda: 0)()", 1),
    ("[x][0]", 1),
    ("x if True else 0", 1),
    ("x & 1", 1),
    ("exp(x, out=x)", 1),
    ("pi(x)", 1),
    ("exp.__name__", 1),
    ("y * x", 1),
    ("z * x", 2),
    ("'x'", 1),
    ("True * x", 1),
    ("not x", 1),
    ("x is 0", 1),
    (5, 1),
    ("exp(", 1),
])
def test_disallowed_expressions_rejected(expr, dim):
    from conewh.errors import ConfigError
    from conewh.presets import symbol_from_expression

    with pytest.raises(ConfigError, match="bad symbol expression"):
        symbol_from_expression(expr, dim, 0.1, 12.0)


def test_cone_transform_resamples_kernel():
    """A 2-D simplicial cone reduces to the quarter plane through its
    generator matrix, with the Jacobian factor on the kernel."""
    M = np.array([[1.0, 1.0], [0.0, 1.0]])  # columns are the cone generators
    detM = np.linalg.det(M)

    def f(x, y):
        return np.exp(-np.pi * (x**2 + y**2))

    S = cone_transform_symbol(f, 0.1, 12.0, (M, detM))
    X1, X2 = np.meshgrid(S.xs, S.xs, indexing="ij")
    expected = abs(detM) * f(M[0, 0] * X1 + M[0, 1] * X2, M[1, 0] * X1 + M[1, 1] * X2)
    assert np.abs(S.kernel - expected).max() == 0.0
    W = wh_matrix(S, "quarter-plane", 6)
    assert W.shape == (36, 36)


def test_cone_section_transform(skew):
    M, detM = cone_section_transform(skew)
    cols = sorted(map(tuple, M.T.tolist()))
    assert cols == [(0.0, 1.0), (1.0, 1.0)] or cols == [(1.0, 0.0), (1.0, 1.0)]
    assert abs(abs(detM) - 1.0) < 1e-12
    S = cone_transform_symbol(lambda x, y: np.exp(-np.pi * (x**2 + y**2)), 0.1, 12.0,
                              (M, detM))
    assert wh_matrix(S, "quarter-plane", 4).shape == (16, 16)
