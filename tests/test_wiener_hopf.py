"""Symbols, finite sections, windings, indices, face restrictions, hierarchy."""

import json
from pathlib import Path

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
    blaschke_power_kernel,
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


GOLDEN_SPECS = Path(__file__).resolve().parent / "golden" / "specs"


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


def test_index_and_face_errors_name_what_they_got():
    """Each domain error of the index and face entry points names the
    dimension, truncations or face it was given."""
    S1 = make_symbol(gauss, 1, 0.1, 12.0)
    S2 = symbol_preset("gauss2d-small", 0.1, 12.0)
    with pytest.raises(DimensionMismatchError, match="symbol curve is 1-D only, got a 2-D one"):
        symbol_curve(S2)
    with pytest.raises(IndexUnresolvedError, match=r"need two truncation sizes, got 1: \[64\]"):
        numerical_index(S1, truncations=(64,))
    with pytest.raises(DimensionMismatchError, match="classical index is 1-D, got a 2-D one"):
        classical_index(S2)
    with pytest.raises(DimensionMismatchError,
                       match="the axis 0/1 or 'e1'/'e2' only, got 'e3'"):
        face_symbol(S2, "e3")
    with pytest.raises(DimensionMismatchError,
                       match="face symbol needs a 2-D symbol, got a 1-D one"):
        face_symbol_twisted(S1, "e1", 0.0)
    with pytest.raises(DimensionMismatchError,
                       match="hierarchy report needs a 2-D symbol, got a 1-D one"):
        hierarchy_fredholm(S1)


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


def test_winding_errors_name_their_numbers():
    """Each winding error keeps its prefix and category and names its numbers:
    the least |curve| against the threshold 1e-8 * max(scale, 1) and the scale
    max |curve|, the closure gap against its tolerance, and the phase total in
    turns with its distance from the nearest integer."""
    theta = np.linspace(0, 2 * np.pi, 100)
    cases = [
        (1e-10 * np.exp(1j * theta), "winding undefined: least |curve| = 1e-10 <= 1e-08 = "
                                     "1e-08 * max(scale, 1), scale = 1e-10"),
        ([1e3, 5e-6, 1e3], "winding undefined: least |curve| = 5e-06 <= 1e-05 = "
                           "1e-08 * max(scale, 1), scale = 1e+03"),
        (np.exp(1j * theta[:50]), "curve does not close: |curve[0] - curve[-1]| = 2 > 1e-06 = "
                                  "1e-06 * max(scale, 1)"),
        ([2e-7, 1.0, 2e-7j], "phase increment is not an integer multiple of 2*pi: 0.25 turns, "
                             "0.25 from 0, above 0.05"),
    ]
    for curve, message in cases:
        with pytest.raises(WindingUndefinedError) as err:
            winding_number(curve)
        assert str(err.value) == message and err.value.category == "winding-undefined"


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
    sig = {N: sec.sigma_min for N, sec in rep.sections.items()}
    assert sig[64] > sig[128] > sig[256]
    assert all(sec.count is sec.gap is sec.dim_ker is None for sec in rep.sections.values())


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


def _stack(a):
    """The matrices of a factorization's argument, one matrix or a stack of
    them, as a stack."""
    return a.reshape(int(np.prod(a.shape[:-2])), *a.shape[-2:])


class _Calls(list):
    """(routine, dtype) of each factorization call, with its argument in args:
    one matrix, or a stack of them that numpy factors one by one."""

    def __init__(self):
        super().__init__()
        self.args = []
        self.depth = 0

    def clear(self):
        super().clear()
        self.args.clear()

    def matrices(self, routine=None):
        """Every matrix factored by routine (by any routine when None), in
        order: a stacked argument gives its matrices in stack order."""
        return [m for (name, _), a in zip(self, self.args) if routine in (None, name)
                for m in _stack(a)]

    def exactly_hermitian(self, routine):
        """Whether every matrix routine factored equals its conjugate transpose."""
        return all(np.array_equal(a, a.conj().T) for a in self.matrices(routine))


@pytest.fixture
def factorizations(monkeypatch):
    """(routine, dtype) of every factorization call the wiener_hopf module
    makes: its eigvalsh, values-only svdvals, and the eigh or full svd of the
    near-null vectors, each bound in the module, with the argument of each
    call, so that the number and order of the matrices in a stacked argument
    are recorded too.  A factorization made inside a counted one (the svd that
    svdvals calls) is part of it, not another."""
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

    for name in ("svdvals", "svd", "eigvalsh", "eigh"):
        monkeypatch.setattr(wh, name, counted(name, getattr(wh, name)))
    return calls


def _attribution(dtype=np.float64):
    """The factorization that attributes k near-null vectors after their eigh
    or svd: one eigvalsh of the stack of the two k x k front-minus-back mass
    matrices, right side then left."""
    return [("eigvalsh", dtype)]


def _same_bits(a, b):
    """Whether two arrays hold the same dtype, shape and bytes."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _half_orders(calls):
    """The orders of the half-order blocks of each centrosymmetric split, one
    (+ block, - block) pair per section: the eigvalsh calls come in pairs, a
    stack of the + blocks of one or more sections, then a stack of their
    - blocks."""
    stacks = [_stack(a) for (name, _), a in zip(calls, calls.args) if name == "eigvalsh"]
    return [(p.shape[-1], q.shape[-1]) for plus, minus in zip(stacks[::2], stacks[1::2])
            for p, q in zip(plus, minus, strict=True)]


_TWO_SIDED = "where(x > 0, -4*exp(-2*abs(x)), where(x == 0, -2, 0*x)) + 0.3*exp(-pi*x**2)"


def _two_sided_symbol(h, modulation=0.0):
    """The kernel of the index1d-two-sided-rational golden, the rational
    kernel of winding +1 and pole scale 2 plus a Gaussian, sampled at step h
    on T = 52: its sections are two-sided, not triangular, so the near-null
    vectors come from an eigensolve.  Times e^{i m x} for a nonzero modulation m,
    its sections are complex with no Hermitian form."""
    from conewh.presets import symbol_from_expression

    expr = f"({_TWO_SIDED})*exp({modulation}j*x)" if modulation else _TWO_SIDED
    return symbol_from_expression(expr, 1, h, 52.0)


def test_classical_index_one_factorization_per_truncation(factorizations):
    """One factorization per truncation, chosen by the section's structure,
    plus, for a two-sided section with near-null singular triples, one eigh
    of the same view of its generator and the attribution of its k vectors;
    the sigma_min trend of a non-Fredholm symbol takes the same one
    factorization per truncation."""
    # A real Toeplitz section that is not symmetric is persymmetric: its
    # column-reversed form is symmetric and goes to eigvalsh for the count,
    # then to eigh for the near-null vectors of both sides.
    real_flipped, real_eigh = ("eigvalsh", np.float64), ("eigh", np.float64)
    S = _two_sided_symbol(0.2)
    rep = classical_index(S, truncations=(128, 256))
    assert rep.numerical_index == rep.index == -1
    assert [sec.count for sec in rep.sections.values()] == [1, 1]
    assert factorizations == ([real_flipped, real_eigh] + _attribution()) * 2
    assert factorizations.exactly_hermitian("eigvalsh")
    assert factorizations.exactly_hermitian("eigh")
    for N, eig_arg, vec_arg, mass_arg in zip((128, 256), factorizations.args[::3],
                                             factorizations.args[1::3],
                                             factorizations.args[2::3]):
        W = wh_matrix(S, "half-line", N, identity_shift=True)
        assert not np.array_equal(W, W.T)
        # the index pipeline factors a stack of one section
        assert eig_arg.shape == (1, N, N)
        assert np.array_equal(eig_arg[0], W[:, ::-1]) and np.array_equal(vec_arg, W[:, ::-1])
        assert vec_arg.base is not None                     # a view: no section is built
        assert mass_arg.shape == (2, 1, 1)                  # k = 1 on each side
        # sigma_min is the least |lambda| of that one factorization
        assert rep.sections[N].sigma_min == np.abs(np.linalg.eigvalsh(eig_arg)).min()
    assert list(rep.sections) == [128, 256]

    factorizations.clear()
    # Even kernels give symmetric sections, which also equal their reversal:
    # their singular values are the |lambda| of two half-order blocks.
    rep = classical_index(symbol_preset("gauss-small", 0.05, 52.0), truncations=(64, 128))
    assert rep.verdict == "fredholm"
    assert [sec.dim_ker for sec in rep.sections.values()] == [0, 0]
    assert factorizations == [("eigvalsh", np.float64)] * 4
    assert factorizations.exactly_hermitian("eigvalsh")
    assert _half_orders(factorizations) == [(32, 32), (64, 64)]

    factorizations.clear()
    rep = classical_index(symbol_preset("singular-zero", 0.05, 30.0), truncations=(64, 128))
    assert rep.verdict == "non-fredholm"
    assert factorizations == [("eigvalsh", np.float64)] * 4
    assert _half_orders(factorizations) == [(32, 32), (64, 64)]


def test_one_sided_index_makes_one_factorization_per_truncation(factorizations):
    """A one-sided kernel gives triangular sections, which split by their
    structure alone: the eigvalsh that counts the near-null values is the
    only factorization of each truncation, no vector is computed, and the
    counts are the dense oracle's."""
    S = symbol_preset("rational-w+1", 0.2, 52.0)
    rep = classical_index(S, truncations=(128, 256))
    assert rep.numerical_index == rep.index == -1
    assert factorizations == [("eigvalsh", np.float64)] * 2
    assert [a.shape for a in factorizations.args] == [(1, 128, 128), (1, 256, 256)]
    for N, sec in rep.sections.items():
        ref = complex_singular_split(wh_matrix(S, "half-line", N, identity_shift=True))
        assert (sec.count, sec.dim_ker, sec.dim_coker) == (
            ref["count"], ref["dim_ker"], ref["dim_coker"]) == (1, 0, 1)


@pytest.mark.parametrize("name", ["rational-w-1", "rational-w+1", "rational-w-2",
                                  "rational-w+2", "gauss-small"])
def test_real_split_matches_complex_oracle(name):
    """The real-arithmetic split agrees with a dense SVD with vectors of the
    same section."""
    from conewh.wiener_hopf import _split

    S = symbol_preset(name, 0.05, 52.0)
    c = _section(S, 512)
    W = wh_matrix(S, "half-line", 512, identity_shift=True)
    assert not W.imag.any() and c.dtype == np.float64
    sec = _split(c, 1e-8, 1e3)
    dim_ker, dim_coker = sec.dim_ker, sec.dim_coker
    ref = complex_singular_split(W)
    assert (sec.count, dim_ker, dim_coker) == (ref["count"], ref["dim_ker"], ref["dim_coker"])
    assert sec.sigma_max == pytest.approx(ref["sigma_max"], rel=1e-10)
    k = sec.count
    if name == "gauss-small":
        assert k == 0 and sec.gap is None
        return
    # The gap divides by a singular value at the rounding floor, which any
    # backward-stable SVD fixes only to about N * eps * sigma_max absolutely.
    floor = 512 * np.finfo(float).eps * ref["sigma_max"] / ref["sigma"][-k]
    assert k > 0 and sec.gap == pytest.approx(ref["gap"], rel=1e-10 + floor)


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


def _zero_pivot_section(N=513):
    """The generator with a zero diagonal, 1 at lag -1 and 2 at lag +1: at odd
    N its tridiagonal section is exactly singular, and LU with partial
    pivoting meets one exactly zero pivot; the dense SVD gives it a singular
    value of exactly 0 at N = 5 and 7.  The null vector grows by -2 every
    two rows toward the back and the left one decays from the front: one
    cokernel-type triple at sigma = 0."""
    c = np.zeros(2 * N - 1)
    c[N - 2], c[N] = 1.0, 2.0
    return c


def _planted_section(l1, l2, l3, modulation=0.0):
    """The real even generator (c, b, a, b, c) of order N = 3 whose section
    has the eigenvalues l1, l2 of its + block [[a + c, sqrt 2 b],
    [sqrt 2 b, a]] and l3 = a - c of its - block (_centrosymmetric_block):
    the trace and the determinant of the + block fix a and b^2 >= 0.  Times
    e^{i m lag} for a nonzero modulation m it is conjugate-even, a Hermitian
    section unitarily similar to the real one.  Near-null values of both
    signs pair up: rounding mixes their two triples, which moves the front
    masses of the right and left vectors apart (u = +-v for an exact
    Hermitian triple)."""
    a = (l1 + l2 + l3) / 3
    c = a - l3
    g = np.array([c, np.sqrt((a * (a + c) - l1 * l2) / 2), a])
    g = np.concatenate([g, g[-2::-1]])
    return g * np.exp(1j * modulation * np.arange(-2, 3)) if modulation else g


def _kernel_and_cokernel_section():
    """A generator of order N = 4 with one kernel-type and one cokernel-type
    near-null triple, at 1e-11 and 1.2e-11.  A Toeplitz section is
    persymmetric, so the left vector of a simple triple is +-J times its
    right one, and the triple is kernel-type iff its right vector has at
    least half its mass on the front half.  The rank-2 section
    0.05 * 0.3^(i - j) + 0.1 * 2.5^(i - j) has a 2-dimensional null space;
    its vectors of most and least front mass (fractions 0.995 and 0.016)
    are the right vectors of the two triples, planted by the least-norm
    Toeplitz perturbation E with v^T J E w = 1e-11, 1.2e-11 and 0 on the
    pairs (v1, v1), (v2, v2) and (v1, v2): J E is Hankel, so each is the
    dot product of E's generator with the reversed convolution of v and w.
    Coburn's lemma keeps this mix out of the sections of a Fredholm symbol
    as N grows; here it is planted at one N."""
    lags = np.arange(-3, 4)
    c = 0.05 * 0.3**lags + 0.1 * 2.5**lags
    null = np.linalg.svd(_toeplitz(c))[2][2:].T
    front = np.diag([1.0, 1.0, 0.0, 0.0])
    least, most = (null @ np.linalg.eigh(null.T @ front @ null)[1]).T
    rows = [np.convolve(v, w)[::-1] for v, w in ((most, most), (least, least), (most, least))]
    return c + np.linalg.lstsq(np.array(rows), [1e-11, 1.2e-11, 0.0], rcond=None)[0]


_ORACLE_CASES = (
    [pytest.param(lambda w=w, N=N: _seeded_rational_section(w, N, 40 + w),
                  id=f"rational-w{w:+d}-N{N}")
     for w in (-2, -1, 0, 1, 2) for N in (512, 1024)]
    + [pytest.param(lambda w=w: _seeded_rational_section(w, 512, 50 + w, modulation=3.0),
                    id=f"modulated-w{w:+d}-N512") for w in (-2, -1, 1)]
    + [pytest.param(_kernel_and_cokernel_section, id="kernel-and-cokernel"),
       pytest.param(_zero_pivot_section, id="zero-pivot"),
       pytest.param(lambda: _zero_pivot_section(5), id="zero-pivot-N5"),
       pytest.param(lambda: _zero_pivot_section(7), id="zero-pivot-N7"),
       pytest.param(lambda: _zero_pivot_section(65), id="zero-pivot-N65"),
       # 1e-9 under a gap of 15 < 1e3, complex with no Hermitian form (a
       # phase times a real even generator)
       pytest.param(lambda: np.exp(0.4j) * _planted_section(1.0, 1.5e-8, 1e-9),
                    id="gap-below-ratio")]
    # resolved: gap 5e10 above 1e-11 and -2e-11; unresolved: 1.5e-8 sits 3x
    # above -5e-9
    + [pytest.param(lambda v=v, m=m: _planted_section(1.0, *v, modulation=m),
                    id=f"{'hermitian' if m else 'symmetric'}-{case}")
       for m in (0.0, 0.7)
       for case, v in (("resolved", (1e-11, -2e-11)),
                       ("gap-below-ratio", (1.5e-8, -5e-9)))])


@pytest.mark.parametrize("section", _ORACLE_CASES)
def test_split_matches_complex_oracle(section):
    """The split (eigvalsh or values-only SVD, plus one eigh or svd with
    vectors, or the structure alone of a triangular section: the one-sided
    rational and modulated cases) agrees with a dense SVD with vectors on the
    count, the kernel/cokernel attribution and the gap verdict."""
    from conewh.wiener_hopf import _split

    c = section()
    ref = complex_singular_split(_toeplitz(c))
    if ref["gap"] is not None and ref["gap"] < 1e3:
        with pytest.raises(IndexUnresolvedError):
            _split(c, 1e-8, 1e3)
        return
    sec = _split(c, 1e-8, 1e3)
    dim_ker, dim_coker = sec.dim_ker, sec.dim_coker
    assert (sec.count, dim_ker, dim_coker) == (ref["count"], ref["dim_ker"], ref["dim_coker"])
    assert (sec.gap is not None) == (ref["gap"] is not None)


def _golden_section(name, N):
    """The generator of I + W_N for the expression kernel of a golden spec."""
    from conewh.presets import symbol_from_expression

    spec = json.loads((GOLDEN_SPECS / f"{name}.json").read_text())
    return _section(symbol_from_expression(spec["symbol"]["expr"], 1, spec["h"], spec["T"]), N)


def _planted_two_sided_section(w, a, modulation):
    """The generator at N = 512 of the kernel of b_a^w plus 0.3 e^{-pi x^2}
    (times e^{i m x} for a nonzero modulation m): two-sided, and its symbol
    still winds w times, since the Gaussian's symbol stays below 0.3 < 1 =
    |b_a^w| on the line; its sections have |w| near-null values."""
    from conewh.presets import symbol_from_expression

    expr = f"({blaschke_power_kernel(a, w)} + 0.3*exp(-pi*x**2))*exp({modulation}j*x)"
    return _section(symbol_from_expression(expr, 1, 0.05, 52.0), 512)


_NEAR_NULL_CASES = (
    [pytest.param(lambda name=name, N=N: _golden_section(name, N), None, id=f"{name}-N{N}")
     for name in ("index1d-two-sided-rational", "index1d-two-sided-modulated")
     for N in (512, 1024)]
    + [pytest.param(lambda w=w, a=a, m=m: _planted_two_sided_section(w, a, m), w,
                    id=f"blaschke-w{w:+d}-a{a:g}-{'modulated' if m else 'real'}")
       for w, a in ((1, 2), (-1, 2), (2, 2), (-2, 2), (3, 4), (-3, 4))
       for m in (0.0, 3.0)])


@pytest.mark.parametrize("section, winding", _NEAR_NULL_CASES)
def test_near_null_vectors_are_near_null(section, winding):
    """Every vector _near_null_pairs returns for a two-sided section (eigh of
    W J for a real one, a full svd for a modulated one) is near-null: the
    residuals ||W v_j|| and ||W^H u_j||, sorted, are at most the k near-null
    singular values, sorted, plus N * eps * sigma_max.  The counts are the
    dense oracle's, and a planted section of winding w has |w| near-null
    values, all on the cokernel side for w > 0 and on the kernel side for
    w < 0."""
    from conewh.wiener_hopf import _near_null_pairs, _singular_values, _split

    c = section()
    N = (len(c) + 1) // 2
    sec = _split(c, 1e-8, 1e3)
    dim_ker, dim_coker = sec.dim_ker, sec.dim_coker
    k = sec.count
    ref = complex_singular_split(_toeplitz(c))
    assert (k, dim_ker, dim_coker) == (ref["count"], ref["dim_ker"], ref["dim_coker"])
    if winding is not None:
        assert (dim_ker, dim_coker) == ((0, k) if winding > 0 else (k, 0)) and k == abs(winding)
    assert k > 0
    W = _toeplitz(c)
    U, V = _near_null_pairs(c, k)
    assert U.shape == V.shape == (N, k)
    assert np.allclose(np.linalg.norm(U, axis=0), 1) and np.allclose(np.linalg.norm(V, axis=0), 1)
    near = np.sort(_singular_values(c[None])[0][-k:])
    bound = near + N * np.finfo(float).eps * sec.sigma_max
    assert np.all(np.sort(np.linalg.norm(W @ V, axis=0)) <= bound)
    assert np.all(np.sort(np.linalg.norm(W.conj().T @ U, axis=0)) <= bound)


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
    S = _singular_values(c[None])[0]
    assert factorizations == [("eigvalsh", np.float64)]
    assert np.array_equal(factorizations.args[0], W[None, :, ::-1])
    # the Hankel form is a view of the generator, and no section is built
    assert np.shares_memory(factorizations.args[0], c)
    ref = complex_singular_split(W)
    assert np.abs(S - ref["sigma"]).max() <= N * np.finfo(float).eps * ref["sigma_max"]
    k = int(np.sum(S < 1e-8 * S[0]))
    assert k == ref["count"] == abs(w)
    if k:
        assert min(S[-k - 1] / S[-k], ref["gap"]) >= 1e3


def test_real_section_that_is_not_persymmetric_gets_svdvals(factorizations):
    """eigvalsh reads one triangle only, so in the dense oracle a real matrix
    equal to neither its transpose nor, column-reversed, its own transpose
    takes the SVD."""
    rng = np.random.default_rng(5)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((64, 64)))[0] for _ in range(2))
    W = (Q1 * np.linspace(1.0, 0.1, 64)) @ Q2.T
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
    near-null count; the near-null vectors come from one eigh of W J, a view
    of c.  Each near-null vector is mirrored, so its attribution is a tie
    broken by rounding, and an exact tie goes to the kernel."""
    from conewh.wiener_hopf import _singular_values, _split

    c = _symmetric_toeplitz(N, 70 + N, shifted)
    W = _toeplitz(c)
    assert np.array_equal(W, W.T) and np.array_equal(W, W[::-1, ::-1])
    S = _singular_values(c[None])[0]
    # two half-order blocks, and no N x N matrix
    assert factorizations == [("eigvalsh", np.float64)] * 2
    assert factorizations.exactly_hermitian("eigvalsh")
    assert _half_orders(factorizations) == [((N + 1) // 2, N // 2)]
    ref = complex_singular_split(W)
    assert np.abs(S - ref["sigma"]).max() <= N * np.finfo(float).eps * ref["sigma_max"]
    k = int(np.sum(S < 1e-8 * S[0]))
    assert k == ref["count"] == int(shifted)
    if shifted:
        factorizations.clear()
        sec = _split(c, 1e-8, 1e3)
        dim_ker, dim_coker = sec.dim_ker, sec.dim_coker
        assert sec.count == dim_ker + dim_coker == 1
        assert factorizations == ([("eigvalsh", np.float64)] * 2 + [("eigh", np.float64)]
                                  + _attribution())
        hankel = factorizations.args[2]
        assert np.array_equal(hankel, W[:, ::-1]) and np.shares_memory(hankel, c)
        if N == 2:                  # q = (1, +-1) / sqrt 2: an exact tie
            assert factorizations.args[3].tolist() == [[[0.0]], [[0.0]]]
            assert dim_ker == 1


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
    """In the dense oracle, a real symmetric matrix that does not equal its
    reversal takes one eigvalsh of full order.  No Toeplitz section is such a
    matrix: a symmetric one has a real even generator."""
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


def test_exactly_singular_section_splits_with_one_eigh(factorizations):
    """The zero-pivot section is real, with no Hermitian form, and exactly
    singular at odd N: its near-null vectors come from the one eigh of its
    Hankel form W J, a view of its generator, which an exactly zero
    eigenvalue does not disturb, and the split matches the oracle."""
    from conewh.wiener_hopf import _split

    for N in (5, 7, 65, 513):
        c = _zero_pivot_section(N)
        W = _toeplitz(c)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(W, np.ones(N))
        factorizations.clear()
        sec = _split(c, 1e-8, 1e3)
        dim_ker, dim_coker = sec.dim_ker, sec.dim_coker
        assert factorizations == ([("eigvalsh", np.float64), ("eigh", np.float64)]
                                  + _attribution())
        hankel = factorizations.args[1]
        assert np.array_equal(hankel, W[:, ::-1]) and np.shares_memory(hankel, c)
        ref = complex_singular_split(W)
        assert (sec.count, dim_ker, dim_coker) == (ref["count"], ref["dim_ker"],
                                                   ref["dim_coker"]) == (1, 0, 1)


def test_zero_pivot_section_is_exactly_singular():
    from scipy.linalg import LinAlgWarning, lu_factor

    with pytest.warns(LinAlgWarning):
        lu, _ = lu_factor(_toeplitz(_zero_pivot_section()))
    assert np.count_nonzero(lu.diagonal() == 0) == 1


def test_modulated_section_is_complex_with_the_real_split():
    """e^{i m x} times the kernel is a diagonal unitary similarity of the real
    section: complex entries, the same count and attribution."""
    from conewh.wiener_hopf import _split

    cc = _seeded_rational_section(-1, 512, 7, modulation=3.0)
    cr = _seeded_rational_section(-1, 512, 7)
    assert cc.dtype == np.complex128 and cr.dtype == np.float64
    split_c = _split(cc, 1e-8, 1e3)
    split_r = _split(cr, 1e-8, 1e3)
    assert (split_c.dim_ker, split_c.dim_coker) == (split_r.dim_ker, split_r.dim_coker) == (1, 0)


@pytest.mark.parametrize("c, delta_factor", [
    pytest.param(np.zeros(15), 1e-8, id="zero-section"),
    pytest.param(_section(symbol_preset("rational-w-1", 0.05, 52.0), 32), 2.0,
                 id="delta-above-sigma-max"),
])
def test_split_with_every_value_near_zero_is_unresolved(c, delta_factor):
    """k = N leaves no singular value above the count, so there is no gap to
    resolve the index: the split raises instead of attributing an arbitrary
    basis of the whole space."""
    from conewh.wiener_hopf import _split

    with pytest.raises(IndexUnresolvedError, match="gap 0 above"):
        _split(c, delta_factor, 1e3)


@pytest.mark.parametrize("row, ker, coker", [(0, 1, 1), (-1, 0, 0)])
def test_front_masses_that_do_not_add_up_are_unresolved(monkeypatch, row, ker, coker):
    """Near-null vectors whose front-minus-back masses give k kernel and
    cokernel directions between them are attributed; any other outcome (here
    both sides on the front, or both on the back, of a two-sided section with
    k = 1) is an index-unresolved error naming N and the masses."""
    import conewh.wiener_hopf as wh

    c = _section(_two_sided_symbol(0.2), 128)
    sec = wh._split(c, 1e-8, 1e3)
    assert (sec.dim_ker, sec.dim_coker) == (0, 1)
    e = np.zeros((128, 1))
    e[row] = 1.0
    monkeypatch.setattr(wh, "_near_null_pairs", lambda c, k: (e, e))
    with pytest.raises(IndexUnresolvedError) as info:
        wh._split(c, 1e-8, 1e3)
    mass = 1.0 if row == 0 else -1.0
    assert str(info.value) == (
        f"index not resolved at N=128: the front-minus-back masses of the 1 near-null right "
        f"vectors [{mass}] and left vectors [{mass}] give {ker} kernel and {coker} cokernel "
        f"directions, not 1")


def test_twisted_face_sections_factor_by_structure(factorizations):
    """An even kernel gives real symmetric face sections that equal their
    reversal, factored by two half-order eigvalsh, each on the stack of a
    face's distinct columns at one truncation; a kernel symmetric in x and y
    gives e2 the columns of e1, factored once.  A kernel shifted across the
    face keeps complex sections and svdvals, one stacked call per structure
    class."""
    S = symbol_preset("gauss2d-small", 0.1, 12.0)
    y = S.freqs[1] - S.freqs[0]
    hierarchy_fredholm(S, truncations=(16, 32), y_values=[0.0, y])
    assert factorizations == [("eigvalsh", np.float64)] * 4
    assert _half_orders(factorizations) == [(8, 8)] * 2 + [(16, 16)] * 2
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
    # their column-reversed form, both columns in one stack.  The complex ones
    # are complex symmetric when reversed, not Hermitian, and keep svdvals.
    # Each face factors its classes at one truncation, then at the next.
    assert factorizations == ([real_symmetric] * 2 + [cplx]) * 2 + [real] * 2
    assert [len(_stack(a)) for a in factorizations.args] == [1] * 6 + [2] * 2
    assert factorizations.exactly_hermitian("eigvalsh")
    halves, hankels = (factorizations.matrices("eigvalsh")[:4],
                       factorizations.matrices("eigvalsh")[4:])
    assert [len(a) for a in halves] == [8, 8, 16, 16]
    assert [len(a) for a in hankels] == [16, 16, 32, 32]
    assert not any(np.array_equal(a[:, ::-1], a[:, ::-1].T) for a in hankels)
    e1 = next(fr for fr in rep.faces if fr.face == "e1")
    y, mins = next(row for row in e1.rows if row[0] != 0.0)
    W = wh_matrix(face_symbol_twisted(shifted, "e1", y), "half-line", 32,
                  identity_shift=True)
    assert W.imag.any()
    ref = np.linalg.svd(W, compute_uv=False)[-1]
    assert mins[32] == pytest.approx(ref, rel=1e-10)


def test_hierarchy_factors_each_distinct_face_column_once(factorizations):
    """The default fibre grid is symmetric in y and the hierarchy-gauss2d-small
    kernel is even across both faces, so its +-y restrictions are
    bit-identical, and symmetric in x and y, so the columns of e2 are those of
    e1: 6 distinct columns of 18 over both faces, each factored once at both
    truncations, as 24 half-order matrices in 4 stacked eigvalsh calls (one
    per block and truncation; 48 calls of one matrix each before the stacks),
    and every row reads the sigma_min of its own section."""
    from conewh.presets import preset_spec
    from conewh.wiener_hopf import _generator, _singular_values, _twisted_restrictions

    spec = preset_spec("experiments", "hierarchy-gauss2d-small")
    S = symbol_preset(spec["symbol"], spec["h"], spec["T"])
    rep = hierarchy_fredholm(S, truncations=tuple(spec["N"]))
    assert len(factorizations) <= 4
    assert factorizations == [("eigvalsh", np.float64)] * len(factorizations)
    assert len(factorizations.matrices("eigvalsh")) == 6 * 2 * 2
    assert _half_orders(factorizations) == [(24, 24)] * 6 + [(48, 48)] * 6
    columns = set()
    for axis, fr in enumerate(rep.faces):
        ys = [y for y, _ in fr.rows]
        assert len(ys) == 9 and sorted(ys) == sorted(-y for y in ys)
        G = _twisted_restrictions(S, axis, ys)
        assert len({g.tobytes() for g in G.T}) == 6
        columns |= {g.tobytes() for g in G.T}
        for (_, mins), g in zip(fr.rows, G.T):
            assert mins == {N: float(_singular_values(
                _generator(g, S.h, S.T, N, True)[None])[0, -1]) for N in spec["N"]}
    assert len(columns) == 6


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
def test_generator_dispatch_matches_dense_form(factorizations, monkeypatch, kind, N):
    """The O(N) tests on a generator pick the factorization that the N x N
    equality checks pick on its section, and it reads the same bits on both
    paths.  A split with near-null triples then makes exactly one
    factorization with vectors, of the view its class reads (eigh of the
    Hankel form W J of a real c, eigh of a Hermitian W, a full svd of any
    other W), and the eigvalsh of its attribution, and builds no section."""
    import conewh.wiener_hopf as wh

    c = _seeded_generator(kind, N, 90 + N)
    W = _toeplitz(c)
    sigma = wh._singular_values(c[None])[0]
    calls, args, matrices = list(factorizations), list(factorizations.args), factorizations.matrices()
    factorizations.clear()
    ref_sigma = dense_section_form(W)[0]
    assert calls == factorizations and len(matrices) == len(factorizations.matrices())
    assert all(_same_bits(a, b) for a, b in zip(matrices, factorizations.matrices()))
    assert _same_bits(sigma, ref_sigma)
    form = kind if N > 1 or kind == "complex-general" else "real-even"
    if form == "real-even":                 # two half-order blocks, no N x N matrix
        assert calls == [("eigvalsh", np.float64)] * 2
    else:
        assert len(calls) == 1 and calls[0][0] == ("svdvals" if form == "complex-general"
                                                   else "eigvalsh")
        # the Hankel form of a real c, else the section: a view of c, no copy
        assert np.shares_memory(args[0], c)
    # A count that takes the k = min(2, N - 1) smallest values under a gap
    # ratio of 1, so that the split takes their vectors.
    k = min(2, N - 1)
    delta_factor = (sigma[-k - 1] + sigma[-k]) / 2 / sigma[0] if k else 1e-8
    built, toeplitz = [], wh._toeplitz
    monkeypatch.setattr(wh, "_toeplitz", lambda g: built.append(len(factorizations)) or toeplitz(g))
    factorizations.clear()
    split = wh._split(c, delta_factor, 1.0)
    assert split.count == k and not built
    assert factorizations[:len(calls)] == calls
    if k:
        vectors = {"real-even": ("eigh", np.float64), "real": ("eigh", np.float64),
                   "conjugate-even": ("eigh", np.complex128),
                   "complex-general": ("svd", np.complex128)}[kind]
        assert factorizations[len(calls):] == [vectors] + _attribution(vectors[1])
        viewed = factorizations.args[len(calls)]
        assert _same_bits(viewed, W[:, ::-1] if kind.startswith("real") else W)
        assert np.shares_memory(viewed, c)
        assert factorizations.args[-1].shape == (2, k, k)
    else:
        assert factorizations == calls


def test_real_section_factors_with_no_section_copy(monkeypatch):
    """A real two-sided section at N = 1024 is factored from views of its
    generator: numpy holds under a quarter of one N x N array when eigvalsh
    and eigh start and when the attribution's eigvalsh starts, and its traced
    peak over the split is the eigenvector matrix that eigh returns, one
    N x N array, plus under a quarter of one.  LAPACK's own work arrays are
    not traced, so this bounds the module's arrays only."""
    import tracemalloc

    import conewh.wiener_hopf as wh

    N = 1024
    c = _section(_two_sided_symbol(0.05), N)
    held = []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            held.append((name, tracemalloc.get_traced_memory()[0]))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(wh, name, traced(name, getattr(wh, name)))
    tracemalloc.start()
    try:
        split = wh._split(c, 1e-8, 1e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (split.dim_ker, split.dim_coker) == (0, 1)
    assert [name for name, _ in held] == ["eigvalsh", "eigh", "eigvalsh"]
    section = N * N * 8
    assert all(size < section / 4 for _, size in held)
    assert peak < section * 5 / 4


def test_complex_general_split_takes_one_svd_of_a_view(factorizations):
    """A complex section with no Hermitian form (the e^{3ix}-modulated
    two-sided section at N = 512) takes its near-null vectors from one full
    svd of the section as a view of its generator: they are the last singular
    vectors of a dense SVD of the assembled section, to a unit factor."""
    from conewh.wiener_hopf import _near_null_pairs, _split

    N = 512
    c = _section(_two_sided_symbol(0.05, 3.0), N)
    W = _toeplitz(c)
    assert W.dtype == np.complex128 and not np.array_equal(W, W.T.conj())
    sec = _split(c, 1e-8, 1e3)
    assert (sec.dim_ker, sec.dim_coker) == (0, 1)
    factorizations.clear()
    U, V = _near_null_pairs(c, 1)
    assert factorizations == [("svd", np.complex128)]
    viewed = factorizations.args[0]
    assert _same_bits(viewed, W) and np.shares_memory(viewed, c)
    P, _, Qh = np.linalg.svd(W)
    assert abs(np.vdot(P[:, -1], U[:, 0])) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(Qh[-1].conj(), V[:, 0])) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("modulation", [pytest.param(0.0, id="real"),
                                        pytest.param(3.0, id="complex")])
def test_one_sided_split_holds_no_section(factorizations, modulation):
    """A one-sided section at N = 1024 (a rational kernel of winding -1, real,
    or e^{3ix}-modulated, with no Hermitian form) is triangular: its split
    makes the factorization of its singular values and nothing else, and
    numpy's traced peak over the whole split stays under half of one real
    N x N array.  The counts are the dense oracle's."""
    import tracemalloc

    from conewh.wiener_hopf import _split

    N = 1024
    c = _seeded_rational_section(-1, N, 39, modulation)
    tracemalloc.start()
    try:
        split = _split(c, 1e-8, 1e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dtype = np.complex128 if modulation else np.float64
    assert factorizations == [("svdvals" if modulation else "eigvalsh", dtype)]
    assert peak < N * N * 8 / 2
    ref = complex_singular_split(_toeplitz(c))
    assert (split.dim_ker, split.dim_coker) == (ref["dim_ker"], ref["dim_coker"]) == (1, 0)


@pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 200])
@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_triangular_section_windows_and_substitution(factorizations, N, side, dtype):
    """The triangle is read off the generator: a lower triangular section is
    its own L, an upper one is J L J with L from the reversed generator, and
    a zero diagonal or a two-sided generator is not triangular.  A triangular
    section with near-null values (here L has diagonal 2 and 3 at lag 1, so
    L^-1 grows like 1.5^N: one near-null value from N = 63 on) splits by its
    side alone, all to the cokernel when lower and all to the kernel when
    upper, with no factorization beyond the count's, as the dense SVD
    attributes them."""
    from conewh.wiener_hopf import _lower_generator, _singular_values, _split

    rng = np.random.default_rng(100 + N)
    g = 0.3 * rng.standard_normal(2 * N - 1) * np.exp(-np.abs(np.arange(1 - N, N)) / 2)
    if dtype is np.complex128:
        g = g + 0.3j * rng.standard_normal(2 * N - 1) * np.exp(-np.abs(np.arange(1 - N, N)) / 2)
    g[:N - 1] = 0
    g[N - 1] = 2.0
    if N > 1:
        g[N] = 3.0
    c = g if side == "lower" else g[::-1]
    L, reverse = _lower_generator(c)
    assert reverse == (side == "upper" and N > 1) and _same_bits(L, g)
    # two_sided: c with lags -N and N set to 1, a generator of order N + 1
    singular, two_sided = c.copy(), np.r_[0.0, c, 0.0] + np.r_[1.0, 0 * c, 1.0]
    singular[N - 1] = 0
    assert _lower_generator(singular) is None and _lower_generator(two_sided) is None
    _singular_values(c[None])
    count = list(factorizations)
    factorizations.clear()
    sec = _split(c, 1e-8, 1e3)
    dim_ker, dim_coker = sec.dim_ker, sec.dim_coker
    k = sec.count
    assert k == int(N >= 63)
    assert (dim_ker, dim_coker) == ((k, 0) if reverse else (0, k))
    assert factorizations == count
    ref = complex_singular_split(_toeplitz(c))
    assert (k, dim_ker, dim_coker) == (ref["count"], ref["dim_ker"], ref["dim_coker"])


_INDEX_PRESETS = ["rational-w-1", "rational-w+1", "rational-w-2", "rational-w+2",
                  "gauss-small", "singular-zero", "zero"]


@pytest.mark.parametrize("command, preset", [("index1d", p) for p in _INDEX_PRESETS]
                         + [("hierarchy2d", "hierarchy-gauss2d-small")])
def test_structure_checks_read_the_generator_only(tmp_path, monkeypatch, command, preset):
    """On every packaged section, no structure comparison in the module reads
    more than the 2N - 1 entries of each generator of the stack it factors,
    and a stack of centrosymmetric sections (real even generators) is
    factored without an N x N array per section: it takes no window of a
    generator longer than ceil(N/2), and its traced allocations peak below one
    N x N array per section (m * N^2 * 8 bytes for a stack of m) beyond the
    two buffers of numpy's ufunc loops (np.getbufsize() elements each)."""
    import sys
    import tracemalloc

    import conewh.wiener_hopf as wh
    from conewh.cli import RunConfig, run

    array_equal, equal, singular_values, window_view = (
        np.array_equal, np.equal, wh._singular_values, wh.sliding_window_view)
    sections, compared, windows, peaks = [], [], [], []
    factoring = [None]                  # N of the centrosymmetric stack in the dispatch

    def counted(compare):
        def wrapper(a, b, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == wh.__name__:
                compared.append((max(np.size(a), np.size(b)), np.size(sections[-1])))
            return compare(a, b, *args, **kwargs)
        return wrapper

    def counted_window_view(x, window_shape, *args, **kwargs):
        windows.append((factoring[0], int(np.max(window_shape))))
        return window_view(x, window_shape, *args, **kwargs)

    def traced_singular_values(C):
        sections.append(C)
        if np.iscomplexobj(C) or not array_equal(C, C[:, ::-1]):
            return singular_values(C)
        factoring[0] = N = (C.shape[-1] + 1) // 2
        tracemalloc.start()
        try:
            out = singular_values(C)
            peaks.append((len(C), N, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
            factoring[0] = None
        return out

    monkeypatch.setattr(np, "array_equal", counted(array_equal))
    monkeypatch.setattr(np, "equal", counted(equal))
    monkeypatch.setattr(wh, "_singular_values", traced_singular_values)
    monkeypatch.setattr(wh, "sliding_window_view", counted_window_view)
    assert run(RunConfig(command, preset, str(tmp_path), None)) == 0
    assert sections and compared
    assert all(entries <= width for entries, width in compared)
    even = preset in ("gauss-small", "singular-zero", "zero") or command == "hierarchy2d"
    assert len(peaks) == (len(sections) if even else 0)
    buffers = 2 * np.getbufsize() * 8
    assert all(peak - buffers < m * N * N * 8 for m, N, peak in peaks)
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
    for axis, fr in enumerate(rep.faces):
        G = _twisted_restrictions(S, axis, y_values)
        # a sum of n terms rounds to within n * eps of the sum of their magnitudes
        tol = S.npoints * np.finfo(float).eps * S.h * np.abs(S.kernel).sum(axis=1 - axis).max()
        for j, (y, (_, mins)) in enumerate(zip(sorted(y_values), fr.rows)):
            ref = direct_twisted_restriction(S, axis, y).kernel
            g = face_symbol_twisted(S, axis, y)
            for col in (G[:, j], g.kernel):
                assert np.abs(col - ref).max() <= tol
            for N in truncations:
                W = wh_matrix(g, "half-line", N, identity_shift=True)
                s = np.linalg.svd(W.astype(complex), compute_uv=False)
                assert abs(mins[N] - s[-1]) <= N * np.finfo(float).eps * s[0]


@pytest.mark.parametrize("f, mixed", [pytest.param(p.values[0], False, id=p.id)
                                      for p in _FACE_KERNELS] + [
    pytest.param(lambda x, y: 0.6 * np.exp(-np.pi * (x**2 + x * y + 2 * y**2)), True,
                 id="mixed")])
def test_stacked_face_rows_match_their_own_sections(factorizations, f, mixed):
    """Each row's sigma_min, taken from the stacks of its face's distinct
    columns, equals bit for bit that of its own column's generator factored
    alone.  Realness and structure class are decided per column: the y = 0
    column of the mixed kernel is real and even in a complex Hermitian face,
    so each of its faces stacks two classes at each truncation."""
    from conewh.wiener_hopf import _generator, _singular_values, _twisted_restrictions

    S = make_symbol(f, 2, 0.1, 12.0)
    M = (S.npoints - 1) // 2
    y_values = sorted([-2.3, -0.5, 0.0, 0.5, S.freqs[M + 7], 1.9])
    truncations = (16, 48)
    rep = hierarchy_fredholm(S, truncations=truncations, y_values=y_values)
    for axis, fr in enumerate(rep.faces):
        G = _twisted_restrictions(S, axis, y_values)
        for (_, mins), g in zip(fr.rows, G.T):
            assert mins == {N: float(_singular_values(
                _generator(g, S.h, S.T, N, True)[None])[0, -1]) for N in truncations}
        if mixed:
            for N in truncations:
                factorizations.clear()
                _singular_values(_generator(G.T, S.h, S.T, N, True))
                # the real even column in two half-order blocks, the rest in one call
                assert factorizations == ([("eigvalsh", np.float64)] * 2
                                          + [("eigvalsh", np.complex128)])
                assert [np.iscomplexobj(_generator(g, S.h, S.T, N, True)) for g in G.T] == [
                    y != 0.0 for y in y_values]


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
    with pytest.raises(DimensionMismatchError, match="'e1'/'e2' only, got a Face$"):
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

    kernel = base.kernel + pk
    pert = SymbolGrid(2, h, T, base.xs, kernel, base.fhat + bump, base.freqs,
                      float(h**2 * np.abs(kernel).sum()), name="perturbed")
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
    assert "e1" in rep.failing_faces
    e1 = next(fr for fr in rep.faces if fr.face == "e1")
    row0 = next(mins for y, mins in e1.rows if y == 0.0)
    assert row0[96] < 0.5 * row0[48]


def test_hierarchy_face_verdicts_do_not_depend_on_truncation_order():
    """Stability compares the smallest truncation with the largest, whatever
    the order they are given in: reversed, the singular e1 face still fails."""
    S = symbol_preset("separable-singular-face", 0.1, 12.0)
    forward = hierarchy_fredholm(S, truncations=(48, 96))
    reverse = hierarchy_fredholm(S, truncations=(96, 48))
    assert [(fr.face, fr.stable, fr.ok, fr.decreasing_at) for fr in reverse.faces] == [
        (fr.face, fr.stable, fr.ok, fr.decreasing_at) for fr in forward.faces]
    assert reverse.verdict == forward.verdict == "not-hierarchy-fredholm"
    assert reverse.failing_faces == forward.failing_faces


def test_hierarchy_neumann_certificate():
    S = symbol_preset("gauss2d-small", 0.1, 12.0)
    rep = hierarchy_fredholm(S, truncations=(48, 96))
    assert rep.verdict == "hierarchy-fredholm"
    l1 = S.h**2 * np.abs(S.kernel).sum()
    assert abs(rep.neumann_margin - (1.0 - l1)) < 1e-8
    # the L1 norm is the one make_symbol's gate summed, bit for bit
    assert rep.l1_norm == S.l1 == float(l1)
    for fr in rep.faces:
        assert fr.margin > rep.neumann_margin - 1e-9


def test_hierarchy_neumann_margin_at_rounding_level():
    """A unit-mass kernel whose sampled L1 norm rounds just below 1 has a
    vanishing symbol; a Neumann margin of 1e-16 must not certify it."""
    from conewh.presets import symbol_from_expression

    S = symbol_from_expression("-0.8*exp(-pi*(0.8*x)**2)*exp(-pi*y**2)", 2, 0.1, 12.0)
    rep = hierarchy_fredholm(S, truncations=(48, 96), y_values=[0.0])
    assert 0 < rep.neumann_margin < 1e-12
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
