"""Symbols, finite sections, windings, indices, face restrictions, hierarchy."""

import numpy as np
import pytest

from conewh.errors import (
    DimensionMismatchError,
    IndexUnresolvedError,
    KernelWindowError,
    WindingUndefinedError,
)
from conewh.presets import RATIONAL_ZERO_POLE, symbol_preset
from conewh.wiener_hopf import (
    classical_index,
    convolve_kernels,
    face_symbol,
    face_symbol_twisted,
    hierarchy_fredholm,
    make_symbol,
    numerical_index,
    product_symbol,
    rep_L,
    symbol_curve,
    wh_matrix,
    winding_number,
)

from oracles import complex_singular_split, winding_from_zero_pole


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


# -- wh_matrix -------------------------------------------------------------------


def test_wh_matrix_toeplitz_structure():
    S = symbol_preset("rational-w+1", 0.05, 52.0)
    W = wh_matrix(S, "half-line", 8).entries
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
    assert np.abs(wh_matrix(S, "half-line", 16).entries).max() == 0.0


def test_wh_matrix_kronecker_separable():
    S2 = make_symbol(lambda x, y: gauss(x) * gauss(y), 2, 0.1, 12.0)
    S1 = make_symbol(gauss, 1, 0.1, 12.0)
    W2 = wh_matrix(S2, "quarter-plane", 8).entries
    W1 = wh_matrix(S1, "half-line", 8).entries
    assert np.abs(W2 - np.kron(W1, W1)).max() < 1e-12


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


@pytest.fixture
def factorizations(monkeypatch):
    """(routine, dtype) of every factorization the wiener_hopf module makes."""
    import conewh.wiener_hopf as wh

    calls = []
    svd, svdvals = np.linalg.svd, wh.svdvals

    def counted_svd(a, *args, **kwargs):
        calls.append(("svd", np.asarray(a).dtype))
        return svd(a, *args, **kwargs)

    def counted_svdvals(a, *args, **kwargs):
        calls.append(("svdvals", np.asarray(a).dtype))
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(wh, "svdvals", counted_svdvals)
    return calls


def test_classical_index_one_factorization_per_truncation(factorizations):
    rep = classical_index(symbol_preset("rational-w+1", 0.05, 52.0), truncations=(64, 128))
    assert rep.symbol_nonvanishing
    assert factorizations == [("svd", np.float64)] * 2
    per = rep.diagnostics["per_truncation"]
    assert rep.diagnostics["sigma_min"] == {N: per[N]["sigma_min"] for N in (64, 128)}

    factorizations.clear()
    rep = classical_index(symbol_preset("singular-zero", 0.05, 30.0), truncations=(64, 128))
    assert rep.verdict == "non-fredholm"
    assert factorizations == [("svdvals", np.float64)] * 2


@pytest.mark.parametrize("name", ["rational-w-1", "rational-w+1", "rational-w-2",
                                  "rational-w+2", "gauss-small"])
def test_real_split_matches_complex_oracle(name):
    """The real-arithmetic split agrees with a complex SVD of the same section."""
    from conewh.wiener_hopf import _small_singular_split

    S = symbol_preset(name, 0.05, 52.0)
    W = wh_matrix(S, "half-line", 512, identity_shift=True).entries
    assert not W.imag.any()
    dim_ker, dim_coker, diag = _small_singular_split(W, 1e-8, 1e3)
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


def test_twisted_face_sections_stay_complex(factorizations):
    S = symbol_preset("gauss2d-small", 0.1, 12.0)
    y = S.freqs[1] - S.freqs[0]
    rep = hierarchy_fredholm(S, truncations=(16, 32), y_values=[0.0, y])
    real, cplx = ("svdvals", np.float64), ("svdvals", np.complex128)
    assert factorizations == [real, real, cplx, cplx] * 2  # faces e1, e2
    for fr in rep.face_reports:
        twisted = next(r for r in fr["rows"] if r["y"] != 0.0)
        g = face_symbol_twisted(S, fr["face"], twisted["y"])
        W = wh_matrix(g, "half-line", 32, identity_shift=True).entries
        assert W.imag.any()
        ref = np.linalg.svd(W, compute_uv=False)[-1]
        assert twisted["sigma_min"][32] == pytest.approx(ref, rel=1e-10)


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
    ref = wh_matrix(face_symbol(g2d, "e1"), "half-line", 64).entries @ h_in
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
    ref = wh_matrix(face_symbol_twisted(g2d, "e1", -y), "half-line", 64).entries @ h_in
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
    ref = wh_matrix(S1, "half-line", 32).entries @ h_in
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
                sb = svdvals(wh_matrix(gb, "half-line", N, identity_shift=True).entries)[-1]
                sp = svdvals(wh_matrix(gp, "half-line", N, identity_shift=True).entries)[-1]
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


def test_cone_transform_resamples_kernel():
    """A 2-D simplicial cone reduces to the quarter plane through its
    generator matrix, with the Jacobian factor on the kernel."""
    M = np.array([[1.0, 1.0], [0.0, 1.0]])  # columns are the cone generators
    detM = np.linalg.det(M)

    def f(x, y):
        return np.exp(-np.pi * (x**2 + y**2))

    S = make_symbol(f, 2, 0.1, 12.0, cone_transform=(M, detM))
    X1, X2 = np.meshgrid(S.xs, S.xs, indexing="ij")
    expected = abs(detM) * f(M[0, 0] * X1 + M[0, 1] * X2, M[1, 0] * X1 + M[1, 1] * X2)
    assert np.abs(S.kernel - expected).max() == 0.0
    W = wh_matrix(S, "quarter-plane", 6)
    assert W.entries.shape == (36, 36)


def test_cone_section_transform(skew):
    from conewh.wiener_hopf import cone_section_transform

    M, detM = cone_section_transform(skew)
    cols = sorted(map(tuple, M.T.tolist()))
    assert cols == [(0.0, 1.0), (1.0, 1.0)] or cols == [(1.0, 0.0), (1.0, 1.0)]
    assert abs(abs(detM) - 1.0) < 1e-12
    S = make_symbol(lambda x, y: np.exp(-np.pi * (x**2 + y**2)), 2, 0.1, 12.0,
                    cone_transform=(M, detM))
    assert wh_matrix(S, "quarter-plane", 4).entries.shape == (16, 16)
