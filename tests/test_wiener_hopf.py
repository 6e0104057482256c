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
    classical_index,
    convolve_kernels,
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
    with pytest.raises(NonFiniteKernelError, match=r"x = -2 \(index \[160\]\) is \(nan"):
        make_symbol(lambda x: np.where(np.arange(len(x)) == 160, np.nan, 0.0), 1, 0.05, 10.0)


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
    W = wh_matrix(S, "half-line", 48, identity_shift=True).entries
    ref = _complex_assembly(S, 48)
    assert (W.dtype == np.float64) is real
    assert np.array_equal(W, ref.real if real else ref)


def test_wh_matrix_decides_realness_on_the_used_lags():
    """Imaginary samples beyond the lags a section uses leave it real."""
    S = symbol_preset("gauss-small", 0.1, 12.0)
    M = (S.npoints - 1) // 2
    S.kernel[M + 60] += 1e-12j
    assert wh_matrix(S, "half-line", 60).entries.dtype == np.float64
    assert wh_matrix(S, "half-line", 61).entries.dtype == np.complex128


def test_wh_matrix_quarter_plane_identity_shift():
    S2 = symbol_preset("gauss2d-small", 0.1, 12.0)
    W = wh_matrix(S2, "quarter-plane", 6).entries
    shifted = wh_matrix(S2, "quarter-plane", 6, identity_shift=True).entries
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


@pytest.fixture
def factorizations(monkeypatch):
    """(routine, dtype) of every factorization the wiener_hopf module makes."""
    import conewh.wiener_hopf as wh

    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.asarray(a).dtype))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(wh, "svdvals", counted("svdvals", wh.svdvals))
    monkeypatch.setattr(wh, "eigvalsh", counted("eigvalsh", wh.eigvalsh))
    monkeypatch.setattr(wh, "lu_factor", counted("lu_factor", wh.lu_factor))
    return calls


def test_classical_index_one_factorization_per_truncation(factorizations):
    """One values-only SVD per truncation, plus one LU only for a section with
    near-null singular triples; the sigma_min trend of a non-Fredholm symbol
    takes one factorization per truncation."""
    real_svdvals, real_lu = ("svdvals", np.float64), ("lu_factor", np.float64)
    rep = classical_index(symbol_preset("rational-w+1", 0.2, 52.0), truncations=(128, 256))
    assert rep.numerical_index == rep.index == -1
    assert [d["count"] for d in rep.diagnostics["per_truncation"].values()] == [1, 1]
    assert factorizations == [real_svdvals, real_lu] * 2
    per = rep.diagnostics["per_truncation"]
    assert rep.diagnostics["sigma_min"] == {N: per[N]["sigma_min"] for N in (128, 256)}

    factorizations.clear()
    rep = classical_index(symbol_preset("gauss-small", 0.05, 52.0), truncations=(64, 128))
    assert rep.verdict == "fredholm" and rep.diagnostics["dim_ker"] == 0
    assert factorizations == [real_svdvals] * 2

    # The even kernel gives symmetric sections, whose sigma_min is min |lambda|.
    factorizations.clear()
    rep = classical_index(symbol_preset("singular-zero", 0.05, 30.0), truncations=(64, 128))
    assert rep.verdict == "non-fredholm"
    assert factorizations == [("eigvalsh", np.float64)] * 2


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
    """I + W_N for a rational kernel with seeded pole scales in [1, 2], times
    e^{i m x} for a nonzero modulation m (a complex section)."""
    rng = np.random.default_rng(seed)
    a, c = rng.uniform(1.0, 2.0, 2)
    f = _rational_kernel(winding, a, c)
    S = make_symbol(lambda x: f(x) * np.exp(1j * modulation * x), 1, 0.05, 52.0)
    return wh_matrix(S, "half-line", N, identity_shift=True).entries


def _zero_pivot_section():
    """The gauss-small section with its rows moved up by one and a zero last
    row: LU with partial pivoting meets an exactly zero last pivot; the
    null vector is at the front, the left one is e_N."""
    W = wh_matrix(symbol_preset("gauss-small", 0.05, 52.0), "half-line", 512,
                  identity_shift=True).entries
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


_ORACLE_CASES = (
    [pytest.param(lambda w=w, N=N: _seeded_rational_section(w, N, 40 + w),
                  id=f"rational-w{w:+d}-N{N}")
     for w in (-2, -1, 0, 1, 2) for N in (512, 1024)]
    + [pytest.param(lambda w=w: _seeded_rational_section(w, 512, 50 + w, modulation=3.0),
                    id=f"modulated-w{w:+d}-N512") for w in (-2, -1, 1)]
    + [pytest.param(_kernel_and_cokernel_section, id="kernel-and-cokernel"),
       pytest.param(_zero_pivot_section, id="zero-pivot"),
       pytest.param(_unresolved_section, id="gap-below-ratio")])


@pytest.mark.parametrize("section", _ORACLE_CASES)
def test_split_matches_complex_oracle(section):
    """The values-only SVD plus LU split agrees with a dense complex SVD on the
    count, the kernel/cokernel attribution and the gap verdict."""
    from conewh.wiener_hopf import _small_singular_split

    W = section()
    ref = complex_singular_split(W)
    if ref["gap"] is not None and ref["gap"] < 1e3:
        with pytest.raises(IndexUnresolvedError):
            _small_singular_split(W, 1e-8, 1e3)
        return
    dim_ker, dim_coker, diag = _small_singular_split(W, 1e-8, 1e3)
    assert (diag["count"], dim_ker, dim_coker) == (ref["count"], ref["dim_ker"],
                                                    ref["dim_coker"])
    assert ("gap" in diag) == (ref["gap"] is not None)


def test_zero_pivot_section_is_exactly_singular():
    from scipy.linalg import LinAlgWarning, lu_factor

    with pytest.warns(LinAlgWarning):
        lu, _ = lu_factor(_zero_pivot_section())
    assert np.count_nonzero(lu.diagonal() == 0) == 1


def test_modulated_section_is_complex_with_the_real_split():
    """e^{i m x} times the kernel is a diagonal unitary similarity of the real
    section: complex entries, the same count and attribution."""
    from conewh.wiener_hopf import _small_singular_split

    Wc = _seeded_rational_section(-1, 512, 7, modulation=3.0)
    Wr = _seeded_rational_section(-1, 512, 7)
    assert Wc.dtype == np.complex128 and Wr.dtype == np.float64
    split_c = _small_singular_split(Wc, 1e-8, 1e3)
    split_r = _small_singular_split(Wr, 1e-8, 1e3)
    assert split_c[:2] == split_r[:2] == (1, 0)


@pytest.mark.parametrize("W, delta_factor", [
    pytest.param(np.zeros((8, 8)), 1e-8, id="zero-section"),
    pytest.param(wh_matrix(symbol_preset("rational-w-1", 0.05, 52.0), "half-line", 32,
                           identity_shift=True).entries, 2.0, id="delta-above-sigma-max"),
])
def test_split_with_every_value_near_zero_is_unresolved(W, delta_factor):
    """k = N leaves no singular value above the count, so there is no gap to
    resolve the index: the split raises instead of attributing an arbitrary
    basis of the whole space."""
    from conewh.wiener_hopf import _small_singular_split

    with pytest.raises(IndexUnresolvedError, match="gap 0 above"):
        _small_singular_split(W, delta_factor, 1e3)


def test_twisted_face_sections_factor_by_structure(factorizations):
    """An even kernel gives real symmetric face sections, factored by eigvalsh;
    a kernel shifted across the face keeps complex sections and svdvals."""
    S = symbol_preset("gauss2d-small", 0.1, 12.0)
    y = S.freqs[1] - S.freqs[0]
    hierarchy_fredholm(S, truncations=(16, 32), y_values=[0.0, y])
    assert factorizations == [("eigvalsh", np.float64)] * 8
    for face in ("e1", "e2"):
        for twist in (0.0, y):
            W = wh_matrix(face_symbol_twisted(S, face, twist), "half-line", 32,
                          identity_shift=True).entries
            assert W.dtype == np.float64 and np.array_equal(W, W.T)

    factorizations.clear()
    shifted = make_symbol(lambda x, y: np.exp(-np.pi * (x**2 + (y - 0.3)**2)), 2, 0.1, 12.0)
    rep = hierarchy_fredholm(shifted, truncations=(16, 32), y_values=[0.0, y])
    real_symmetric, real, cplx = (("eigvalsh", np.float64), ("svdvals", np.float64),
                                  ("svdvals", np.complex128))
    # face e1 restricts across y, where the kernel is shifted; face e2 along it
    assert factorizations == [real_symmetric] * 2 + [cplx] * 2 + [real] * 4
    e1 = next(fr for fr in rep.face_reports if fr["face"] == "e1")
    twisted = next(r for r in e1["rows"] if r["y"] != 0.0)
    W = wh_matrix(face_symbol_twisted(shifted, "e1", twisted["y"]), "half-line", 32,
                  identity_shift=True).entries
    assert W.imag.any()
    ref = np.linalg.svd(W, compute_uv=False)[-1]
    assert twisted["sigma_min"][32] == pytest.approx(ref, rel=1e-10)


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
                W = wh_matrix(g, "half-line", N, identity_shift=True).entries
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
    tolerance adds up to a restriction tail above it."""
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteKernelError, match=r"kernel sample at t = -1.9, y = 0 "):
        huge = make_symbol(lambda x, y: np.where(x**2 + y**2 < 4, 1e308, 0.0), 2, 0.1, 12.0)
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
    assert W.entries.shape == (36, 36)


def test_cone_section_transform(skew):
    M, detM = cone_section_transform(skew)
    cols = sorted(map(tuple, M.T.tolist()))
    assert cols == [(0.0, 1.0), (1.0, 1.0)] or cols == [(1.0, 0.0), (1.0, 1.0)]
    assert abs(abs(detM) - 1.0) < 1e-12
    S = cone_transform_symbol(lambda x, y: np.exp(-np.pi * (x**2 + y**2)), 0.1, 12.0,
                              (M, detM))
    assert wh_matrix(S, "quarter-plane", 4).entries.shape == (16, 16)
