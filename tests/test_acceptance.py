"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import time

import numpy as np
import pytest
from scipy.linalg import svdvals

from conewh.cones import (
    cone_from_generators,
    dual_cone,
    face_as_cone,
    face_lattice,
    project_cone,
    relative_dual,
    dual_face,
)
from conewh.convex import (
    BallBody,
    HPolytopeBody,
    PolyhedralConeBody,
    gauge,
    gauge_gradient,
    gauge_gradient_projection_form,
    projection_form_applies,
)
from conewh.errors import NotDifferentiableError
from conewh.exact import nullspace, vneg
from conewh.limits import hausdorff_distance, sample_cone
from conewh.presets import symbol_preset
from conewh.strata import ray_limit, strata
from conewh.trivialization import (
    build_trivialization,
    lipschitz_bound,
    triv_apply,
    triv_det,
    triv_det_formula,
    triv_sample_source,
    triv_target_margin,
)
from conewh.wiener_hopf import (
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
    brute_force_faces,
    convolve_kernels,
    face_span_basis,
    minkowski_sum_cone,
    rep_L,
)


def _verdict(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


H, T_LONG = 0.05, 52.0


def test_criterion_1_gohberg_krein_index():
    """Five rational symbols, windings -2..+2: numerical index == -winding,
    N = 512 vs 1024, h = 0.05, delta-gap rule, < 60 s per symbol."""
    names = ["rational-w-2", "rational-w-1", "zero", "rational-w+1", "rational-w+2"]
    ok = True
    for name in names:
        t0 = time.monotonic()
        sym = symbol_preset(name, H, T_LONG)
        w = winding_number(symbol_curve(sym))
        idx, _ = numerical_index(sym, truncations=(512, 1024))
        elapsed = time.monotonic() - t0
        ok &= (w == sym.meta["expected_winding"]) and (idx == -w) and elapsed < 60.0
    windings = sorted(symbol_preset(n, H, T_LONG).meta["expected_winding"] for n in names)
    ok &= windings == [-2, -1, 0, 1, 2]
    _verdict(1, "gohberg-krein index", ok)


def test_criterion_2_fredholm_criterion():
    """Vanishing symbol: sigma_min drops >= 2x from N=128 to N=512; each
    nonvanishing (winding-zero) test symbol varies < 20% over the range."""
    ok = True
    singular = symbol_preset("singular-zero", H, 30.0)
    sig = {}
    for N in (128, 512):
        Wop = wh_matrix(singular, "half-line", N, identity_shift=True)
        sig[N] = svdvals(Wop)[-1]
    ok &= sig[128] >= 2.0 * sig[512]
    for name in ("zero", "gauss-small", "gauss-neg"):
        sym = symbol_preset(name, H, 30.0)
        vals = []
        for N in (128, 256, 512):
            Wop = wh_matrix(sym, "half-line", N, identity_shift=True)
            vals.append(svdvals(Wop)[-1])
        ok &= (max(vals) - min(vals)) / max(vals) < 0.20
    _verdict(2, "fredholm criterion", ok)


_TEST_CONES = {
    "quarter": ([(1, 0), (0, 1)], 2, (2, [1, 2, 1])),
    "simplicial": ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, (3, [1, 3, 3, 1])),
    "fourgonal": ([(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)], 3, (3, [1, 4, 4, 1])),
}


def test_criterion_3_face_lattice_exactness():
    ok = True
    for rays, n, (d, sizes) in _TEST_CONES.values():
        cone = cone_from_generators(rays, n)
        lat = face_lattice(cone)
        expected = brute_force_faces(cone)
        got = {f.active_set: (f.generators, f.dim) for f in lat.faces}
        ok &= got == expected
        naive_order = set()
        for i, f in enumerate(lat.faces):
            for j, g in enumerate(lat.faces):
                if i != j and set(f.active_set) > set(g.active_set) and \
                        not any(set(f.active_set) > set(h.active_set) > set(g.active_set)
                                for h in lat.faces):
                    naive_order.add((i, j))
        ok &= set(lat.order) == naive_order
        st = strata(cone)
        ok &= st.length == d and [len(level) for level in st.levels] == sizes
    _verdict(3, "face-lattice exactness", ok)


def test_criterion_4_face_projection_identities():
    ok = True
    for rays, n, _ in _TEST_CONES.values():
        omega = cone_from_generators(rays, n)
        for face in face_lattice(omega).faces:
            fcheck = dual_face(face)
            lhs = dual_cone(face_as_cone(fcheck))
            perp = nullspace(list(face.generators), n)
            proj = project_cone(omega, perp) if perp else cone_from_generators([], n)
            lines = [v for b in face_span_basis(face) for v in (b, vneg(b))]
            ok &= lhs == minkowski_sum_cone(proj.generators, lines, n)
            basis = face_span_basis(fcheck)
            lhs2 = project_cone(omega, basis) if basis else cone_from_generators([], n)
            ok &= lhs2 == relative_dual(fcheck)
    _verdict(4, "face-projection identities", ok)


def test_criterion_5_ray_limit_vs_sampled_limit():
    directions = {
        "quarter": [(1, 0), (0, 1)],
        "simplicial": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
        "fourgonal": [(1, 1, 1), (1, 0, 1)],
    }
    assert sum(len(v) for v in directions.values()) == 10
    ok = True
    lam = 1000.0
    for key, dirs in directions.items():
        rays, n, _ = _TEST_CONES[key]
        omega = cone_from_generators(rays, n)
        step = 0.25 if n == 2 else 0.4
        bounds = (-4.0, 4.0)
        for x in dirs:
            limit = ray_limit(omega, x)
            exact = sample_cone(limit, bounds, step)
            approx = sample_cone(omega, bounds, step, shift=lam * np.array(x, dtype=float))
            ok &= hausdorff_distance(approx, exact) < 10.0 * step
    _verdict(5, "ray limit vs sampled limit", ok)


def _gauge_bodies():
    fourgonal = cone_from_generators([(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)])
    normals = np.array([[float(c) for c in a] for a in fourgonal.inequalities])
    slice_body = HPolytopeBody.from_cone_slice(normals, np.array([0.0, 0.0, 1.0]))
    square = HPolytopeBody.from_vertices([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    return {"square": square, "fourgonal-slice": slice_body, "ball": BallBody(1.6, 2)}


def test_criterion_6_gauge_calculus():
    ok = True
    rng = np.random.default_rng(123)
    fd_h = 1e-6
    for body in _gauge_bodies().values():
        count = 0
        while count < 100:
            x = rng.normal(size=body.dim) * 2
            if np.linalg.norm(x) < 0.3:
                continue
            try:
                grad = gauge_gradient(body, x)
            except NotDifferentiableError:
                continue
            fd = np.empty(body.dim)
            for i in range(body.dim):
                e = np.zeros(body.dim)
                e[i] = fd_h
                fd[i] = (gauge(body, x + e) - gauge(body, x - e)) / (2 * fd_h)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
            if rel >= 1e-6 and _near_kink(body, x, fd_h):
                continue  # central differences straddle a kink; not a gradient point
            ok &= rel < 1e-6
            count += 1
        # the two gradient formulas, where both apply
        count = 0
        while count < 100:
            x = rng.normal(size=body.dim) * 3
            if gauge(body, x) < 1.2 or not projection_form_applies(body, x):
                continue
            try:
                g1 = gauge_gradient(body, x)
            except NotDifferentiableError:
                continue
            g2 = gauge_gradient_projection_form(body, x)
            ok &= np.linalg.norm(g1 - g2) <= 1e-8 * max(1.0, np.linalg.norm(g1))
            count += 1
    _verdict(6, "gauge calculus", ok)


def _near_kink(body, x, fd_h):
    if not isinstance(body, HPolytopeBody):
        return False
    mu = gauge(body, x)
    vals = (body.A @ (x / mu)) / body.b
    top, second = np.sort(vals)[-2:][::-1]
    return (top - second) * mu < 50 * fd_h * np.linalg.norm(body.A).max()


def test_criterion_7_trivialization():
    quarter = cone_from_generators([(1, 0), (0, 1)])
    xi0 = np.array([1.0, 1.0]) / np.sqrt(2)
    body = PolyhedralConeBody.from_exact(quarter)
    rng = np.random.default_rng(7)
    ok = True
    for angle in (1.0, 4.0, 7.0, 10.0):
        rotated = body.rotated(np.deg2rad(angle))
        triv = build_trivialization(quarter, rotated, xi0=xi0)
        src = triv_sample_source(triv, rng, 2000)
        out = triv_apply(triv, src)
        ok &= triv_target_margin(triv, out).min() > -1e-8
        for x in src[:100]:
            ref = triv_det_formula(triv, x)
            ok &= ref > 0 and abs(triv_det(triv, x) - ref) <= 1e-6 * abs(ref)
        A = rng.uniform(-3, 3, (10000, 2))
        B = A + rng.normal(0, 0.4, A.shape)
        ratios = (np.linalg.norm(triv_apply(triv, A) - triv_apply(triv, B), axis=1)
                  / np.linalg.norm(A - B, axis=1))
        L = lipschitz_bound(triv.r, triv.R)
        ok &= ratios.max() <= np.sqrt(2) * max(L, 1.0)
    _verdict(7, "trivialization", ok)


def test_criterion_8_face_symbol_shadow():
    ok = True
    h2, T2 = 0.1, 12.0
    gauss2 = make_symbol(lambda x, y: np.exp(-np.pi * (x**2 + y**2)), 2, h2, T2,
                         name="gauss2d")

    def rational2(x, y):
        fx = np.where(x == 0, -1.0, np.where(x > 0, -2 * np.exp(-np.minimum(np.abs(x), 60.0)), 0.0))
        fy = np.where(y == 0, -1.0, np.where(y > 0, -2 * np.exp(-np.minimum(np.abs(y), 60.0)), 0.0))
        return fx * fy

    rat2 = make_symbol(rational2, 2, 0.1, 52.0, name="rational2d")  # window sized
    # for the convolution tail 16*(T/2)*exp(-T/2) < 1e-8

    for sym in (gauss2, rat2):
        M = (sym.npoints - 1) // 2
        for axis, sl in (("e1", sym.fhat[:, M]), ("e2", sym.fhat[M, :])):
            ok &= np.abs(face_symbol(sym, axis).fhat - sl).max() < 1e-8

    for sym, other in ((gauss2, make_symbol(lambda x, y: 0.3 * np.exp(-np.pi * (x**2 + y**2)),
                                            2, h2, T2)),
                       (rat2, rat2)):
        lhs = face_symbol(convolve_kernels(sym, other), "e1")
        rhs = convolve_kernels(face_symbol(sym, "e1"), face_symbol(other, "e1"))
        ok &= np.abs(lhs.kernel - rhs.kernel).max() < 1e-6

    rng = np.random.default_rng(8)
    h_in = rng.normal(size=64) + 1j * rng.normal(size=64)
    for sym in (gauss2, rat2):
        M = (sym.npoints - 1) // 2
        y = sym.freqs[M + 9]
        out = rep_L(sym, "e1", y, h_in)
        ref = wh_matrix(face_symbol_twisted(sym, "e1", -y), "half-line", 64) @ h_in
        ok &= np.abs(out - ref).max() < 1e-6
        out0 = rep_L(sym, "e1", 0.0, h_in)
        ref0 = wh_matrix(face_symbol(sym, "e1"), "half-line", 64) @ h_in
        ok &= np.abs(out0 - ref0).max() < 1e-6
    _verdict(8, "face-symbol shadow", ok)


def test_criterion_9_hierarchy_report():
    ok = True
    singular = symbol_preset("separable-singular-face", 0.1, 12.0)
    rep = hierarchy_fredholm(singular, truncations=(48, 96))
    ok &= rep.verdict == "not-hierarchy-fredholm"
    ok &= "e1" in rep.failing_faces
    e1 = next(fr for fr in rep.faces if fr.face == "e1")
    row0 = next(mins for y, mins in e1.rows if y == 0.0)
    ok &= row0[96] < row0[48]

    small = symbol_preset("gauss2d-small", 0.1, 12.0)
    rep2 = hierarchy_fredholm(small, truncations=(48, 96))
    ok &= rep2.verdict == "hierarchy-fredholm"
    l1 = small.h**2 * np.abs(small.kernel).sum()
    ok &= abs(rep2.neumann_margin - (1.0 - l1)) < 1e-8
    _verdict(9, "hierarchy report", ok)
