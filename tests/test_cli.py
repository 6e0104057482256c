"""CLI behavior: spec parsing, command outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from conewh.cli import SPEC_KEYS, RunConfig, _write_report, main, run
from conewh.io import read_cone_spec

from oracles import blaschke_power_kernel


def _read(path):
    with open(path) as fh:
        return fh.read()


def test_cone_spec_validation():
    from conewh.errors import ConfigError

    with pytest.raises(ConfigError):
        read_cone_spec({"name": "x", "dim": 2})
    with pytest.raises(ConfigError):
        read_cone_spec({"name": "x", "dim": 2, "generators": [], "inequalities": []})
    with pytest.raises(ConfigError, match=r"unknown cone spec key\(s\): gens \(accepted: "
                                          r"name, dim, generators, inequalities\)"):
        read_cone_spec({"name": "x", "dim": 2, "gens": [["1", "0"]]})


@pytest.mark.parametrize("generators", [
    [["a", "b", "c"]],
    [[1.5, 0, 1]],
    [["1/0", "0", "1"]],
    "xyz",
    ["1", "0", "1"],
    5,
    [[True, False, False], [False, True, False], [False, False, True]],
    # Rows given as dicts replace "dim" too.
    pytest.param({"dim": 2.7, "generators": [["1", "0"], ["0", "1"]]}, id="dim-2.7"),
    pytest.param({"dim": True, "generators": [["1"]]}, id="dim-true"),
    pytest.param({"dim": "3", "generators": [["1", "0", "0"]]}, id="dim-string"),
])
def test_malformed_cone_spec_is_config_error(tmp_path, capsys, generators):
    path = tmp_path / "spec.json"
    spec = {"name": "bad", "dim": 3, "generators": generators}
    if isinstance(generators, dict):
        spec.update(generators)
    path.write_text(json.dumps(spec))
    assert main(["lattice", "--in", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_lattice_command_quarter(tmp_path):
    code = run(RunConfig("lattice", "quarter-plane", str(tmp_path)))
    assert code == 0
    report = json.loads(_read(tmp_path / "quarter-plane_lattice.json"))
    assert report["face_count"] == 4
    assert report["solvable_length"] == 2


def test_strata_command_on_file_spec(tmp_path):
    spec_path = tmp_path / "cone.json"
    spec_path.write_text(json.dumps({
        "name": "skew", "dim": 2, "generators": [["1", "0"], ["1", "1"]]}))
    code = run(RunConfig("strata", str(spec_path), str(tmp_path)))
    assert code == 0
    report = json.loads(_read(tmp_path / "skew_strata.json"))
    assert report["level_sizes"] == [1, 2, 1]


def test_index1d_command_rational(tmp_path):
    code = run(RunConfig("index1d", "rational-w-1", str(tmp_path)))
    assert code == 0
    rows = _read(tmp_path / "rational-w-1_index1d.csv").strip().splitlines()
    header = rows[0].split(",")
    assert header == ["experiment", "N", "sigma_min", "dim_ker", "dim_coker",
                      "index", "winding", "verdict"]
    first = dict(zip(header, rows[1].split(",")))
    assert first["winding"] == "-1"
    assert first["index"] == "1"
    assert first["verdict"] == "fredholm"


def test_pklimit_command(tmp_path):
    code = run(RunConfig("pklimit", "pklimit-translated-quarter", str(tmp_path)))
    assert code == 0
    report = json.loads(_read(tmp_path / "pklimit-translated-quarter_pklimit.json"))
    assert report["converged"] is True
    assert report["hausdorff_liminf_vs_exact"] <= report["eps"]
    assert report["exact_limit"]["inequalities"] == [["0", "-1"]]


def test_trivialize_requires_seed(tmp_path, capsys):
    code = run(RunConfig("trivialize", "trivialize-rotated-quarter", str(tmp_path)))
    assert code == 2


def test_trivialize_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = run(RunConfig("trivialize", "trivialize-rotated-quarter", str(out), seed=11))
        assert code == 0
    name = "trivialize-rotated-quarter_trivialize.json"
    assert _read(out_a / name) == _read(out_b / name)
    report = json.loads(_read(out_a / name))
    assert report["membership_margin_min"] > -1e-8
    assert report["empirical_lipschitz"] <= report["empirical_lipschitz_bound"]


def test_hierarchy_command(tmp_path):
    code = run(RunConfig("hierarchy2d", "hierarchy-singular-face", str(tmp_path)))
    assert code == 0
    report = json.loads(_read(tmp_path / "hierarchy-singular-face_hierarchy2d.json"))
    assert report["verdict"] == "not-hierarchy-fredholm"
    assert "e1" in report["failing_faces"]


def test_domain_error_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "halfplane.json"
    spec_path.write_text(json.dumps({
        "name": "half-plane", "dim": 2, "inequalities": [["1", "0"]]}))
    code = run(RunConfig("lattice", str(spec_path), str(tmp_path)))
    assert code == 1
    err = capsys.readouterr().err
    assert "not-pointed" in err


_HALF_PLANE = {"name": "half-plane", "dim": 2, "inequalities": [["1", "0"]]}
_FLAT = {"name": "flat", "dim": 3, "generators": [["1", "0", "0"], ["0", "1", "0"]]}
_RAY = {"name": "ray", "dim": 2, "generators": [["1", "0"]]}


@pytest.mark.parametrize("command, spec, message", [
    # A row that disagrees with the others or with "dim": its index, length and the dim.
    ("lattice", {"name": "x", "dim": 3, "generators": [["1", "0", "0"], ["0", "1"]]},
     "error [dimension-mismatch]: rays: row 1 has 2 entries, expected dimension 3"),
    ("strata", {"name": "x", "dim": 3, "generators": [["1", "0"]]},
     "error [dimension-mismatch]: rays: row 0 has 2 entries, expected dimension 3"),
    ("spectrum", {"name": "x", "dim": 2, "inequalities": [["1", "0"], ["0", "1", "1"]]},
     "error [dimension-mismatch]: inequalities: row 1 has 3 entries, expected dimension 2"),
    # Not pointed / not solid: the rank found and the ambient dimension.
    ("lattice", _HALF_PLANE, "error [not-pointed]: face lattice: cone is not pointed, "
     "its inequalities have rank 1 in dimension 2"),
    ("strata", _HALF_PLANE, "error [not-pointed]: strata: cone is not pointed, "
     "its inequalities have rank 1 in dimension 2"),
    ("spectrum", _FLAT, "error [not-solid]: strata: cone is not solid, "
     "its generators have rank 2 in dimension 3"),
    ("pklimit", {"name": "p", "cone": _HALF_PLANE, "direction": ["1", "0"]},
     "error [not-pointed]: exposed face: cone is not pointed, "
     "its inequalities have rank 1 in dimension 2"),
    ("pklimit", {"name": "p", "cone": _RAY, "direction": ["1", "0"]},
     "error [not-solid]: dual face: cone is not solid, its generators have rank 1 in dimension 2"),
    # A ray limit along no direction, or along one outside the cone: the
    # direction, and the inequality it violates with their product.
    ("pklimit", {"name": "p", "cone": "quarter-plane", "direction": ["0", "0"]},
     "error [membership]: ray limit needs a nonzero direction, got (0, 0)"),
    ("pklimit", {"name": "p", "cone": "quarter-plane", "direction": ["-1", "1/2"]},
     "error [membership]: point (-1, 1/2) is not in the cone: inequality (1, 0) gives -1 < 0"),
])
def test_cone_domain_error_carries_numbers(tmp_path, capsys, command, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([command, "--in", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_index1d_range_finder_breakdown_is_index_unresolved(tmp_path, capsys):
    """The b_2^8 kernel at T = 52: its sections are lower triangular, with 3
    near-null singular values at N = 512 and 5 at N = 1024, which split by
    their structure alone as (0, 3) and (0, 5).  Counts that differ across
    the truncations are an index-unresolved error naming both, not a
    traceback and not a report."""
    from conewh.presets import symbol_from_expression
    from conewh.wiener_hopf import _section, _singular_values

    expr = blaschke_power_kernel(2, 8)
    path = tmp_path / "w8.json"
    path.write_text(json.dumps({"name": "blaschke-w+8", "h": 0.05, "T": 52.0, "N": [512, 1024],
                                "symbol": {"expr": expr, "dim": 1}}))
    assert main(["index1d", "--in", str(path), "--out", str(tmp_path / "out")]) == 1
    symbol = symbol_from_expression(expr, 1, 0.05, 52.0)
    for N, k in ((512, 3), (1024, 5)):
        sigma = _singular_values(_section(symbol, N)[None])[0]
        assert (sigma < 1e-8 * sigma[0]).sum() == k and 1.115 < sigma[0] < 1.125
    assert capsys.readouterr().err == (
        "error [index-unresolved]: index not resolved: (dim_ker, dim_coker) differ across "
        "truncations {512: (0, 3), 1024: (0, 5)}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("winding", [1, -1, 2, -2, 3, -3, 4, -4])
def test_blaschke_power_index_agrees_or_is_a_typed_error(tmp_path, capsys, winding, a):
    """A slice of the index pipeline's map at the default truncations: the
    kernel of b_a^w (mirrored, x -> -x, for w < 0) at h = 0.05, T = 52,
    N = 512/1024.  Its sections are triangular, so its up to 4 near-null
    triples split by the triangle's side alone.  Each case either
    reports a finite-section index equal to -w, or ends in a domain error
    with its category: at a = 1 and |w| >= 3 the kernel has not decayed
    below 1e-8 at T/2, a kernel-window error.  None disagrees silently."""
    expr = blaschke_power_kernel(a, winding)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "b", "h": 0.05, "T": 52.0, "N": [512, 1024],
                                "symbol": {"expr": expr, "dim": 1}}))
    code = main(["index1d", "--in", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if a == 1 and abs(winding) >= 3:
        assert code == 1 and err.startswith("error [kernel-window]: kernel not window-compatible")
        return
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "out" / "b_index1d.json").read_text())
    assert report["winding"] == winding and report["verdict"] == "fredholm"
    assert report["numerical_index"] == report["index"] == -winding

def test_missing_input_exit_code(tmp_path, capsys):
    code = run(RunConfig("lattice", "no-such-spec", str(tmp_path)))
    assert code == 2


@pytest.mark.parametrize("command, spec", [
    ("lattice", None),                                      # --in names no file or preset
    ("trivialize", {"name": "x", "cone": "no-such-cone"}),  # an experiment's "cone"
])
def test_unknown_cone_preset_is_one_config_error(tmp_path, capsys, command, spec):
    source = "no-such-cone"
    if spec is not None:
        source = str(tmp_path / "spec.json")
        (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main([command, "--in", source, "--out", str(tmp_path / "out"), "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: no spec file or cone preset named 'no-such-cone' "
        "(presets: fourgonal-r3, half-line, quarter-plane, simplicial-r3)\n")


def test_unknown_command_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--in", "x", "--out", "y"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_bad_tolerance(capsys):
    assert main(["lattice", "--in", "quarter-plane", "--out", "/tmp",
                 "--tol", "oops"]) == 2


def test_tolerance_override(tmp_path):
    code = run(RunConfig("hierarchy2d", "hierarchy-gauss2d-small", str(tmp_path),
                         tolerances={"margin_tol": 1e-3}))
    assert code == 0
    report = json.loads(_read(tmp_path / "hierarchy-gauss2d-small_hierarchy2d.json"))
    assert report["config"]["tolerances"] == {"margin_tol": 1e-3}


def test_spectrum_command(tmp_path):
    code = run(RunConfig("spectrum", "quarter-plane", str(tmp_path)))
    assert code == 0
    report = json.loads(_read(tmp_path / "quarter-plane_spectrum.json"))
    assert report["dense_level"] == 0
    assert [lvl["rank"] for lvl in report["levels"]] == [0, 1, 2]
    assert len(report["levels"][1]["fibers"]) == 2
    assert report["dag_edges"] == [[0, 1], [1, 2]]
    assert report["incidences"][0]["uncovered"] == []


def test_index1d_expression_symbol(tmp_path):
    spec = {"name": "expr-gauss", "symbol": {"expr": "0.3*exp(-pi*x**2)", "dim": 1},
            "h": 0.05, "T": 30.0, "N": [64, 128]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(spec))
    code = run(RunConfig("index1d", str(path), str(tmp_path)))
    assert code == 0
    report = json.loads(_read(tmp_path / "expr-gauss_index1d.json"))
    assert report["winding"] == 0 and report["numerical_index"] == 0


def test_reports_byte_identical_across_runs(tmp_path):
    """Diff-based report contract: identical (config, seed) gives identical bytes."""
    for command, preset, seed in (("spectrum", "fourgonal-r3", None),
                                  ("strata", "simplicial-r3", None),
                                  ("index1d", "gauss-small", None)):
        out_a, out_b = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
        for out in (out_a, out_b):
            assert run(RunConfig(command, preset, str(out), seed=seed)) == 0
        fname = f"{preset}_{command}.json"
        assert _read(out_a / fname) == _read(out_b / fname)


@pytest.mark.parametrize("command, preset, seed, tol", [
    ("index1d", "rational-w-1", None, "typo=1"),
    ("index1d", "rational-w-1", None, "margin_tol=1e-3"),
    ("hierarchy2d", "hierarchy-gauss2d-small", None, "eps=0.1"),
    ("pklimit", "pklimit-translated-quarter", None, "margin_tol=1e-3"),
    ("lattice", "quarter-plane", None, "eps=0.1"),
    ("trivialize", "trivialize-rotated-quarter", 7, "typo=1"),
    ("pklimit", "pklimit-translated-quarter", None, "eps=half"),
])
def test_unknown_tolerance_key_rejected(tmp_path, capsys, command, preset, seed, tol):
    argv = [command, "--in", preset, "--out", str(tmp_path), "--tol", tol]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []       # rejected before any work


@pytest.mark.parametrize("command, preset, tol", [
    # A margin of 0.0 on a singular face must not pass as a certificate.
    ("hierarchy2d", "hierarchy-singular-face", "margin_tol=-1"),
    ("hierarchy2d", "hierarchy-singular-face", "margin_tol=0"),
    ("hierarchy2d", "hierarchy-singular-face", "margin_tol=nan"),
    ("hierarchy2d", "hierarchy-singular-face", "margin_tol=inf"),
    ("pklimit", "pklimit-translated-quarter", "eps=-1"),
])
def test_bad_tolerance_value_rejected(tmp_path, capsys, command, preset, tol):
    out = tmp_path / "out"
    assert main([command, "--in", preset, "--out", str(out), "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{command}' --tol '{tol.split('=')[0]}' must be ")
    assert len(err.strip().splitlines()) == 1 and not out.exists()


def test_report_that_does_not_serialize_writes_nothing(tmp_path):
    """A NaN field fails the JSON encoder before --out, the CSV or the JSON
    file is made."""
    config = RunConfig("index1d", "nan-report", str(tmp_path / "out"))
    rows = [{"experiment": "nan-report", "N": 16, "sigma_min": "nan", "verdict": "fredholm"}]
    with pytest.raises(ValueError, match="Out of range float values"):
        _write_report(config, "nan-report", {"symbol_min": float("nan")}, rows)
    assert list(tmp_path.iterdir()) == []


_GRID = {"h": 0.05, "T": 30.0, "N": [64, 128]}


@pytest.mark.parametrize("command, symbol", [
    ("index1d", "gauss-small"), ("hierarchy2d", "gauss2d-small")])
@pytest.mark.parametrize("grid", [
    {"T": 30.0, "N": [64, 128]},
    {"h": 0.05, "N": [64, 128]},
    {"h": 0.05, "T": 30.0},
    {**_GRID, "T": "nan"},
    {**_GRID, "h": "inf"},
    {**_GRID, "h": "fine"},
    {**_GRID, "N": 64},
    {**_GRID, "N": ["many", 128]},
    {**_GRID, "h": -0.05},
    {**_GRID, "T": 0},
    {**_GRID, "N": [512]},
    {**_GRID, "N": []},
    {**_GRID, "N": [0, 128]},
    {**_GRID, "N": [64.5, 128]},
    {**_GRID, "N": [True, 128]},
    {**_GRID, "N": [128, 64]},
    {**_GRID, "N": [64, 64]},
    {**_GRID, "h": 1e-300, "T": 1.0},
    {**_GRID, "h": 1e-7},
    {**_GRID, "T": 1e6, "N": [64, 10000]},
    # A number given as a string or a boolean.
    {**_GRID, "h": "0.05"},
    {**_GRID, "h": True},
    {**_GRID, "T": False},
])
def test_bad_grid_is_config_error(tmp_path, capsys, command, symbol, grid):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "bad-grid", "symbol": symbol, **grid}))
    assert run(RunConfig(command, str(path), str(tmp_path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


_PK = {"name": "bad-pk", "cone": "quarter-plane", "direction": ["1", "0"],
       "scales": [2, 4], "eps": 0.5, "window": 2.0, "step": 0.25}


@pytest.mark.parametrize("spec, tol", [
    pytest.param({**_PK, "step": 0}, None, id="step-zero"),
    pytest.param({**_PK, "step": -0.25}, None, id="step-negative"),
    pytest.param({**_PK, "window": "nan"}, None, id="window-nan"),
    pytest.param({**_PK, "window": 0}, None, id="window-zero"),
    pytest.param({**_PK, "eps": "half"}, None, id="eps-word"),
    pytest.param({**_PK, "eps": True}, None, id="eps-bool"),
    pytest.param({**_PK, "eps": "0.5"}, None, id="eps-string"),
    pytest.param({**_PK, "window": True}, None, id="window-bool"),
    pytest.param({**_PK, "step": "0.25"}, None, id="step-string"),
    pytest.param(_PK, "eps=nan", id="tol-eps-nan"),
    pytest.param(_PK, "eps=-1", id="tol-eps-negative"),
    pytest.param({k: v for k, v in _PK.items() if k != "direction"}, None,
                 id="direction-missing"),
    pytest.param({**_PK, "direction": ["1", "0", "1"]}, None, id="direction-3-on-2d"),
    pytest.param({**_PK, "direction": [True, False]}, None, id="direction-bool"),
    pytest.param({**_PK, "direction": "10"}, None, id="direction-string"),
    pytest.param({**_PK, "scales": ["big", 4]}, None, id="scales-word"),
    pytest.param({**_PK, "scales": [2, "inf"]}, None, id="scales-inf"),
    pytest.param({**_PK, "scales": [4.0]}, None, id="scales-one"),
    pytest.param({**_PK, "scales": [64, 32, 2]}, None, id="scales-decreasing"),
    pytest.param({**_PK, "scales": [-2, -4]}, None, id="scales-negative"),
    pytest.param({**_PK, "scales": [0, 0]}, None, id="scales-zero"),
    pytest.param({k: v for k, v in _PK.items() if k != "cone"}, None, id="cone-missing"),
    pytest.param({**_PK, "window": 1e6}, None, id="lattice-too-large"),
    pytest.param({**_PK, "window": 4.0, "step": 1e-300}, None, id="step-tiny"),
    pytest.param(_PK, "eps=1e5", id="stencil-too-large"),
])
def test_bad_pklimit_spec_is_config_error(tmp_path, capsys, spec, tol):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["pklimit", "--in", str(path), "--out", str(tmp_path / "out")]
    assert main(argv + (["--tol", tol] if tol else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_integer_scales_read_as_the_default_floats():
    rule, default = SPEC_KEYS["pklimit"]["scales"]
    scales = rule([2, 4, 8, 16, 32, 64], "'pklimit' spec 'scales'")
    assert scales == default and all(type(s) is float for s in scales)


# A cone so thin that no point of this window lattice, which misses the origin
# (1.05 is not a multiple of 0.3), lies in any translate s*x - C: every tail
# sample, so the liminf and the limsup, is empty.
_PK_EMPTY = {"name": "pkinf", "cone": {"name": "thin", "dim": 2,
                                       "generators": [["1000", "1"], ["1000", "-1"]]},
             "direction": ["1", "0"], "eps": 0.5, "window": 1.05, "step": 0.3}


def test_empty_pklimit_sample_is_domain_error(tmp_path):
    """Empty sampled limits end in exit 1 with the empty-sample category and
    the tail scales, window and step, without a traceback or a report."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_PK_EMPTY))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "conewh.cli", "pklimit", "--in", str(path),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error [empty-sample]: the sampled liminf and limsup are empty")
    for part in ("tail scales [16.0, 32.0, 64.0]", "window 1.05", "step 0.3",
                 "multiple of the step"):
        assert part in proc.stderr
    assert not (tmp_path / "out").exists()


_TRIV = {"name": "bad-triv", "cone": "quarter-plane", "angle_deg": 8.0, "samples": 50}


@pytest.mark.parametrize("command, spec", [
    ("lattice", [1, 2]),
    ("trivialize", [1, 2]),
    ("index1d", [1, 2]),
    ("hierarchy2d", "quarter-plane"),
    ("pklimit", None),
    ("index1d", {"name": "no-symbol", **_GRID}),
    ("hierarchy2d", {"name": "no-symbol", **_GRID}),
    ("trivialize", {"name": "no-cone", "angle_deg": 5.0}),
    ("trivialize", {**_TRIV, "samples": 0}),
    ("trivialize", {**_TRIV, "samples": -5}),
    ("trivialize", {**_TRIV, "samples": 2.5}),
    ("trivialize", {**_TRIV, "samples": "500"}),
    ("trivialize", {**_TRIV, "angle_deg": "nan"}),
    ("trivialize", {**_TRIV, "angle_deg": "wide"}),
    ("trivialize", {**_TRIV, "xi0": [0.6, 0.6, 0.5]}),
    ("trivialize", {**_TRIV, "xi0": [0.7]}),
    ("trivialize", {**_TRIV, "xi0": ["0.7", 0.7]}),
    ("trivialize", {**_TRIV, "xi0": [float("nan"), 0.7]}),
    ("trivialize", {**_TRIV, "xi0": [True, 0.7]}),
    ("trivialize", {**_TRIV, "xi0": 0.7}),
    ("index1d", {"name": "attr", "symbol": {"expr": "().__class__.__name__ and 0*x",
                                            "dim": 1}, **_GRID}),
    ("hierarchy2d", {"name": "attr", "symbol": {"expr": "x.real + y", "dim": 2}, **_GRID}),
    *[("index1d", {"name": "dim", "symbol": {"expr": "0.3*exp(-pi*x**2)", "dim": dim},
                   **_GRID}) for dim in ("a", "1", 3, 0, 1.0, True)],
    ("hierarchy2d", {"name": "y", "symbol": "gauss2d-small", **_GRID, "y_values": ["a"]}),
    ("hierarchy2d", {"name": "y", "symbol": "gauss2d-small", **_GRID, "y_values": []}),
    ("hierarchy2d", {"name": "y", "symbol": "gauss2d-small", **_GRID, "y_values": 0.5}),
    ("trivialize", {**_TRIV, "samples": 2**26 + 1}),
    # Integers beyond the float range are compared and printed exactly.
    ("trivialize", {**_TRIV, "samples": 10**400}),
    ("index1d", {"name": "huge", "symbol": "gauss-small", **_GRID, "N": [64, 10**400]}),
    ("hierarchy2d", {"name": "huge", "symbol": "gauss2d-small", **_GRID, "N": [8, 10**400]}),
    ("pklimit", {**_PK, "direction": ["1", 10**400]}),
    # An inline cone with a ray, or a facet normal, beyond the float range.
    ("pklimit", {**_PK, "cone": {"name": "q", "dim": 2, "generators": [[1, 10**400], [1, 0]]}}),
    ("pklimit", {**_PK, "cone": {"name": "q", "dim": 2,
                                 "inequalities": [["1e400", "1"], [0, 1]]}}),
    ("trivialize", {**_TRIV, "cone": {"name": "q", "dim": 2,
                                      "generators": [["1", "1e400"], ["1", "0"]]}}),
    # An angle given as a boolean or a string.
    ("trivialize", {**_TRIV, "angle_deg": True}),
    ("trivialize", {**_TRIV, "angle_deg": "8.0"}),
    # A symbol object's or an inline cone's "name" that is not a string.
    *[("index1d", {"name": "named", "symbol": {"expr": "0.3*exp(-pi*x**2)", "dim": 1,
                                               "name": name}, **_GRID})
      for name in (["x"], 7, None)],
    *[("pklimit", {**_PK, "cone": {"name": name, "dim": 2,
                                   "generators": [["1", "0"], ["0", "1"]]}})
      for name in (["x"], 7, None)],
])
def test_malformed_experiment_spec_is_config_error(tmp_path, capsys, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = [command, "--in", str(path), "--out", str(tmp_path / "out"), "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


_CONE = {"name": "cone", "dim": 2, "generators": [["1", "0"], ["0", "1"]]}
_GAUSS = {"name": "gauss", "symbol": {"expr": "0.3*exp(-pi*x**2)", "dim": 1}, **_GRID}


@pytest.mark.parametrize("command, spec, message", [
    # A spec file that is not UTF-8 text: UTF-16 with a byte order mark, Latin-1.
    pytest.param("lattice", "{}".encode("utf-16"),
                 "as UTF-8: 'utf-8' codec can't decode byte 0xff in position 0", id="utf-16"),
    pytest.param("index1d", '{"name": "café"}'.encode("latin-1"),
                 "as UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 13",
                 id="latin-1"),
    # A "name" that would put the report outside --out, or name no file.
    ("lattice", {**_CONE, "name": "../escaped"}, "got '../escaped'"),
    ("strata", {**_CONE, "name": ""}, "got ''"),
    ("spectrum", {**_CONE, "name": ".."}, "got '..'"),
    ("lattice", {**_CONE, "name": "."}, "got '.'"),
    ("lattice", {**_CONE, "name": "sub/cone"}, "got 'sub/cone'"),
    ("lattice", {**_CONE, "name": "nul\0"}, "got 'nul\\x00'"),
    ("index1d", {**_GAUSS, "name": 5}, "got 5"),
    ("index1d", {**_GAUSS, "name": "../../escaped"}, "got '../../escaped'"),
    ("hierarchy2d", {**_GAUSS, "name": None}, "got None"),
    ("pklimit", {**_PK, "name": ["pk"]}, "got ['pk']"),
    ("trivialize", {**_TRIV, "name": "/abs"}, "got '/abs'"),
    # A key that no command reads, at any depth: it and the accepted keys.
    ("pklimit", {**_PK, "epsilon": 0.01, "windw": 9}, "unknown 'pklimit' spec key(s): "
     "epsilon, windw (accepted: name, cone, direction, scales, eps, window, step)"),
    ("index1d", {**_GAUSS, "tolerance": 1e-3},
     "unknown 'index1d' spec key(s): tolerance (accepted: name, symbol, h, T, N)"),
    ("hierarchy2d", {**_GAUSS, "y_value": [0.5]}, "unknown 'hierarchy2d' spec key(s): "
     "y_value (accepted: name, symbol, h, T, N, y_values)"),
    ("trivialize", {**_TRIV, "xi": [1, 1]}, "unknown 'trivialize' spec key(s): "
     "xi (accepted: name, cone, angle_deg, samples, xi0)"),
    ("index1d", {**_GAUSS, "symbol": {**_GAUSS["symbol"], "dimm": 1}},
     "unknown symbol key(s): dimm (accepted: expr, dim, name)"),
    ("pklimit", {**_PK, "cone": {**_CONE, "gens": []}},
     "unknown cone spec key(s): gens (accepted: name, dim, generators, inequalities)"),
    ("lattice", {**_CONE, "generator": [["1", "1"]]},
     "unknown cone spec key(s): generator (accepted: name, dim, generators, inequalities)"),
    # A symbol object's or an inline cone's "name" that is not a string: the key.
    ("hierarchy2d", {**_GAUSS, "symbol": {"expr": "exp(-pi*(x**2+y**2))", "dim": 2,
                                          "name": ["x"]}},
     "symbol 'name' must be a string, got ['x']"),
    ("trivialize", {**_TRIV, "cone": {**_CONE, "name": 7}},
     "cone spec 'name' must be a string, got 7"),
    # An integer beyond the interpreter's limit of 4300 digits for reading one.
    pytest.param("lattice", b'{"name": "x", "dim": 2, "generators": [[1, 1' + b"0" * 5000
                 + b"], [1, 0]]}", "Exceeds the limit (4300 digits)", id="5001-digits",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no integer digit limit before 3.10.7")),
])
def test_unreadable_spec_or_escaping_name_is_config_error(tmp_path, capsys, command, spec,
                                                          message):
    path = tmp_path / "spec.json"
    path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    out = tmp_path / "work" / "out"
    out.parent.mkdir()
    argv = [command, "--in", str(path), "--out", str(out), "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.strip().splitlines()) == 1
    if isinstance(spec, bytes):
        assert str(path) in err
    # Nothing is written, not even --out, which is made only for a result.
    assert os.listdir(tmp_path / "work") == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, message", [
    pytest.param({**_TRIV, "xi0": [0.0, 0.0]}, "error [trivialization]: base point",
                 id="xi0-zero"),
    pytest.param({**_TRIV, "xi0": [1e-320, 1e-320]}, "error [trivialization]: base point",
                 id="xi0-underflow"),
])
def test_trivialize_domain_error(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["trivialize", "--in", str(path), "--out", str(tmp_path / "out"), "--seed", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, spec", [
    # Entries in the float range whose norms, or whose products with the
    # largest scale, are not.
    pytest.param("trivialize", {**_TRIV, "xi0": [1e308, 0.7071067811865476]}, id="xi0-huge"),
    pytest.param("trivialize", {**_TRIV, "cone": {"name": "q", "dim": 2,
                                                  "generators": [[1, 10**200], [1, 0]]}},
                 id="trivialize-cone-1e200"),
    pytest.param("pklimit", {**_PK, "cone": {"name": "q", "dim": 2,
                                             "generators": [[1, 10**200], [1, 0]]}},
                 id="pklimit-cone-1e200"),
    pytest.param("pklimit", {"name": "far", "cone": "quarter-plane",
                             "direction": ["1e307", "1"]}, id="direction-1e307"),
    # A direction and facet normals each in the float range whose margin
    # products in the sampled window are not.
    pytest.param("pklimit", {"name": "steep", "cone": {"name": "q", "dim": 2,
                                                       "generators": [[1, 10**10], [1, 0]]},
                             "direction": ["1e300", "1"]}, id="margin-1e310"),
])
def test_overflowing_spec_is_config_error(tmp_path, capsys, command, spec):
    """Specs whose numbers overflow once squared or scaled end in exit 2 with
    one line, before any RuntimeWarning (an error here)."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = [command, "--in", str(path), "--out", str(tmp_path / "out"), "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, expr, dim", [
    ("index1d", "where(abs(x) < 1, 1e308, 0*x)", 1),
    ("hierarchy2d", "where(abs(x) + abs(y) < 1, 1e308, 0*x)", 2),
])
def test_kernel_with_infinite_l1_norm_is_domain_error(tmp_path, capsys, command, expr, dim):
    """Finite samples whose L1 norm overflows end in exit 1 before the DFT,
    with no RuntimeWarning (an error here) and no --out."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "huge", "symbol": {"expr": expr, "dim": dim},
                                "h": 0.25, "T": 12.0, "N": [16, 32]}))
    out = tmp_path / "out"
    assert main([command, "--in", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error [non-finite-kernel]: kernel L1 norm h^{dim} * sum |f| is inf, not finite\n")
    assert not out.exists()


def _never_called(*args, **kwargs):
    raise AssertionError("the expression was evaluated")


@pytest.mark.parametrize("command, expr, dim, code, message", [
    # Kernel samples that are not finite: a domain error naming the first one.
    ("index1d", "x/x*exp(0-x*x)", 1, 1, "error [non-finite-kernel]: kernel sample at x = 0 "),
    ("index1d", "exp(-x*x)/x", 1, 1, "error [non-finite-kernel]: kernel sample at x = 0 "),
    ("hierarchy2d", "x*y/(x*y)*exp(-x*x-y*y)", 2, 1,
     "error [non-finite-kernel]: kernel sample at x = -30, y = 0 "),
    # A floor below the 2-D decay tolerance sums to a face restriction above it.
    ("hierarchy2d", "9e-9 + 0.3*exp(-pi*(x**2+y**2))", 2, 1,
     "error [kernel-window]: kernel not window-compatible"),
    # Constant integer powers beyond the float range: rejected before evaluation.
    ("index1d", "10**10**10*exp(-x*x)", 1, 2, "error: bad symbol expression: constant power"),
    ("hierarchy2d", "exp(-x*x-y*y)*(2**1000)**2", 2, 2,
     "error: bad symbol expression: constant power"),
    ("index1d", "exp(-x*x)*-(-7)**(3**7)", 1, 2, "error: bad symbol expression: constant power"),
    # Exponents above the float range (~1.8e308) are compared, not multiplied.
    ("index1d", "exp(-x*x)*2**(2**1000*2**1000)", 1, 2,
     "error: bad symbol expression: constant power"),
    pytest.param("index1d", f"exp(-x*x)*3**{'9' * 400}", 1, 2,
                 "error: bad symbol expression: constant power", id="400-digit-exponent"),
    # A symbol of the other dimension: a domain error found before any sample.
    ("index1d", "exp(-pi*(x**2+y**2))", 2, 1,
     "error [dimension-mismatch]: index1d needs a 1-D symbol, got a 2-D one"),
    ("hierarchy2d", "0.3*exp(-pi*x**2)", 1, 1,
     "error [dimension-mismatch]: hierarchy2d needs a 2-D symbol, got a 1-D one"),
])
def test_input_boundary_probe(tmp_path, capsys, monkeypatch, command, expr, dim, code, message):
    if code == 2 or "dimension-mismatch" in message:
        monkeypatch.setattr("conewh.wiener_hopf.make_symbol", _never_called)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "probe", "symbol": {"expr": expr, "dim": dim}, **_GRID}))
    assert main([command, "--in", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, spec, message", [
    ("index1d", {"symbol": "gauss-small", "h": 0.05, "T": 30.0, "N": [512, 1024]},
     "error [kernel-window]: truncation exceeds the kernel window: N*h <= T required, "
     "got N = 1024, h = 0.05: N*h = 51.2 > T = 30.0\n"),
    ("hierarchy2d", {"symbol": {"expr": "0.3*exp(-pi*(x**2+y**2)/400)", "dim": 2},
                     "h": 0.5, "T": 12.0, "N": [16, 24]},
     "error [kernel-window]: kernel not window-compatible: |f| reaches 0.215 where "
     "|x| > T/2 = 6, not below the decay tolerance 1e-08\n"),
    ("index1d", {"symbol": "gauss-small", "h": 1, "T": 5, "N": [2, 4]},
     "error [kernel-window]: window too small: T >= 10*h required, "
     "got T = 5.0, h = 1.0: T < 10*h = 10.0\n"),
])
def test_window_errors_name_their_numbers(tmp_path, capsys, command, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "window", **spec}))
    assert main([command, "--in", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_trivialize_on_a_3d_cone_names_its_dimension(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**_TRIV, "cone": "fourgonal-r3"}))
    argv = ["trivialize", "--in", str(path), "--out", str(tmp_path / "out"), "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error [dimension-mismatch]: rotation helper is 2-D only, got a 3-D cone\n")
    assert not (tmp_path / "out").exists()
