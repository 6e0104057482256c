"""Byte-identity of reports against committed golden files.

The exact-layer reports under golden/reports were written by the rational
double description and the O(F^3) covering loop, before the cone layer moved
to integers and bitmasks.  Inputs: the four packaged cone presets, a
polygonal cone with 48 rays and a unimodular image of the cone over the
5-cube (specs under golden/specs, given as paths relative to golden/ so the
report header is the same in every checkout).

The sampled reports (pklimit, trivialize) were written from full nearest
distances to every sampled set and a per-point gauge loop, before those
moved to eps-bounded KD queries and row-batched gauges, and later to masks on
the window lattice.  Inputs: the two packaged sampled presets and two 3-D
pklimit specs with the preset's scales, eps, window and step.  Two more
pklimit reports, fourgonal-r3 along (0,0,1) and along (1,0,1), were written
once the sampled limsup read the same tail of scales as the liminf (the
last three scales, one limsup block); before that, both directions gave a
liminf larger than the limsup and converged false.  They pin converged true
with liminf_size == limsup_size.

The hierarchy2d reports (JSON and CSV) of the two packaged hierarchy presets
were written once the twisted face restrictions were taken in one folded
pass and the (then real symmetric) face sections factored by eigvalsh; they
moved from the direct-sum, complex-assembled, SVD-factored reports only in
sigma_min, margin and margin_at_infinity, by at most 1.8e-15, below
N * eps * sigma_max.  They hold on one and on two BLAS threads.  The index1d
reports of the seven packaged index presets were written after the split
moved to one values-only SVD plus an LU for the near-null vectors; before that
move they differed only in sigma_min, by at most 7e-16 (N * eps * sigma_max
bounds it).  The singular-zero report was rewritten when its symmetric
sections moved to eigvalsh: sigma_min moved by at most 5.2e-16.  The
gauss-small report was rewritten when the split, too, factored symmetric
sections by eigvalsh: sigma_min moved by at most 2.2e-15.  The four rational
reports were rewritten when a real Toeplitz section that is not symmetric
was factored by eigvalsh of its column-reversed form, which is symmetric:
sigma_min moved by at most 6.1e-16, against N * eps * sigma_max >= 1.1e-13.
Every index1d report but zero, and both hierarchy2d reports, were rewritten
once on two BLAS threads when the Wiener-Hopf layer moved from scipy.linalg
to numpy.linalg (numpy's eigvalsh is LAPACK syevd, SciPy's syevr), real
symmetric Toeplitz sections to two eigvalsh of half order, and the near-null
vectors to one solve.  Only sigma_min, margin and margin_at_infinity moved:
index1d sigma_min by at most 1.0e-15 (rational-w-1 and rational-w-2 at
N = 512), against N * eps * sigma_max >= 2.8e-14; hierarchy2d margin by at
most 3.0e-16, margin_at_infinity by at most 5.6e-16 and the CSV sigma_min
by at most 8.0e-16, against N * eps * sigma_max >= 1.1e-14.  The hierarchy2d
reports still hold on one BLAS thread; the index1d ones still do not.

Two reports of inline expression kernels (specs under golden/specs) pin the
sampling path byte for byte.  index1d-modulated-rational is the
e^{3ix}-modulated rational kernel of winding -1, a complex kernel whose
sections have no Hermitian form; once one-sided kernels moved to blocked
substitution, its sections, which are triangular, took it.
index1d-two-sided-rational, the rational kernel of winding +1 (pole scale 2)
plus 0.3 e^{-pi x^2} at h = 0.05, T = 52, N = 512/1024, keeps a near-null
pair whose vectors come from eigh of the Hankel view: its sections are
two-sided, and its report was written before the substitution.
index1d-two-sided-modulated is that kernel times e^{3ix}: its sections are
two-sided, complex and not Hermitian, their vectors come from a full SVD,
and its reports were written while such a section took two solves, against
W and against W^T.  Both reports were kept byte for byte when the range
finder gave way to those eigensolves.  hierarchy2d-expr-fine is a real, non-separable kernel
even in each coordinate on the finest hierarchy grid (h = 0.05, T = 12,
N = 96/192) with explicit fibre frequencies; like the preset hierarchy2d
reports it holds on one and on two BLAS threads.  hierarchy2d-expr-mixed,
0.6*exp(-pi*(x**2 + x*y + 2*y**2)) at h = 0.05, T = 12, N = 96/128, pins a
real even y = 0 column inside faces whose other columns are complex
Hermitian: its reports were written before the face columns were factored
in stacks, and its CSV rows at y = 0 keep the half-order split of that
column only while realness and structure class are decided per column (one
realness test for a whole stack moves them to 0.9999999999999974 and
0.9999999999999981 on e1).  The JSON keeps only each face's least row, so
only the CSV shows that.  At N = 192 its complex rows differ between one
and two BLAS threads; up to N = 160 they do not, hence N = 128.

The 36 JSON goldens of that time were rewritten once, in whitespace only, when the report
writer moved from the layout of json.dumps(indent=2) to one member per line
and one line per element of each list member; each parses to the same value
as before.  The 12 CSV goldens did not change.
"""

from pathlib import Path

import pytest

from conewh.cli import RunConfig, run

GOLDEN = Path(__file__).parent / "golden"
INPUTS = [
    ("fourgonal-r3", "fourgonal-r3"),
    ("half-line", "half-line"),
    ("quarter-plane", "quarter-plane"),
    ("simplicial-r3", "simplicial-r3"),
    ("specs/polygon-48.json", "polygon-48"),
    ("specs/cube5-unimodular.json", "cube5-unimodular"),
]


@pytest.mark.parametrize("command", ["lattice", "strata", "spectrum"])
@pytest.mark.parametrize("spec, name", INPUTS)
def test_report_matches_golden(tmp_path, monkeypatch, spec, name, command):
    _check_golden(tmp_path, monkeypatch, command, spec, None, name)


def _check_golden(tmp_path, monkeypatch, command, spec, seed, name, suffixes=(".json",)):
    monkeypatch.chdir(GOLDEN)
    assert run(RunConfig(command, spec, str(tmp_path), seed)) == 0
    for suffix in suffixes:
        fname = f"{name}_{command}{suffix}"
        assert (tmp_path / fname).read_bytes() == (GOLDEN / "reports" / fname).read_bytes()


@pytest.mark.parametrize("command, spec, seed, name", [
    ("pklimit", "pklimit-translated-quarter", None, "pklimit-translated-quarter"),
    ("trivialize", "trivialize-rotated-quarter", 7, "trivialize-rotated-quarter"),
    ("pklimit", "specs/pklimit-fourgonal-r3-111.json", None, "pklimit-fourgonal-r3-111"),
    ("pklimit", "specs/pklimit-simplicial-r3-110.json", None, "pklimit-simplicial-r3-110"),
    ("pklimit", "specs/pklimit-fourgonal-r3-001.json", None, "pklimit-fourgonal-r3-001"),
    ("pklimit", "specs/pklimit-fourgonal-r3-101.json", None, "pklimit-fourgonal-r3-101"),
])
def test_sampled_report_matches_golden(tmp_path, monkeypatch, command, spec, seed, name):
    _check_golden(tmp_path, monkeypatch, command, spec, seed, name)


@pytest.mark.parametrize("command, preset", [
    ("index1d", "rational-w-1"),
    ("index1d", "rational-w+1"),
    ("index1d", "rational-w-2"),
    ("index1d", "rational-w+2"),
    ("index1d", "gauss-small"),
    ("index1d", "singular-zero"),
    ("index1d", "zero"),
    ("hierarchy2d", "hierarchy-gauss2d-small"),
    ("hierarchy2d", "hierarchy-singular-face"),
])
def test_index_report_matches_golden(tmp_path, monkeypatch, command, preset):
    _check_golden(tmp_path, monkeypatch, command, preset, None, preset, (".json", ".csv"))


@pytest.mark.parametrize("command, name", [
    ("index1d", "index1d-modulated-rational"),
    ("index1d", "index1d-two-sided-rational"),
    ("index1d", "index1d-two-sided-modulated"),
    ("hierarchy2d", "hierarchy2d-expr-fine"),
    ("hierarchy2d", "hierarchy2d-expr-mixed"),
])
def test_expression_report_matches_golden(tmp_path, monkeypatch, command, name):
    _check_golden(tmp_path, monkeypatch, command, f"specs/{name}.json", None, name,
                  (".json", ".csv"))
