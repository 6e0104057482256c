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
sections moved to eigvalsh: sigma_min moved by at most 5.2e-16.
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
