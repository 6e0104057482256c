"""Byte-identity of the exact-layer reports against committed golden files.

The golden reports under golden/reports were written by the rational double
description and the O(F^3) covering loop, before the cone layer moved to
integers and bitmasks.  Inputs: the four packaged cone presets, a polygonal
cone with 48 rays and a unimodular image of the cone over the 5-cube (specs
under golden/specs, given as paths relative to golden/ so the report header
is the same in every checkout).
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
    monkeypatch.chdir(GOLDEN)
    assert run(RunConfig(command, spec, str(tmp_path))) == 0
    fname = f"{name}_{command}.json"
    assert (tmp_path / fname).read_bytes() == (GOLDEN / "reports" / fname).read_bytes()
