"""Import footprint: each CLI command, run in a fresh interpreter as the
`conewh` script runs it, loads only the SciPy subpackages its layers use;
`import conewh` loads none, and its lazy exports are the submodules' objects.
"""

import json
import os
import subprocess
import sys

import pytest

import conewh

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# The SciPy subpackages that cost most of an import: spatial for convex hulls,
# and linalg and optimize, which no layer loads: wiener_hopf runs on
# numpy.linalg, and convex projects onto polyhedra by its own active-set solve.
HEAVY = ("linalg", "optimize", "spatial")

_REPORT = """
import json, sys
{body}
print(json.dumps({{"scipy": "scipy" in sys.modules,
                  "heavy": sorted(p for p in {heavy!r} if "scipy." + p in sys.modules)}}))
"""


def _fresh(body):
    """Run body in a fresh interpreter; which SciPy modules it left loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _REPORT.format(body=body, heavy=HEAVY)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command, preset, scipy, heavy", [
    ("lattice", "fourgonal-r3", False, []),
    ("strata", "fourgonal-r3", False, []),
    ("spectrum", "fourgonal-r3", False, []),
    ("pklimit", "pklimit-translated-quarter", False, []),
    ("index1d", "rational-w+1", False, []),
    ("hierarchy2d", "hierarchy-gauss2d-small", False, []),
    ("trivialize", "trivialize-rotated-quarter", False, []),
])
def test_command_loads_only_its_scipy_subpackages(tmp_path, command, preset, scipy, heavy):
    argv = [command, "--in", preset, "--out", str(tmp_path), "--seed", "1"]
    loaded = _fresh(f"from conewh.cli import main\nassert main({argv!r}) == 0")
    assert loaded == {"scipy": scipy, "heavy": heavy}


def test_package_import_loads_no_scipy():
    assert _fresh("import conewh") == {"scipy": False, "heavy": []}


def test_cone_projection_and_gauge_gradient_load_no_scipy_optimize():
    body = """
import numpy as np
from conewh.convex import BallBody, HPolytopeBody, PolyhedralConeBody, gauge_gradient
from conewh.presets import cone_preset
cone = PolyhedralConeBody.from_exact(cone_preset("fourgonal-r3"))
assert np.allclose(cone.project([0.0, 0.0, -1.0]), 0.0)
assert np.allclose(gauge_gradient(BallBody(2.0, 2), [3.0, 4.0]), [0.3, 0.4])
assert np.allclose(gauge_gradient(HPolytopeBody([[1.0], [-1.0]], [1.0, 1.0]), [0.5]), [1.0])
"""
    assert "optimize" not in _fresh(body)["heavy"]


def test_layer_modules_are_registered_before_first_use():
    """After `import conewh.cli` every layer module is in sys.modules, unloaded
    until touched, so the layer tracer of perfbench/tracing.py can wrap it;
    loading every layer to wrap it loads no SciPy."""
    body = f"""
from conewh import cli
layers = ("cones", "convex", "limits", "strata", "trivialization", "wiener_hopf",
          "presets", "io")
assert all("conewh." + m in sys.modules for m in layers)
assert "scipy" not in sys.modules
sys.path.insert(0, {os.path.join(ROOT, "perfbench")!r})
import tracing
tracing.install(tracing.Tracer())
assert sys.modules["conewh.wiener_hopf"].make_symbol.__wrapped__.__module__ == "conewh.wiener_hopf"
"""
    assert _fresh(body) == {"scipy": False, "heavy": []}


def test_exports_are_the_submodule_objects():
    assert conewh.__all__ == sorted(conewh.__all__) and len(conewh.__all__) == 56
    for name in conewh.__all__:
        obj = getattr(conewh, name)
        assert obj.__module__.startswith("conewh.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(conewh.__all__) <= set(dir(conewh))
    from conewh import face_lattice, make_symbol  # noqa: F401
    with pytest.raises(AttributeError, match="no attribute 'nnls'"):
        conewh.nnls  # noqa: B018
