"""Set-up probe: import conewh.cli and make one tiny call into each layer.

Run as a fresh interpreter to time what every CLI invocation pays before its
real work (interpreter start, imports, first calls into numpy/scipy):

    python3 perfbench/probe.py --src src --layers cones,strata,io

The traced workload process also calls `call_layers` once for every layer,
so that no per-layer metric reads a constant zero on a workload that does
not use the layer.
"""

import argparse
import os
import sys

LAYERS = ("presets", "cones", "strata", "limits", "convex", "trivialization",
          "wiener_hopf", "io")


def call_layers(layers):
    """One tiny call into each named layer; returns nothing."""
    import numpy as np

    from conewh import cli  # noqa: F401  (the import every CLI command pays)
    from conewh.cones import cone_from_generators, face_lattice

    cone3 = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    quarter = cone_from_generators([(1, 0), (0, 1)])
    if "presets" in layers:
        from conewh.presets import cone_preset, resolve_symbol

        cone_preset("quarter-plane")
        resolve_symbol({"expr": "0.3*exp(-40*x**2)", "dim": 1}, 0.1, 2.0)
    if "cones" in layers:
        face_lattice(cone3)
    if "strata" in layers:
        from conewh.strata import ray_limit, spectrum_poset

        spectrum_poset(cone3)
        ray_limit(cone3, (1, 0, 0))
    if "limits" in layers:
        from conewh.limits import hausdorff_distance, pk_converged, sample_cone

        seq = [sample_cone(quarter, (-1.0, 1.0), 0.5, shift=(s, 0.0)) for s in (1.0, 2.0)]
        pk_converged(seq, 0.5, bounds=(-1.0, 1.0), step=0.5)
        hausdorff_distance(seq[0], seq[1])
    if "convex" in layers:
        from conewh.convex import HPolytopeBody

        HPolytopeBody.from_vertices([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]).gauge([0.2, 0.1])
    if "trivialization" in layers:
        from conewh.convex import PolyhedralConeBody
        from conewh.trivialization import build_trivialization, triv_apply, triv_det_formula

        rotated = PolyhedralConeBody.from_exact(quarter).rotated(0.1)
        triv = build_trivialization(quarter, rotated, xi0=np.array([0.7, 0.7]))
        triv_apply(triv, np.array([[1.0, 2.0], [2.0, 1.0]]))
        triv_det_formula(triv, np.array([1.0, 2.0]))
    if "wiener_hopf" in layers:
        from conewh.presets import resolve_symbol
        from conewh.wiener_hopf import classical_index, hierarchy_fredholm

        classical_index(resolve_symbol({"expr": "0.3*exp(-40*x**2)", "dim": 1}, 0.1, 2.0),
                        truncations=(8, 16))
        sym2 = resolve_symbol({"expr": "0.3*exp(-100*(x**2+y**2))", "dim": 2}, 0.1, 1.0)
        hierarchy_fredholm(sym2, truncations=(4, 8), y_values=[0.0])
    if "io" in layers:
        from conewh.io import dumps_report, face_object

        dumps_report({"faces": [face_object(f) for f in face_lattice(quarter).faces]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the conewh package")
    parser.add_argument("--layers", required=True, help="comma-separated layer names")
    args = parser.parse_args()
    layers = set(args.layers.split(","))
    unknown = layers - set(LAYERS)
    if unknown:
        parser.error(f"unknown layers {sorted(unknown)}")
    sys.path.insert(0, os.path.abspath(args.src))
    call_layers(layers)


if __name__ == "__main__":
    main()
