"""conewh: exact polyhedral cone calculus, order-compactification strata,
convex gauge analysis, and discretized Wiener-Hopf operator experiments.

Importing the package runs no layer module.  The exported names resolve on
first use (PEP 562): ``conewh.face_lattice`` imports ``conewh.cones`` then.
Each exporting module is registered in ``sys.modules`` as a lazy module whose
code runs on first attribute access, so a tool that looks a layer up there
finds it, while a command that never touches SciPy never imports it.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Face", "FaceLattice", "PolyhedralCone", "cone_from_generators",
        "cone_from_inequalities", "dual_cone", "dual_face", "exposed_face",
        "face_lattice", "is_pointed", "is_solid", "project_cone", "relative_dual"),
        "cones"),
    **dict.fromkeys((
        "BallBody", "HPolytopeBody", "PolyhedralConeBody", "gauge", "gauge_directional",
        "gauge_gradient", "gauge_gradient_projection_form", "metric_project",
        "normal_cone", "support"),
        "convex"),
    **dict.fromkeys(("SampledSet", "hausdorff_distance", "pk_converged"), "limits"),
    **dict.fromkeys((
        "IncidencePairs", "OrderPoint", "SigmaBundle", "Strata", "incidence_pairs",
        "order_point", "order_point_hrep", "ray_limit", "recover_face_point",
        "sigma_bundle", "solvable_length", "spectrum_poset", "strata"),
        "strata"),
    **dict.fromkeys((
        "Trivialization", "build_trivialization", "lipschitz_bound", "triv_apply",
        "triv_det", "triv_det_formula"),
        "trivialization"),
    **dict.fromkeys((
        "FredholmReport", "SymbolGrid", "classical_index", "face_symbol",
        "face_symbol_twisted", "hierarchy_fredholm", "make_symbol", "numerical_index",
        "symbol_curve", "wh_matrix", "winding_number"),
        "wiener_hopf"),
}

__all__ = sorted(_EXPORTS)
_LAYERS = sorted(set(_EXPORTS.values()))

for _layer in _LAYERS:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _layer, _spec


def __getattr__(name):
    # An export shadows the layer of the same name: `conewh.strata` is the function.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAYERS))
