"""Layer spans recorded from outside the program.

`install(tracer)` replaces public functions of the conewh layers with
wrappers at every module attribute that names them (the defining module, the
package, and every conewh module that imported the name), so internal calls
through module globals are seen too.  A wrapper records a span only while
the tracer is enabled.  A layer's self time is its span duration minus the
time its child spans cover.  `exact` helpers are too fine-grained to wrap, so
their cost lands in the self time of the `cones` and `strata` spans.
"""

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

from metrics import PER_LAYER

# span name -> (module, attribute or "Class.method")
SPANS = {
    "cones.dd": [("cones", "cone_from_generators"), ("cones", "cone_from_inequalities")],
    "cones.face_lattice": [("cones", "face_lattice")],
    "cones.face_ops": [("cones", name) for name in (
        "exposed_face", "dual_face", "face_as_cone", "relative_dual", "negate_cone",
        "dual_cone", "is_pointed", "is_solid", "project_cone")],
    "strata.strata": [("strata", "strata")],
    "strata.spectrum": [("strata", "spectrum_poset")],
    "strata.ray_limit": [("strata", "ray_limit")],
    "limits.sample_cone": [("limits", "sample_cone")],
    "limits.pk": [("limits", "pk_converged"), ("limits", "pk_liminf"), ("limits", "pk_limsup")],
    "limits.hausdorff": [("limits", "hausdorff_distance")],
    "convex.gauge": [("convex", "HPolytopeBody.gauge")],
    "convex.hull": [("convex", "HPolytopeBody.from_vertices")],
    "trivialization.build": [("trivialization", "build_trivialization")],
    "trivialization.apply": [("trivialization", "triv_apply")],
    "trivialization.det": [("trivialization", "triv_det"),
                           ("trivialization", "triv_det_formula")],
    "wiener_hopf.make_symbol": [("wiener_hopf", "make_symbol")],
    "wiener_hopf.wh_matrix": [("wiener_hopf", "wh_matrix")],
    "wiener_hopf.factor": [("wiener_hopf", "svdvals")],
    "wiener_hopf.winding": [("wiener_hopf", "winding_number"), ("wiener_hopf", "symbol_curve")],
    "wiener_hopf.index": [("wiener_hopf", "classical_index"),
                          ("wiener_hopf", "numerical_index")],
    "wiener_hopf.face_symbol": [("wiener_hopf", "face_symbol"),
                                ("wiener_hopf", "face_symbol_twisted")],
    "wiener_hopf.hierarchy": [("wiener_hopf", "hierarchy_fredholm")],
    "presets.symbol": [("presets", "resolve_symbol"), ("presets", "symbol_preset"),
                       ("presets", "symbol_from_expression")],
    "io.report": [("io", name) for name in (
        "dumps_report", "write_csv", "load_json", "read_cone_spec",
        "cone_report_object", "face_object")],
    "cli.run": [("cli", "run")],
}


def _grid_points(args, kwargs, result):
    cone, bounds, step = args[:3]
    lo, hi = bounds
    return {"grid_points": len(np.arange(lo, hi + step / 2, step)) ** cone.ambient_dim}


def _order_cubed(args, kwargs, result):
    n = min(np.shape(args[0])[-2:])
    return {"n3": n ** 3}


def _report_bytes(args, kwargs, result):
    if isinstance(result, str):         # dumps_report
        return {"bytes": len(result.encode())}
    if result is None and args and isinstance(args[0], str):    # write_csv(path, rows)
        return {"bytes": os.path.getsize(args[0])}
    return {}


COUNTERS = {
    "cones.face_lattice": lambda a, k, r: {"faces": len(r.faces)},
    "strata.spectrum": lambda a, k, r: {"incidence_pairs": sum(len(ip.pairs)
                                                              for ip in r.incidences)},
    "limits.sample_cone": _grid_points,
    "trivialization.apply": lambda a, k, r: {"points": len(np.atleast_2d(a[1]))},
    "wiener_hopf.factor": _order_cubed,
    "wiener_hopf.wh_matrix": lambda a, k, r: {"bytes": r.entries.nbytes},
    "io.report": _report_bytes,
}


class Tracer:
    """In-memory span recorder for one process, enabled pass by pass."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans = []          # (span id, parent id, job, name, start, end, self)
        self._stack = []         # open spans: [span id, name, child time]
        self.totals = defaultdict(lambda: defaultdict(float))   # name -> field -> value

    def in_layer(self, prefix):
        return any(frame[1].startswith(prefix) for frame in self._stack)

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, counter, args, kwargs)

        return wrapper

    def call(self, name, fn, counter, args, kwargs):
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][2] += dur
            self_time = dur - frame[2]
            self.spans.append((span_id, parent, self.job, name, start, end, self_time))
            tot = self.totals[name]
            tot["calls"] += 1
            tot["self"] += self_time
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.totals[name][key] += value
        return result

    def layer_metrics(self):
        """Per-layer metric values from the totals, keyed as in PER_LAYER."""
        return {metric: self.totals[span][field] if span in self.totals else 0.0
                for metric, (unit, span, field) in PER_LAYER.items()}


def _svd_wrapper(tracer, svd):
    """np.linalg.svd counted as a factorization only inside a wiener_hopf span."""
    @functools.wraps(svd)
    def wrapper(*args, **kwargs):
        if tracer.enabled and tracer.in_layer("wiener_hopf."):
            return tracer.call("wiener_hopf.factor", svd, _order_cubed, args, kwargs)
        return svd(*args, **kwargs)
    return wrapper


def install(tracer):
    """Wrap every function named in SPANS wherever a conewh module exposes it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "conewh" or name.startswith("conewh."))]
    for span, targets in SPANS.items():
        for modname, attr in targets:
            owner = sys.modules[f"conewh.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(span, raw.__func__, COUNTERS.get(span)))
                else:
                    wrapped = tracer.wrap(span, raw, COUNTERS.get(span))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span, original, COUNTERS.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    np.linalg.svd = _svd_wrapper(tracer, np.linalg.svd)
