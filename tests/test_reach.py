"""Reachability: the functions under src that no command runs.

Each of the 7 commands runs in process under sys.setprofile on every packaged
preset and golden spec: the cone specs under lattice, strata and spectrum,
each experiment spec under its own command.  A function (a def, not a class
or module body, a lambda or a comprehension) of a conewh module that none of
those runs calls is unreached; none of them passes --tol.  The unreached set
must equal UNREACHED, so a function that drops off every report fails here,
and so does a listed one that a command now reaches.  README's "Library API
that no command runs" lists the same functions.
"""

import inspect
import json
import re
import sys
from importlib import resources
from pathlib import Path

import conewh
from conewh.cli import main
from conewh.presets import preset_spec, symbol_dim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(conewh.__file__).resolve().parent
GOLDEN = ROOT / "tests" / "golden" / "specs"

# module -> the qualified names of its unreached functions
UNREACHED = {
    "__init__": ("__dir__", "__getattr__"),
    "cli": ("_tolerance",),
    "cones": ("cone_from_inequalities", "project_cone", "relative_dual", "violation"),
    "convex": ("BallBody.__init__", "BallBody.gauge", "BallBody.gauge_normal_set",
               "BallBody.normal_generators", "BallBody.project", "BallBody.support",
               "HPolytopeBody._violation", "HPolytopeBody.active_indices",
               "HPolytopeBody.contains", "HPolytopeBody.from_cone_slice",
               "HPolytopeBody.gauge_normal_set", "HPolytopeBody.normal_generators",
               "HPolytopeBody.project", "HPolytopeBody.support",
               "PolyhedralConeBody.contains", "PolyhedralConeBody.project",
               "PolyhedralConeBody.support", "_distinct_directions", "_nnls",
               "_planar_hull", "_turns_left", "gauge", "gauge_directional", "gauge_gradient",
               "gauge_gradient_projection_form", "metric_project", "normal_cone",
               "projection_form_applies", "support"),
    "errors": ("NotDifferentiableError.__init__", "ProjectionError.__init__"),
    "exact": ("project_onto_span", "solve_linear", "span_basis", "vector_text"),
    "limits": ("SampledSet.points", "pk_liminf", "pk_limsup"),
    "strata": ("order_point", "order_point_hrep", "recover_face_point", "solvable_length"),
    "trivialization": ("_facet_normals",),
    "wiener_hopf": ("_face_axis", "_toeplitz", "face_symbol", "face_symbol_twisted",
                    "wh_matrix"),
}


def _names(table):
    return sorted(f"{module}.{name}" for module, names in table.items() for name in names)


def _defs(code, prefix=""):
    """(qualified name, first line) of every def under a code object."""
    for const in code.co_consts:
        if inspect.iscode(const) and not const.co_name.startswith("<"):
            is_def = bool(const.co_flags & inspect.CO_NEWLOCALS)
            name = prefix + const.co_name
            if is_def:
                yield name, const.co_firstlineno
            yield from _defs(const, name + (".<locals>." if is_def else "."))


def _functions():
    """{(file, first line): "module.qualname"} of every def of the package."""
    return {(str(path), line): f"{path.stem}.{name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for name, line in _defs(compile(path.read_text(), str(path), "exec"))}


def _runs():
    """(command, --in) of every run."""
    specs = []
    for kind in ("cones", "experiments"):
        refs = resources.files("conewh").joinpath("presets", kind).iterdir()
        names = sorted(ref.name.removesuffix(".json") for ref in refs)
        specs += [(name, preset_spec(kind, name)) for name in names]
    specs += [(str(path), json.loads(path.read_text())) for path in sorted(GOLDEN.glob("*.json"))]
    for source, spec in specs:
        if "cone" in spec:
            yield ("pklimit" if "direction" in spec else "trivialize"), source
        elif "symbol" in spec:
            yield ("hierarchy2d" if symbol_dim(spec["symbol"]) == 2 else "index1d"), source
        else:
            yield from ((command, source) for command in ("lattice", "strata", "spectrum"))


def test_unreached_functions_are_the_allowlist(tmp_path):
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runs = list(_runs())
    assert len(runs) == 38
    for i, (command, source) in enumerate(runs):
        argv = [command, "--in", source, "--out", str(tmp_path / str(i)), "--seed", "1"]
        sys.setprofile(profile)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0, argv
    functions = _functions()
    reached = {functions.get((str(Path(file).resolve()), line)) for file, line in calls}
    # A decorator or factory runs when its module loads, which may be before
    # these runs; it is reached when a function it defines is.
    reached |= {name.split(".<locals>.")[0] for name in reached if name}
    assert sorted(set(functions.values()) - reached) == _names(UNREACHED)


def test_readme_lists_the_unreached_functions():
    """Each bullet "- `module` ...: `name`, ..." of README's section names
    that module's unreached functions."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("Library API that no command runs.")[1].split("\nConventions")[0]
    listed = {module: re.findall(r"`([\w.]+)`", names) for module, names in
              re.findall(r"^- `(\w+)`[^:]*:\s(.*?)(?=^- |\Z)", section, re.M | re.S)}
    assert _names(listed) == _names(UNREACHED)
