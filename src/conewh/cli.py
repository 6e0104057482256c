"""Batch front end: load cone/experiment specs, run the analysis pipelines,
emit deterministic JSON reports and CSV rows.

    conewh <command> --in <spec> --out <dir> [--seed K] [--tol key=val]

Commands: lattice, strata, spectrum, trivialize, index1d, hierarchy2d,
pklimit.  <spec> is a JSON file path or the name of a packaged preset.
Exit codes: 0 success, 1 domain error (category on stderr), 2 I/O or usage.

Every command runs in a fresh process, so it imports only the layers it runs:
the exact layer (cones, strata, limits, io) at module level, the float layers
inside the commands that call them.  No command on a packaged preset loads
SciPy: `index1d` and `hierarchy2d` factor on numpy.linalg, and `trivialize`
matches 2-D cones, whose slice bodies are intervals and need no convex hull.
An unknown preset, named by `--in` or by an experiment's "cone", is one
ConfigError (exit 2) from `presets.preset_spec`.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cones import face_lattice, is_solid
from .errors import ConfigError, DomainError, EmptySampleError
from .exact import as_float
from .io import (
    cone_report_object,
    dumps_report,
    face_object,
    load_json,
    parse_vector,
    read_cone_spec,
    vector_strings,
    write_csv,
)
from .limits import hausdorff_distance, pk_converged, pk_tail, sample_cone
from .presets import cone_preset, preset_spec, resolve_symbol, symbol_dim
from .strata import ray_limit, spectrum_poset, strata

COMMANDS = ("lattice", "strata", "spectrum", "trivialize", "index1d",
            "hierarchy2d", "pklimit")
SAMPLING_COMMANDS = ("trivialize",)
# --tol keys each command reads; any other key is a configuration error.
TOLERANCE_KEYS = {"hierarchy2d": ("margin_tol",), "pklimit": ("eps",)}
# The most entries of one array a spec may ask for; the largest any preset or
# benchmark job builds is an N = 1024 section, 2**20 entries.
MAX_ENTRIES = 2**26


@dataclass
class RunConfig:
    command: str
    input: str
    outdir: str
    seed: int = None
    tolerances: dict = field(default_factory=dict)


def _parse_tolerances(pairs):
    tols = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects key=val, got '{item}'")
        key, val = item.split("=", 1)
        try:
            tols[key] = float(val)
        except ValueError:
            raise ConfigError(f"--tol {key} expects a number, got '{val}'") from None
    return tols


def _check_tolerances(config):
    allowed = TOLERANCE_KEYS.get(config.command, ())
    unknown = sorted(set(config.tolerances) - set(allowed))
    if unknown:
        accepted = ", ".join(allowed) or "none"
        raise ConfigError(f"unknown --tol key(s) for '{config.command}': "
                          f"{', '.join(unknown)} (accepted: {accepted})")


def _resolve_input(name, kind):
    """A literal path, or a packaged preset spec under presets/<kind>/; a JSON object."""
    spec = load_json(name) if os.path.exists(name) else preset_spec(kind, name)
    if not isinstance(spec, dict):
        raise ConfigError(f"spec {name} must be a JSON object, got {type(spec).__name__}")
    return spec


def _require(spec, *keys):
    missing = [key for key in keys if key not in spec]
    if missing:
        raise ConfigError(f"spec is missing key(s): {', '.join(missing)}")


def _finite(spec, key, default):
    """A finite JSON number (not a boolean or a string) spec value, as a float;
    default when the key is absent."""
    value = spec.get(key, default)
    return float(_finite_numbers([value], f"'{key}' must be a finite number, got {value!r}")[0])


def _positive(spec, key, default):
    """A finite, positive float spec value; default when the key is absent."""
    value = _finite(spec, key, default)
    if value <= 0:
        raise ConfigError(f"'{key}' must be positive, got {value}")
    return value


def _floats(values, message):
    """The float array of exact or JSON numbers; one beyond the float range is
    a ConfigError with the message."""
    try:
        return as_float(values)
    except OverflowError:
        raise ConfigError(message) from None


def _check_norms(rows, message):
    """A ConfigError with the message unless every float row has a norm in the
    float range: its sum of squares must not overflow."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.linalg.norm(rows, axis=-1)).all():
            raise ConfigError(message)


def _spec_cone(spec):
    """An experiment's cone, a preset name or an inline spec, whose rays and
    facet normals and their norms lie in the float range."""
    _require(spec, "cone")
    cone = spec["cone"]
    cone = cone_preset(cone) if isinstance(cone, str) else read_cone_spec(cone)[1]
    message = "the cone's rays and facet normals, and their norms, must lie in the float range"
    rows = _floats(sum(cone.generators + cone.inequalities, ()), message)
    _check_norms(rows.reshape(-1, cone.ambient_dim), message)
    return cone


def _positive_int(value, what):
    """A JSON integer (not a boolean) above zero."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return value


def _finite_numbers(values, message):
    """The float array of a list of finite JSON numbers (not booleans or
    strings); any other entry is a ConfigError with the message."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        floats = _floats(values, message)
        if np.isfinite(floats).all():
            return floats
    raise ConfigError(message)


def _finite_list(value, what, length=None):
    """A non-empty list of finite JSON numbers (not booleans), as floats; of
    `length` entries when given."""
    message = f"{what} must be a list of {length or 'some'} finite numbers, got {value!r}"
    if isinstance(value, list) and value and len(value) == (length or len(value)):
        return _finite_numbers(value, message).tolist()
    raise ConfigError(message)


def _check_size(what, side, dim=1):
    """Reject an array of side**dim entries above MAX_ENTRIES before it is made;
    an integer side is compared and printed exactly, so one beyond the float
    range (such as 10**400) is rejected like any other."""
    if not (side <= MAX_ENTRIES and side**dim <= MAX_ENTRIES):
        power = "" if dim == 1 else f"**{dim}"
        count = side if isinstance(side, int) else f"{side:.6g}"
        raise ConfigError(f"{what} would hold {count}{power} entries, more than the "
                          f"limit of 2**26 = {MAX_ENTRIES}")


def _symbol_grid(spec):
    """(symbol, truncations) of an experiment spec: h and T finite and positive,
    N a strictly increasing list of at least two positive integers, and the
    kernel grid and the largest section within MAX_ENTRIES."""
    _require(spec, "symbol", "h", "T", "N")
    h, T = _positive(spec, "h", None), _positive(spec, "T", None)
    sizes = spec["N"]
    if not isinstance(sizes, list) or len(sizes) < 2:
        raise ConfigError(f"'N' must list at least two truncation sizes, got {sizes!r}")
    truncations = tuple(_positive_int(n, "each truncation size in 'N'") for n in sizes)
    if any(a >= b for a, b in zip(truncations, truncations[1:])):
        raise ConfigError(f"'N' must be strictly increasing, got {sizes!r}")
    _check_size("the kernel grid", 2 * T / h + 1, symbol_dim(spec["symbol"]))
    _check_size("the largest section", truncations[-1], 2)
    return resolve_symbol(spec["symbol"], h, T), truncations


def _report_name(name):
    """A spec's "name", which names its report files: one file name inside --out."""
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in name for c in ("/", os.sep, "\0"))):
        raise ConfigError(f"spec 'name' must be a file name other than '.' and '..', "
                          f"with no '/', got {name!r}")
    return name


def _experiment(config):
    """An experiment spec and its name (the command name by default)."""
    spec = _resolve_input(config.input, "experiments")
    return spec, _report_name(spec.get("name", config.command))


def _load_cone(config):
    name, cone = read_cone_spec(_resolve_input(config.input, "cones"))
    return _report_name(name), cone


def _write_report(config, name, fields, rows=None):
    """Write rows, if given, as <name>_<command>.csv, then a header echoing the
    configuration and the fields as <name>_<command>.json, making --out only
    now that there is a result; returns exit code 0."""
    report = {
        "toolkit": "conewh",
        "version": __version__,
        "config": {
            "command": config.command,
            "input": config.input,
            "seed": config.seed,
            "tolerances": dict(sorted(config.tolerances.items())),
        },
        **fields,
    }
    os.makedirs(config.outdir, exist_ok=True)
    stem = os.path.join(config.outdir, f"{name}_{config.command}")
    if rows is not None:
        write_csv(stem + ".csv", rows)
    with open(stem + ".json", "w") as fh:
        fh.write(dumps_report(report))
    return 0


# -- commands ----------------------------------------------------------------


def _cmd_lattice(config):
    name, cone = _load_cone(config)
    lat = face_lattice(cone)
    fields = {
        "name": name,
        "cone": cone_report_object(cone),
        "face_count": len(lat.faces),
        "faces": [face_object(f) for f in lat.faces],
        "covering": [list(p) for p in lat.order],
        "dims": list(lat.dims),
    }
    if is_solid(cone):
        # face_lattice needs a pointed cone; for a pointed, solid cone the dual
        # faces are the primal ones with dim n - dim F, so the dual lattice has
        # as many distinct dims as this one.
        fields["solvable_length"] = len(set(lat.dims)) - 1
    return _write_report(config, name, fields)


def _face_objects(st):
    """One report object per face of the strata, keyed by its active set; a
    face that a report names several times shares its object."""
    return {f.active_set: face_object(f) for level in st.levels for f in level}


def _cmd_strata(config):
    name, cone = _load_cone(config)
    st = strata(cone)
    objs = _face_objects(st)
    return _write_report(config, name, {
        "name": name,
        "dims": list(st.dims),
        "solvable_length": st.length,
        "levels_finite": True,
        "level_sizes": [len(level) for level in st.levels],
        "levels": [[objs[f.active_set] for f in level] for level in st.levels],
    })


def _cmd_spectrum(config):
    name, cone = _load_cone(config)
    st = strata(cone)
    sp = spectrum_poset(st)
    objs = _face_objects(st)
    levels = []
    for bundle in sp.levels:
        levels.append({
            "level": bundle.level,
            "rank": bundle.rank,
            "fibers": [{
                "face": objs[f.active_set],
                "basis": [vector_strings(b) for b in basis],
            } for f, basis in bundle.fibers],
        })
    incid = []
    for ip in sp.incidences:
        incid.append({
            "level": ip.level,
            "pairs": [[objs[e.active_set], objs[f.active_set]] for e, f in ip.pairs],
            "xi": list(ip.xi),
            "eta": list(ip.eta),
            "uncovered": [objs[f.active_set] for f in ip.uncovered],
        })
    return _write_report(config, name, {
        "name": name,
        "solvable_length": st.length,
        "levels_finite": sp.levels_finite,
        "dense_level": sp.dense_level,
        "dag_edges": [list(e) for e in sp.dag_edges],
        "levels": levels,
        "incidences": incid,
    })


def _cmd_trivialize(config):
    from .convex import PolyhedralConeBody
    from .trivialization import (
        build_trivialization,
        triv_apply,
        triv_det,
        triv_det_formula,
        triv_sample_source,
        triv_target_margin,
    )

    spec, name = _experiment(config)
    cone = _spec_cone(spec)
    angle = _finite(spec, "angle_deg", 5.0)
    samples = _positive_int(spec.get("samples", 500), "'samples'")
    _check_size("'samples'", samples)
    rng = np.random.default_rng(config.seed)
    xi0 = None
    if "xi0" in spec:
        xi0 = np.asarray(_finite_list(spec["xi0"], "'xi0'", cone.ambient_dim))
        _check_norms(xi0, f"the norm of 'xi0' must lie in the float range, got {spec['xi0']!r}")

    rotated = PolyhedralConeBody.from_exact(cone).rotated(np.deg2rad(angle))
    triv = build_trivialization(cone, rotated, xi0=xi0)
    src = triv_sample_source(triv, rng, samples)
    dets = triv_det_formula(triv, src[:200])
    det_errs = np.abs(triv_det(triv, src[:200]) - dets) / np.abs(dets)
    pairs_a = rng.uniform(-3, 3, (2000, cone.ambient_dim))
    pairs_b = pairs_a + rng.normal(0, 0.5, pairs_a.shape)
    num = np.linalg.norm(triv_apply(triv, pairs_a) - triv_apply(triv, pairs_b), axis=1)
    den = np.linalg.norm(pairs_a - pairs_b, axis=1)

    return _write_report(config, name, {
        "name": name,
        "angle_deg": angle,
        "r": triv.r,
        "R": triv.R,
        "lipschitz_bound": triv.lipschitz,
        "membership_margin_min": float(triv_target_margin(triv, triv_apply(triv, src)).min()),
        "det_formula_range": [float(dets.min()), float(dets.max())],
        "det_max_rel_err": float(det_errs.max()),
        "empirical_lipschitz": float((num / den).max()),
        "empirical_lipschitz_bound": float(np.sqrt(2) * max(triv.lipschitz, 1.0)),
        "samples": samples,
    })


def _cmd_index1d(config):
    from .wiener_hopf import classical_index

    spec, name = _experiment(config)
    symbol, truncations = _symbol_grid(spec)
    report_obj = classical_index(symbol, truncations=truncations)

    rows = []
    for N in truncations:
        rows.append({
            "experiment": name,
            "N": N,
            "sigma_min": repr(report_obj.diagnostics["sigma_min"][N]),
            "dim_ker": report_obj.diagnostics.get("dim_ker", ""),
            "dim_coker": report_obj.diagnostics.get("dim_coker", ""),
            "index": "" if report_obj.numerical_index is None else report_obj.numerical_index,
            "winding": "" if report_obj.winding is None else report_obj.winding,
            "verdict": report_obj.verdict,
        })
    return _write_report(config, name, {
        "name": name,
        "symbol_nonvanishing": report_obj.symbol_nonvanishing,
        "symbol_min": report_obj.symbol_min,
        "winding": report_obj.winding,
        "index": report_obj.index,
        "numerical_index": report_obj.numerical_index,
        "sigma_min": {str(k): v for k, v in report_obj.diagnostics["sigma_min"].items()},
        "verdict": report_obj.verdict,
    }, rows)


def _cmd_hierarchy2d(config):
    from .wiener_hopf import hierarchy_fredholm

    spec, name = _experiment(config)
    symbol, truncations = _symbol_grid(spec)
    kwargs = {}
    if "margin_tol" in config.tolerances:
        kwargs["margin_tol"] = config.tolerances["margin_tol"]
    if "y_values" in spec:
        kwargs["y_values"] = _finite_list(spec["y_values"], "'y_values'")
    rep = hierarchy_fredholm(symbol, truncations=truncations, **kwargs)

    rows = []
    for fr in rep.face_reports:
        for r in fr["rows"]:
            for N, smin in r["sigma_min"].items():
                rows.append({
                    "experiment": f"{name}:face-{fr['face']}@y={r['y']}",
                    "N": N,
                    "sigma_min": repr(smin),
                    "verdict": "ok" if fr["ok"] else "failing-face",
                })
    return _write_report(config, name, {
        "name": name,
        "symbol_nonvanishing": rep.symbol_nonvanishing,
        "symbol_min": rep.symbol_min,
        "l1_norm": rep.diagnostics["l1_norm"],
        "neumann_margin": rep.diagnostics["neumann_margin"],
        "failing_faces": rep.diagnostics["failing_faces"],
        "faces": [{
            "face": fr["face"],
            "margin": fr["margin"],
            "stable": fr["stable"],
            "ok": fr["ok"],
            "margin_at_infinity": fr["margin_at_infinity"],
            "decreasing_at": fr["decreasing_at"],
        } for fr in rep.face_reports],
        "verdict": rep.verdict,
    }, rows)


def _cmd_pklimit(config):
    spec, name = _experiment(config)
    cone = _spec_cone(spec)
    _require(spec, "direction")
    direction = spec["direction"]
    try:
        direction = parse_vector(direction) if isinstance(direction, list) else ()
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad direction in spec: {exc}") from None
    if len(direction) != cone.ambient_dim:
        raise ConfigError(f"'direction' must be a list of {cone.ambient_dim} rationals, "
                          f"got {spec['direction']!r}")
    scales = _finite_list(spec.get("scales", [2, 4, 8, 16, 32, 64]), "'scales'")
    eps = _positive(config.tolerances if "eps" in config.tolerances else spec, "eps", 0.5)
    window = _positive(spec, "window", 4.0)
    step = _positive(spec, "step", eps / 2)
    _check_size("the window lattice", 2 * window / step + 1, cone.ambient_dim)
    _check_size("the eps stencil", 2 * eps / step + 1, cone.ambient_dim)
    bounds = (-window, window)

    xf = _floats(direction, f"'direction' must lie in the float range, got {spec['direction']!r}")
    with np.errstate(over="ignore"):
        shifts = [s * xf for s in scales]
    if not np.isfinite(shifts).all():
        raise ConfigError(f"each scale times 'direction' must lie in the float range, got "
                          f"scales {scales} and direction {spec['direction']!r}")
    seq = [sample_cone(cone, bounds, step, shift=shift, tag=f"scale-{s}")
           for s, shift in zip(scales, shifts)]
    converged, lo, hi, dist = pk_converged(seq, eps, bounds=bounds, step=step)
    limit_cone = ray_limit(cone, direction)
    exact = sample_cone(limit_cone, bounds, step, tag="exact-limit")
    empty = [label for label, s in (("liminf", lo), ("limsup", hi), ("exact limit", exact))
             if len(s) == 0]
    if empty:
        raise EmptySampleError(
            f"the sampled {' and '.join(empty)} {'is' if len(empty) == 1 else 'are'} empty "
            f"(tail scales {list(pk_tail(scales))}, window {window}, step {step}), so no "
            f"Hausdorff distance to {'it' if len(empty) == 1 else 'them'} is finite; a window "
            f"that is a multiple of the step puts the origin on the lattice, and the origin "
            f"lies in every s*x - C")
    return _write_report(config, name, {
        "name": name,
        "direction": vector_strings(direction),
        "eps": eps,
        "converged": bool(converged),
        "liminf_size": len(lo),
        "limsup_size": len(hi),
        "liminf_limsup_hausdorff": dist,
        "hausdorff_liminf_vs_exact": hausdorff_distance(lo, exact),
        "exact_limit": cone_report_object(limit_cone),
    })


_DISPATCH = {
    "lattice": _cmd_lattice,
    "strata": _cmd_strata,
    "spectrum": _cmd_spectrum,
    "trivialize": _cmd_trivialize,
    "index1d": _cmd_index1d,
    "hierarchy2d": _cmd_hierarchy2d,
    "pklimit": _cmd_pklimit,
}


def run(config: RunConfig) -> int:
    """Execute one command; deterministic outputs for a fixed (inputs, seed)."""
    try:
        if config.command not in COMMANDS:
            raise ConfigError(f"unknown command '{config.command}'")
        if config.command in SAMPLING_COMMANDS and config.seed is None:
            raise ConfigError(f"--seed is required for '{config.command}'")
        _check_tolerances(config)
        return _DISPATCH[config.command](config)
    except DomainError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conewh",
        description="cone lattice / strata / trivialization / Wiener-Hopf index pipelines")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--in", dest="input", required=True,
                        help="spec file path or packaged preset name")
    parser.add_argument("--out", dest="outdir", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", action="append", default=[],
                        metavar="KEY=VAL", help="tolerance overrides")
    args = parser.parse_args(argv)
    try:
        tols = _parse_tolerances(args.tol)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = RunConfig(args.command, args.input, args.outdir, args.seed, tols)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
