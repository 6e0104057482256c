"""Batch front end: load cone/experiment specs, run the analysis pipelines,
emit deterministic JSON reports and CSV rows.

    conewh <command> --in <spec> --out <dir> [--seed K] [--tol key=val]

Commands: lattice, strata, spectrum, trivialize, index1d, hierarchy2d,
pklimit.  <spec> is a JSON file path or the name of a packaged preset.
Exit codes: 0 success, 1 domain error (category on stderr), 2 I/O or usage.

Every command runs in a fresh process, so it imports only the layers it runs:
the exact layer (cones, strata, io) at module level, numpy and the float
layers inside the commands and rules that use them, so that `lattice`,
`strata` and `spectrum` start without numpy.  No command on a packaged
preset loads SciPy: `index1d` and `hierarchy2d` factor on numpy.linalg, and
`trivialize` matches 2-D cones, whose slice bodies are intervals and need no
convex hull.
An unknown preset, named by `--in` or by an experiment's "cone", is one
ConfigError (exit 2) from `presets.preset_spec`.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from functools import partial

from . import __version__
from .cones import face_lattice, is_solid
from .errors import ConfigError, DimensionMismatchError, DomainError, EmptySampleError
from .io import (
    MAX_ENTRIES,
    REQUIRED,
    _count,
    _floats,
    _increasing,
    _number,
    _numbers,
    _positive,
    _rationals,
    _report_name,
    cone_report_object,
    dumps_report,
    face_object,
    load_json,
    read_cone_spec,
    read_fields,
    vector_strings,
    write_csv,
)
from .presets import cone_preset, preset_spec, resolve_symbol, symbol_dim
from .strata import ray_limit, spectrum_poset, strata

COMMANDS = ("lattice", "strata", "spectrum", "trivialize", "index1d",
            "hierarchy2d", "pklimit")
SAMPLING_COMMANDS = ("trivialize",)


@dataclass
class RunConfig:
    command: str
    input: str
    outdir: str
    seed: int = None
    tolerances: dict = field(default_factory=dict)


def _tolerance(item):
    """(key, value) of a --tol key=value pair; a value that is not a number
    stays text, which every --tol rule rejects."""
    key, _, value = item.partition("=")
    try:
        return key, float(value)
    except ValueError:
        return key, value


def _resolve_input(name, kind):
    """A literal path, or a packaged preset spec under presets/<kind>/."""
    return load_json(name) if os.path.exists(name) else preset_spec(kind, name)


def _check_size(what, side, dim=1):
    """Reject an array of side**dim entries above MAX_ENTRIES before it is made;
    an integer side is compared and printed exactly, so one beyond the float
    range (such as 10**400) is rejected like any other."""
    if not (side <= MAX_ENTRIES and side**dim <= MAX_ENTRIES):
        power = "" if dim == 1 else f"**{dim}"
        count = side if isinstance(side, int) else f"{side:.6g}"
        raise ConfigError(f"{what} would hold {count}{power} entries, more than the "
                          f"limit of 2**26 = {MAX_ENTRIES}")


def _check_norms(rows, message):
    """A ConfigError with the message unless every float row has a norm in the
    float range: its sum of squares must not overflow."""
    import numpy as np

    with np.errstate(over="ignore"):
        if not np.isfinite(np.linalg.norm(rows, axis=-1)).all():
            raise ConfigError(message)


def _check_margins(cone, shifts, window, message):
    """A ConfigError with the message unless every facet margin that
    limits.sample_cone forms for the cone, at each shift (a row) over the
    window [-window, window], stays in the float range: the bound
    sum_i (|shift_i| + window) |a_i| of every facet normal a must be finite."""
    import numpy as np

    normals = _floats(cone.inequalities, message).reshape(-1, cone.ambient_dim)
    with np.errstate(over="ignore"):
        bounds = (np.abs(shifts)[:, None] + window) * np.abs(normals)
        if not np.isfinite(bounds.sum(axis=-1)).all():
            raise ConfigError(message)


def _cone(value, what):
    """A cone preset name or inline spec, its rays, facet normals and norms in float range."""
    cone = cone_preset(value) if isinstance(value, str) else read_cone_spec(value)[1]
    message = "the cone's rays and facet normals, and their norms, must lie in the float range"
    rows = _floats(cone.generators + cone.inequalities, message)
    _check_norms(rows.reshape(-1, cone.ambient_dim), message)
    return cone


def _symbol(value, what):
    """(kernel dimension, symbol) of a preset name or an expression object."""
    return symbol_dim(value), value


_SYMBOL_KEYS = {"symbol": (_symbol, REQUIRED), "h": (_positive, REQUIRED),
                "T": (_positive, REQUIRED), "N": (partial(_increasing, int), REQUIRED)}
# SPEC_KEYS[command][key] = (rule, default): every key an experiment spec of
# the command may hold, in the order they are read; any other is a ConfigError.
SPEC_KEYS = {command: {"name": (_report_name, command), **keys} for command, keys in {
    "trivialize": {"cone": (_cone, REQUIRED), "angle_deg": (_number, 5.0),
                   "samples": (_count, 500), "xi0": (_numbers, None)},
    "index1d": _SYMBOL_KEYS,
    "hierarchy2d": {**_SYMBOL_KEYS, "y_values": (_numbers, None)},
    "pklimit": {"cone": (_cone, REQUIRED), "direction": (_rationals, REQUIRED),
                "scales": (partial(_increasing, float), [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
                "eps": (_positive, 0.5), "window": (_positive, 4.0), "step": (_positive, None)},
}.items()}
# TOLERANCE_KEYS[command][key] = (rule, default): the --tol keys the command
# reads, passed to it as keyword arguments; a --tol eps overrides the spec's,
# and margin_tol's default is that of wiener_hopf.hierarchy_fredholm, a module
# the CLI loads only inside the command.
TOLERANCE_KEYS = {"hierarchy2d": {"margin_tol": (_positive, 1e-6)},
                  "pklimit": {"eps": (_positive, None)}}


def _experiment(config):
    """(name, values) of an experiment spec: each key of SPEC_KEYS[command]
    read through its rule, or its default when the spec does not hold it."""
    values = read_fields(_resolve_input(config.input, "experiments"),
                         SPEC_KEYS[config.command], f"'{config.command}' spec")
    return values.pop("name"), values


def _sample_symbol(values, command, dim):
    """The SymbolGrid of a command's spec values; the kernel grid, the largest
    section and the symbol's dimension are checked before any sample is taken."""
    found, symbol = values["symbol"]
    _check_size("the kernel grid", 2 * values["T"] / values["h"] + 1, found)
    _check_size("the largest section", values["N"][-1], 2)
    if found != dim:
        raise DimensionMismatchError(f"{command} needs a {dim}-D symbol, got a {found}-D one")
    return resolve_symbol(symbol, values["h"], values["T"])


def _write_report(config, name, members, rows=None):
    """Write a header echoing the configuration and the members as
    <name>_<command>.json, and rows, if given, as <name>_<command>.csv, making
    --out only once the report has serialized; returns exit code 0."""
    report = {
        "toolkit": "conewh",
        "version": __version__,
        "config": {
            "command": config.command,
            "input": config.input,
            "seed": config.seed,
            "tolerances": dict(sorted(config.tolerances.items())),
        },
        **members,
    }
    text = dumps_report(report)
    os.makedirs(config.outdir, exist_ok=True)
    stem = os.path.join(config.outdir, f"{name}_{config.command}")
    if rows is not None:
        write_csv(stem + ".csv", rows)
    with open(stem + ".json", "w") as fh:
        fh.write(text)
    return 0


def _members(record):
    """The report members of a record's fields, in field order: a list of
    records becomes a list of objects, sections their sigma_min per
    truncation, and rows, the CSV's, are left out."""
    members = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "sections":
            members["sigma_min"] = {str(N): s.sigma_min for N, s in value.items()}
        elif f.name == "faces":
            members["faces"] = [_members(face) for face in value]
        elif f.name != "rows":
            members[f.name] = value
    return members


# -- commands ----------------------------------------------------------------


def _cmd_lattice(config):
    name, cone = read_cone_spec(_resolve_input(config.input, "cones"))
    lat = face_lattice(cone)
    members = {
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
        members["solvable_length"] = len(set(lat.dims)) - 1
    return _write_report(config, name, members)


def _face_objects(st):
    """One report object per face of the strata, keyed by its active set; a
    face that a report names several times shares its object."""
    return {f.active_set: face_object(f) for level in st.levels for f in level}


def _cmd_strata(config):
    name, cone = read_cone_spec(_resolve_input(config.input, "cones"))
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
    name, cone = read_cone_spec(_resolve_input(config.input, "cones"))
    st = strata(cone)
    sp = spectrum_poset(st)
    objs = _face_objects(st)
    return _write_report(config, name, {
        "name": name,
        "solvable_length": st.length,
        "levels_finite": sp.levels_finite,
        "dense_level": sp.dense_level,
        "dag_edges": [list(e) for e in sp.dag_edges],
        "levels": [{
            "level": bundle.level,
            "rank": bundle.rank,
            "fibers": [{
                "face": objs[f.active_set],
                "basis": [vector_strings(b) for b in basis],
            } for f, basis in bundle.fibers],
        } for bundle in sp.levels],
        "incidences": [{
            "level": ip.level,
            "pairs": [[objs[e.active_set], objs[f.active_set]] for e, f in ip.pairs],
            "xi": list(ip.xi),
            "eta": list(ip.eta),
            "uncovered": [objs[f.active_set] for f in ip.uncovered],
        } for ip in sp.incidences],
    })


def _cmd_trivialize(config):
    import numpy as np

    from .convex import PolyhedralConeBody
    from .trivialization import (
        build_trivialization,
        triv_apply,
        triv_det,
        triv_det_formula,
        triv_sample_source,
        triv_target_margin,
    )

    name, values = _experiment(config)
    cone, angle, samples, xi0 = values.values()
    rng = np.random.default_rng(config.seed)
    if xi0 is not None:
        if len(xi0) != cone.ambient_dim:
            raise ConfigError(f"'xi0' must hold {cone.ambient_dim} numbers, got {xi0!r}")
        _check_norms(xi0, f"the norm of 'xi0' must lie in the float range, got {xi0!r}")

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
    name, values = _experiment(config)
    symbol = _sample_symbol(values, "index1d", 1)
    from .wiener_hopf import classical_index

    rep = classical_index(symbol, truncations=values["N"])
    rows = [{"experiment": name, "N": N, "sigma_min": s.sigma_min, "dim_ker": s.dim_ker,
             "dim_coker": s.dim_coker, "index": rep.numerical_index, "winding": rep.winding,
             "verdict": rep.verdict} for N, s in rep.sections.items()]
    return _write_report(config, name, {"name": name, **_members(rep)}, rows)


def _cmd_hierarchy2d(config, margin_tol):
    name, values = _experiment(config)
    symbol = _sample_symbol(values, "hierarchy2d", 2)
    from .wiener_hopf import hierarchy_fredholm

    rep = hierarchy_fredholm(symbol, truncations=values["N"], y_values=values["y_values"],
                             margin_tol=margin_tol)
    rows = [{"experiment": f"{name}:face-{face.face}@y={y}", "N": N, "sigma_min": smin,
             "verdict": "ok" if face.ok else "failing-face"}
            for face in rep.faces for y, mins in face.rows for N, smin in mins.items()]
    return _write_report(config, name, {"name": name, **_members(rep)}, rows)


def _cmd_pklimit(config, eps):
    import numpy as np

    from .limits import hausdorff_distance, pk_converged, pk_tail, sample_cone

    name, values = _experiment(config)
    cone, direction, scales, spec_eps, window, step = values.values()
    eps = eps or spec_eps
    shown = vector_strings(direction)
    if len(direction) != cone.ambient_dim:
        raise ConfigError(f"'direction' must hold {cone.ambient_dim} rationals, got {shown}")
    step = step or eps / 2
    _check_size("the window lattice", 2 * window / step + 1, cone.ambient_dim)
    _check_size("the eps stencil", 2 * eps / step + 1, cone.ambient_dim)
    bounds = (-window, window)

    xf = _floats(direction, f"'direction' must lie in the float range, got {shown}")
    with np.errstate(over="ignore"):
        shifts = [s * xf for s in scales]
    if not np.isfinite(shifts).all():
        raise ConfigError(f"each scale times 'direction' must lie in the float range, got "
                          f"scales {scales} and direction {xf.tolist()}")
    margins = (f"the facet margins of the cone and of its exact limit over the window must lie "
               f"in the float range, got window {window}, direction {xf.tolist()} "
               f"and scales {scales}")
    _check_margins(cone, shifts, window, margins)
    tail = pk_tail(list(zip(scales, shifts)))
    seq = [sample_cone(cone, bounds, step, shift=shift, tag=f"scale-{s}") for s, shift in tail]
    converged, lo, hi, dist = pk_converged(seq, eps, bounds=bounds, step=step)
    limit_cone = ray_limit(cone, direction)
    _check_margins(limit_cone, np.zeros((1, cone.ambient_dim)), window, margins)
    exact = sample_cone(limit_cone, bounds, step, tag="exact-limit")
    empty = [label for label, s in (("liminf", lo), ("limsup", hi), ("exact limit", exact))
             if len(s) == 0]
    if empty:
        raise EmptySampleError(
            f"the sampled {' and '.join(empty)} {'is' if len(empty) == 1 else 'are'} empty "
            f"(tail scales {[s for s, _ in tail]}, window {window}, step {step}), so no "
            f"Hausdorff distance to {'it' if len(empty) == 1 else 'them'} is finite; a window "
            f"that is a multiple of the step puts the origin on the lattice, and the origin "
            f"lies in every s*x - C")
    return _write_report(config, name, {
        "name": name,
        "direction": shown,
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
        tols = read_fields(config.tolerances, TOLERANCE_KEYS.get(config.command, {}),
                           f"'{config.command}' --tol")
        return _DISPATCH[config.command](config, **tols)
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
    parser.add_argument("--tol", action="append", default=[], type=_tolerance,
                        metavar="KEY=VAL", help="tolerance overrides")
    args = parser.parse_args(argv)
    return run(RunConfig(args.command, args.input, args.outdir, args.seed, dict(args.tol)))


if __name__ == "__main__":
    sys.exit(main())
