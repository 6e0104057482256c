"""Spec-file and report dialects.

Cone specs are JSON objects with fields name, dim, and exactly one of
generators / inequalities, entries as exact rational strings ("3/2").
Reports reuse the same dialect (rationals as strings, floats as repr) with
stable key ordering so runs diff cleanly.
"""

import csv
import json

from .cones import PolyhedralCone, cone_from_generators, cone_from_inequalities
from .errors import ConfigError
from .exact import format_rational, rational

CSV_COLUMNS = ["experiment", "N", "sigma_min", "dim_ker", "dim_coker",
               "index", "winding", "verdict"]


def vector_strings(vec):
    return [format_rational(c) for c in vec]


def parse_vector(entries):
    if any(isinstance(e, bool) for e in entries):
        raise TypeError("JSON booleans are not rationals")
    return tuple(rational(e) for e in entries)


def read_cone_spec(text_or_obj):
    """Parse a cone spec (JSON text or dict) to (name, PolyhedralCone)."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    try:
        name = obj["name"]
        dim = obj["dim"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"cone spec needs 'name' and integer 'dim': {exc}")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ConfigError(f"cone spec 'dim' must be an integer, got {dim!r}")
    has_gen = "generators" in obj
    has_ineq = "inequalities" in obj
    if has_gen == has_ineq:
        raise ConfigError("cone spec needs exactly one of generators/inequalities")
    key = "generators" if has_gen else "inequalities"
    rows = obj[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ConfigError(f"cone spec '{key}' must be a list of rows")
    parsed = []
    for row in rows:
        try:
            parsed.append(parse_vector(row))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad row {row} in cone spec '{key}': "
                              f"{type(exc).__name__}: {exc}") from None
    if has_gen:
        cone = cone_from_generators(parsed, dim)
    else:
        cone = cone_from_inequalities(parsed, dim)
    return name, cone


def cone_report_object(cone: PolyhedralCone):
    return {
        "dim": cone.ambient_dim,
        "generators": [vector_strings(g) for g in cone.generators],
        "inequalities": [vector_strings(a) for a in cone.inequalities],
    }


def face_object(face):
    return {
        "active_set": list(face.active_set),
        "dim": face.dim,
        "generators": [vector_strings(g) for g in face.generators],
    }


def dumps_report(obj) -> str:
    """Deterministic JSON text: insertion-ordered dicts, 2-space indent."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_csv(path, rows):
    """Experiment rows with the fixed column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in {path}: {exc}")
