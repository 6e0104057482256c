"""Spec-file and report dialects.

Cone specs are JSON objects with fields name, dim, and exactly one of
generators / inequalities, entries as exact rational strings ("3/2").
Reports reuse the same dialect (rationals as strings, floats as repr) with
stable key ordering so runs diff cleanly.
"""

import csv
import json
import math
from json.encoder import encode_basestring_ascii as _quote

from .cones import PolyhedralCone, cone_from_generators, cone_from_inequalities
from .errors import ConfigError
from .exact import format_rational, rational

_INDENT = "  "
CSV_COLUMNS = ["experiment", "N", "sigma_min", "dim_ker", "dim_coker",
               "index", "winding", "verdict"]


def vector_strings(vec):
    return [format_rational(c) for c in vec]


def parse_vector(entries):
    if any(isinstance(e, bool) for e in entries):
        raise TypeError("JSON booleans are not rationals")
    return tuple(rational(e) for e in entries)


def check_keys(obj, accepted, what):
    """A ConfigError naming what obj is unless it is a JSON object of accepted keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)} "
                          f"(accepted: {', '.join(accepted) or 'none'})")


def read_cone_spec(obj):
    """Parse a cone spec, a JSON object, to (name, PolyhedralCone)."""
    check_keys(obj, ("name", "dim", "generators", "inequalities"), "cone spec")
    if "name" not in obj or "dim" not in obj:
        raise ConfigError("cone spec needs 'name' and integer 'dim'")
    name, dim = obj["name"], obj["dim"]
    if not isinstance(name, str):
        raise ConfigError(f"cone spec 'name' must be a string, got {name!r}")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ConfigError(f"cone spec 'dim' must be an integer, got {dim!r}")
    has_gen = "generators" in obj
    if has_gen == ("inequalities" in obj):
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
    build = cone_from_generators if has_gen else cone_from_inequalities
    return name, build(parsed, dim)


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


def _key(k):
    """A dict key as json converts it: a str as is, a number, bool or None
    as its JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _scalar(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _scalar(o):
    """A value that is not a list, tuple or dict, checked in json's order."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps_report(obj) -> str:
    """Deterministic JSON text: insertion-ordered dicts, 2-space indent; the
    same string as json.dumps(obj, indent=2, allow_nan=False) + "\\n".

    The text of a container met a second time at one depth is kept for the
    rest of the call, so a face object that a report names many times is not
    encoded again at that depth."""
    memo = {}
    seen = set()

    def encode(o, depth):
        t = type(o)
        if t is str:
            return _quote(o)
        if t is int:
            return int.__repr__(o)
        if not isinstance(o, (list, tuple, dict)):
            return _scalar(o)
        key = (id(o), depth)
        text = memo.get(key)
        if text is not None:
            return text
        brackets = "{}" if isinstance(o, dict) else "[]"
        if not o:
            return brackets
        inner = "\n" + _INDENT * (depth + 1)
        if isinstance(o, dict):
            items = [_quote(_key(k)) + ": " + encode(v, depth + 1) for k, v in o.items()]
        else:
            items = [encode(v, depth + 1) for v in o]
        text = (brackets[0] + inner + ("," + inner).join(items)
                + "\n" + _INDENT * depth + brackets[1])
        if key in seen:
            memo[key] = text
        else:
            seen.add(key)
        return text

    return encode(obj, 0) + "\n"


def write_csv(path, rows):
    """Experiment rows with the fixed column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode {path} as UTF-8: {exc}") from None
