"""Spec-file and report dialects.

Cone specs are JSON objects with fields name, dim, and exactly one of
generators / inequalities, entries as exact rational strings ("3/2").
Every input object is read by read_fields from a table that gives each key
a rule and a default: CONE_KEYS here, presets.SYMBOL_KEYS, and cli.SPEC_KEYS
and cli.TOLERANCE_KEYS; the rules live here.
Reports reuse the same dialect (rationals as strings, floats as repr) with
stable key ordering so runs diff cleanly.  A report is written one member per
line, indented 2; a member whose value is a non-empty list has one element
per line, indented 4; every other value, and each element, is one line
written by json's encoder (C-accelerated) with ", " and ": " separators.
"""

import csv
import json
import os
from json.encoder import c_make_encoder, encode_basestring_ascii

from .cones import PolyhedralCone, cone_from_generators, cone_from_inequalities
from .errors import ConfigError
from .exact import rational

CSV_COLUMNS = ["experiment", "N", "sigma_min", "dim_ker", "dim_coker",
               "index", "winding", "verdict"]
# The most entries of one array a spec may ask for; the largest any preset or
# benchmark job needs have N = 1024 squared, 2**20 entries.
MAX_ENTRIES = 2**26


def vector_strings(vec):
    return list(map(str, vec))


def check_keys(obj, accepted, what):
    """A ConfigError naming what obj is unless it is a JSON object of accepted keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)} "
                          f"(accepted: {', '.join(accepted) or 'none'})")


REQUIRED = object()         # the default of a key that an object must hold


def read_fields(obj, table, what):
    """The values of the JSON object obj, which what names, by table[key] =
    (rule, default): each key of table in order, as rule(value, "<what> '<key>'"),
    or its default if obj does not hold it; any other key is a ConfigError."""
    check_keys(obj, table, what)
    missing = [key for key, (_, default) in table.items()
               if default is REQUIRED and key not in obj]
    if missing:
        raise ConfigError(f"{what} is missing key(s): {', '.join(missing)}")
    return {key: rule(obj[key], f"{what} '{key}'") if key in obj else default
            for key, (rule, default) in table.items()}


# -- rules: rule(value, label) is the value read, or a ConfigError naming the label
# The float rules import numpy; the exact commands read no float and start without it.


def _floats(values, message):
    """The float array of exact or JSON numbers, or of rows of them; one beyond
    the float range is a ConfigError with the message."""
    import numpy as np

    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ConfigError(message) from None


def _finite_numbers(values, message):
    """The float array of a list of finite JSON numbers (not booleans or
    strings); any other entry is a ConfigError with the message."""
    import numpy as np

    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        floats = _floats(values, message)
        if np.isfinite(floats).all():
            return floats
    raise ConfigError(message)


def _number(value, what):
    """A finite JSON number (not a boolean or a string), as a float."""
    return float(_finite_numbers([value], f"{what} must be a finite number, got {value!r}")[0])


def _positive(value, what):
    """A finite, positive JSON number, as a float."""
    value = _number(value, what)
    if value <= 0:
        raise ConfigError(f"{what} must be positive, got {value}")
    return value


def _count(value, what, most=MAX_ENTRIES):
    """A JSON integer (not a boolean) from 1 to most."""
    if type(value) is not int or not 0 < value <= most:
        raise ConfigError(f"{what} must be an integer from 1 to {most}, got {value!r}")
    return value


def _numbers(value, what):
    """A non-empty list of finite JSON numbers (not booleans), as floats."""
    message = f"{what} must be a list of finite numbers, got {value!r}"
    if isinstance(value, list) and value:
        return _finite_numbers(value, message).tolist()
    raise ConfigError(message)


def _increasing(kind, value, what):
    """A strictly increasing list of two or more positive numbers: JSON
    integers for kind int, finite JSON numbers as floats for kind float."""
    message = (f"{what} must be a strictly increasing list of two or more positive "
               f"{'integers' if kind is int else 'finite numbers'}, got {value!r}")
    if not isinstance(value, list) or len(value) < 2 or (
            kind is int and any(type(n) is not int for n in value)):
        raise ConfigError(message)
    numbers = value if kind is int else _finite_numbers(value, message).tolist()
    if numbers[0] <= 0 or any(a >= b for a, b in zip(numbers, numbers[1:])):
        raise ConfigError(message)
    return numbers


def _rationals(value, what):
    """A list of exact rationals: JSON integers or strings such as "3/2"."""
    if not isinstance(value, list) or any(isinstance(e, bool) for e in value):
        raise ConfigError(f"{what} must be a list of rationals, got {value!r}")
    try:
        return tuple(rational(e) for e in value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _rows(value, what):
    """A list of rows, each a list of exact rationals."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of rows, got {value!r}")
    return [_rationals(row, f"{what} row {i}") for i, row in enumerate(value)]


def _string(value, what):
    """A JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _report_name(value, what):
    """A name of report files: one file name inside --out."""
    if (_string(value, what) in ("", ".", "..")
            or any(c in value for c in ("/", os.sep, "\0"))):
        raise ConfigError(f"{what} must be a file name other than '.' and '..', "
                          f"with no '/', got {value!r}")
    return value


# A cone spec holds exactly one of generators / inequalities.
CONE_KEYS = {"name": (_report_name, REQUIRED), "dim": (_count, REQUIRED),
             "generators": (_rows, None), "inequalities": (_rows, None)}


def read_cone_spec(obj):
    """Parse a cone spec, a JSON object of CONE_KEYS, to (name, PolyhedralCone)."""
    name, dim, generators, inequalities = read_fields(obj, CONE_KEYS, "cone spec").values()
    if (generators is None) == (inequalities is None):
        raise ConfigError("cone spec needs exactly one of generators/inequalities")
    if generators is None:
        return name, cone_from_inequalities(inequalities, dim)
    return name, cone_from_generators(generators, dim)


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


# The encoder of every report line, built once: json's C encoder, which
# JSONEncoder(separators=(", ", ": "), allow_nan=False).encode builds anew for
# each call, with json's key conversion, its refusal of NaN and infinities,
# and JSONEncoder.default's TypeError for any other value.  It keeps no cycle
# markers (a report is a tree its command builds), so it holds no state.
_LINE = c_make_encoder and c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", ", ",
    False, False, False)


def _encode(value):
    """One line of JSON text for the value."""
    if _LINE is None:       # no C accelerator: json's Python encoder
        return json.dumps(value, separators=(", ", ": "), allow_nan=False)
    return "".join(_LINE(value, 0))


def dumps_report(obj) -> str:
    """JSON text of a report object: one member per line, indented 2, and each
    element of a non-empty list or tuple member on a line of its own, indented
    4; every other value, and each element, on one line.  Any other obj is
    one line."""
    if not isinstance(obj, dict) or not obj:
        return _encode(obj) + "\n"
    members = []
    for key, value in obj.items():
        if isinstance(value, (list, tuple)) and value:
            # '"key": [' from {key: []}, so the key goes through json's conversion
            members.append(_encode({key: ()})[1:-2] + "\n    "
                           + ",\n    ".join(map(_encode, value)) + "\n  ]")
        else:
            members.append(_encode({key: value})[1:-1])
    return "{\n  " + ",\n  ".join(members) + "\n}\n"


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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode {path} as UTF-8: {exc}") from None
    except ValueError as exc:       # bad JSON, or an integer of more than 4300 digits
        raise ConfigError(f"bad JSON in {path}: {exc}") from None
