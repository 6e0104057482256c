"""Spec-file and report dialects.

Cone specs are JSON objects with fields name, dim, and exactly one of
generators / inequalities, entries as exact rational strings ("3/2").
Every input object is read by read_fields from a table that gives each key
a rule and a default: CONE_KEYS here, presets.SYMBOL_KEYS, and cli.SPEC_KEYS
and cli.TOLERANCE_KEYS; the rules live here.
Reports reuse the same dialect (rationals as strings, floats as repr) with
stable key ordering so runs diff cleanly.
"""

import csv
import json
import math
import os
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .cones import PolyhedralCone, cone_from_generators, cone_from_inequalities
from .errors import ConfigError
from .exact import as_float, format_rational, rational

_INDENT = "  "
CSV_COLUMNS = ["experiment", "N", "sigma_min", "dim_ker", "dim_coker",
               "index", "winding", "verdict"]
# The most entries of one array a spec may ask for; the largest any preset or
# benchmark job needs have N = 1024 squared, 2**20 entries.
MAX_ENTRIES = 2**26


def vector_strings(vec):
    return [format_rational(c) for c in vec]


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


def _floats(values, message):
    """The float array of exact or JSON numbers; one beyond the float range is
    a ConfigError with the message."""
    try:
        return as_float(values)
    except OverflowError:
        raise ConfigError(message) from None


def _finite_numbers(values, message):
    """The float array of a list of finite JSON numbers (not booleans or
    strings); any other entry is a ConfigError with the message."""
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode {path} as UTF-8: {exc}") from None
    except ValueError as exc:       # bad JSON, or an integer of more than 4300 digits
        raise ConfigError(f"bad JSON in {path}: {exc}") from None
