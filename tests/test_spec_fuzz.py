"""Seeded spec fuzzing of the CLI, in process.

Inputs are the packaged experiment specs, each with the command that runs it;
the pklimit and trivialize experiments once more with their cone preset
written inline, so that the fuzzer reaches into the cone spec; and the
packaged cone presets under lattice, strata and spectrum.  A case replaces
one value of an input, at any depth, by one of a fixed pool (0, -1, huge,
tiny and non-finite floats, integers beyond the float range, booleans, null,
strings, empty and ragged lists, an empty object), or deletes one key or
list entry.  The full case list is fixed; a seeded sample of CASES cases of
it runs here, which bounds the suite's time by the case list.  Apart from
that sample, every object of every input, and of each symbol experiment
with its symbol written as an expression object, is run once with a key
added that no command reads, and once with each of its keys misspelt.

Every run must end in exit 0, 1 or 2 within ALARM_S seconds, never in
another exception.  Exit 0 writes reports of valid JSON; exit 1 names a
category and exit 2 is a one-line config error, and neither leaves --out.
A run with an unknown or misspelt key must end in exit 2, naming that key.
"""

import contextlib
import copy
import io
import json
import math
import re
import signal
from importlib import resources

import numpy as np
import pytest

from conewh.cli import main
from conewh.presets import preset_spec, symbol_dim

CASES = 3000
ALARM_S = 20
POOL = [0, -1, 0.5, 1e308, -1e308, 1e-308, math.inf, math.nan, 10**400, -10**400, True,
        False, None, "", "x", "nan", "1/0", "1e400", "-3/2", [], [[]], [[1], [1, 2]], {}]
DELETE = "<deleted>"


def _presets(kind):
    specs = resources.files("conewh").joinpath("presets", kind)
    names = sorted(ref.name.removesuffix(".json") for ref in specs.iterdir())
    return {name: preset_spec(kind, name) for name in names}


def _command(spec):
    if "cone" in spec:
        return "pklimit" if "direction" in spec else "trivialize"
    return "hierarchy2d" if symbol_dim(spec["symbol"]) == 2 else "index1d"


def _inputs():
    """(command, label, spec) of every input."""
    cones = _presets("cones")
    for name, spec in cones.items():
        for command in ("lattice", "strata", "spectrum"):
            yield command, name, spec
    for name, spec in _presets("experiments").items():
        yield _command(spec), name, spec
        if "cone" in spec:
            yield _command(spec), f"{name}+inline-cone", {**spec, "cone": cones[spec["cone"]]}


def _paths(obj, path=()):
    """The path of every value in a JSON object, the root included."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, path + (key,))


def _mutated(spec, path, value):
    if not path:
        return value
    spec = copy.deepcopy(spec)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return spec


def _all_cases():
    """Every (command, input label, spec, path, value) of the fuzzer, in a
    fixed order."""
    for command, label, spec in _inputs():
        for path in _paths(spec):
            for value in POOL + ([DELETE] if path else []):
                yield command, label, spec, path, value


def _sample():
    """CASES cases drawn without replacement by a fixed seed, as lists of
    (mutated spec, case id) by (command, input label)."""
    cases = list(_all_cases())
    by_input = {}
    for i in sorted(np.random.default_rng(2006).choice(len(cases), CASES, replace=False)):
        command, label, spec, path, value = cases[i]
        shown = value if value is DELETE else json.dumps(value)[:12]
        case = f"{'/'.join(map(str, path)) or '<root>'}={shown}"
        by_input.setdefault((command, label), []).append((_mutated(spec, path, value), case))
    return by_input


def _key_inputs():
    """(command, label, spec) of every input, and of each symbol experiment
    once more with an expression object for its symbol."""
    for command, label, spec in _inputs():
        yield command, label, spec
        if "symbol" in spec:
            dim = symbol_dim(spec["symbol"])
            expr = "0.3*exp(-pi*x**2)" if dim == 1 else "0.3*exp(-pi*(x**2+y**2))"
            symbol = {"expr": expr, "dim": dim, "name": "expr"}
            yield command, f"{label}+inline-symbol", {**spec, "symbol": symbol}


def _key_cases():
    """Lists of (mutated spec, bad key, case id) by (command, input label): one
    key added to each object of an input, and each key of each object
    misspelt by appending "_"."""
    by_input = {}
    for command, label, spec in _key_inputs():
        cases = by_input.setdefault((command, label), [])
        for path in _paths(spec):
            obj = spec
            for key in path:
                obj = obj[key]
            if not isinstance(obj, dict):
                continue
            where = "/".join(map(str, path)) or "<root>"
            cases.append((_mutated(spec, path, {**obj, "unread": 0}), "unread",
                          f"{where}+unread"))
            for bad in obj:
                renamed = {k + "_" if k == bad else k: v for k, v in obj.items()}
                cases.append((_mutated(spec, path, renamed), bad + "_", f"{where}/{bad}_"))
    return by_input


class _Alarm(Exception):
    """A run took more than ALARM_S seconds."""


def _alarm(signum, frame):
    raise _Alarm(f"run took more than {ALARM_S} s")


def run_case(outdir, command, spec):
    """(exit code, error stream, --out path) of one in-process run in outdir."""
    path = outdir / "spec.json"
    path.write_text(json.dumps(spec))
    out = outdir / "out"
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stderr(err):
            code = main([command, "--in", str(path), "--out", str(out), "--seed", "1"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue(), out


def _fault(code, err, out):
    """What is wrong with the outcome of a run, or None."""
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if code == 0:
        reports = sorted(out.glob("*.json"))
        for report in reports:
            json.loads(report.read_text())
        return None if reports else "exit 0 without a report"
    if out.exists():
        return f"exit {code} left --out"
    pattern = r"error \[[a-z-]+\]: " if code == 1 else r"error: "
    if not re.match(pattern, err) or err.count("\n") != 1:
        return f"exit {code} with the error stream {err!r}"
    return None


_SAMPLE = _sample()


@pytest.mark.parametrize("command, label", sorted(_SAMPLE))
def test_fuzzed_specs_end_in_a_typed_exit(tmp_path, command, label):
    faults = []
    for i, (spec, case) in enumerate(_SAMPLE[command, label]):
        outdir = tmp_path / str(i)
        outdir.mkdir()
        try:
            fault = _fault(*run_case(outdir, command, spec))
        except Exception as exc:        # a traceback or a run past the alarm
            fault = f"raised {exc!r}"
        if fault:
            faults.append(f"{case}: {fault}")
    assert not faults, "\n".join(faults)


_KEY_CASES = _key_cases()


@pytest.mark.parametrize("command, label", sorted(_KEY_CASES))
def test_unknown_or_misspelt_keys_end_in_exit_2(tmp_path, command, label):
    faults = []
    for i, (spec, bad, case) in enumerate(_KEY_CASES[command, label]):
        outdir = tmp_path / str(i)
        outdir.mkdir()
        code, err, out = run_case(outdir, command, spec)
        if code != 2 or _fault(code, err, out) or f"key(s): {bad} (accepted: " not in err:
            faults.append(f"{case}: exit {code} with the error stream {err!r}")
    assert not faults, "\n".join(faults)
