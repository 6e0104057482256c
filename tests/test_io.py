"""The report writer against the standard library encoder: text that parses
to the same value on seeded random nested objects whose sub-objects are
shared at one depth and across depths, the writer's line layout, and the same
error types on values JSON cannot hold."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conewh.io import dumps_report, face_object, vector_strings
from conewh.strata import strata

from oracles import json_dumps_report

STRINGS = ["", "1/2", "-3", "é", "日本語", "tab\there", 'q"uote', "back\\slash",
           "line\nbreak", "\x00\x1f", " ", "\ud800", "emoji \U0001f600"]
KEYS = STRINGS + [0, -7, 2**70, 0.5, -0.0, 1e300, True, False, None]
NUMBERS = [0, 1, -1, 2**64, -(3**90), 0.1, -0.0, 5e-324, 1.7976931348623157e308,
           np.float64(1 / 3), np.float64(-2.5e-17), True, False, None]


def _random_object(rng, pool, depth):
    """A nested dict/list/tuple; a container already built is reused from
    pool at random, at the depth it was built or at another one."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(STRINGS + NUMBERS)
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    size = rng.choice([0, 1, 2, 3, 5])
    kind = rng.choice(["dict", "list", "tuple"])
    if kind == "dict":
        obj = {rng.choice(KEYS): _random_object(rng, pool, depth - 1) for _ in range(size)}
    else:
        obj = [_random_object(rng, pool, depth - 1) for _ in range(size)]
        if kind == "tuple":
            obj = tuple(obj)
    pool.append(obj)
    return obj


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_json_dumps_on_random_objects(seed):
    rng = random.Random(seed)
    pool = []
    for _ in range(5):
        obj = _random_object(rng, pool, rng.randint(1, 6))
        assert json.loads(dumps_report(obj)) == json.loads(json_dumps_report(obj))


@pytest.mark.parametrize("seed", range(10))
def test_line_encoder_writes_the_text_of_json_encoder(monkeypatch, seed):
    """The one line encoder, built once, and the json.dumps it falls back to
    without json's C accelerator, write the text JSONEncoder.encode writes."""
    import conewh.io as io

    rng = random.Random(seed)
    pool = []
    objs = [_random_object(rng, pool, rng.randint(1, 6)) for _ in range(5)]
    encode = json.JSONEncoder(separators=(", ", ": "), allow_nan=False).encode
    texts = [encode(obj) for obj in objs]
    assert [io._encode(obj) for obj in objs] == texts
    monkeypatch.setattr(io, "_LINE", None)
    assert [io._encode(obj) for obj in objs] == texts


def test_shared_objects_at_one_depth_and_across_depths():
    face = {"active_set": [0, 2], "dim": 1, "generators": [["1", "0"]]}
    empty = []
    obj = {
        "fibers": [{"face": face, "basis": empty}, {"face": face, "basis": empty}],
        "pairs": [[face, face], [face, {"deeper": [face, (face,)]}]],
        "uncovered": [face, face, face],
        "top": face,
    }
    for o in (obj, face):
        assert json.loads(dumps_report(o)) == json.loads(json_dumps_report(o))


def test_vector_strings_print_ints_and_fractions_alike():
    assert vector_strings((Fraction(3, 2), Fraction(-4), 7)) == ["3/2", "-4", "7"]


def test_writer_matches_json_dumps_on_a_strata_report(fourgonal):
    objs = {f.active_set: face_object(f) for level in strata(fourgonal).levels
            for f in level}
    report = {"faces": list(objs.values()), "again": [list(objs.values())] * 3,
              "by_size": {len(k): v for k, v in objs.items()}}
    assert json.loads(dumps_report(report)) == json.loads(json_dumps_report(report))


def test_report_layout_one_member_and_one_element_per_line(fourgonal):
    """Members on lines indented 2, each element of a non-empty list or tuple
    member on a line indented 4 that json.dumps writes alike, and no other
    line break."""
    faces = [face_object(f) for level in strata(fourgonal).levels for f in level]
    report = {"toolkit": "conewh", "config": {"seed": None, "tolerances": {}},
              "faces": faces, "pairs": ((0, 1), (1, 2)), "none": [], "name": "日本語",
              "margin": 0.1, 3: [{}]}
    members = []
    for key, value in report.items():
        head = "  " + json.dumps(str(key)) + ": "
        if isinstance(value, (list, tuple)) and value:
            elements = ["    " + json.dumps(e, separators=(", ", ": ")) for e in value]
            members.append(head + "[\n" + ",\n".join(elements) + "\n  ]")
        else:
            members.append(head + json.dumps(value, separators=(", ", ": ")))
    assert dumps_report(report) == "{\n" + ",\n".join(members) + "\n}\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_non_finite_floats_raise_value_error(value):
    for obj in (value, [1, {"x": value}], {value: 1}):
        for dumps in (dumps_report, json_dumps_report):
            with pytest.raises(ValueError):
                dumps(obj)


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, object(), np.bool_(True), b"bytes"])
def test_unsupported_values_raise_type_error(value):
    for obj in (value, [{"x": (1, value)}]):
        for dumps in (dumps_report, json_dumps_report):
            with pytest.raises(TypeError):
                dumps(obj)


@pytest.mark.parametrize("key", [np.int64(3), object(), (1, 2), frozenset()])
def test_unsupported_keys_raise_type_error(key):
    for dumps in (dumps_report, json_dumps_report):
        with pytest.raises(TypeError):
            dumps({"x": [{key: 1}]})
