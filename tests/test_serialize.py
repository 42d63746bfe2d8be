"""The record codec: float64 arrays in base64 of their bytes, decoded bit for bit."""

import json

import numpy as np
import pytest

from sendovlab.cli import COMMANDS, ExperimentConfig, run
from sendovlab.serialize import _encode_array, dumps, from_cpair, loads

# -0.0, the smallest subnormal, a subnormal near the normal range, +-inf
# and values whose shortest decimal form takes all 17 digits
SPECIALS = [
    -0.0,
    5e-324,
    -2.225073858507e-309,
    np.inf,
    -np.inf,
    0.1,
    1.0 / 3.0,
    np.nextafter(1.0, 2.0),
    -1.7976931348623157e308,
]


def _bits(arr):
    return arr.dtype.str, arr.shape, arr.tobytes()


@pytest.mark.parametrize(
    "arr",
    [
        np.zeros(0),
        np.array(SPECIALS),
        np.array(SPECIALS[:8]).reshape(4, 2),
        np.column_stack((np.linspace(-1, 1, 7), np.geomspace(1e-300, 1e300, 7))),
    ],
    ids=["empty", "n", "n-by-2", "n-by-2-strided"],
)
def test_round_trip_is_bit_exact(arr):
    back = loads(dumps({"a": arr, "nested": [arr, {"b": arr}]}))
    for got in (back["a"], back["nested"][0], back["nested"][1]["b"]):
        assert _bits(got) == _bits(arr.astype("<f8"))


def test_encoded_form():
    text = dumps(np.array([1.0, -0.0]))
    assert json.loads(text) == {"f64": "AAAAAAAA8D8AAAAAAAAAgA==", "shape": [2]}


@pytest.mark.parametrize(
    "arr",
    [np.arange(3), np.arange(3, dtype=np.float32), np.array([1 + 2j]), np.array([True])],
    ids=["int", "float32", "complex", "bool"],
)
def test_other_dtypes_raise(arr):
    with pytest.raises(TypeError, match="dtype"):
        dumps({"a": arr})


def test_other_objects_still_raise():
    with pytest.raises(TypeError):
        dumps({"a": object()})


@pytest.mark.parametrize("pair", [[1, 2, 3], [1.0], 1.0], ids=["three", "one", "scalar"])
def test_from_cpair_refuses_a_non_pair(pair):
    with pytest.raises(ValueError, match=r"expected a \[re, im\] pair"):
        from_cpair(pair)


MILLER32 = {"kind": "miller", "n": 32, "c1": 1.0, "c2": 2.0, "lambdas": [[0.3, 0.8]]}
RECORDS = {
    "check": ({"random": {"count": 3, "degree": 12}}, {}),
    "balayage": ({"family": {"kind": "origin", "n": 48}}, {"R": 1.2}),
    "family": ({"family": MILLER32}, {"theta_grid": 64}),
}


def _arrays(obj, path=()):
    """(path, array) of every ndarray in a nested record."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for key, val in obj.items():
            yield from _arrays(val, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _arrays(val, path + (i,))


@pytest.mark.parametrize("command", sorted(RECORDS))
def test_decoded_arrays_carry_the_json_list_values(command):
    # every array decodes to the values a JSON list of it parses to,
    # the form records took before arrays were written in binary
    instance, options = RECORDS[command]
    rec = run(ExperimentConfig(command=command, instance=instance, options=options, seed=4))
    decoded = dict(_arrays(loads(rec.payload())["results"]))
    in_memory = dict(_arrays(rec.results))
    assert decoded.keys() == in_memory.keys() and decoded
    for path, arr in in_memory.items():
        assert decoded[path].tolist() == json.loads(json.dumps(arr.tolist())), path


def _one_call(obj):
    """The text of one json.dumps call with every array's base64 inside it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode_array)


PAYLOADS = {
    **RECORDS,
    "identities": ({"random": {"count": 2, "degree": 8}}, {"points": 5}),
    "winding": ({"family": MILLER32}, {}),
    "fourier": ({"random": {"count": 1, "degree": 12}}, {"R": 1.2, "N": 512}),
    "sweep": ({"family": {"kind": "origin"}}, {"n_list": [8, 12]}),
}


def test_every_command_has_a_payload():
    assert set(PAYLOADS) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(PAYLOADS))
def test_payload_is_the_text_of_one_call(command):
    # the base64 texts, joined in after encoding, give the bytes json wrote
    instance, options = PAYLOADS[command]
    rec = run(ExperimentConfig(command=command, instance=instance, options=options, seed=4))
    obj = {k: v for k, v in rec.to_json().items() if k != "wall_time_s"}
    assert rec.payload() == _one_call(obj)


ARR = np.array(SPECIALS)


@pytest.mark.parametrize(
    "obj",
    [
        ARR,
        np.zeros(0),
        [np.zeros(0), ARR, np.zeros((0, 2))],
        {"big": ARR.astype(">f8"), "strided": ARR.reshape(3, 3)[:, ::2], "n": 1},
        # a "\x00" elsewhere in the object: json writes the arrays whole
        {"a": ARR, "note": "\x00"},
        {"\x00": ARR, "b": [ARR]},
        {"a": ARR, "escaped": "\\u0000"},
        {"note": "\x00", "n": 1},
    ],
    ids=[
        "top-level",
        "empty",
        "list-of-three",
        "big-endian-and-strided",
        "nul-value",
        "nul-key",
        "escaped-backslash",
        "nul-without-arrays",
    ],
)
def test_text_is_the_text_of_one_call(obj):
    text = dumps(obj)
    assert text == _one_call(obj)
    json.loads(text)
