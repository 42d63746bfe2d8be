"""The record codec: float64 arrays in base64 of their bytes, decoded bit for bit."""

import json

import numpy as np
import pytest

from sendovlab.cli import ExperimentConfig, run
from sendovlab.serialize import dumps, from_cpair, loads

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
