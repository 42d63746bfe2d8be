"""JSON and CSV conventions shared by the whole package.

JSON text is compact (no whitespace) with sorted keys, which ``json``
encodes in C.  Complex scalars serialize as [re, im] pairs.  A float64
ndarray serializes as ``{"f64": <base64>, "shape": [...]}``, the base64
of its little-endian bytes, and :func:`loads` rebuilds it bit for bit;
complex arrays are stacked as (n, 2) arrays of [re, im] first.  The
base64 texts are joined into the encoded text after ``json`` has written
the rest, which gives the same bytes without ``json`` scanning them for
escapes.  CSV numeric fields use 17 significant digits, enough to
round-trip binary64 exactly, so reruns with identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import binascii
import itertools
import json
import math

import numpy as np

__all__ = [
    "cpair",
    "dumps",
    "finite_float",
    "fmt17",
    "from_cpair",
    "loads",
]


def cpair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def finite_float(value) -> float:
    """A finite JSON number, int or float but not bool, as a float.

    Anything else raises ValueError, or OverflowError for an int past the float range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return float(value)


def from_cpair(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(finite_float(pair[0]), finite_float(pair[1]))


def fmt17(x) -> str:
    """17-significant-digit decimal, the exact round-trip width for binary64."""
    return format(float(x), ".17g")


def _encode_array(obj) -> dict:
    """The ``default=`` hook of :func:`dumps`: a float64 ndarray as base64 of its bytes.

    Any other object, an ndarray of another dtype included, raises
    TypeError, as ``json`` does for a type it cannot encode.
    """
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    if obj.dtype.kind != "f" or obj.dtype.itemsize != 8:
        raise TypeError(f"only float64 arrays serialize, not dtype {obj.dtype}")
    data = binascii.b2a_base64(obj.astype("<f8", copy=False).tobytes(), newline=False)
    return {"f64": data.decode("ascii"), "shape": list(obj.shape)}


def _decode_array(obj: dict):
    """The ``object_hook`` of :func:`loads`: each encoded array back as an ndarray."""
    if obj.keys() == {"f64", "shape"}:
        data = binascii.a2b_base64(obj["f64"])
        return np.frombuffer(data, dtype="<f8").reshape(obj["shape"])
    return obj


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, compact separators, one line, arrays in base64.

    Each array is encoded with the placeholder ``"\\u0000"`` for its base64
    text, which is joined in after, so that ``json`` does not scan it for
    escapes: the same bytes, as base64 never needs one.  Where the text
    holds another ``"\\u0000"`` (a string of ``"\\x00"`` in the object),
    the arrays go through ``json`` whole.
    """
    texts = []

    def stash(arr) -> dict:
        encoded = _encode_array(arr)
        texts.append(encoded["f64"])
        encoded["f64"] = "\x00"
        return encoded

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=stash)
    pieces = text.split("\\u0000")
    if len(pieces) != len(texts) + 1:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode_array)
    texts.append("")
    return "".join(itertools.chain.from_iterable(zip(pieces, texts)))


def loads(text: str):
    """The object that :func:`dumps` wrote, each float64 array rebuilt bit for bit.

    Decoded arrays are read-only views of the decoded bytes.
    """
    return json.loads(text, object_hook=_decode_array)

