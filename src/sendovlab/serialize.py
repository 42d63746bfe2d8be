"""JSON and CSV conventions shared by the whole package.

JSON text is compact (no whitespace) with sorted keys, which ``json``
encodes in C.  Complex scalars serialize as [re, im] pairs; arrays of
them as lists of pairs.  CSV numeric fields use 17 significant digits,
enough to round-trip binary64 exactly, so reruns with identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .poly_core import Polynomial

__all__ = [
    "cpair",
    "dumps",
    "finite_float",
    "fmt17",
    "from_cpair",
    "poly_from_json",
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


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, compact separators, one line."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def poly_from_json(obj: dict) -> Polynomial:
    unknown = set(obj) - {"coeffs", "roots", "leading"}
    if unknown:
        raise ValueError(f"unknown polynomial JSON key(s) {sorted(unknown)}")
    try:
        coeffs = [from_cpair(c) for c in obj["coeffs"]]
    except KeyError as exc:
        raise ValueError("polynomial JSON needs a 'coeffs' field") from exc
    roots = obj.get("roots")
    if roots is not None:
        roots = [from_cpair(r) for r in roots]
    p = Polynomial(np.array(coeffs), np.array(roots) if roots is not None else None)
    if "leading" in obj and from_cpair(obj["leading"]) != p.leading:
        raise ValueError("leading field disagrees with the last coefficient")
    return p
