"""Complex polynomials with a dual coefficient/root representation.

Coefficients are stored ascending by power and drive Horner evaluation
and differentiation.  An optional root list, when attached, is stored
verbatim as the polynomial's zeros; ``rootfind.zero_sets`` checks it
against the coefficients, at every degree, with the backward error
that certifies solved roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AtomCollisionError",
    "CrossCheckError",
    "Polynomial",
    "SendovInstance",
    "derivative",
    "evaluate",
    "from_roots",
    "from_roots_batch",
]

# Absolute slack on |leading - 1| below which a polynomial counts as monic.
MONIC_TOL = 1e-12
# The one slack of every closed-disk test |z - c| <= r in the package, so
# that points computed to rounding accuracy do not flip sides on the circle.
DISK_TOL = 1e-10


class AtomCollisionError(ValueError):
    """A query point coincides exactly with a zero or measure atom."""


class CrossCheckError(RuntimeError):
    """Two routes to one quantity disagree beyond their rounding bound."""


def _as_complex_vector(values, name: str) -> np.ndarray:
    """A complex copy of values, so freezing it leaves the caller's array writeable."""
    arr = np.array(values, dtype=np.complex128, ndmin=1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _read_only(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype, for a frozen dataclass to keep.

    A read-only array of dtype is kept as it is; anything else is
    copied, so the caller's array stays writeable.
    """
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _horner(coeffs: np.ndarray, z):
    """Evaluate sum coeffs[k] z^k by Horner's rule (z scalar or array).

    At one point the walk runs on Python complexes, which round as 0-d
    arrays do at less cost per step, and returns a Python complex.  A
    Python number is told by its type, which costs less than ``np.ndim``.
    """
    if type(z) in (float, complex, int) or np.ndim(z) == 0:
        z, acc, coeffs = complex(z), 0j, coeffs.tolist()
    else:
        acc = np.zeros_like(np.asarray(z, dtype=np.complex128))
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _fold(rows: np.ndarray, N: int) -> np.ndarray:
    """Sum the entries of each row whose indices agree mod N, in index order."""
    if rows.shape[1] <= N:
        # one block: added to zeros, as the sum does (-0.0 comes out +0.0)
        out = np.zeros((rows.shape[0], N), dtype=rows.dtype)
        out[:, : rows.shape[1]] += rows
        return out
    padded = np.pad(rows, [(0, 0), (0, -rows.shape[1] % N)])
    return padded.reshape(rows.shape[0], -1, N).sum(axis=1)


def _scaled_values(rows: np.ndarray, R: float, N: int):
    """Each row's polynomial on the N points R e^{2 pi i j / N}, over its largest term.

    For a row of coefficients c, one inverse FFT of c_k R^k / M, folded
    k mod N (exact on the nodes, where z^N = R^N), with M = max |c_k| R^k.
    Each term is c_k R^(k - t) / |c_t| for the index t of the largest,
    so R^d, which overflows for d >~ 1,700 at R = 1.5 and underflows for
    d >~ 440 at R = 0.2, never forms, and the terms near the largest
    carry no rounding of k log R.  Returns the values (one row each),
    each row's log M, which scales them back, and each row's
    sum |c_k| R^k / M, the scale of their rounding.
    """
    k = np.arange(rows.shape[1])
    with np.errstate(divide="ignore"):
        ts = np.argmax(np.log(np.abs(rows)) + k * np.log(R), axis=1).tolist()
    scaled, logs = np.empty_like(rows), []
    for c, t, out in zip(rows, ts, scaled):
        powers = np.where(c != 0, (k - t) * np.log(R), -np.inf)
        np.divide(c * np.exp(powers), abs(c[t]), out=out)
        logs.append(math.log(abs(c[t])) + t * math.log(R))
    values = _fold(scaled, N)
    np.fft.ifft(values, norm="forward", out=values)
    return values, logs, np.sum(np.abs(scaled), axis=1)


def _circle_values(p: Polynomial, R: float, N: int):
    """p and z p' on the N points R e^{2 pi i j / N}, each over its largest term.

    Both come from one :func:`_scaled_values`, z p' from the coefficients
    k c_k.  Also returns log(M'/M), which scales the ratio z p'/p back,
    and sum |c_k| R^k / M, the scale of the rounding of p.
    """
    k = np.arange(p.degree + 1)
    values, logs, scales = _scaled_values(np.stack([p.coeffs, k * p.coeffs]), R, N)
    return values[0], values[1], logs[1] - logs[0], float(scales[0])


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Degree-n polynomial over C, coefficients ascending by power.

    Attributes
    ----------
    coeffs : ndarray of complex, shape (n+1,)
        ``coeffs[k]`` multiplies z**k; the leading entry is nonzero.
    roots : ndarray of complex or None
        Optional multiset of zeros, stored verbatim.  The zero set that
        ``rootfind.zero_sets`` makes of them fails its certificate
        unless each one's backward error against ``coeffs`` passes, at
        any degree.
    """

    coeffs: np.ndarray
    roots: np.ndarray | None = None

    def __post_init__(self):
        coeffs = _as_complex_vector(self.coeffs, "coeffs")
        if coeffs.size < 2:
            raise ValueError("degree must be at least 1")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if self.roots is not None:
            roots = _as_complex_vector(self.roots, "roots")
            if roots.size != self.degree:
                raise ValueError(f"root count {roots.size} does not match degree {self.degree}")
            roots.setflags(write=False)
            object.__setattr__(self, "roots", roots)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[-1])

    @property
    def monic(self) -> bool:
        return abs(self.leading - 1.0) <= MONIC_TOL


def _leja_orders(roots: np.ndarray) -> np.ndarray:
    """Greedy max-distance-product order of each row, as column indices.

    Each row starts at its largest-modulus root; each next root is the
    unchosen one with the largest product of distances to the roots
    chosen so far, the first such index on ties.  Rows of two or fewer
    roots keep their order.  The score of each root is its log distance
    sum; a chosen root scores log 0 = -inf against itself from the next
    step on, so a plain argmax skips it.  An unchosen root scores -inf
    only when it repeats a chosen one exactly: in a row without repeats
    each of its distances is positive, so its score stays above -inf and
    the argmax lands on it.  So only when a row has a repeat, which one
    sort of each row shows, is each step tested for a row whose best
    score is -inf; such a row takes its first unchosen index.
    """
    b, m = roots.shape
    order = np.tile(np.arange(m), (b, 1))
    if m <= 2:
        return order
    rows = np.arange(b)
    ordered = np.sort(roots, axis=1)
    repeats = bool((ordered[:, 1:] == ordered[:, :-1]).any())
    nxt = np.abs(roots).argmax(axis=1)
    order[:, 0] = nxt
    score = np.zeros((b, m))
    diff = np.empty((b, m), dtype=np.complex128)
    dist = np.empty((b, m))
    with np.errstate(divide="ignore"):
        for k in range(1, m):
            np.subtract(roots, roots[rows, nxt][:, None], out=diff)
            score += np.log(np.abs(diff, out=dist), out=dist)
            nxt = score.argmax(axis=1)
            if repeats:
                stuck = score[rows, nxt] == -np.inf
                if stuck.any():
                    chosen = np.zeros((int(stuck.sum()), m), dtype=bool)
                    np.put_along_axis(chosen, order[stuck, :k], True, axis=1)
                    nxt[stuck] = np.argmax(~chosen, axis=1)
            order[:, k] = nxt
    return order


def from_roots_batch(roots) -> np.ndarray:
    """Multiply out the monic prod (z - r) for every row of roots.

    Each row is expanded in its Leja order (:func:`_leja_orders`).
    Incremental convolution in caller order can grow the intermediate
    coefficients exponentially (e.g. roots of unity sorted by angle);
    Leja ordering keeps the partial products tame.  The product itself
    is order-independent, so this only changes the floating-point path.
    Every step is the same per-row arithmetic at any batch size, so a
    row's coefficients do not depend on the batch it is expanded in.

    Parameters
    ----------
    roots : ndarray of complex, shape (B, m)
        One root multiset per row.

    Returns
    -------
    ndarray of complex, shape (B, m+1)
        Ascending coefficient rows.
    """
    roots = np.asarray(roots, dtype=np.complex128)
    if roots.ndim != 2:
        raise ValueError("roots must be a 2-d array")
    if not np.isfinite(roots).all():
        raise ValueError("roots contains non-finite entries")
    roots = np.take_along_axis(roots, _leja_orders(roots), axis=1)
    b, m = roots.shape
    coeffs = np.ones((b, 1), dtype=np.complex128)
    # an overflow, and the NaN it may leave, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            nxt = np.zeros((b, j + 2), dtype=np.complex128)
            nxt[:, 1:] = coeffs
            nxt[:, :-1] -= roots[:, j, None] * coeffs
            coeffs = nxt
    if not np.isfinite(coeffs).all():
        raise ValueError("expansion overflows: coefficients are not finite")
    if np.any((coeffs[:, 0] == 0) & np.all(roots != 0, axis=1)):
        raise ValueError("expansion underflows: the constant term is 0 but no root is 0")
    return coeffs


def from_roots(roots) -> Polynomial:
    """Build the monic polynomial with the given zero multiset.

    Parameters
    ----------
    roots : sequence of complex
        Zeros with multiplicity, any order.
    """
    roots = _as_complex_vector(roots, "roots")
    if roots.size == 0:
        raise ValueError("at least one root is required")
    return Polynomial(from_roots_batch(roots[None, :])[0], roots)


def evaluate(p: Polynomial, z):
    """Evaluate p at z (scalar or array) by Horner's rule."""
    return _horner(p.coeffs, z)


def derivative(p: Polynomial) -> Polynomial:
    """Formal derivative; any attached roots are dropped."""
    k = np.arange(1, p.coeffs.size)
    return Polynomial(p.coeffs[1:] * k)


@dataclass(frozen=True, eq=False)
class SendovInstance:
    """A monic polynomial paired with a distinguished real zero a in [0, 1].

    The classical normalization: after rotation, the zero under study
    sits at a on the positive real axis.  ``f(a) = 0`` is enforced up
    to a residual tolerance; when an explicit root list is attached,
    every zero must lie in the closed unit disk.  Instances built in
    coefficient form (no root list) skip the disk check, which lets the
    near-counterexample families carry zeros O(1/n) outside the disk.
    """

    f: Polynomial
    a: float

    def __post_init__(self):
        if not self.f.monic:
            raise ValueError("instance polynomial must be monic")
        a = float(self.a)
        if not (0.0 <= a <= 1.0 + 1e-12):
            raise ValueError("a must lie in [0, 1]")
        object.__setattr__(self, "a", min(a, 1.0))
        residual = abs(_horner(self.f.coeffs, a))
        # the scale 1 + sum |c_k| a^k is at least 1: walk it only past 1e-8
        if residual > 1e-8 and residual > 1e-8 * (1.0 + _horner(np.abs(self.f.coeffs), a).real):
            raise ValueError(f"f(a) residual {residual:.3e} exceeds tolerance")
        if self.f.roots is not None:
            top = float(np.max(np.abs(self.f.roots)))
            if top > 1.0 + DISK_TOL:
                raise ValueError(f"root modulus {top:.17g} outside closed unit disk")

    @property
    def n(self) -> int:
        return self.f.degree
