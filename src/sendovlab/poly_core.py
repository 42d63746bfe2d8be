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
# The unit roundoff u of float64 (Higham, 2nd ed., 2.1); np.finfo(float).eps = 2u exactly.
UNIT_ROUNDOFF = 2.0**-53
_A_SLACK = 1e-12  # how far a SendovInstance's a may pass 1 before it is clipped to 1
_ROOT_TOL = 1e-8  # the largest |f(a)| of a SendovInstance, over 1 + sum |c_k| a^k


class AtomCollisionError(ValueError):
    """A query point coincides exactly with a zero or measure atom."""


class CrossCheckError(RuntimeError):
    """Two routes to one quantity disagree beyond their rounding bound."""


def _read_only(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype, for a frozen dataclass to keep.

    A read-only array of dtype that owns its memory or views a read-only
    base is kept as it is; anything else is copied, so the caller's array
    stays writeable and no write through a writeable base reaches what is kept.
    """
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        base = values.base
        if base is None or (isinstance(base, np.ndarray) and not base.flags.writeable):
            return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _as_complex_vector(values, name: str) -> np.ndarray:
    """values as a checked complex vector, by :func:`_read_only`: uncopied if already frozen."""
    arr = _read_only(values, np.complex128)
    arr = arr.reshape(1) if arr.ndim == 0 else arr
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
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


def _cosets(w: int, N: int) -> int:
    """N / L for L the smallest divisor of N with L >= max(w, ceil(sqrt N)), or 1 where none is.

    That is the largest divisor of N up to N / max(w, ceil(sqrt N)),
    which is at most sqrt N, so the search down from there takes
    O(sqrt N) steps even for a prime N.
    """
    M = max(1, N // max(w, math.isqrt(N - 1) + 1))
    while N % M:
        M -= 1
    return M


def _twiddles(w: int, M: int, N: int) -> np.ndarray:
    """e^{2 pi i k r / N} for k < w (rows) and 1 <= r < M (columns), with w M <= N.

    With K = ceil(sqrt w) and k = k1 + K k2, each entry is the one
    product e^{2 pi i k1 r / N} e^{2 pi i K k2 r / N}, so cos and sin
    are taken of (K + ceil(w / K)) (M - 1) angles, not w (M - 1).  Each
    angle is 2 pi m / N for an exact integer m = k1 r or K k2 r below N.
    """
    K = math.isqrt(w - 1) + 1
    m = np.outer(np.concatenate([np.arange(K), np.arange(0, w, K)]), np.arange(1, M))
    tables = np.exp((2j * np.pi / N) * m)
    return (tables[K:, None, :] * tables[None, :K, :]).reshape(-1, M - 1)[:w]


def _scaled_values(rows: np.ndarray, R: float, N: int):
    """Each row's polynomial on the N points R e^{2 pi i j / N}, over its largest term.

    For a row of coefficients c, the values of sum_k c_k R^k z^k / T on
    the N-th roots of unity, with T = max |c_k| R^k.  Each term is
    c_k R^(k - t) / |c_t| for the index t of the largest, so R^d, which
    overflows for d >~ 1,700 at R = 1.5 and underflows for d >~ 440 at
    R = 0.2, never forms, and the terms near the largest carry no
    rounding of k log R.

    The N nodes are M = N / L cosets of the L-th roots of unity, L the
    smallest divisor of N with L >= max(w, ceil(sqrt N)) for rows of w
    coefficients (:func:`_cosets`).  Node j = r + M s (r < M, s < L) is
    the length-L inverse transform over s of a_k = c_k R^k omega^{r k} / T,
    omega = e^{2 pi i / N}: every row's (L, M) block of twisted
    coefficients (:func:`_twiddles`) is transformed along its L axis in
    place, and the block read row by row is then in node order, with no
    transform or scratch of length N.  Where no divisor lies in that
    range (as for a prime N, or w > N / 2) M is 1: every twiddle is 1,
    the row is folded k mod N (exact on the nodes, where z^N = 1) and
    the one transform has length N.  The rounding of a length-L
    transform grows as eps log2 L sum |a_k|, and the twist adds one
    rounded stage; for M >= 2, log2 L + 1 <= log2 N, so the bound
    eps log2(N) sum |c_k| R^k / T covers the rounding at every M.

    Returns the values (one row each), each row's log T, which scales
    them back, and each row's bound eps log2(N) sum |c_k| R^k / T on
    their rounding.
    """
    B, w = rows.shape
    k = np.arange(w)
    with np.errstate(divide="ignore"):
        ts = np.argmax(np.log(np.abs(rows)) + k * np.log(R), axis=1).tolist()
    scaled, logs = np.empty_like(rows), []
    for c, t, out in zip(rows, ts, scaled):
        powers = np.where(c != 0, (k - t) * np.log(R), -np.inf)
        np.divide(c * np.exp(powers), abs(c[t]), out=out)
        logs.append(math.log(abs(c[t])) + t * math.log(R))
    M = _cosets(w, N)
    L = N // M
    values = np.zeros((B, L, M), dtype=np.complex128)
    values[:, :, 0] = _fold(scaled, L)
    if M > 1:
        np.multiply(scaled[:, :, None], _twiddles(w, M, N), out=values[:, :w, 1:])
    np.fft.ifft(values, axis=1, norm="forward", out=values)
    return values.reshape(B, N), logs, 2 * UNIT_ROUNDOFF * math.log2(N) * np.abs(scaled).sum(1)


def _circle_values(p: Polynomial, R: float, N: int):
    """p and z p' on the N points R e^{2 pi i j / N}, each over its largest term.

    Both come from one :func:`_scaled_values`, z p' from the coefficients
    k c_k, as two rows of its coset transforms: a degree-d p costs M
    transforms of length L >= d + 1, not one of length N.  Also returns
    log(T'/T), which scales the ratio z p'/p back, and the bound on the
    rounding of p (the same bound at every coset count).
    """
    k = np.arange(p.degree + 1)
    values, logs, bounds = _scaled_values(np.stack([p.coeffs, k * p.coeffs]), R, N)
    return values[0], values[1], logs[1] - logs[0], float(bounds[0])


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
        object.__setattr__(self, "coeffs", coeffs)
        if self.roots is not None:
            roots = _as_complex_vector(self.roots, "roots")
            if roots.size != self.degree:
                raise ValueError(f"root count {roots.size} does not match degree {self.degree}")
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
    # descending in one buffer: its +0 tail makes each root's in-place step
    # give c_{k-1} - r c_k and, at the constant term, 0 - r c_0
    desc = np.zeros((b, m + 1), dtype=np.complex128)
    desc[:, 0] = 1.0
    # an overflow, and the NaN it may leave, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for j, r in enumerate(roots.T[:, :, None], 1):
            top = desc[:, 1 : j + 1]
            np.subtract(top, r * desc[:, :j], out=top)
    coeffs = np.ascontiguousarray(desc[:, ::-1])
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


def _derivative_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """The derivative's ascending coefficients (k + 1) c_{k+1}, unchecked."""
    return coeffs[1:] * np.arange(1, coeffs.size)


def derivative(p: Polynomial) -> Polynomial:
    """Formal derivative; any attached roots are dropped."""
    return Polynomial(_derivative_coeffs(p.coeffs))


def _root_residual(coeffs: np.ndarray, a: float, tol: float) -> float | None:
    """|p(a)| if above tol (1 + sum |c_k| a^k), else None; the sum is walked only past tol."""
    residual = abs(_horner(coeffs, a))
    if residual > tol and residual > tol * (1.0 + _horner(np.abs(coeffs), a).real):
        return residual
    return None


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
        if not (0.0 <= a <= 1.0 + _A_SLACK):
            raise ValueError("a must lie in [0, 1]")
        object.__setattr__(self, "a", min(a, 1.0))
        if (residual := _root_residual(self.f.coeffs, a, _ROOT_TOL)) is not None:
            raise ValueError(f"f(a) residual {residual:.3e} exceeds tolerance")
        if self.f.roots is not None:
            top = float(np.max(np.abs(self.f.roots)))
            if top > 1.0 + DISK_TOL:
                raise ValueError(f"root modulus {top:.17g} outside closed unit disk")

    @property
    def n(self) -> int:
        return self.f.degree
