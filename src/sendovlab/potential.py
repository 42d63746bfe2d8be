"""Logarithmic potentials, Stieltjes transforms, and circle densities.

For an empirical measure eta the logarithmic potential is
U(z) = E log(1/|z - eta|) and the Stieltjes transform is
s(z) = E 1/(z - eta).  Harmonic measure sweeps (balayage) push the
measure onto a circle of radius R through the Poisson kernel; Fourier
coefficients of potentials on circles recover moments of the measure.

Quadrature on circles is the trapezoid rule on equispaced angles,
which is spectrally accurate for these smooth periodic integrands.
The integrands come from coefficients: the balayage density of the
zeros of p is Re(2 z p' / (n p)) - 1 on |z| = R, from p's coefficients
in transforms shorter than N (``poly_core._scaled_values``), and the
potential of n atoms is -(1/n) sum_g log|q_g| over the monic
polynomials q_g of groups of at most 8 of them, evaluated alike.
Atoms within 0.05 of the circle would wreck the quadrature's
accuracy, so the Fourier coefficients of the potential take their
contributions in closed form and quadrature only the far atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, _log_distance_means, empirical_measure, expect_log_distance
from .poly_core import DISK_TOL, AtomCollisionError, CrossCheckError, Polynomial
from .poly_core import _circle_values, _derivative_coeffs, _fold, _horner, _read_only
from .poly_core import _scaled_values, evaluate, from_roots_batch
from .rootfind import RootSet, certified

__all__ = [
    "CircleDensity",
    "ContourTooCloseError",
    "IdentityReport",
    "balayage",
    "circle_fourier_coeffs",
    "integrated_log_derivative",
    "log_potential",
    "poisson_kernel",
    "stieltjes",
    "stieltjes_derivative",
    "verify_basic_identities",
]

# Atoms closer than this to an evaluation circle switch to closed-form
# contributions; equispaced quadrature loses spectral accuracy inside it.
NEAR_CIRCLE = 0.05
# Sample points closer than this to a zero or critical point are skipped
# by the identity suite (the identities degrade as log of the distance).
IDENTITY_STANDOFF = 0.05
# Relative gap within which integrated_log_derivative's successive
# Gauss-Legendre rules on a segment agree, and the most nodes of one.
TRANSPORT_RTOL = 1e-13
_TRANSPORT_MAX_NODES = 1024


class ContourTooCloseError(ValueError):
    """A contour passes too close to a zero for reliable quadrature."""


def log_potential(m: EmpiricalMeasure, z):
    """U(z) = E log(1/|z - eta|) at a point or an array of points.  Raises on atom collision."""
    e = expect_log_distance(m, z)
    if np.any(e == -math.inf):
        raise AtomCollisionError("z coincides with an atom")
    return -e


def _atom_differences(m: EmpiricalMeasure, z) -> np.ndarray:
    """z - eta over the atoms, one row per point of z.  Raises on exact collision."""
    diffs = np.asarray(z, dtype=np.complex128)[..., None] - m.points
    if np.any(diffs == 0):
        raise AtomCollisionError("z coincides with an atom")
    return diffs


def _stieltjes_sums(diffs: np.ndarray, weights) -> np.ndarray:
    """sum_k w_k / diffs[..., k] along the last axis; weights per column or one scalar for all."""
    return np.sum(weights / diffs, axis=-1)


def _stieltjes_derivative_sums(diffs: np.ndarray, weights) -> np.ndarray:
    """-sum_k w_k / diffs[..., k]^2 along the last axis, weighted as :func:`_stieltjes_sums`."""
    return -np.sum(weights / diffs**2, axis=-1)


def stieltjes(m: EmpiricalMeasure, z):
    """s(z) = E 1/(z - eta) at a point or an array of points."""
    s = _stieltjes_sums(_atom_differences(m, z), m.weights)
    return complex(s) if s.ndim == 0 else s


def stieltjes_derivative(m: EmpiricalMeasure, z):
    """s'(z) = -E 1/(z - eta)^2 at a point or an array of points."""
    s = _stieltjes_derivative_sums(_atom_differences(m, z), m.weights)
    return complex(s) if s.ndim == 0 else s


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Residuals of the six zero/critical-point identities.

    residuals has shape (6, k) over the evaluated sample points, rows
    ordered as in labels.  All residuals are relative:
    |lhs - rhs| / max(1, |lhs|, |rhs|).
    """

    labels: tuple[str, ...]
    residuals: np.ndarray
    evaluated: np.ndarray
    skipped: list[int]

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    @property
    def mean_residual(self) -> float:
        return float(self.residuals.mean()) if self.residuals.size else 0.0


_IDENTITY_LABELS = (
    "log_potential_vs_log_abs_f",
    "log_potential_vs_log_abs_fprime",
    "stieltjes_vs_logderiv_f",
    "stieltjes_vs_logderiv_fprime",
    "potential_difference_vs_log_stieltjes",
    "stieltjes_difference_vs_log_derivative",
)


def _values_to_second_derivative(f: Polynomial, z: np.ndarray):
    """f, f' and f'' at the points z, from one Horner walk over a (n+1, 3) table.

    The columns are the coefficients of f, f' and f'', each zero-padded
    to degree n.  A walk over +0 entries stays at exactly +0 (a zero
    times z is a signed zero, and adding +0 makes it +0), so each column
    gives the bits of its own Horner walk.  f'' is formed by hand: for
    n = 2 it is a constant, which Polynomial does not represent.
    """
    n = f.degree
    table = np.zeros((n + 1, 3), dtype=np.complex128)
    table[:, 0] = f.coeffs
    table[:n, 1] = _derivative_coeffs(f.coeffs)
    table[: n - 1, 2] = table[1:n, 1] * np.arange(1, n)
    return _horner(table, z[:, None]).T


def verify_basic_identities(f: Polynomial, zs, zeros: RootSet, crit: RootSet) -> IdentityReport:
    """Check the identities tying potentials and transforms to f and f'.

    For monic f of degree n with zero measure zeta and critical measure
    xi, at every sample point z away from both supports:

      U_zeta(z)  = -(1/n) log|f(z)|
      U_xi(z)    = log(n)/(n-1) - (1/(n-1)) log|f'(z)|
      s_zeta(z)  = f'(z) / (n f(z))
      s_xi(z)    = f''(z) / ((n-1) f'(z))
      U_zeta - (1-1/n) U_xi = (1/n) log|s_zeta|
      s_zeta - (1-1/n) s_xi = -(1/n) s_zeta'/s_zeta

    Left sides come from root sums.  Right sides of the first four come
    from coefficient-form Horner evaluation of f, f' and f'', so those
    two routes are independent; both sides of the last two are root
    sums.  ``zs`` is a point or a 1-d array of points; an array of more
    dimensions raises ValueError.  Sample points within 0.05 of a zero
    or critical point are skipped and reported in ``skipped``.
    ``zeros`` and ``crit`` are the root sets of f and f'; each must pass
    its certificate.
    The root sums come from the one matrix of the standoff test, whose
    column blocks are z - zeta and z - xi, by the formulas of
    :func:`log_potential`, :func:`stieltjes` and :func:`stieltjes_derivative`
    with the scalar weights 1/n and 1/(n-1).
    """
    if not f.monic:
        raise ValueError("identity suite requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    zeros = certified(zeros).points
    crit = certified(crit, "critical point").points

    zs = np.asarray(zs, dtype=np.complex128)
    if zs.ndim > 1:
        raise ValueError(
            f"sample points must be a point or a 1-d array, not an array of shape {zs.shape}"
        )
    zs = zs.reshape(-1)
    diffs = zs[:, None] - np.concatenate([zeros, crit])
    skip = np.any(np.abs(diffs) < IDENTITY_STANDOFF, axis=1)
    z = zs[~skip]
    kept = diffs[~skip]  # each row at least the standoff from every atom
    dz, dx = kept[:, : zeros.size], kept[:, zeros.size :]
    wz, wx = 1.0 / zeros.size, 1.0 / crit.size
    fz, fpz, fppz = _values_to_second_derivative(f, z)
    u_z, u_x = -_log_distance_means(dz, wz), -_log_distance_means(dx, wx)
    s_z, s_x = _stieltjes_sums(dz, wz), _stieltjes_sums(dx, wx)
    sd_z = _stieltjes_derivative_sums(dz, wz)
    # where s_z is 0, log|s_z| and 1/s_z are infinite; the last two rows
    # read 1.0 there, the limit of the residual as one side goes to infinity
    zero = s_z == 0
    s_safe = np.where(zero, 1.0, s_z)
    lhs = np.array([u_z, u_x, s_z, s_x, u_z - (n - 1) / n * u_x, s_z - (n - 1) / n * s_x])
    rhs = np.array(
        [
            -np.log(np.abs(fz)) / n,
            math.log(n) / (n - 1) - np.log(np.abs(fpz)) / (n - 1),
            fpz / (n * fz),
            fppz / ((n - 1) * fpz),
            np.log(np.abs(s_safe)) / n,
            -sd_z / (n * s_safe),
        ]
    )
    residuals = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    residuals[4:, zero] = 1.0
    return IdentityReport(
        labels=_IDENTITY_LABELS,
        residuals=residuals,
        evaluated=z,
        skipped=np.flatnonzero(skip).tolist(),
    )


def _segment_distance(z, a: complex, b: complex):
    """Distance from z (a point or an array of points) to the segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(z - a)
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / denom
    t = np.clip(t, 0.0, 1.0)
    return abs(z - (a + t * ab))


def integrated_log_derivative(p: Polynomial, contour, zeros: RootSet) -> complex:
    """Transport p along a polyline by integrating its Stieltjes transform.

    With s the Stieltjes transform of p's zero measure and d = deg p,
    p(gamma(1)) = p(gamma(0)) exp(d * int_gamma s(z) dz).  Each segment's
    integral is a Gauss-Legendre rule on :func:`stieltjes` at 16, 32, ...
    nodes until two successive rules agree to ``TRANSPORT_RTOL``: an
    independent route to the endpoint value, not the telescoping closed
    form.  ``zeros`` is p's zero set, which must pass its certificate.  A
    polyline within 0.05 of a zero, or a segment still unsettled at 1024
    nodes, raises :class:`ContourTooCloseError`.
    """
    pts = np.asarray(contour, dtype=np.complex128)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("contour must be a polyline of at least two points")
    zeros = certified(zeros).points
    m = empirical_measure(zeros)
    total = 0.0 + 0.0j
    for z0, z1 in zip(pts[:-1], pts[1:]):
        close = _segment_distance(zeros, z0, z1)
        close = close[close < NEAR_CIRCLE]
        if close.size:
            raise ContourTooCloseError(
                f"segment passes within {close[0]:.3g} of a zero (need >= 0.05)"
            )
        seg = z1 - z0
        # the mean of s over the segment, on nodes mapped from [-1, 1]
        prev, k = math.nan, 16
        while k <= _TRANSPORT_MAX_NODES:
            x, w = np.polynomial.legendre.leggauss(k)
            mean = complex(w @ stieltjes(m, z0 + 0.5 * (x + 1.0) * seg)) / 2.0
            if abs(mean - prev) <= TRANSPORT_RTOL * max(1.0, abs(mean)):
                break
            prev, k = mean, 2 * k
        else:
            raise ContourTooCloseError(
                f"segment {complex(z0):.6g} to {complex(z1):.6g} is unsettled at"
                f" {_TRANSPORT_MAX_NODES} nodes: it runs too close to a zero for its length"
            )
        total += seg * mean
    return evaluate(p, complex(pts[0])) * np.exp(p.degree * total)


def poisson_kernel(R: float, w: complex, theta):
    """Poisson kernel of the disk |z| < R at pole w, evaluated at angle theta.

    P(theta) = (R^2 - |w|^2) / |R e^{i theta} - w|^2, normalized to
    average 1 over the circle.  Requires |w| < R strictly.
    """
    R = float(R)
    w = complex(w)
    if not 0 < R < math.inf:
        raise ValueError("R must be positive")
    if abs(w) >= R:
        raise ValueError("pole must lie strictly inside the circle")
    th = np.asarray(theta, dtype=float)
    z = R * np.exp(1j * th)
    out = (R * R - abs(w) ** 2) / np.abs(z - w) ** 2
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class CircleDensity:
    """Samples of a density on the circle |z| = R at equispaced angles."""

    R: float
    samples: np.ndarray

    def __post_init__(self):
        samples = _read_only(self.samples, np.float64)
        if samples.ndim != 1 or samples.size < 4:
            raise ValueError("need a 1-d array of at least 4 samples")
        if not 1.0 <= self.R < math.inf:
            raise ValueError("R must be >= 1")
        object.__setattr__(self, "samples", samples)

    @property
    def thetas(self) -> np.ndarray:
        n = self.samples.size
        return 2.0 * np.pi * np.arange(n) / n

    def mean(self) -> float:
        # trapezoid rule on a uniform periodic grid is the plain average
        return float(np.mean(self.samples))


# Largest gap allowed between the two routes of balayage, relative to
# max(1, the largest density sample); also the largest rounding bound
# allowed on a balayage sample or on the potential at a node.
_BALAYAGE_TOL = 1e-10
# balayage's fixed guards, with q = max |eta| / R:
_INSIDE_SLACK = 1e-12  # the least gap R - |eta| of an atom strictly inside the circle
_LOG_Q_FLOOR = 1e-12  # floor on -log q in sizing N, so a q rounded to 1 asks a finite N
_ALIAS_TOL = 1e-13  # the largest trapezoid aliasing error q^N accepted
_SERIES_TAIL = 1e-14  # the size of the first moment-series term left out
_MEAN_TOL = 1e-8  # the largest gap between the density's mean and 1
# Powers of the atoms per matrix-vector product in the moment series.
_SERIES_BLOCK = 64
# Most terms of the moment series balayage sums; an atom nearer the
# circle needs more, and the sweep is refused rather than truncated.
_MAX_SERIES_TERMS = 200_000
# Far atoms per polynomial whose values circle_fourier_coeffs takes by
# FFT, and the most values (groups x nodes) it takes in one batch.
_FAR_GROUP = 8
_GROUP_FFT_ENTRIES = 2**17


def _moment_series(m: EmpiricalMeasure, R: float, terms: int, N: int) -> np.ndarray:
    """R^-k E[eta^k] for k = 0..terms, with k = 0 set to 0, folded k mod N.

    The powers come in blocks: one (64 x atoms) table of (eta/R)^1..64
    by cumprod, and per block one matrix-vector product with the
    weights times (eta/R)^(64 b).
    """
    x = m.points / R
    base = np.cumprod(np.broadcast_to(x, (_SERIES_BLOCK, x.size)), axis=0)
    carry = m.weights.astype(np.complex128)
    moments = np.zeros(1 + -(-terms // _SERIES_BLOCK) * _SERIES_BLOCK, dtype=np.complex128)
    for lo in range(1, terms + 1, _SERIES_BLOCK):
        moments[lo : lo + _SERIES_BLOCK] = base @ carry
        carry = carry * base[-1]
    return _fold(moments[None, : terms + 1], N)[0]


def _hermitian_half(moments: np.ndarray) -> np.ndarray:
    """h_k = conj(m_k) + m_{N-k} for k = 0..N//2, of N moments m.

    h is Hermitian, so its real transform, ``np.fft.irfft(h, n=N,
    norm="forward")``, is 2 Re sum_k m_k e^{-2 pi i j k / N} at every j,
    for even and odd N alike: the real part of a full complex FFT of m
    from one transform of half its length.
    """
    half = moments.size // 2 + 1
    h = np.conj(moments[:half])
    h[0] += moments[0]
    h[1:] += moments[:-half:-1]
    return h


def balayage(
    m: EmpiricalMeasure, R: float, N: int | None = None, *, p: Polynomial
) -> CircleDensity:
    """Sweep the uniform measure m on the zeros of p onto the circle |z| = R.

    The density against normalized arclength, E P_R(theta - arg eta) with
    P_R the Poisson kernel at pole eta, equals Re(2 z p'(z) / (d p(z))) - 1
    on |z| = R, d = deg p.  It is computed from p's coefficients by N/L
    inverse transforms of length L >= d + 1 (``poly_core._scaled_values``)
    and returned.  The cross-check is the moment series of m's atoms,

        1 + 2 Re sum_{k>=1} R^{-k} E[eta^k] e^{-i k theta},

    coefficients against roots, which must agree to 1e-10 at every node.
    The moments are folded k mod N, and the real part comes from one
    real-output transform of half length (:func:`_hermitian_half`), not
    from a full complex FFT of which only the real part is kept.  Raises
    AtomCollisionError for an atom not strictly inside the circle, where
    the series needs more than 200,000 terms to fall below 1e-14, and
    where the rounding bound of p's values (``poly_core._scaled_values``)
    exceeds 1e-10 min|p|.  The result integrates to exactly 1.
    """
    R = float(R)
    if not 1.0 <= R < math.inf:
        raise ValueError("R must be >= 1")
    if p.degree != len(m):
        raise ValueError(f"p has degree {p.degree} but m has {len(m)} atoms")
    top = float(np.max(np.abs(m.points)))
    if top >= R - _INSIDE_SLACK:
        raise AtomCollisionError("atoms must lie strictly inside the circle")
    q = top / R
    if N is None:
        # enough nodes that the trapezoid aliasing error q**N is negligible
        N = max(4096, 64 * len(m))
        if q > 0:
            need = int(np.ceil(35.0 / max(_LOG_Q_FLOOR, -np.log(q))))
            while N < need and N < 2**20:
                N *= 2
        if q**N > _ALIAS_TOL:
            raise AtomCollisionError(
                "atoms too close to the circle for a resolvable sweep"
            )
    if N < 16:
        raise ValueError("N too small")
    # series route: coefficients a_k = R^{-k} E eta^k, summed until below _SERIES_TAIL
    terms = 1 if q == 0.0 else int(np.ceil(np.log(_SERIES_TAIL * (1.0 - q)) / np.log(q))) + 1
    if terms > _MAX_SERIES_TERMS:
        raise AtomCollisionError(
            f"atoms too close to the circle: the moment series needs {terms} terms,"
            f" more than {_MAX_SERIES_TERMS}"
        )
    pz, zdpz, shift, bound = _circle_values(p, R, N)
    if bound > _BALAYAGE_TOL * np.min(np.abs(pz)):
        raise AtomCollisionError("p is too ill-conditioned on the circle for a resolvable sweep")
    # in place, so that the sweep's heap stays small enough for the
    # allocator to keep it, rather than return it and fault it in again
    ratio = np.divide(zdpz, pz, out=zdpz)
    ratio *= 2.0 * np.exp(shift) / p.degree
    samples = ratio.real - 1.0
    samples.setflags(write=False)  # so that CircleDensity keeps it uncopied
    del pz, zdpz, ratio
    # the moments are freed as _hermitian_half returns, before the transform
    series = np.fft.irfft(_hermitian_half(_moment_series(m, R, terms, N)), n=N, norm="forward")
    series += 1.0
    series -= samples
    gap = float(np.max(np.abs(series, out=series)))
    if gap > _BALAYAGE_TOL * max(1.0, float(np.max(np.abs(samples)))):
        raise CrossCheckError(
            f"balayage cross-check failed: coefficients vs series differ by {gap:.3e}"
        )
    density = CircleDensity(R, samples)
    off = abs(density.mean() - 1.0)
    if off > _MEAN_TOL:
        raise CrossCheckError(f"balayage density does not average to 1: off by {off:.2e} at N = {N}")
    return density


def circle_fourier_coeffs(
    m: EmpiricalMeasure, R: float, ks, N: int = 4096
) -> list[complex]:
    """Fourier coefficients (1/2pi) int e^{i k theta} U(R e^{i theta}) dtheta, k in ks.

    For k >= 1 each equals E[eta^k] / (2 k R^k) for any measure inside
    the closed disk |z| <= R, which every atom must lie in; for k = 0 it
    is -log R.  Atoms within 0.05 of the circle contribute through that
    closed form directly (exact up to rounding, including atoms on the
    circle itself).  The G far atoms' groups, each every G-th far atom in
    order of argument and at most 8 of them, are multiplied out into
    monic polynomials q_g, and the far potential -(1/n) sum_g log|q_g| is
    quadratured on N equispaced nodes from each q_g's coefficients, by
    N/L transforms of length L (``poly_core._scaled_values``), in
    O(N + n) memory; one more FFT of it gives every k at once, so each
    coefficient equals the one computed for its k alone.
    Raises AtomCollisionError where the rounding bound of that potential,
    (1/n) sum_g b_g / min|q_g| with b_g the bound of q_g's values from
    ``poly_core._scaled_values``, exceeds 1e-10.
    """
    R = float(R)
    if not 1.0 <= R < math.inf:
        raise ValueError("R must be >= 1")
    ks = list(ks)
    for k in ks:
        if k < 0 or k != int(k):
            raise ValueError("k must be a nonnegative integer")
    ks = [int(k) for k in ks]
    if not ks:
        return []
    if N < 8 * (max(ks) + 1):
        raise ValueError("N too small for this k")
    top = float(np.max(np.abs(m.points)))
    if top > R * (1.0 + DISK_TOL):
        raise ValueError("atoms must lie in the closed disk |z| <= R")
    rho = np.abs(m.points)
    near = (R - rho) < NEAR_CIRCLE
    totals = [0.0 + 0.0j for _ in ks]
    if np.any(near):
        wn, pn = m.weights[near], m.points[near]
        for i, k in enumerate(ks):
            if k == 0:
                totals[i] += -math.log(R) * float(np.sum(wn))
            else:
                totals[i] += complex(np.sum(wn * pn**k)) / (2.0 * k * R**k)
    if np.any(~near):
        # multiplied out whole, the far atoms' polynomial loses up to 9
        # digits on the unit circle at degree 256; a group of every G-th far
        # atom by argument spreads round the circle, so its polynomial stays
        # near its largest term there (the bound stays under 5e-11 on random
        # instances of degree 64 and 256 and miller zeros of degree 32 to
        # 512, at R = 1 to 1.2)
        far = m.points[~near]
        far = far[np.argsort(np.angle(far), kind="stable")]
        G = -(-far.size // _FAR_GROUP)
        # the first far.size % G groups hold one atom more than the rest;
        # each size is multiplied out in one batch, a shorter row padded
        # with a top coefficient 0
        split = far.size % G
        qs = np.zeros((G, -(-far.size // G) + 1), dtype=np.complex128)
        for lo, hi in ((0, split), (split, G)):
            if hi > lo:
                batch = from_roots_batch(np.array([far[g::G] for g in range(lo, hi)]))
                qs[lo:hi, : batch.shape[1]] = batch
        n, u, bound = len(m), np.zeros(N), 0.0
        step = max(1, _GROUP_FFT_ENTRIES // N)
        for lo in range(0, G, step):
            qz, log_m, bounds = _scaled_values(qs[lo : lo + step], R, N)
            abs_q = np.abs(qz)
            with np.errstate(divide="ignore"):  # a q_g rounded to 0 is refused below
                low = np.min(abs_q, axis=1)
                bound += float(np.sum(bounds / low)) / n
                u -= (np.sum(np.log(abs_q, out=abs_q), axis=0) + sum(log_m)) / n
        if bound > _BALAYAGE_TOL:
            raise AtomCollisionError(
                "the far atoms' polynomials are too ill-conditioned on the circle for a"
                f" resolvable potential: its rounding bound is {bound:.2e}, above 1e-10"
            )
        coeffs = np.fft.ifft(u)
        for i, k in enumerate(ks):
            totals[i] += complex(coeffs[k])
    return totals
