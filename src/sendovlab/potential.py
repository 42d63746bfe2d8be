"""Logarithmic potentials, Stieltjes transforms, and circle densities.

For an empirical measure eta the logarithmic potential is
U(z) = E log(1/|z - eta|) and the Stieltjes transform is
s(z) = E 1/(z - eta).  Harmonic measure sweeps (balayage) push the
measure onto a circle of radius R through the Poisson kernel; Fourier
coefficients of potentials on circles recover moments of the measure.

Quadrature on circles is the trapezoid rule on equispaced angles,
which is spectrally accurate for these smooth periodic integrands.
Atoms within 0.05 of the circle would wreck that accuracy, so their
contributions are added in closed form and only the smooth remainder
is quadratured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, empirical_measure, expect_log_distance
from .poly_core import DISK_TOL, AtomCollisionError, CrossCheckError, Polynomial
from .poly_core import _circle_values, _fold, _horner, _read_only, derivative, evaluate
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


def stieltjes(m: EmpiricalMeasure, z):
    """s(z) = E 1/(z - eta) at a point or an array of points."""
    s = np.sum(m.weights / _atom_differences(m, z), axis=-1)
    return complex(s) if s.ndim == 0 else s


def stieltjes_derivative(m: EmpiricalMeasure, z):
    """s'(z) = -E 1/(z - eta)^2 at a point or an array of points."""
    s = -np.sum(m.weights / _atom_differences(m, z) ** 2, axis=-1)
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
    table[:n, 1] = derivative(f).coeffs
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
    sums.  Sample points within 0.05 of a zero or critical point are
    skipped and reported in ``skipped``.  ``zeros`` and ``crit`` are the
    root sets of f and f'; each must pass its certificate.
    """
    if not f.monic:
        raise ValueError("identity suite requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    zeros = certified(zeros).points
    crit = certified(crit, "critical point").points
    mz = empirical_measure(zeros)
    mx = empirical_measure(crit)

    zs = np.asarray(zs, dtype=np.complex128)
    near = np.concatenate([zeros, crit])
    skip = np.any(np.abs(zs[:, None] - near) < IDENTITY_STANDOFF, axis=1)
    z = zs[~skip]
    fz, fpz, fppz = _values_to_second_derivative(f, z)
    u_z, u_x = log_potential(mz, z), log_potential(mx, z)
    s_z, s_x = stieltjes(mz, z), stieltjes(mx, z)
    sd_z = stieltjes_derivative(mz, z)
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
    if R <= 0:
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
        if self.R < 1.0:
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
# max(1, the largest density sample).
_BALAYAGE_TOL = 1e-10
# Powers of the atoms per matrix-vector product in the moment series.
_SERIES_BLOCK = 64
# Most terms of the moment series balayage sums; an atom nearer the
# circle needs more, and the sweep is refused rather than truncated.
_MAX_SERIES_TERMS = 200_000


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


def balayage(
    m: EmpiricalMeasure, R: float, N: int | None = None, *, p: Polynomial
) -> CircleDensity:
    """Sweep the uniform measure m on the zeros of p onto the circle |z| = R.

    The density against normalized arclength, E P_R(theta - arg eta) with
    P_R the Poisson kernel at pole eta, equals Re(2 z p'(z) / (d p(z))) - 1
    on |z| = R, d = deg p.  It is computed from p's coefficients by one
    FFT and returned.  The cross-check is the moment series of m's atoms,

        1 + 2 Re sum_{k>=1} R^{-k} E[eta^k] e^{-i k theta},

    coefficients against roots, which must agree to 1e-10.  Raises
    AtomCollisionError for an atom not strictly inside the circle, where
    the series needs more than 200,000 terms to fall below 1e-14, and
    where the rounding bound eps log2(N) sum|c_k| R^k / min|p| of the
    coefficients exceeds 1e-10.  The result integrates to exactly 1.
    """
    R = float(R)
    if R < 1.0:
        raise ValueError("R must be >= 1")
    if p.degree != len(m):
        raise ValueError(f"p has degree {p.degree} but m has {len(m)} atoms")
    top = float(np.max(np.abs(m.points)))
    if top >= R - 1e-12:
        raise AtomCollisionError("atoms must lie strictly inside the circle")
    q = top / R
    if N is None:
        # enough nodes that the trapezoid aliasing error q**N is negligible
        N = max(4096, 64 * len(m))
        if q > 0:
            need = int(np.ceil(35.0 / max(1e-12, -np.log(q))))
            while N < need and N < 2**20:
                N *= 2
        if q**N > 1e-13:
            raise AtomCollisionError(
                "atoms too close to the circle for a resolvable sweep"
            )
    if N < 16:
        raise ValueError("N too small")
    # series route: coefficients a_k = R^{-k} E eta^k, summed until below 1e-14
    terms = 1 if q == 0.0 else int(np.ceil(np.log(1e-14 * (1.0 - q)) / np.log(q))) + 1
    if terms > _MAX_SERIES_TERMS:
        raise AtomCollisionError(
            f"atoms too close to the circle: the moment series needs {terms} terms,"
            f" more than {_MAX_SERIES_TERMS}"
        )
    pz, zdpz, shift, scale = _circle_values(p, R, N)
    if np.finfo(float).eps * math.log2(N) * scale > _BALAYAGE_TOL * np.min(np.abs(pz)):
        raise AtomCollisionError("p is too ill-conditioned on the circle for a resolvable sweep")
    samples = np.real(2.0 * np.exp(shift) / p.degree * (zdpz / pz)) - 1.0
    series = 1.0 + 2.0 * np.real(np.fft.fft(_moment_series(m, R, terms, N)))
    gap = float(np.max(np.abs(samples - series)))
    if gap > _BALAYAGE_TOL * max(1.0, float(np.max(np.abs(samples)))):
        raise CrossCheckError(
            f"balayage cross-check failed: coefficients vs series differ by {gap:.3e}"
        )
    density = CircleDensity(R, samples)
    off = abs(density.mean() - 1.0)
    if off > 1e-8:
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
    circle itself); the smooth remainder is quadratured on N equispaced
    nodes, and one FFT of the potential there gives every k at once, so
    each coefficient equals the one computed for its k alone.
    """
    R = float(R)
    if R < 1.0:
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
        wf, pf = m.weights[~near], m.points[~near]
        thetas = 2.0 * np.pi * np.arange(N) / N
        z = R * np.exp(1j * thetas)
        u = -(np.log(np.abs(z[:, None] - pf[None, :])) @ wf)
        coeffs = np.fft.ifft(u)
        for i, k in enumerate(ks):
            totals[i] += complex(coeffs[k])
    return totals
