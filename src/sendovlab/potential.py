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
from .poly_core import AtomCollisionError, Polynomial, derivative, evaluate
from .rootfind import RootSet, certified_crit, zeros_of
from .sendov_check import _segment_distance

__all__ = [
    "CircleDensity",
    "ContourTooCloseError",
    "IdentityReport",
    "balayage",
    "circle_fourier_coeff",
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


class ContourTooCloseError(ValueError):
    """A contour passes too close to a zero for reliable quadrature."""


def log_potential(m: EmpiricalMeasure, z: complex) -> float:
    """U(z) = E log(1/|z - eta|).  Raises on exact atom collision."""
    e = expect_log_distance(m, z)
    if e == -math.inf:
        raise AtomCollisionError("z coincides with an atom")
    return -e


def stieltjes(m: EmpiricalMeasure, z: complex) -> complex:
    """s(z) = E 1/(z - eta).  Raises on exact atom collision."""
    diffs = z - m.points
    if np.any(diffs == 0):
        raise AtomCollisionError("z coincides with an atom")
    return complex(np.sum(m.weights / diffs))


def stieltjes_derivative(m: EmpiricalMeasure, z: complex) -> complex:
    """s'(z) = -E 1/(z - eta)^2."""
    diffs = z - m.points
    if np.any(diffs == 0):
        raise AtomCollisionError("z coincides with an atom")
    return complex(-np.sum(m.weights / diffs**2))


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


def _rel(lhs, rhs) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def verify_basic_identities(
    f: Polynomial, zs, crit: RootSet | None = None, rs: RootSet | None = None
) -> IdentityReport:
    """Check the identities tying potentials and transforms to f and f'.

    For monic f of degree n with zero measure zeta and critical measure
    xi, at every sample point z away from both supports:

      U_zeta(z)  = -(1/n) log|f(z)|
      U_xi(z)    = log(n)/(n-1) - (1/(n-1)) log|f'(z)|
      s_zeta(z)  = f'(z) / (n f(z))
      s_xi(z)    = f''(z) / ((n-1) f'(z))
      U_zeta - (1-1/n) U_xi = (1/n) log|s_zeta|
      s_zeta - (1-1/n) s_xi = -(1/n) s_zeta'/s_zeta

    Left sides come from root sums, right sides from coefficient-form
    Horner evaluation, so the two routes are independent.  Sample
    points within 0.05 of a zero or critical point are skipped and
    reported in ``skipped``.  Precomputed zeros ``rs`` and critical
    points ``crit`` are used once certified; otherwise the attached
    roots are used, or they are solved.
    """
    if not f.monic:
        raise ValueError("identity suite requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    zeros = zeros_of(f, rs)
    crit = certified_crit(f, crit)
    mz = empirical_measure(zeros)
    mx = empirical_measure(crit.points)
    fp = derivative(f)
    # second-derivative coefficients by hand: for n = 2 the result is a
    # constant, which Polynomial itself does not represent
    fpp_coeffs = fp.coeffs[1:] * np.arange(1, fp.coeffs.size)

    zs = np.asarray(zs, dtype=np.complex128)
    rows: list[list[float]] = []
    kept: list[complex] = []
    skipped: list[int] = []
    for i, z in enumerate(zs):
        z = complex(z)
        if (
            np.min(np.abs(z - zeros)) < IDENTITY_STANDOFF
            or np.min(np.abs(z - crit.points)) < IDENTITY_STANDOFF
        ):
            skipped.append(i)
            continue
        fz = evaluate(f, z)
        fpz = evaluate(fp, z)
        fppz = complex(sum(c * z**j for j, c in enumerate(fpp_coeffs)))
        u_z = log_potential(mz, z)
        u_x = log_potential(mx, z)
        s_z = stieltjes(mz, z)
        s_x = stieltjes(mx, z)
        sd_z = stieltjes_derivative(mz, z)
        r = [
            _rel(u_z, -math.log(abs(fz)) / n),
            _rel(u_x, math.log(n) / (n - 1) - math.log(abs(fpz)) / (n - 1)),
            _rel(s_z, fpz / (n * fz)),
            _rel(s_x, fppz / ((n - 1) * fpz)),
        ]
        if s_z == 0:
            # log|s_z| and 1/s_z are infinite; 1.0 is the limit of _rel
            # as one side goes to infinity
            r += [1.0, 1.0]
        else:
            r += [
                _rel(u_z - (n - 1) / n * u_x, math.log(abs(s_z)) / n),
                _rel(s_z - (n - 1) / n * s_x, -sd_z / (n * s_z)),
            ]
        rows.append(r)
        kept.append(z)
    residuals = (
        np.array(rows, dtype=float).T if rows else np.zeros((6, 0), dtype=float)
    )
    return IdentityReport(
        labels=_IDENTITY_LABELS,
        residuals=residuals,
        evaluated=np.array(kept, dtype=np.complex128),
        skipped=skipped,
    )


def _adaptive_simpson(func, a: float, b: float, fa, fm, fb, whole, tol: float, depth: int):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = func(lm), func(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        return left + right
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return _adaptive_simpson(
        func, a, m, fa, flm, fm, left, half, depth - 1
    ) + _adaptive_simpson(func, m, b, fm, frm, fb, right, half, depth - 1)


def integrated_log_derivative(p: Polynomial, contour, rtol: float = 1e-13) -> complex:
    """Transport p along a polyline by integrating its Stieltjes transform.

    With s the Stieltjes transform of p's zero measure and d = deg p,
    p(gamma(1)) = p(gamma(0)) exp(d * int_gamma s(z) dz); the integral
    is evaluated with genuine adaptive Simpson quadrature per segment,
    not the telescoping closed form, so this is an independent route to
    the endpoint value.  The polyline must stay at distance >= 0.05
    from every zero.
    """
    pts = np.asarray(contour, dtype=np.complex128)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("contour must be a polyline of at least two points")
    zeros = zeros_of(p)
    for z0, z1 in zip(pts[:-1], pts[1:]):
        for zr in zeros:
            d = _segment_distance(zr, z0, z1)
            if d < NEAR_CIRCLE:
                raise ContourTooCloseError(
                    f"segment passes within {d:.3g} of a zero (need >= 0.05)"
                )
    d_deg = p.degree
    w = np.full(zeros.size, 1.0 / zeros.size)
    total = 0.0 + 0.0j
    for z0, z1 in zip(pts[:-1], pts[1:]):
        seg = z1 - z0
        if seg == 0:
            continue

        def integrand(t: float, z0=z0, seg=seg):
            z = z0 + t * seg
            return complex(np.sum(w / (z - zeros)))

        fa, fb = integrand(0.0), integrand(1.0)
        fm = integrand(0.5)
        whole = (fa + 4.0 * fm + fb) / 6.0
        tol = rtol * max(1.0, abs(whole))
        val = _adaptive_simpson(integrand, 0.0, 1.0, fa, fm, fb, whole, tol, 40)
        total += seg * val
    return evaluate(p, complex(pts[0])) * np.exp(d_deg * total)


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
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 4:
            raise ValueError("need a 1-d array of at least 4 samples")
        if self.R < 1.0:
            raise ValueError("R must be >= 1")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def thetas(self) -> np.ndarray:
        n = self.samples.size
        return 2.0 * np.pi * np.arange(n) / n

    def mean(self) -> float:
        # trapezoid rule on a uniform periodic grid is the plain average
        return float(np.mean(self.samples))


def _default_nodes(n_atoms: int) -> int:
    return max(4096, 64 * n_atoms)


def balayage(m: EmpiricalMeasure, R: float, N: int | None = None) -> CircleDensity:
    """Sweep the measure onto the circle |z| = R.

    The density against normalized arclength is E P_R(theta - arg eta)
    with P_R the Poisson kernel at pole eta.  Computed two independent
    ways, direct kernel expectation and the moment series

        1 + 2 Re sum_{k>=1} R^{-k} E[eta^k] e^{-i k theta},

    which must agree to 1e-10; the direct samples are returned.  The
    result integrates to exactly 1 (mass is preserved by sweeping).
    """
    R = float(R)
    if R < 1.0:
        raise ValueError("R must be >= 1")
    top = float(np.max(np.abs(m.points)))
    if top >= R - 1e-12:
        raise AtomCollisionError("atoms must lie strictly inside the circle")
    q = top / R
    if N is None:
        # enough nodes that the trapezoid aliasing error q**N is negligible
        N = _default_nodes(len(m))
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
    thetas = 2.0 * np.pi * np.arange(N) / N
    # direct: kernel expectation in blocks of (rows nodes, all atoms),
    # about 2**15 entries each, computed in two buffers reused for every
    # block.  The samples must equal, bit for bit, those of one
    # matrix-vector product per 8192 nodes.  BLAS may split a product's
    # rows between threads at points set by its row count and groups the
    # rows from there, so blocks are a power of two dividing 8192: they
    # keep the grouping of every whole 8192-node chunk, and of the last
    # chunk when it is whole blocks.  A last chunk that would end in a
    # partial block stays one product, as before.
    M = len(m.points)
    rows = min(8192, max(16, 1 << max(0, (2**15 // M).bit_length() - 1)))
    blocked = N if N % rows == 0 else N - N % 8192
    c = np.empty((rows, M), dtype=np.complex128)
    k = np.empty((rows, M), dtype=float)
    direct = np.empty(N, dtype=float)
    numer = R * R - np.abs(m.points) ** 2
    for lo in range(0, blocked, rows):
        zc = R * np.exp(1j * thetas[lo : lo + rows])
        np.subtract(zc[:, None], m.points[None, :], out=c)
        np.abs(c, out=k)
        np.multiply(k, k, out=k)
        np.divide(numer, k, out=k)
        direct[lo : lo + rows] = k @ m.weights
    if blocked < N:
        zc = R * np.exp(1j * thetas[blocked:])
        direct[blocked:] = (
            numer[None, :] / np.abs(zc[:, None] - m.points[None, :]) ** 2
        ) @ m.weights

    # series route via FFT: coefficients a_k = R^{-k} E eta^k
    q = top / R
    if q == 0.0:
        terms = 1
    else:
        terms = int(np.ceil(np.log(1e-14 * (1.0 - q)) / np.log(q))) + 1
        terms = min(max(terms, 1), 200_000)
    a = np.zeros(N, dtype=np.complex128)
    power = np.ones_like(m.points)
    scale = 1.0
    for k in range(1, terms + 1):
        power = power * m.points
        scale /= R
        a[k % N] += scale * np.sum(m.weights * power)
    series = 1.0 + 2.0 * np.real(np.fft.fft(a))
    gap = float(np.max(np.abs(direct - series)))
    if gap > 1e-10 * max(1.0, float(np.max(np.abs(direct)))):
        raise AssertionError(
            f"balayage cross-check failed: direct vs series differ by {gap:.3e}"
        )
    density = CircleDensity(R, direct)
    if abs(density.mean() - 1.0) > 1e-8:
        raise AssertionError("balayage density does not average to 1")
    return density


def circle_fourier_coeff(
    m: EmpiricalMeasure, R: float, k: int, N: int = 4096
) -> complex:
    """Fourier coefficient (1/2pi) int e^{i k theta} U(R e^{i theta}) dtheta.

    The one-index case of :func:`circle_fourier_coeffs`.
    """
    return circle_fourier_coeffs(m, R, [k], N)[0]


def circle_fourier_coeffs(
    m: EmpiricalMeasure, R: float, ks, N: int = 4096
) -> list[complex]:
    """Fourier coefficients (1/2pi) int e^{i k theta} U(R e^{i theta}) dtheta, k in ks.

    For k >= 1 each equals E[eta^k] / (2 k R^k) for any measure inside
    the closed disk |z| <= R, which every atom must lie in; for k = 0 it
    is -log R.  Atoms within 0.05 of the circle contribute through that
    closed form directly (exact up to rounding, including atoms on the
    circle itself); the smooth remainder is quadratured on N equispaced
    nodes.  The potential on the nodes is computed once and shared by
    every k, so each coefficient equals the one computed for its k alone.
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
    if top > R * (1.0 + 1e-10):
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
        for i, k in enumerate(ks):
            totals[i] += complex(np.mean(u * np.exp(1j * k * thetas)))
    return totals
