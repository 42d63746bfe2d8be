"""Empirical measures of zeros and critical points, and their statistics.

A degree-n polynomial carries two probability measures: uniform mass
1/n on its zeros and 1/(n-1) on its critical points.  Moments, means,
and log-distance expectations of these measures drive everything in
the potential-theory layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly_core import DISK_TOL, CrossCheckError, SendovInstance, _read_only
from .rootfind import RootSet, certified

__all__ = [
    "EmpiricalMeasure",
    "MomentSummary",
    "ZetaDiagnostics",
    "check_matching_mean",
    "empirical_measure",
    "expect_log_distance",
    "moment",
    "prob_in_region",
    "quantitative_zetas",
    "summary",
]

_VARIANCE_RTOL = 1e-12  # largest gap in E|eta|^2 = |mean|^2 + variance, over max(1, E|eta|^2)

@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniform probability measure on finitely many atoms in C.

    ``weights`` is 1/k on each of the k atoms.
    """

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        points = _read_only(self.points, np.complex128)
        if points.ndim != 1:
            raise ValueError("points must be a 1-d array")
        if points.size == 0:
            raise ValueError("a measure needs at least one atom")
        if not np.isfinite(points).all():
            raise ValueError("points contain non-finite entries")
        weights = np.full(points.size, 1.0 / points.size)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.points.size


def empirical_measure(rs: RootSet | np.ndarray) -> EmpiricalMeasure:
    """Uniform measure on a root set (or bare point array)."""
    return EmpiricalMeasure(rs.points if isinstance(rs, RootSet) else rs)


def moment(m: EmpiricalMeasure, k: int) -> complex:
    """E eta^k under the measure; k = 0 gives exactly the total mass."""
    if k < 0 or k != int(k):
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return complex(math.fsum(m.weights.tolist()))
    return complex(np.sum(m.weights * m.points ** int(k)))


@dataclass(frozen=True)
class MomentSummary:
    """Mean and spread E|eta - mean|^2; the raw second moment is moment(m, 2)."""

    mean: complex
    variance: float


def summary(m: EmpiricalMeasure) -> MomentSummary:
    """Mean and variance, cross-checked two ways.

    The identity E|eta|^2 = |mean|^2 + variance is recomputed from
    independent accumulations and enforced to rounding accuracy.
    """
    mu = complex(np.sum(m.weights * m.points))
    var = float(np.sum(m.weights * np.abs(m.points - mu) ** 2))
    abs_second = float(np.sum(m.weights * np.abs(m.points) ** 2))
    scale = max(1.0, abs_second)
    if abs(abs_second - (abs(mu) ** 2 + var)) > _VARIANCE_RTOL * scale:
        raise CrossCheckError("variance identity violated beyond rounding")
    return MomentSummary(mean=mu, variance=var)


def check_matching_mean(zeros: RootSet, crit: RootSet) -> float:
    """|zero mean - critical mean|: zero for every polynomial, so it measures solver error.

    Both means equal -c_{n-1}/(n c_n), so this is a cross-validation of
    the computed zeros against the computed critical points, each of
    which must pass its certificate.
    """
    zm = complex(np.mean(certified(zeros).points))
    cm = complex(np.mean(certified(crit, "critical point").points))
    return abs(zm - cm)


def _log_distance_means(diffs: np.ndarray, weights) -> np.ndarray:
    """sum_k w_k log|diffs[i, k]| per row by math.fsum, -inf at a 0; w per column or scalar."""
    hit = diffs == 0
    terms = weights * np.log(np.abs(np.where(hit, 1.0, diffs)))
    out = np.array([math.fsum(row) for row in terms.tolist()])
    out[np.any(hit, axis=1)] = -math.inf
    return out


def expect_log_distance(m: EmpiricalMeasure, z):
    """E log|z - eta| at a point or an array of points, each summed by math.fsum.

    -inf where z hits an atom.
    """
    zs = np.asarray(z, dtype=np.complex128)
    out = _log_distance_means(zs.reshape(-1, 1) - m.points, m.weights)
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def prob_in_region(m: EmpiricalMeasure, center: complex, radius: float) -> float:
    """Total weight of the atoms in the closed disk |z - center| <= radius + DISK_TOL."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    inside = np.abs(m.points - complex(center)) <= float(radius) + DISK_TOL
    return float(math.fsum(m.weights[inside].tolist()))


@dataclass(frozen=True)
class ZetaDiagnostics:
    """Log-scale concentration diagnostics of an instance.

    e_log_inv_zeta = E log(1/|zeta|) over zeros (+inf when a zero sits
    exactly at the origin); e_log_xi_minus_a = E log|xi - a| over
    critical points (-inf when one sits exactly at a).  So an atom at
    the origin or at a shows as an infinite expectation.  The n-scaled
    versions are the natural magnitudes: both vanish identically for
    the extremal circle configuration and stay O(log n / n) near it.
    """

    e_log_inv_zeta: float
    e_log_xi_minus_a: float
    n_e_log_inv_zeta: float
    n_e_log_xi_minus_a: float


def quantitative_zetas(inst: SendovInstance, zeros: RootSet, crit: RootSet) -> ZetaDiagnostics:
    """Expected log quantities controlling zero/critical concentration.

    ``zeros`` and ``crit`` are the root sets of inst.f and its
    derivative; each must pass its certificate.
    """
    a, n = inst.a, inst.n
    mz = empirical_measure(certified(zeros))
    mx = empirical_measure(certified(crit, "critical point"))
    e_zeta = -expect_log_distance(mz, 0.0)
    e_xi = expect_log_distance(mx, complex(a))
    return ZetaDiagnostics(
        e_log_inv_zeta=e_zeta,
        e_log_xi_minus_a=e_xi,
        n_e_log_inv_zeta=n * e_zeta,
        n_e_log_xi_minus_a=n * e_xi,
    )
