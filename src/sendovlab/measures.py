"""Empirical measures of zeros and critical points, and their statistics.

A degree-n polynomial carries two probability measures: uniform mass
1/n on its zeros and 1/(n-1) on its critical points.  Moments, means,
and log-distance expectations of these measures drive everything in
the potential-theory layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly_core import Polynomial, SendovInstance
from .rootfind import RootSet, certified_crit, zeros_of
from .sendov_check import Region

__all__ = [
    "EmpiricalMeasure",
    "MeanMatch",
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

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Finitely supported probability measure on C.

    Weights are nonnegative and sum to 1 within 1e-12.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.complex128)
        weights = np.asarray(self.weights, dtype=np.float64)
        if points.ndim != 1 or weights.shape != points.shape:
            raise ValueError("points and weights must be matching 1-d arrays")
        if points.size == 0:
            raise ValueError("a measure needs at least one atom")
        if not np.all(np.isfinite(points.real)) or not np.all(np.isfinite(points.imag)):
            raise ValueError("points contain non-finite entries")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        if abs(math.fsum(weights.tolist()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.points.size


def empirical_measure(rs: RootSet | np.ndarray) -> EmpiricalMeasure:
    """Uniform measure on a root set (or bare point array)."""
    pts = rs.points if isinstance(rs, RootSet) else np.asarray(rs, dtype=np.complex128)
    k = pts.size
    if k == 0:
        raise ValueError("empty root set")
    return EmpiricalMeasure(pts, np.full(k, 1.0 / k))


def moment(m: EmpiricalMeasure, k: int) -> complex:
    """E eta^k under the measure; k = 0 gives exactly the total mass."""
    if k < 0 or k != int(k):
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return complex(math.fsum(m.weights.tolist()))
    return complex(np.sum(m.weights * m.points ** int(k)))


@dataclass(frozen=True)
class MomentSummary:
    """Mean, raw second moment, and spread E|eta - mean|^2."""

    mean: complex
    second_moment: complex
    variance: float


def summary(m: EmpiricalMeasure) -> MomentSummary:
    """First/second moment summary, cross-checked two ways.

    The identity E|eta|^2 = |mean|^2 + variance is recomputed from
    independent accumulations and enforced to rounding accuracy.
    """
    mu = complex(np.sum(m.weights * m.points))
    second = complex(np.sum(m.weights * m.points**2))
    var = float(np.sum(m.weights * np.abs(m.points - mu) ** 2))
    abs_second = float(np.sum(m.weights * np.abs(m.points) ** 2))
    scale = max(1.0, abs_second)
    if abs(abs_second - (abs(mu) ** 2 + var)) > 1e-12 * scale:
        raise AssertionError("variance identity violated beyond rounding")
    return MomentSummary(mean=mu, second_moment=second, variance=var)


@dataclass(frozen=True)
class MeanMatch:
    """Comparison of the zero mean and critical-point mean of one polynomial."""

    zero_mean: complex
    critical_mean: complex
    difference: float
    ok: bool


def check_matching_mean(
    f: Polynomial, crit: RootSet | None = None, tol: float = 1e-9
) -> MeanMatch:
    """The two means agree for every polynomial; the residual measures solver error.

    Both means equal -c_{n-1}/(n c_n), so this is a cross-validation of
    the computed zeros against the computed critical points.
    """
    zm = complex(np.mean(zeros_of(f)))
    cm = complex(np.mean(certified_crit(f, crit).points))
    diff = abs(zm - cm)
    return MeanMatch(zero_mean=zm, critical_mean=cm, difference=diff, ok=diff <= tol)


def expect_log_distance(m: EmpiricalMeasure, z):
    """E log|z - eta| at a point or an array of points, each summed by math.fsum.

    -inf where z hits an atom of positive weight; a zero-weight atom adds nothing.
    """
    zs = np.asarray(z, dtype=np.complex128)
    diffs = zs.reshape(-1, 1) - m.points
    hit = diffs == 0
    # a hit atom's term is w * log 1 = 0, so a zero weight never meets -inf
    terms = m.weights * np.log(np.abs(np.where(hit, 1.0, diffs)))
    out = np.array([math.fsum(row) for row in terms.tolist()])
    out[np.any(hit & (m.weights > 0), axis=1)] = -math.inf
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def prob_in_region(m: EmpiricalMeasure, region: Region) -> float:
    """Total weight of atoms inside the region."""
    return float(math.fsum(m.weights[region.mask(m.points)].tolist()))


@dataclass(frozen=True)
class ZetaDiagnostics:
    """Log-scale concentration diagnostics of an instance.

    e_log_inv_zeta = E log(1/|zeta|) over zeros (+inf when a zero sits
    exactly at the origin); e_log_xi_minus_a = E log|xi - a| over
    critical points (-inf when one sits exactly at a).  The n-scaled
    versions are the natural magnitudes: both vanish identically for
    the extremal circle configuration and stay O(log n / n) near it.
    """

    e_log_inv_zeta: float
    e_log_xi_minus_a: float
    n_e_log_inv_zeta: float
    n_e_log_xi_minus_a: float
    zeta_atom_at_origin: bool
    xi_atom_at_a: bool


def quantitative_zetas(
    inst: SendovInstance, crit: RootSet | None = None
) -> ZetaDiagnostics:
    """Expected log quantities controlling zero/critical concentration."""
    f, a, n = inst.f, inst.a, inst.n
    mz = empirical_measure(zeros_of(f))
    mx = empirical_measure(certified_crit(f, crit).points)
    e_zeta = -expect_log_distance(mz, 0.0)
    e_xi = expect_log_distance(mx, complex(a))
    return ZetaDiagnostics(
        e_log_inv_zeta=e_zeta,
        e_log_xi_minus_a=e_xi,
        n_e_log_inv_zeta=n * e_zeta,
        n_e_log_xi_minus_a=n * e_xi,
        zeta_atom_at_origin=math.isinf(e_zeta),
        xi_atom_at_a=math.isinf(e_xi),
    )
