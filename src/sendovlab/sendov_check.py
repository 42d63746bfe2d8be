"""Critical points, Sendov margins, and related disk geometry checks.

The central quantity is the margin of a zero: 1 minus the distance to
the nearest critical point.  Sendov's conjecture asserts every zero of
a polynomial with all zeros in the closed unit disk has margin >= 0;
a negative minimum margin over the zeros would be a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly_core import Polynomial, SendovInstance, derivative, evaluate
from .rootfind import RootSet, certified_crit, critical_points, zeros_of

__all__ = [
    "DegotReport",
    "DegotRow",
    "Region",
    "SendovReport",
    "critical_points",
    "degot_suite",
    "gauss_lucas_check",
    "sendov_margin",
]

# Tolerance band for closed-set membership decisions.
REGION_BAND = 1e-10
# A conjecture "holds" verdict allows this much rounding slack below zero.
MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class Region:
    """Planar query region with closed-set tolerance semantics.

    Membership decisions carry a tolerance band of 1e-10 so that points
    computed to ordinary rounding accuracy never flip sides on a
    boundary.  Build instances through the classmethod constructors.
    """

    kind: str
    center: complex = 0j
    r_inner: float = 0.0
    r_outer: float = 0.0
    theta_min: float = 0.0
    theta_max: float = 0.0
    a: float = 0.0

    @classmethod
    def disk(cls, center: complex, radius: float) -> "Region":
        """Open disk |z - center| < radius."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls("disk", center=complex(center), r_outer=float(radius))

    @classmethod
    def closed_disk(cls, center: complex, radius: float) -> "Region":
        """Closed disk |z - center| <= radius."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls("closed_disk", center=complex(center), r_outer=float(radius))

    @classmethod
    def annulus(cls, center: complex, r_inner: float, r_outer: float) -> "Region":
        """Closed annulus r_inner <= |z - center| <= r_outer."""
        if not (0 <= r_inner < r_outer):
            raise ValueError("need 0 <= r_inner < r_outer")
        return cls(
            "annulus", center=complex(center), r_inner=float(r_inner), r_outer=float(r_outer)
        )

    @classmethod
    def lune(cls, a: float) -> "Region":
        """Closed unit disk minus the closed disk of radius 1 about a."""
        if not (0 <= a <= 1):
            raise ValueError("a must lie in [0, 1]")
        return cls("lune", a=float(a))

    @classmethod
    def arc_band(
        cls,
        theta_min: float,
        theta_max: float,
        r_inner: float = 1.0 - REGION_BAND,
        r_outer: float = 1.0 + REGION_BAND,
    ) -> "Region":
        """Circular-arc band: radius in [r_inner, r_outer], angle in [theta_min, theta_max]."""
        if not (0 <= r_inner <= r_outer):
            raise ValueError("need 0 <= r_inner <= r_outer")
        if not (theta_max >= theta_min):
            raise ValueError("need theta_max >= theta_min")
        return cls(
            "arc_band",
            r_inner=float(r_inner),
            r_outer=float(r_outer),
            theta_min=float(theta_min),
            theta_max=float(theta_max),
        )

    def mask(self, points) -> np.ndarray:
        """Boolean membership mask for an array of complex points."""
        z = np.asarray(points, dtype=np.complex128)
        tol = REGION_BAND
        if self.kind == "disk":
            return np.abs(z - self.center) < self.r_outer - tol
        if self.kind == "closed_disk":
            return np.abs(z - self.center) <= self.r_outer + tol
        if self.kind == "annulus":
            rho = np.abs(z - self.center)
            return (rho >= self.r_inner - tol) & (rho <= self.r_outer + tol)
        if self.kind == "lune":
            return (np.abs(z) <= 1.0 + tol) & (np.abs(z - self.a) > 1.0 - tol)
        if self.kind == "arc_band":
            rho = np.abs(z)
            ang = np.angle(z)
            # widen the angular window by the band, modulo full turns
            lo, hi = self.theta_min - tol, self.theta_max + tol
            shifted = (ang - lo) % (2.0 * np.pi)
            return (rho >= self.r_inner - tol) & (rho <= self.r_outer + tol) & (
                shifted <= hi - lo
            )
        raise ValueError(f"unknown region kind {self.kind!r}")

    def contains(self, z: complex) -> bool:
        return bool(self.mask([z])[0])


@dataclass(frozen=True, eq=False)
class SendovReport:
    """Per-zero margins 1 - dist(zero, nearest critical point)."""

    margins: np.ndarray
    min_margin: float
    worst_zero: complex
    holds: bool


def sendov_margin(
    inst: SendovInstance, crit: RootSet | None = None, rs: RootSet | None = None
) -> SendovReport:
    """Margin of every zero of the instance polynomial.

    Parameters
    ----------
    inst : SendovInstance
    crit : RootSet, optional
        Precomputed critical points.  Pass these when the derivative has
        high-multiplicity zeros known analytically; the generic solver
        can only resolve an m-fold zero to a cluster of radius
        ~eps**(1/m) from coefficients.  Given or solved, they must be
        converged, or the call raises RuntimeError.
    rs : RootSet, optional
        Precomputed zeros of inst.f, certified like crit; without it the
        attached roots are used, or the zeros are solved.
    """
    zeros = zeros_of(inst.f, rs)
    crit = certified_crit(inst.f, crit)
    dist = np.abs(zeros[:, None] - crit.points[None, :])
    margins = 1.0 - dist.min(axis=1)
    # Gauss-Lucas diameter bound: margins live in [-1, 1] whenever the
    # zeros stay in the closed unit disk.
    if np.max(np.abs(zeros)) <= 1.0 + 1e-10:
        assert margins.min() >= -1.0 - 1e-9, "margin below the diameter bound"
    assert margins.max() <= 1.0 + 1e-12, "margin above 1 is impossible"
    k = int(np.argmin(margins))
    return SendovReport(
        margins=margins,
        min_margin=float(margins[k]),
        worst_zero=complex(zeros[k]),
        holds=bool(margins[k] >= -MARGIN_TOL),
    )


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull vertices in counterclockwise order (monotone chain).

    Degenerate inputs collapse: one vertex for coincident points, two
    for collinear ones.
    """
    arr = np.unique(np.asarray(points, dtype=np.complex128))
    if arr.size <= 2:
        return arr

    def cross(o: complex, p: complex, q: complex) -> float:
        return (p - o).real * (q - o).imag - (p - o).imag * (q - o).real

    lower: list[complex] = []
    for q in arr:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(complex(q))
    upper: list[complex] = []
    for q in arr[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(complex(q))
    return np.array(lower[:-1] + upper[:-1], dtype=np.complex128)


def _segment_distance(z, a: complex, b: complex):
    """Distance from z (a point or an array of points) to the segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(z - a)
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / denom
    t = np.clip(t, 0.0, 1.0)
    return abs(z - (a + t * ab))


def _hull_distance(hull: np.ndarray, z: complex) -> float:
    k = hull.size
    if k == 1:
        return abs(z - hull[0])
    if k == 2:
        return _segment_distance(z, hull[0], hull[1])
    inside = True
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        if (b - a).real * (z - a).imag - (b - a).imag * (z - a).real < 0:
            inside = False
            break
    if inside:
        return 0.0
    return min(
        _segment_distance(z, hull[i], hull[(i + 1) % k]) for i in range(k)
    )


def gauss_lucas_check(p: Polynomial, crit: RootSet | None = None, tol: float = 1e-8) -> bool:
    """Every critical point lies within tol of the convex hull of the zeros."""
    hull = _convex_hull(zeros_of(p))
    crit = certified_crit(p, crit)
    return all(_hull_distance(hull, complex(x)) <= tol for x in crit.points)


@dataclass(frozen=True)
class DegotRow:
    delta: float
    lower_slack: float
    upper_slack: float


@dataclass(frozen=True, eq=False)
class DegotReport:
    """Slack values for the classical small-|f| inequalities near a.

    hypothesis is "holds" when no critical point lies in the closed
    disk D(a, 1), "boundary" when the nearest sits on its boundary to
    within 1e-9, and "violated" otherwise.  The derivative growth slack
    |f'(a)| - n requires the hypothesis, so it is None when violated.
    The upper slack (AM-GM bound via the zero mean) is unconditional.
    """

    hypothesis: str
    fan_slack: float | None
    rows: list[DegotRow]
    f_abs_at_zero: float
    fp_abs_at_a_over_n: float


def degot_suite(
    inst: SendovInstance, deltas, crit: RootSet | None = None
) -> DegotReport:
    """Evaluate the lower/upper bounds on |f(delta)| for delta in (0, a).

    Lower: |f(delta)| >= (1 - sqrt(1 + delta^2 - delta a)) / n * |f'(a)|
    (needs the no-critical-point hypothesis).  Upper: |f(delta)| <=
    (1 + delta^2 - 2 delta Re mu)^(n/2) with mu the zero mean, an
    unconditional AM-GM consequence of zeros in the closed unit disk.
    """
    f, a, n = inst.f, inst.a, inst.n
    deltas = [float(d) for d in np.atleast_1d(np.asarray(deltas, dtype=float))]
    if a <= 0:
        raise ValueError("the suite needs a > 0")
    for d in deltas:
        if not (0.0 < d < a):
            raise ValueError(f"delta {d} outside (0, a) with a = {a}")
    crit = certified_crit(f, crit)
    nearest = float(np.min(np.abs(crit.points - a)))
    if nearest > 1.0 + MARGIN_TOL:
        hypothesis = "holds"
    elif nearest >= 1.0 - MARGIN_TOL:
        hypothesis = "boundary"
    else:
        hypothesis = "violated"

    fp = derivative(f)
    fp_at_a = abs(evaluate(fp, a))
    fan_slack = fp_at_a - n if hypothesis != "violated" else None

    # zero mean from the subleading coefficient: exact, no root finding
    mu = -f.coeffs[-2] / (n * f.coeffs[-1])
    rows = []
    for d in deltas:
        fd = abs(evaluate(f, d))
        lower = (1.0 - math.sqrt(1.0 + d * d - d * a)) / n * fp_at_a
        try:
            upper = (1.0 + d * d - 2.0 * d * mu.real) ** (n / 2.0)
        except OverflowError:
            upper = math.inf
        rows.append(DegotRow(delta=d, lower_slack=fd - lower, upper_slack=upper - fd))
    return DegotReport(
        hypothesis=hypothesis,
        fan_slack=fan_slack,
        rows=rows,
        f_abs_at_zero=abs(evaluate(f, 0.0)),
        fp_abs_at_a_over_n=fp_at_a / n,
    )
