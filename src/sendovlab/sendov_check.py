"""Sendov margins of zeros, and the classical small-|f| bounds near a.

The central quantity is the margin of a zero: 1 minus the distance to
the nearest critical point.  Sendov's conjecture asserts every zero of
a polynomial with all zeros in the closed unit disk has margin >= 0;
a negative minimum margin over the zeros would be a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly_core import DISK_TOL, CrossCheckError, SendovInstance, derivative, evaluate
from .rootfind import RootSet, certified

__all__ = [
    "DegotReport",
    "DegotRow",
    "SendovReport",
    "degot_suite",
    "sendov_margin",
]

# A conjecture "holds" verdict allows this much rounding slack below zero.
MARGIN_TOL = 1e-9
# Largest (zeros x critical points) block of distances sendov_margin forms.
_MARGIN_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class SendovReport:
    """Per-zero margins 1 - dist(zero, nearest critical point)."""

    margins: np.ndarray
    min_margin: float
    holds: bool


def sendov_margin(zeros: RootSet, crit: RootSet) -> SendovReport:
    """Margin of every zero of a polynomial.

    ``zeros`` and ``crit`` are the zeros and critical points of one
    polynomial; each must pass its certificate, or the call raises
    RuntimeError.
    Critical points known analytically may be passed for a derivative
    with high-multiplicity zeros: the generic solver can only resolve
    an m-fold zero to a cluster of radius ~eps**(1/m) from coefficients.
    Each zero's nearest critical point is taken in row blocks of about
    ``_MARGIN_BLOCK`` distances, so memory stays O(block) at any degree;
    a row's minimum does not depend on its block.
    """
    zeros = certified(zeros).points
    crit = certified(crit, "critical point").points
    margins = np.empty(zeros.size)
    step = max(1, _MARGIN_BLOCK // max(1, crit.size))
    for lo in range(0, zeros.size, step):
        dist = np.abs(zeros[lo : lo + step, None] - crit[None, :])
        margins[lo : lo + step] = 1.0 - dist.min(axis=1)
    low = float(margins.min())
    # Gauss-Lucas diameter bound: margins live in [-1, 1] whenever the
    # zeros stay in the closed unit disk.
    if np.max(np.abs(zeros)) <= 1.0 + DISK_TOL and not low >= -1.0 - MARGIN_TOL:
        raise CrossCheckError("margin below the diameter bound")
    if not margins.max() <= 1.0 + 1e-12:
        raise CrossCheckError("margin above 1 is impossible")
    return SendovReport(margins=margins, min_margin=low, holds=low >= -MARGIN_TOL)


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
    within 1e-9, and "violated" otherwise.  Each row's lower slack
    requires the hypothesis; its upper slack (AM-GM bound via the zero
    mean) is unconditional.  fp_abs_at_a_over_n is |f'(a)| / n.
    """

    hypothesis: str
    rows: list[DegotRow]
    fp_abs_at_a_over_n: float


def degot_suite(inst: SendovInstance, deltas, crit: RootSet) -> DegotReport:
    """Evaluate the lower/upper bounds on |f(delta)| for delta in (0, a).

    ``crit`` holds the critical points of inst.f, which must pass their
    certificate; they decide the no-critical-point hypothesis.

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
    crit = certified(crit, "critical point")
    nearest = float(np.min(np.abs(crit.points - a)))
    if nearest > 1.0 + MARGIN_TOL:
        hypothesis = "holds"
    elif nearest >= 1.0 - MARGIN_TOL:
        hypothesis = "boundary"
    else:
        hypothesis = "violated"

    fp_at_a = abs(evaluate(derivative(f), a))

    # the zero mean, exact from c_{n-1}; in Python numbers, so an overflow raises
    mu = -complex(f.coeffs[-2]) / (n * f.leading)
    rows = []
    for d in deltas:
        fd = abs(evaluate(f, d))
        lower = (1.0 - math.sqrt(1.0 + d * d - d * a)) / n * fp_at_a
        base = 1.0 + d * d - 2.0 * d * mu.real
        if base < 0.0 and n % 2:
            # only zeros outside the closed unit disk can move mu this far
            raise ValueError(
                f"upper bound base 1 + delta^2 - 2 delta Re mu = {base:.6g} < 0 at"
                f" delta = {d}, odd n = {n}: the zero mean mu = {mu:.6g} lies outside the disk"
            )
        try:
            upper = math.pow(base, n / 2.0)
        except OverflowError:
            upper = math.inf
        rows.append(DegotRow(delta=d, lower_slack=fd - lower, upper_slack=upper - fd))
    return DegotReport(hypothesis=hypothesis, rows=rows, fp_abs_at_a_over_n=fp_at_a / n)
