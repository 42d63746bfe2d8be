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
# Largest (zeros x critical points) block of distances that the margins form.
_MARGIN_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class SendovReport:
    """Per-zero margins 1 - dist(zero, nearest critical point)."""

    margins: np.ndarray
    min_margin: float
    holds: bool


def sendov_margin(
    zeros: RootSet | list[RootSet], crit: RootSet | list[RootSet]
) -> SendovReport | list[SendovReport]:
    """Margin of every zero of a polynomial, or of each of many polynomials.

    ``zeros`` and ``crit`` are the zeros and critical points of one
    polynomial, which gives its :class:`SendovReport`, or two lists of
    them, one entry per polynomial, which give a list of reports in
    that order.  Each set must pass its certificate, or the call raises
    RuntimeError.
    Critical points known analytically may be passed for a derivative
    with high-multiplicity zeros: the generic solver can only resolve
    an m-fold zero to a cluster of radius ~eps**(1/m) from coefficients.
    The polynomials are grouped by their numbers of zeros and critical
    points, and each group is stacked into one (polynomials x zeros) and
    one (polynomials x critical points) array.  Their distances are
    formed in blocks of about ``_MARGIN_BLOCK``: of whole polynomials,
    or of rows of one polynomial's zeros where it alone has more
    distances, so memory stays O(block) at any degree and count.
    A zero's margin is one minimum over its own row, so it has the bits
    of a call on its polynomial alone.  Each polynomial keeps its own
    two Gauss-Lucas checks, which raise CrossCheckError, taken in order.
    """
    single = isinstance(zeros, RootSet)
    if single:
        zeros, crit = [zeros], [crit]
    if len(zeros) != len(crit):
        raise ValueError(f"{len(zeros)} zero sets but {len(crit)} critical point sets")
    groups: dict[tuple[int, int], list] = {}
    places = []
    for z, c in zip(zeros, crit):
        z, c = certified(z).points, certified(c, "critical point").points
        key = z.size, c.size
        group = groups.setdefault(key, [])
        places.append((key, len(group)))
        group.append((z, c))
    found = {}
    for (n, m), group in groups.items():
        z = np.stack([z for z, _ in group])
        c = np.stack([c for _, c in group])
        margins = np.empty(z.shape)
        step = max(1, _MARGIN_BLOCK // max(1, m))
        per = max(1, step // max(1, n))
        for lo in range(0, len(group), per):
            near = c[lo : lo + per, None, :]
            for top in range(0, n, step):
                dist = np.abs(z[lo : lo + per, top : top + step, None] - near)
                margins[lo : lo + per, top : top + step] = 1.0 - dist.min(axis=2)
        inside = (np.abs(z).max(axis=1) <= 1.0 + DISK_TOL).tolist()
        found[n, m] = margins, margins.min(axis=1).tolist(), margins.max(axis=1).tolist(), inside
    reports = []
    for key, k in places:
        margins, lows, highs, inside = found[key]
        # Gauss-Lucas: margins lie in [-1, 1] while the zeros stay in the closed
        # unit disk; fl(1 - d) <= 1 for every d >= 0, so only a NaN margin tops 1
        if inside[k] and not lows[k] >= -1.0 - MARGIN_TOL:
            raise CrossCheckError("margin below the diameter bound")
        if not highs[k] <= 1.0:
            raise CrossCheckError("margin above 1 or NaN is impossible")
        reports.append(
            SendovReport(margins=margins[k], min_margin=lows[k], holds=lows[k] >= -MARGIN_TOL)
        )
    return reports[0] if single else reports


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
