"""Argument-principle winding counts on circles.

The normalized logarithmic derivative g = f'/(n f) winds around the
origin along |z| = r exactly (#critical points - #zeros) inside, each
counted with multiplicity.  The winding is accumulated from principal
argument differences with adaptive bisection, entirely from
coefficient-form evaluations, so it cross-validates the root finder:
both routes must produce the same integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly_core import Polynomial, derivative, evaluate
from .rootfind import RootSet, certified_crit, zeros_of

__all__ = [
    "AmbiguousCountError",
    "RadiusSelection",
    "WindingResult",
    "select_radius",
    "winding_number",
    "zero_pole_count",
]

# Circles passing closer than this to a root modulus give ambiguous counts.
COUNT_BAND = 1e-8


class AmbiguousCountError(ValueError):
    """A root lies too close to the counting circle to classify."""


@dataclass(frozen=True)
class WindingResult:
    """Winding of f'/(n f) along |z| = r."""

    winding: int
    min_modulus: float
    radius: float
    samples_used: int


def _wrap(d: np.ndarray) -> np.ndarray:
    """Wrap angle differences into [-pi, pi)."""
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def winding_number(
    f: Polynomial,
    r: float,
    init_samples: int = 1024,
    max_samples: int = 1_000_000,
) -> WindingResult:
    """Winding number of f'/(n f) around 0 along the circle |z| = r.

    Principal-argument differences are accumulated over an equispaced
    grid, bisecting every interval whose jump is >= pi/2 until all
    jumps are small; the total is then an exact multiple of 2 pi up to
    rounding.  The caller must keep zeros of f and f' off the circle
    (distance >= 1e-8); a stalled bisection raises, it never returns a
    silently wrong integer.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if init_samples < 16:
        raise ValueError("init_samples too small")
    n = f.degree
    fp = derivative(f)

    def g(thetas: np.ndarray) -> np.ndarray:
        z = r * np.exp(1j * thetas)
        num = evaluate(fp, z)
        den = evaluate(f, z)
        if np.any(den == 0) or np.any(num == 0):
            raise AmbiguousCountError("a zero of f or f' lies on the circle")
        return num / (n * den)

    thetas = np.linspace(0.0, 2.0 * np.pi, init_samples, endpoint=False)
    vals = g(thetas)
    while True:
        args = np.angle(vals)
        diffs = _wrap(np.diff(args, append=args[:1]))
        bad = np.abs(diffs) >= np.pi / 2.0
        if not bad.any():
            break
        if thetas.size + int(bad.sum()) > max_samples:
            raise AmbiguousCountError(
                "winding refinement budget exhausted; a zero is likely "
                "within ~1e-8 of the circle"
            )
        nxt = np.empty_like(thetas)
        nxt[:-1] = thetas[1:]
        nxt[-1] = thetas[0] + 2.0 * np.pi
        width = nxt[bad] - thetas[bad]
        if width.min() < 1e-12:
            raise AmbiguousCountError(
                "argument jump persists at angular scale 1e-12; "
                "the contour passes essentially through a zero"
            )
        mids = thetas[bad] + 0.5 * width
        mvals = g(mids)
        thetas = np.concatenate([thetas, mids])
        vals = np.concatenate([vals, mvals])
        order = np.argsort(thetas, kind="stable")
        thetas = thetas[order]
        vals = vals[order]
    total = float(np.sum(diffs)) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > 1e-6:
        raise AssertionError(f"winding total {total} is not an integer")
    return WindingResult(
        winding=int(nearest),
        min_modulus=float(np.min(np.abs(vals))),
        radius=float(r),
        samples_used=int(thetas.size),
    )


@dataclass(frozen=True)
class RadiusSelection:
    """A counting radius and the concentration objective it attains."""

    radius: float
    objective: float


def select_radius(
    f: Polynomial,
    r1: float,
    r2: float,
    rs: RootSet | None = None,
    crit: RootSet | None = None,
) -> RadiusSelection:
    """Pick a circle radius in [r1, r2] away from the inner zero mass.

    Over a grid of 10n candidate radii, minimizes
    E[ 1_{|zeta| <= 1/2} / max(|r - |zeta||, n^-10) ] restricted to
    candidates at distance >= n^-10 from every zero and critical-point
    modulus.  An averaging argument keeps the minimum O(log n / n)
    when the small-modulus zeros carry O(1) mass; the attained
    objective is returned alongside the radius.  The zeros are rs, else
    the attached roots of f, else solved; solved or given root sets must
    be converged.
    """
    if not (0 < r1 < r2):
        raise ValueError("need 0 < r1 < r2")
    n = f.degree
    floor = float(n) ** -10.0
    moduli = np.abs(zeros_of(f, rs))
    all_moduli = np.concatenate([moduli, np.abs(certified_crit(f, crit).points)])
    grid = np.linspace(r1, r2, 10 * n)
    inner = moduli[moduli <= 0.5]
    admissible = np.min(np.abs(grid[:, None] - all_moduli[None, :]), axis=1) >= floor
    if not admissible.any():
        raise ValueError("no admissible radius in [r1, r2]")
    if inner.size:
        contrib = 1.0 / np.maximum(np.abs(grid[:, None] - inner[None, :]), floor)
        objective = contrib.sum(axis=1) / n
    else:
        objective = np.zeros(grid.size)
    objective = np.where(admissible, objective, np.inf)
    best = int(np.argmin(objective))
    return RadiusSelection(radius=float(grid[best]), objective=float(objective[best]))


def zero_pole_count(
    f: Polynomial,
    r: float,
    rs: RootSet | None = None,
    crit: RootSet | None = None,
) -> int:
    """(#zeros of f' inside |z| < r) - (#zeros of f inside), from root sets.

    The direct count the winding number must reproduce.  Raises
    :class:`AmbiguousCountError` when any computed root sits within
    1e-8 of the circle.  Root sets are taken as in :func:`select_radius`.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    zm = np.abs(zeros_of(f, rs))
    cm = np.abs(certified_crit(f, crit).points)
    if np.any(np.abs(zm - r) < COUNT_BAND) or np.any(np.abs(cm - r) < COUNT_BAND):
        raise AmbiguousCountError("a root modulus lies within 1e-8 of r")
    return int(np.sum(cm < r)) - int(np.sum(zm < r))
