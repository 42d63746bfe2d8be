"""Argument-principle winding counts on circles.

The normalized logarithmic derivative g = f'/(n f) winds around the
origin along |z| = r exactly (#critical points - #zeros) inside, each
counted with multiplicity.  The winding is accumulated from principal
argument differences on an equispaced grid, whose values of f and z f'
come from the coefficients by one FFT (``poly_core._circle_values``);
the grid doubles until every jump is small, up to 2^20 nodes, which
resolves zeros of f and f' down to about pi r / 2^20 from the circle.
No root enters, so the count cross-validates the root finder: both
routes must produce the same integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly_core import CrossCheckError, Polynomial, _circle_values
from .rootfind import RootSet, certified

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
# Largest winding grid; a jump that persists at this many nodes means a
# zero of f or f' lies essentially on the circle.
MAX_SAMPLES = 2**20
# Admissibility band of select_radius, relative to r.  winding_number
# resolves a zero of f or f' between two nodes only beyond about
# pi r / MAX_SAMPLES from the circle (refused at 0.9 and resolved at 1.1
# times that, at r = 0.3); twice it leaves a margin.
WINDING_BAND = 2.0 * np.pi / MAX_SAMPLES
# Largest (radii x inner zeros) block of the select_radius objective.
_OBJECTIVE_BLOCK = 2**16


class AmbiguousCountError(ValueError):
    """A root lies too close to the counting circle to classify."""


@dataclass(frozen=True)
class WindingResult:
    """Winding of f'/(n f) along |z| = r."""

    winding: int
    min_modulus: float
    samples_used: int


def _wrap(d: np.ndarray) -> np.ndarray:
    """Wrap angle differences into [-pi, pi)."""
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def winding_number(f: Polynomial, r: float) -> WindingResult:
    """Winding number of f'/(n f) around 0 along the circle |z| = r.

    Principal-argument differences are accumulated over N equispaced
    nodes, N the smallest power of two >= max(1024, 4n), doubling N
    until every jump is < pi/2; the total is then an exact multiple of
    2 pi up to rounding.  A zero of f or f' at distance delta from the
    circle needs N of about pi r / delta nodes unless it lies on a node's
    ray, so one closer than about pi r / 2^20 (9e-7 at r = 0.3) raises
    :class:`AmbiguousCountError`, a band far wider than the 1e-8 of
    :func:`zero_pole_count`.  The jump test assures the winding of the
    polygon through the samples of g, not of g: two zeros of f' just
    inside the circle in one gap turn arg g by 2 pi unseen.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    n = f.degree
    N = 1 << (max(1024, 4 * n) - 1).bit_length()
    while True:
        pz, zdpz, shift, _ = _circle_values(f, r, N)
        if np.any(pz == 0) or np.any(zdpz == 0):
            raise AmbiguousCountError("a zero of f or f' lies on the circle")
        # arg g = arg(z f') - arg(f) - theta; the divisors are positive
        args = np.angle(zdpz) - np.angle(pz) - 2.0 * np.pi * np.arange(N) / N
        diffs = _wrap(np.diff(args, append=args[:1]))
        if np.all(np.abs(diffs) < np.pi / 2.0):
            break
        N *= 2
        if N > MAX_SAMPLES:
            raise AmbiguousCountError(
                f"argument jump persists on {MAX_SAMPLES} nodes; a zero of "
                f"f or f' lies within about pi r / {MAX_SAMPLES} of the circle"
            )
    total = float(np.sum(diffs)) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > 1e-6:
        raise CrossCheckError(f"winding total {total} is not an integer")
    # |g| = |z f' / f| e^shift / (n r), in log space: e^shift may underflow
    log_min = np.log(np.min(np.abs(zdpz / pz))) + shift - np.log(n * r)
    return WindingResult(
        winding=int(nearest),
        min_modulus=float(np.exp(log_min)),
        samples_used=N,
    )


@dataclass(frozen=True)
class RadiusSelection:
    """A counting radius and the concentration objective it attains."""

    radius: float
    objective: float


def select_radius(r1: float, r2: float, zeros: RootSet, crit: RootSet) -> RadiusSelection:
    """Pick a circle radius in [r1, r2] away from the inner zero mass.

    Over a grid of 10n candidate radii, minimizes
    E[ 1_{|zeta| <= 1/2} / max(|r - |zeta||, n^-10) ] restricted to
    candidates at distance >= max(n^-10, WINDING_BAND r) from every zero
    and critical-point modulus, so :func:`winding_number` can resolve
    every circle it may return.  An averaging argument keeps the minimum
    O(log n / n) when the small-modulus zeros carry O(1) mass; the
    attained objective is returned alongside the radius.  ``zeros`` and
    ``crit`` are the root sets of f and f', n = len(zeros) is the degree
    of f, and each set must pass its certificate.
    """
    if not (0 < r1 < r2):
        raise ValueError("need 0 < r1 < r2")
    n = len(zeros)
    floor = float(n) ** -10.0
    moduli = np.abs(certified(zeros).points)
    crit_moduli = np.abs(certified(crit, "critical point").points)
    all_moduli = np.sort(np.concatenate([moduli, crit_moduli]))
    grid = np.linspace(r1, r2, 10 * n)
    # the nearest modulus is a neighbour in sorted order: rounding r - m is
    # monotone in m, so this is the minimum distance over all moduli
    idx = np.searchsorted(all_moduli, grid)
    below = all_moduli[np.maximum(idx - 1, 0)]
    above = all_moduli[np.minimum(idx, all_moduli.size - 1)]
    nearest = np.minimum(np.abs(grid - below), np.abs(grid - above))
    admissible = nearest >= np.maximum(floor, WINDING_BAND * grid)
    if not admissible.any():
        raise ValueError("no admissible radius in [r1, r2]")
    inner = moduli[moduli <= 0.5]
    objective = np.zeros(grid.size)
    if inner.size:
        # row blocks bound the memory; a row's sum does not depend on its block
        step = max(1, _OBJECTIVE_BLOCK // inner.size)
        for lo in range(0, grid.size, step):
            dist = np.abs(grid[lo : lo + step, None] - inner[None, :])
            objective[lo : lo + step] = (1.0 / np.maximum(dist, floor)).sum(axis=1) / n
    objective = np.where(admissible, objective, np.inf)
    best = int(np.argmin(objective))
    return RadiusSelection(radius=float(grid[best]), objective=float(objective[best]))


def zero_pole_count(r: float, zeros: RootSet, crit: RootSet) -> int:
    """(#zeros of f' inside |z| < r) - (#zeros of f inside), from root sets.

    The direct count the winding number must reproduce.  Raises
    :class:`AmbiguousCountError` when any computed root sits within
    1e-8 of the circle.  Root sets are taken as in :func:`select_radius`.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    zm = np.abs(certified(zeros).points)
    cm = np.abs(certified(crit, "critical point").points)
    if np.any(np.abs(zm - r) < COUNT_BAND) or np.any(np.abs(cm - r) < COUNT_BAND):
        raise AmbiguousCountError("a root modulus lies within 1e-8 of r")
    return int(np.sum(cm < r)) - int(np.sum(zm < r))
