"""Simultaneous polynomial root finding with residual certificates.

The solver is Aberth–Ehrlich: all roots are iterated together, each
step a Newton correction repelled by the other iterates.  Convergence
is certified in the backward sense: the scaled residual
|p(z)| / sum_k |c_k| |z|^k is the exact relative coefficient
perturbation that would make z a true root, so iterates below the
tolerance are roots of a polynomial indistinguishable from the input
at that precision.  Start points are given per polynomial where they
are known (a family's predicted zeros, or the critical points paired
with attached zeros by :func:`_paired_starts`) and otherwise come from
the Newton polygon of the coefficients.  Evaluation outside the unit
disk goes through the reversed polynomial, so no degree overflows.  Multiple roots are
reported as clusters of simple roots (their intrinsic resolution in
coefficient form is eps**(1/m)).

This module is also the one point where roots are solved and their
certificates checked.  :func:`zero_sets` turns a list of polynomials
into root sets: attached roots become a root set whose residuals are
their backward errors from the evaluator that certifies a solve,
checked against a rounding bound at every degree, and every other
polynomial is solved, one batch per degree; :func:`critical_points`
solves the derivatives of a list the same way.  No other layer solves:
each takes its zeros and critical points as root sets and passes them
through :func:`certified`, which raises ``RuntimeError`` for a set
whose certificate fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly_core import UNIT_ROUNDOFF, Polynomial, _derivative_coeffs, _read_only

__all__ = [
    "RootSet",
    "certified",
    "critical_points",
    "find_roots",
    "zero_sets",
]

# Backward error at which an iterate is a root, and the iteration budget
# of a solve.
_TOL = 1e-12
_MAX_ITER = 200
_ZERO_DIVISOR = 1e-300  # stands in for a Newton divisor of exactly 0: the step stays finite


@dataclass(frozen=True, eq=False)
class RootSet:
    """Roots found by the solver or attached to a polynomial, with per-root backward errors.

    ``converged`` is False when any residual exceeds its bound: the
    solver's tolerance after its iteration budget for a solve, the
    rounding bound of :func:`zero_sets` for attached roots.  The points
    are returned regardless, never silently wrong values.
    ``iterations`` counts the solver's evaluation passes (0 for roots
    known without iterating); a set solved in a batch carries the
    batch's count, the passes until its slowest row converged.
    """

    points: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int = 0

    def __post_init__(self):
        points = _read_only(self.points, np.complex128)
        residuals = _read_only(self.residuals, np.float64)
        if points.shape != residuals.shape:
            raise ValueError("points and residuals must have matching shapes")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "residuals", residuals)

    def __len__(self) -> int:
        return self.points.size


# Angular offset of the start points (Bini 1996); it keeps them off the
# symmetric root configurations of z^n - a and friends.
_START_ROTATION = 0.7

# Entries of the difference matrix that one block of :func:`_aberth_step`
# forms: 16 MB of complex128.
_ABERTH_BLOCK = 1 << 20


def _upper_hull(logc: list[float]) -> list[int]:
    """Vertices of the upper convex hull of the points (k, logc[k]).

    Entries equal to -inf (zero coefficients) are skipped; collinear
    points are dropped so each hull edge is as long as possible.
    """
    hull: list[int] = []
    for k, v in enumerate(logc):
        if v == -np.inf:
            continue
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (logc[j] - logc[i]) * (k - i) <= (v - logc[i]) * (j - i):
                hull.pop()
            else:
                break
        hull.append(k)
    return hull


def _start_points(abs_coeffs: np.ndarray) -> np.ndarray:
    """Start iterates from the Newton polygon of each coefficient row.

    About j - i roots lie near the circle of radius
    (|c_i|/|c_j|)**(1/(j-i)) for each edge i -> j of the upper convex
    hull of (k, log|c_k|) (Bini 1996), so j - i start points go on that
    circle, rotated past the i points placed on earlier edges.  Rows
    reach this function with c_0 != 0 (zero roots are stripped first)
    and c_d != 0, so each hull runs from 0 to d and position k of a row
    lies on the edge i <= k < j.  Only the hull is found row by row;
    the points of every row are placed in one array pass.
    """
    b, w = abs_coeffs.shape
    d = w - 1
    with np.errstate(divide="ignore"):
        logc = np.log(abs_coeffs)
    edges = []
    for row, lc in enumerate(logc.tolist()):
        hull = _upper_hull(lc)
        edges += [(row, i, j) for i, j in zip(hull[:-1], hull[1:])]
    row, i, j = np.array(edges).T
    m = j - i
    radius = np.repeat(np.exp((logc[row, i] - logc[row, j]) / m), m)
    offset = np.repeat(i, m)
    size = np.repeat(m, m)
    ell = np.tile(np.arange(d), b) - offset
    angles = (
        2.0 * np.pi * ell / size
        + 2.0 * np.pi * offset / d
        + _START_ROTATION
        + 1e-3 * np.cos(3.0 * ell)
    )
    return (radius * np.exp(1j * angles)).reshape(b, d)


def _horner_table(coeffs: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Coefficients of every row in the blocks that :func:`_newton_pass` reads.

    With b = isqrt(d + 1) and nb = ceil((d + 1) / b), returns
    ``(table, slots)``: entry ``[i, s, slots[j], 2 r + o]`` of the table
    is ascending coefficient j b + i of series s of row r in orientation
    o.  Orientation 0 is p itself and 1 the reversed polynomial
    q(y) = y^d p(1/y); series 0 is the polynomial, 1 its derivative
    (coefficient (k + 1) c_{k+1} at power k) and 2 the moduli |c_k|.
    Entries past the degree are zero.  Only the live blocks are kept,
    those with an entry other than +0 in some row, series or
    orientation; a dead block j has slots[j] = -1.  The top block is
    always live.
    """
    n_rows, w = coeffs.shape
    b = math.isqrt(w)
    nb = -(-w // b)
    a = np.stack([coeffs, coeffs[:, ::-1]], axis=1)
    table = np.zeros((n_rows, 2, 3, nb * b), dtype=np.complex128)
    table[:, :, 0, :w] = a
    table[:, :, 1, : w - 1] = a[:, :, 1:] * np.arange(1, w)
    table[:, :, 2, :w] = np.abs(a)
    table = table.reshape(2 * n_rows, 3, nb, b).transpose(3, 1, 2, 0).copy()
    # -0 counts as live: a dead block must add exactly +0 in the pass
    live = table.view(np.uint64).reshape(3 * b, nb, 4 * n_rows).any(axis=0).any(axis=1)
    live[-1] = True
    slots = np.where(live, np.cumsum(live) - 1, -1).tolist()
    return (table if live.all() else table.take(np.flatnonzero(live), axis=2)), slots


def _newton_pass(table, d, rows, z):
    """Newton corrections p/p' and backward errors at the iterates z.

    p, p' and the scale sum_k |c_k| |z|^k are evaluated together, in
    blocks of b ascending coefficients (:func:`_horner_table`): b inner
    Horner steps give every live block's value at x at once, x^b is
    formed by squaring, and nb outer Horner steps in x^b combine the
    blocks, so a pass costs O(b * live * m + nb * m) for m iterates in
    O(sqrt(d)) array operations, not O(d).  At a dead block the outer
    step adds the scalar +0.0: a block of +0 entries evaluates to
    exactly +0, and adding +0 maps a -0 part of the sum to +0, so every
    value is bit for bit that of the dense table.  Each term c_k x^k
    still passes through a fixed chain of roundings, so the computed p
    is within a small multiple of u * sum_k |c_k| |x|^k of the true one,
    the bound the certificate rests on (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 5.1).  Iterates with |z| > 1 are evaluated
    through the reversed polynomial q(y) = y^d p(1/y) at y = 1/z, where
    p/p' = z / (d - y q'/q) and the backward error
    |q(y)| / sum_k |c_{d-k}| |y|^k equals |p(z)| / sum_k |c_k| |z|^k, so
    no power of |z| above 1 is formed; a pass with no iterate outside
    skips that branch, where x is z.  ``table`` is the pair that
    :func:`_horner_table` returns.  ``rows`` maps each iterate to its
    coefficient row; every operation is elementwise per iterate, so an
    iterate's values do not depend on the others in the pass.
    """
    table, slots = table
    b = table.shape[0]
    modulus = np.abs(z)
    outside = modulus > 1.0
    x, groups = z, 2 * rows
    if flipped := bool(outside.any()):
        x, groups = np.where(outside, 1.0 / z, z), groups + outside
        modulus = np.abs(x)
    # the three series advance by x, x and |x|; on the moduli series a
    # complex product equals the real one and its imaginary part stays 0
    step = np.empty((3, z.size), dtype=np.complex128)
    step[0] = step[1] = x
    step[2] = modulus
    step_b = step[:, None]
    blocks = table[b - 1].take(groups, axis=2)
    for i in range(b - 2, -1, -1):
        blocks *= step_b
        blocks += table[i].take(groups, axis=2)
    xb = step  # to the power b by binary powering, leading bit first
    for bit in bin(b)[3:]:
        xb = xb * xb
        if bit == "1":
            xb = xb * step
    acc = blocks[:, -1]
    for k in slots[-2::-1]:
        acc *= xb
        acc += blocks[:, k] if k >= 0 else 0.0
    p, dp, scale = acc[0], acc[1], acc[2].real
    den = np.where(outside, x * (d * p - x * dp), dp) if flipped else dp
    den = np.where(den == 0, _ZERO_DIVISOR, den)
    return p / den, np.abs(p) / scale


def _repulsion(z, rows, idx):
    """The sums S = sum_k 1/(z[r, c] - z[r, k]) over k != c, for the iterates idx of z.

    ``idx`` indexes ``z.reshape(-1)`` and ``rows = idx // d`` is each
    iterate's row, for z of shape (rows, d).  The iterates are taken in
    blocks of about ``_ABERTH_BLOCK`` entries of their (iterates x d)
    difference matrix, formed and inverted in one buffer, so memory
    stays O(block) at any degree.  Each iterate's sum runs over its own
    row of the matrix, so the blocking does not change its value.
    """
    d = z.shape[1]
    flat = z.reshape(-1)
    out = np.empty(idx.size, dtype=np.complex128)
    step = max(1, _ABERTH_BLOCK // d)
    buf = np.empty((min(step, idx.size), d), dtype=np.complex128)
    for lo in range(0, idx.size, step):
        r, k = rows[lo : lo + step], idx[lo : lo + step]
        # mode "raise" would gather through a temporary as large as out
        diff = z.take(r, axis=0, out=buf[: r.size], mode="clip")
        np.subtract(flat.take(k)[:, None], diff, out=diff)
        # the iterate's own entry, at column k - r d of its row of diff, is
        # entry k + (i - r) d of the flat block; formed in place, in one array
        own = np.arange(r.size)
        own -= r
        own *= d
        own += k
        diff.reshape(-1)[own] = np.inf
        out[lo : lo + step] = np.sum(np.divide(1.0, diff, out=diff), axis=1)
    return out


def _aberth_step(z, wn, rows, idx):
    """Aberth corrections w / (1 - w S) at the iterates idx of z.reshape(-1), w = p/p' there."""
    denom = 1.0 - wn * _repulsion(z, rows, idx)
    return wn / np.where(denom == 0, 1.0, denom)


def _aberth(coeffs: np.ndarray, start: list):
    """Core batched Aberth iteration on monic-normalized coefficient rows.

    Returns (points, residuals, iterations_used).  coeffs: (B, d+1).
    Row r's iterates start at ``start[r]``, d points, or where that is
    None at the Newton polygon's circles (:func:`_start_points`), placed
    for those rows only.
    Iterates freeze once their backward error is at most ``_TOL`` and
    are no longer evaluated.  The live iterates are one flat index into
    ``z.reshape(-1)``, with each one's row ``idx // d`` kept alongside
    for the Horner table and the repulsion sums; both arrays are made
    once and compacted by the freeze test after each pass, so a pass
    evaluates, steps and checks for lost iterates only those it still
    moves, gathering and scattering them through one index.  A lost
    iterate, one the step sent to inf or NaN, restarts from its start
    turned by 0.37 rad.  After the loop every iterate the iteration
    moved, one that did not pass ``_TOL`` at its first evaluation, takes
    one more Aberth step, kept only where it does not raise the backward
    error: freezing at the tolerance leaves an m-fold cluster spread
    over about _TOL**(1/m), which the extra step tightens, and a simple
    root that froze just under ``_TOL`` is polished by it.  An iterate
    that passed at its start keeps that start and its residual, so a
    start whose points all pass costs one evaluation pass.  A trial
    depends only on its own row's iterates before the step, so the
    moved iterates get the values that stepping every iterate gives.
    """
    b, w = coeffs.shape
    d = w - 1
    coeffs = coeffs / coeffs[:, -1, None]
    # dividing by a leading coefficient with a negative part gives zero
    # coefficients -0 parts, which would keep their Horner blocks live
    coeffs[coeffs == 0] = 0
    table = _horner_table(coeffs)
    z = np.empty((b, d), dtype=np.complex128)
    polygon = [r for r, s in enumerate(start) if s is None]
    if polygon:
        z[polygon] = _start_points(np.abs(coeffs[polygon]))
    for r, s in enumerate(start):
        if s is not None:
            z[r] = s
    restart = (z * np.exp(0.37j)).reshape(-1)

    # p/p' and the backward error of each iterate, and the live iterates,
    # all by index into the flat views of z and of the residuals; both own
    # their memory, so that their frozen rows pass into root sets uncopied
    flat = z.reshape(-1)
    wn = np.zeros(b * d, dtype=np.complex128)
    residuals = np.full((b, d), np.inf)
    residual = residuals.reshape(-1)
    idx = np.arange(b * d)
    rows = idx // d

    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iterations in range(1, _MAX_ITER + 1):
            wn[idx], res = _newton_pass(table, d, rows, flat.take(idx))
            residual[idx] = res
            live = ~(res <= _TOL)
            idx, rows = idx[live], rows[live]
            if iterations == 1:
                moved = idx, rows
            if not idx.size:
                break
            stepped = flat.take(idx)
            stepped -= _aberth_step(z, wn.take(idx), rows, idx)
            finite = np.isfinite(stepped)
            if not finite.all():
                lost = ~finite
                stepped[lost] = restart.take(idx[lost])
            flat[idx] = stepped
            del stepped  # not held through the next pass's Horner blocks
        else:
            wn[idx], residual[idx] = _newton_pass(table, d, rows, flat.take(idx))

        idx, rows = moved
        if idx.size:
            trial = flat.take(idx)
            trial -= _aberth_step(z, wn.take(idx), rows, idx)
            _, trial_res = _newton_pass(table, d, rows, trial)
            keep = trial_res <= residual.take(idx)
            flat[idx[keep]] = trial[keep]
            residual[idx[keep]] = trial_res[keep]
    return z, residuals, iterations


def _by_degree(coeffs):
    """Each coefficient array's count of zero low entries, and its index grouped by degree left.

    Those exact zero roots are stripped before evaluating: by Horner,
    z**n - z gives 0/0 at its root 0.
    """
    zeros, groups = [], {}
    for i, c in enumerate(coeffs):
        k = 0
        while c[k] == 0:
            k += 1
        zeros.append(k)
        groups.setdefault(c.size - 1 - k, []).append(i)
    return zeros, groups


def _solve(coeffs, starts) -> list[RootSet]:
    """Solve each polynomial, one Aberth batch per degree after stripping.

    ``coeffs[i]`` is polynomial i's coefficient array, finite with a
    nonzero leading entry as in a :class:`Polynomial`, and ``starts[i]``
    its start: d finite points at degree d with c_0 != 0, or None for
    the Newton polygon.  Each row's arithmetic is the same at any batch
    size, so every set equals that of solving its polynomial alone from
    the same start bit for bit; only ``iterations`` is the count of the
    whole batch, since a batch iterates until its last row is done.  A
    degree-1 row takes its root -c_0/c_1 in closed form (``iterations``
    0), with its backward error from the evaluation pass of a solve.
    """
    starts = [None if s is None else np.asarray(s, dtype=np.complex128) for s in starts]
    for c, start in zip(coeffs, starts):
        if start is None:
            continue
        if start.shape != (c.size - 1,) or not np.isfinite(start).all():
            raise ValueError(f"start must be {c.size - 1} finite points")
        if c[0] == 0:
            raise ValueError("a start needs a polynomial with a nonzero constant term")
    zeros, groups = _by_degree(coeffs)
    out: list[RootSet | None] = [None] * len(coeffs)
    for d, members in groups.items():
        rows = np.stack([coeffs[i][zeros[i] :] for i in members])
        if d == 0:
            pts = res = np.zeros((len(members), 0))
            iterations = 0
        elif d == 1:
            pts = -(rows[:, :1] / rows[:, 1:])
            _, res = _newton_pass(_horner_table(rows), 1, np.arange(len(members)), pts[:, 0])
            res, iterations = res[:, None], 0
        else:
            pts, res, iterations = _aberth(rows, [starts[i] for i in members])
        # read-only rows pass into their root sets uncopied
        pts.setflags(write=False)
        res.setflags(write=False)
        converged = (res <= _TOL).all(axis=1).tolist()
        for i, row_pts, row_res, ok in zip(members, pts, res, converged):
            k = zeros[i]
            if k:
                row_pts = np.concatenate([np.zeros(k, dtype=np.complex128), row_pts])
                row_res = np.concatenate([np.zeros(k, dtype=np.float64), row_res])
            out[i] = RootSet(row_pts, row_res, ok, iterations)
    return out


def _attached(polys) -> list[RootSet]:
    """The attached roots of each polynomial, with their backward errors.

    The residual of a root z is |p(z)| / S(z), S(z) = sum_k |c_k| |z|^k,
    from :func:`_newton_pass`, one pass per degree after the zero roots
    are stripped (:func:`_by_degree`).  The pass reads only the live
    blocks of the degree's table, those where one of its polynomials has
    a nonzero term, so each zero of z^n - 1, z^n - z or its f' costs
    O(sqrt(d)), not O(d).  As in a solve, the first k exact zeros of a
    polynomial with k zero low coefficients have residual 0, and any
    further zero is evaluated like every other root.  A root
    passes when its residual is at most

        gamma_2d (1 + |z p'(z)| / S(z)),  gamma_2d = 2 d u / (1 - 2 d u),

    with d the degree after stripping and u the unit roundoff.  The
    first term bounds the rounding of the evaluation itself (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 5.1).
    The second lets the root carry a relative error of gamma_2d: to
    first order, moving a true zero w by delta = z - w gives
    |p(z)| = |p'(z) delta|.  Roots computed in floating point need it:
    np.exp of a rounded angle puts the zeros of z**n - 1 about 6 u off,
    a backward error of 1.4e-12 at n = 4096 against gamma_2d = 9.1e-13.
    Coefficients expanded from exact roots pass while the expansion
    loses no more than the bound; where it loses more, the roots are not
    zeros of the stored coefficients to working precision and are
    refused.  The check is per root, so it does not see a multiset with
    one zero repeated in place of another.  |z p'(z)| / S(z) is |z|
    times the residual over |p/p'|.
    """
    zeros, groups = _by_degree([p.coeffs for p in polys])
    out: list[RootSet | None] = [None] * len(polys)
    for d, members in groups.items():
        gamma = 2 * d * UNIT_ROUNDOFF / (1 - 2 * d * UNIT_ROUNDOFF)
        roots = [polys[i].roots for i in members]
        sizes = [r.size for r in roots]
        starts = np.cumsum([0] + sizes[:-1])
        table = _horner_table(np.stack([polys[i].coeffs[zeros[i] :] for i in members]))
        z = np.concatenate(roots)
        # 1/z overflows or divides by zero in the branch np.where discards
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio, res = _newton_pass(table, d, np.repeat(np.arange(len(members)), sizes), z)
            slope = np.where(res == 0, 0.0, np.abs(z) * res / np.abs(ratio))
        for i, r, lo in zip(members, roots, starts):
            if zeros[i]:
                res[lo + np.flatnonzero(r == 0)[: zeros[i]]] = 0.0
        passed = np.logical_and.reduceat(res <= gamma * (1 + slope), starts)
        res.setflags(write=False)  # so each root set keeps its slice uncopied
        for i, r, lo, ok in zip(members, roots, starts, passed):
            out[i] = RootSet(r, res[lo : lo + r.size], bool(ok))
    return out


def find_roots(p: Polynomial, start=None) -> RootSet:
    """Find all roots of p simultaneously.

    Exact zero coefficients at the low end are stripped first, so
    polynomials like z**n - z report their origin roots exactly.  The
    iteration starts at ``start`` when it is given: p.degree finite
    points, for a p with c_0 != 0.  With None it starts from the Newton
    polygon.  At degree 2 or more, a start whose points all pass the
    backward-error test at the first evaluation is returned as given
    (``iterations`` 1).
    """
    return _solve([p.coeffs], [start])[0]


def certified(rs: RootSet, what: str = "zero") -> RootSet:
    """rs itself; raises RuntimeError unless its certificate holds."""
    if not rs.converged:
        if rs.iterations == 0:
            worst = float(np.max(rs.residuals))
            raise RuntimeError(f"{what} set fails its certificate: backward error {worst:.3g}")
        raise RuntimeError(f"{what} finding did not converge")
    return rs


def zero_sets(polys) -> list[RootSet]:
    """One zero set per polynomial, in input order, not yet certified.

    A polynomial's attached roots come with their backward errors,
    evaluated together in one pass per degree (:func:`_attached`); the
    polynomials without roots are solved together from the Newton
    polygon, one Aberth batch per degree after their zero roots are
    stripped (:func:`_solve`).
    """
    polys = list(polys)
    bare = [p for p in polys if p.roots is None]
    attached = iter(_attached([p for p in polys if p.roots is not None]))
    solved = iter(_solve([p.coeffs for p in bare], [None] * len(bare)))
    return [next(solved) if p.roots is None else next(attached) for p in polys]


def _paired_starts(polys) -> list[np.ndarray | None]:
    """Start points for the solve of each polynomial's f' from its attached zeros.

    Each zero z_j of f has a critical point near z_j - 1/S_j, with
    S_j = sum_{k != j} 1/(z_j - z_k) the repulsion sum of an Aberth
    step (O'Rourke and Williams, Trans. AMS 371, 2019): there
    f'/f(z) = 1/(z - z_j) + S_j to first order.  One candidate is
    formed per zero and the one with the largest |1/S_j| dropped, which
    leaves the n - 1 starts of f', in the order of the zeros.  The sums
    come from :func:`_repulsion` in row blocks, one call per degree, so
    a row's starts do not depend on the batch they are computed in.
    A polynomial gets None, the Newton polygon, when it has no attached
    zeros, when c_1 = 0 (f' has a zero root, which a solve strips), when
    two of its starts coincide or when a start is not finite.
    """
    polys = list(polys)
    out: list[np.ndarray | None] = [None] * len(polys)
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(polys):
        if p.roots is not None and p.coeffs[1] != 0:
            groups.setdefault(p.degree, []).append(i)
    for n, members in groups.items():
        zeros = np.stack([polys[i].roots for i in members])
        idx = np.arange(zeros.size)
        # coincident zeros divide by zero; their rows fall back below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shift = 1.0 / _repulsion(zeros, idx // n, idx).reshape(zeros.shape)
            drop = np.argmax(np.abs(shift), axis=1)
            keep = np.ones(zeros.shape, dtype=bool)
            keep[np.arange(len(members)), drop] = False
            starts = (zeros - shift)[keep].reshape(len(members), n - 1)
        ordered = np.sort(starts, axis=1)
        distinct = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
        usable = distinct & np.all(np.isfinite(starts), axis=1)
        for i, row, ok in zip(members, starts, usable):
            out[i] = row if ok else None
    return out


def critical_points(polys) -> list[RootSet]:
    """The zeros of each polynomial's p', in input order, not yet certified.

    The p' are solved together as in :func:`zero_sets`, each from the
    paired starts of p's attached zeros (:func:`_paired_starts`) or,
    where those are None, from the Newton polygon.  A k-fold zero of p'
    is returned as a cluster of k nearby points whose radius reflects
    its conditioning in coefficient form, not as a single point.  A p of
    degree below 2, whose p' is a constant, raises ValueError naming it,
    and so does a p whose p' overflows, as :func:`derivative` would.
    """
    polys = list(polys)
    low = [p.degree for p in polys if p.degree < 2]
    if low:
        raise ValueError(f"critical points need a polynomial of degree at least 2, not {low[0]}")
    fprimes = [_derivative_coeffs(p.coeffs) for p in polys]
    if polys and not np.isfinite(np.concatenate(fprimes)).all():
        raise ValueError("coeffs contains non-finite entries")
    return _solve(fprimes, _paired_starts(polys))
