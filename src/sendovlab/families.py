"""Instance factories: extremal examples, near-counterexample family, ensembles.

The classical extremal configurations are z**n - 1 (every margin
exactly zero) and z**n - z (critical circle of radius n**(-1/(n-1))).
The near-counterexample family takes a zero at a = 1 - c1/n and
multiplies a perturbed binomial by a finite Blaschke-style factor:

    f(z) = (z + c2/n)**(n-m) P(z) - (a + c2/n)**(n-m) P(a),

with P monic of degree m vanishing on prescribed points lambda_j in
the closed lune.  Its zeros hug the circle |z + c2/n| = 1 to O(1/n)
with a computable logarithmic shift profile, and all of its critical
points sit at -c2/n (multiplicity n-m-1) plus the m zeros of
P + (z + c2/n) P'/(n-m), known analytically; the generic solver can
only resolve the fat multiple root to a cluster of radius
~eps**(1/(n-m-1)) from coefficients.

The binomial (z + c2/n)**(n-m) is expanded with exact integer
binomials, each from the one before, and a member whose coefficients
overflow a float is refused with ValueError.

The shift profile also predicts where each zero lies, to O(1/n**2):
:func:`predicted_zeros` places one start point per zero and polishes
it by Newton steps on the family's own equation in log form, at O(m)
per zero, to rounding level.  :func:`family_zeros` starts the dense
Aberth solve there, which then converges in its first evaluation pass
(1 iteration at n = 64 to 4096, against 10 to 16 from the Newton
polygon), so the zeros keep the dense solve's certificate.  When the
prediction is unusable (a start that is not finite, or two starts
closer in angle than a quarter of the spacing 2 pi/n, as when a
lambda_j sits on the unit circle) the solve starts from the Newton
polygon instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import empirical_measure, summary
from .poly_core import (
    CrossCheckError,
    Polynomial,
    SendovInstance,
    _read_only,
    _residual_at,
    from_roots,
    from_roots_batch,
)
from .potential import log_potential
from .rootfind import RootSet, certified, find_roots

__all__ = [
    "FamilyParams",
    "FamilyReport",
    "example_circle",
    "example_origin",
    "family_critical_points",
    "family_zeros",
    "miller_family",
    "origin_derivative",
    "predicted_zero_shift",
    "predicted_zeros",
    "random_instances",
    "verify_family",
]


def example_circle(n: int) -> SendovInstance:
    """z**n - 1 with the zero at a = 1: every margin is exactly zero."""
    if n < 2:
        raise ValueError("n must be at least 2")
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = -1.0
    coeffs[n] = 1.0
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    return SendovInstance(Polynomial(coeffs, roots), 1.0)


def example_origin(n: int) -> SendovInstance:
    """z**n - z with the zero at a = 0.

    The critical points fill the circle of radius n**(-1/(n-1)), the
    extremal distance ~ 1 - log(n)/n from the origin zero.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[1] = -1.0
    coeffs[n] = 1.0
    roots = np.concatenate(
        [[0.0], np.exp(2j * np.pi * np.arange(n - 1) / (n - 1))]
    )
    return SendovInstance(Polynomial(coeffs, roots), 0.0)


def origin_derivative(n: int) -> Polynomial:
    """f' = n z**(n-1) - 1 of :func:`example_origin`, its zeros attached in closed form.

    The coefficients are set directly, equal to those of
    ``derivative(example_origin(n).f)`` byte for byte.  The critical
    points of z**n - z are n**(-1/(n-1)) times the (n-1)th roots of
    unity.  ``rootfind.zero_sets`` of this polynomial is their
    uncertified root set, which carries the same backward-error
    certificate as attached zeros, so no solve is needed.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    coeffs = np.zeros(n, dtype=np.complex128)
    coeffs[[0, n - 1]] = -1.0, n
    roots = n ** (-1.0 / (n - 1)) * np.exp(2j * np.pi * np.arange(n - 1) / (n - 1))
    return Polynomial(coeffs, roots)


@dataclass(frozen=True, eq=False)
class FamilyParams:
    """Parameters (n, c1, c2, lambdas) of the near-counterexample family."""

    n: int
    c1: float
    c2: float
    lambdas: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (0 < self.c1 <= self.c2):
            raise ValueError("need 0 < c1 <= c2")
        lams = np.atleast_1d(_read_only(self.lambdas, np.complex128))
        if lams.ndim != 1:
            raise ValueError("lambdas must be one-dimensional")
        if lams.size >= self.n:
            raise ValueError("need fewer than n prescribed zeros of P")
        if lams.size:
            if np.any(np.abs(lams) > 1.0 + 1e-10):
                raise ValueError("each lambda must lie in the closed unit disk")
            if np.any(np.abs(lams - 1.0) < 1.0 - 1e-10):
                raise ValueError("each lambda must avoid the open disk D(1, 1)")
            d = np.abs(lams[:, None] - lams[None, :])
            np.fill_diagonal(d, np.inf)
            if lams.size > 1 and d.min() == 0.0:
                raise ValueError("lambdas must be pairwise distinct")
        object.__setattr__(self, "lambdas", lams)

    @property
    def m(self) -> int:
        return self.lambdas.size

    @property
    def a(self) -> float:
        return 1.0 - self.c1 / self.n


def _binomial_shift_coeffs(nm: int, s: float) -> np.ndarray:
    """Ascending coefficients of (z + s)**nm, stable for large nm.

    The binomials C(nm, k) are exact integers, carried from one k to the
    next by C(nm, k+1) = C(nm, k) (nm - k) // (k + 1), until ``float()``
    rounds them; a term whose binomial or power is too large for a float
    is combined in log space instead.  Entries whose s**(nm-k)
    underflows are genuinely negligible at working precision and flush
    to zero.  Raises OverflowError when an entry is too large for a
    float.
    """
    out = np.empty(nm + 1, dtype=np.float64)
    comb = 1
    for k in range(nm + 1):
        j = nm - k
        try:
            out[k] = float(comb) * s**j
        except OverflowError:
            # comb or s**j too large for a float: combine in log space instead
            out[k] = math.exp(
                math.lgamma(nm + 1) - math.lgamma(k + 1) - math.lgamma(j + 1)
                + j * math.log(s)
            )
        comb = comb * j // (k + 1)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"(z + {s:g})**{nm} has coefficients too large for a float")
    return out


def miller_family(params: FamilyParams) -> SendovInstance:
    """Build the family member in coefficient form.

    The subtracted constant is computed in log space (log1p of the
    O(1/n) offset), which keeps |f(a)| at rounding level for all n;
    the construction raises CrossCheckError unless |f(a)| <= 1e-10
    relative to the coefficient scale at a, and ValueError when
    (z + c2/n)**(n-m) overflows.  No root list is attached:
    the zeros of these instances intentionally stray O(1/n) outside the
    unit disk.
    """
    n, c1, c2, lams = params.n, params.c1, params.c2, params.lambdas
    m = params.m
    a = params.a
    nm = n - m
    p_at_a = complex(np.prod(a - lams))
    try:
        shift = _binomial_shift_coeffs(nm, c2 / n).astype(np.complex128)
        # (a + c2/n)**nm = exp(nm * log1p((c2 - c1)/n)) exactly in log space
        const = p_at_a * math.exp(nm * math.log1p((c2 - c1) / n))
    except OverflowError:
        raise ValueError(
            f"(z + c2/n)**(n-m) overflows at n = {n}, c2 = {c2:g}: "
            "its coefficients are too large for a float"
        ) from None
    coeffs = np.convolve(shift, from_roots(lams).coeffs) if m else shift
    coeffs[0] -= const
    resid, scale = _residual_at(coeffs, a)
    if resid > 1e-10 * scale:
        raise CrossCheckError(f"family construction residual {resid:.3e} too large")
    return SendovInstance(Polynomial(coeffs), a)


def family_critical_points(params: FamilyParams) -> RootSet:
    """All critical points, from the derivative's analytic factorization.

    f'(z) = (n-m) (z + c2/n)**(n-m-1) [ P(z) + (z + c2/n) P'(z)/(n-m) ],
    so the critical points are -c2/n with multiplicity n-m-1 plus the m
    zeros of the bracket.  The multiple root is exact by construction
    (residual 0), sidestepping its eps**(1/(n-m-1)) conditioning in
    coefficient form.
    """
    n, c2, lams = params.n, params.c2, params.lambdas
    m = params.m
    nm = n - m
    base = np.full(nm - 1, -c2 / n, dtype=np.complex128)
    if m == 0:
        return RootSet(base, np.zeros(nm - 1), True)
    pcoeffs = from_roots(lams).coeffs  # ascending, degree m
    q = np.zeros(m + 1, dtype=np.complex128)
    for k in range(m + 1):
        q[k] = pcoeffs[k] + k * pcoeffs[k] / nm
        if k + 1 <= m:
            q[k] += (c2 / n) * (k + 1) * pcoeffs[k + 1] / nm
    extra = certified(find_roots(Polynomial(q)), "bracket-factor root")
    return RootSet(
        np.concatenate([base, extra.points]),
        np.concatenate([np.zeros(nm - 1), extra.residuals]),
        True,
        extra.iterations,
    )


def predicted_zero_shift(params: FamilyParams, theta) -> np.ndarray | float:
    """First-order radial shift profile t(theta) of the family's zeros.

    Zeros at angle theta of w = zeta + c2/n satisfy
    |w| = 1 + t(theta)/n + O(1/n^2) with
    t = c2 - c1 + sum_j log|(1 - lambda_j)/(e^{i theta} - lambda_j)|.
    """
    th = np.asarray(theta, dtype=float)
    t = np.full(th.shape, params.c2 - params.c1, dtype=float)
    for lam in params.lambdas:
        t += np.log(np.abs(1.0 - lam) / np.abs(np.exp(1j * th) - lam))
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return float(t)
    return t


# Newton steps in :func:`predicted_zeros`: on the zeros' angles, then on
# the zeros themselves in the family's own form.
_ANGLE_STEPS = 3
_POLISH_STEPS = 3


def predicted_zeros(params: FamilyParams) -> np.ndarray | None:
    """One start point per zero of the family member, or None.

    With w = z + c2/n the zeros solve w**(n-m) P(w - c2/n) = C, and C
    has the argument of P(a).  The angle theta_k of the k-th zero solves
    (n-m) theta + arg P(e^{i theta} - c2/n) = arg P(a) + 2 pi k, found
    by a few Newton steps from (arg P(a) + 2 pi k)/n, and its radius is
    1 + t(theta_k)/n (:func:`predicted_zero_shift`), which places the
    zero to O(1/n**2).  A few Newton steps on the family's own equation
    in log form,

        h(z) = (n-m) log(z + c2/n) + sum_j log(z - lambda_j) - log C,

    with the imaginary part of h wrapped into (-pi, pi] and
    log C = log|P(a)| + (n-m) log1p((c2 - c1)/n) + i arg P(a), the
    log-space constant of :func:`miller_family`, then polish each start
    to rounding level at O(m) per zero and O(n m) memory, so the dense
    solve converges in its first evaluation pass.  A start that the
    polish would move by a quarter of the spacing 2 pi/n or more, as
    next to a lambda_j on the unit circle, keeps its unpolished place.
    None when a start is not finite or two are closer in angle
    arg(z + c2/n) than a quarter of 2 pi/n; the check sorts the angles,
    so it costs O(n log n).  None also when P(a) = 0 (a = lambda_j = 0):
    then C = 0 and the zeros are -c2/n and the lambda_j.
    """
    n, c1, c2, lams = params.n, params.c1, params.c2, params.lambdas
    nm = n - params.m
    p_at_a = complex(np.prod(params.a - lams))
    if p_at_a == 0:
        return None
    target = float(np.angle(p_at_a))
    theta = (target + 2.0 * np.pi * np.arange(n)) / n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_c = np.log(abs(p_at_a)) + nm * math.log1p((c2 - c1) / n) + 1j * target
        for _ in range(_ANGLE_STEPS):
            u = np.exp(1j * theta)
            gap = u[:, None] - (lams + c2 / n)
            phase = nm * theta + np.angle(gap).sum(axis=1) - target
            slope = nm + (u[:, None] / gap).real.sum(axis=1)
            theta = theta - (np.remainder(phase + np.pi, 2.0 * np.pi) - np.pi) / slope
        z = (1.0 + predicted_zero_shift(params, theta) / n) * np.exp(1j * theta) - c2 / n
        polished = z
        for _ in range(_POLISH_STEPS):
            w = polished + c2 / n
            gap = polished[:, None] - lams
            h = nm * np.log(w) + np.log(gap).sum(axis=1) - log_c
            h.imag = np.pi - np.remainder(np.pi - h.imag, 2.0 * np.pi)
            polished = polished - h / (nm / w + (1.0 / gap).sum(axis=1))
        # a start the polish moves by a quarter spacing or more (or to a
        # non-finite point) was not near its zero
        z = np.where(np.abs(polished - z) < 0.5 * np.pi / n, polished, z)
        theta = np.angle(z + c2 / n)
    if not np.all(np.isfinite(z)):
        return None
    ordered = np.sort(np.remainder(theta, 2.0 * np.pi))
    if np.diff(ordered, append=ordered[0] + 2.0 * np.pi).min() < 0.5 * np.pi / n:
        return None
    return z


def family_zeros(params: FamilyParams, f: Polynomial) -> RootSet:
    """The zeros of the member f of ``params``, solved from :func:`predicted_zeros`.

    When the prediction is None the solve starts from the Newton polygon.
    """
    return find_roots(f, predicted_zeros(params))


@dataclass(frozen=True, eq=False)
class FamilyReport:
    """Numerical verdict on one family member.

    zero_radius_residuals stores n * ||zeta + c2/n| - 1| per zero (the
    O(1) magnitudes of the radial deviation); t_prediction_errors the
    per-zero gap between that deviation and the predicted profile
    (an O(1/n) quantity); ten_residuals the exact log identity each
    zero must satisfy (rounding-level when the solver is healthy).
    lamin_values samples t(theta) - c2 cos(theta) on a uniform grid;
    a counterexample would need this <= 0 everywhere, yet its mean is
    sum_j log|1 - lambda_j| >= 0, the heart of the obstruction.
    """

    ten_residuals: np.ndarray
    zero_radius_residuals: np.ndarray
    t_prediction_errors: np.ndarray
    lamin_thetas: np.ndarray
    lamin_values: np.ndarray
    arc_argument_ok: bool
    sum_lambda_sq: complex
    sum_abs_lambda_sq: float
    fine: dict


def verify_family(params: FamilyParams, theta_grid: int = 2048) -> FamilyReport:
    """Locate the zeros, test the radial law, and collect diagnostics."""
    if theta_grid < 1:
        raise ValueError(f"theta_grid must be at least 1, not {theta_grid}")
    if np.prod(params.a - params.lambdas) == 0:
        raise ValueError("the radial law needs P(a) != 0, but a = lambda_j gives P(a) = 0")
    inst = miller_family(params)
    n, c2, lams, a = params.n, params.c2, params.lambdas, params.a
    zeta = certified(family_zeros(params, inst.f), "family zero").points
    w = zeta + c2 / n
    radius = np.abs(w)
    theta = np.angle(w)

    # exact per-zero identity: log|w/(a + c2/n)| = (1/(n-m)) sum log|(a-l)/(z-l)|,
    # whose sum over no lambdas (m = 0) is 0
    lhs = np.log(radius / (a + c2 / n))
    rhs = np.sum(
        np.log(np.abs((a - lams[None, :]) / (zeta[:, None] - lams[None, :]))),
        axis=1,
    ) / (n - params.m)
    ten = np.abs(lhs - rhs)

    t_pred = predicted_zero_shift(params, theta)
    zon = n * np.abs(radius - 1.0)
    terr = np.abs(n * (radius - 1.0) - t_pred)

    thetas = np.linspace(0.0, 2.0 * np.pi, theta_grid, endpoint=False)
    lamin = predicted_zero_shift(params, thetas) - c2 * np.cos(thetas)

    arc_ok = True
    for lam in lams:
        if lam == 0 or abs(abs(lam - 1.0) - 1.0) > 1e-9:
            continue
        if not (np.pi / 3 - 1e-9 <= abs(np.angle(lam)) <= np.pi / 2 + 1e-9):
            arc_ok = False

    crit = family_critical_points(params)
    mx = empirical_measure(crit.points)
    stats = summary(mx)
    fine = {
        "mu": stats.mean,
        "sigma2": stats.variance,
        "one_minus_a": 1.0 - a,
        "u_xi_at_a": log_potential(mx, complex(a)),
    }
    return FamilyReport(
        ten_residuals=ten,
        zero_radius_residuals=zon,
        t_prediction_errors=terr,
        lamin_thetas=thetas,
        lamin_values=lamin,
        arc_argument_ok=arc_ok,
        sum_lambda_sq=complex(np.sum(lams**2)),
        sum_abs_lambda_sq=float(np.sum(np.abs(lams) ** 2)),
        fine=fine,
    )


def random_instances(rng: np.random.Generator, n: int, count: int) -> list[SendovInstance]:
    """``count`` random instances with angularly separated zeros.

    Zeros at jittered equispaced angles with radii in [0.7, 1], rotated
    by the unit conjugate phase of the largest-modulus zero z0, so z0
    lands exactly on a = |z0| and pairwise distances are kept.  The
    angular separation keeps the coefficient representation better
    conditioned (dense uniform configurations lose ~n digits in the
    products of pairwise distances).  The zeros are attached as drawn,
    and ``rootfind.zero_sets`` certifies them by their backward error
    against the expanded coefficients, so an instance whose expansion
    loses more than the rounding bound is refused where it is used: at
    degree 256 one of 20 instances over seeds 0-4 is, and at degree
    1024 seeds 0, 2, 3 and 4 of 0-4 are.  Each instance draws its
    angles and then its radii, so the instances, and the state ``rng``
    is left in, are those of ``count`` one-instance calls.  All the
    draws come from one call, whose (count, 2, n) output is filled in
    that order, and all the instances are expanded in one batch.
    Raises ValueError unless count >= 1 and n >= 2.
    """
    if count < 1 or n < 2:
        raise ValueError("random instances need count >= 1 and degree >= 2")
    # filled in C order: each row's n angle offsets, then its n radii
    draws = rng.uniform([[0.15], [0.7]], [[0.85], [1.0]], (count, 2, n))
    angles = 2.0 * np.pi * (np.arange(n) + draws[:, 0]) / n
    roots = draws[:, 1] * np.exp(1j * angles)
    rows, top = np.arange(count), np.argmax(np.abs(roots), axis=1)
    # in Python arithmetic: np.abs and numpy's complex-by-real division
    # round some points differently
    z0 = roots[rows, top].tolist()
    tops = [abs(z) for z in z0]
    roots *= np.array([z.conjugate() / a for z, a in zip(z0, tops)], dtype=np.complex128)[:, None]
    # exact by construction: z0 * conj(z0)/|z0| = |z0|
    roots[rows, top] = tops
    coeffs = from_roots_batch(roots)
    return [SendovInstance(Polynomial(c, r), a) for c, r, a in zip(coeffs, roots, tops)]
