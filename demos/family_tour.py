"""Tour of the near-counterexample family and why it fails.

The family fixes a zero near a = 1 - c1/n, piles n - m zeros near
-c2/n, and prescribes m extra zeros lambda_j.  Its free zeros land at
radius 1 + t(theta)/n + O(1/n^2): explicitly Theta(1/n) *outside* the
unit disk.  Dragging them inside would need t(theta) <= c2 cos(theta)
everywhere, but the mean of t - c2 cos over the circle equals
sum_j log|1 - lambda_j| >= 0 -- the obstruction this module makes
quantitative.
"""

import numpy as np

from sendovlab import (
    FamilyParams,
    evaluate,
    family_critical_points,
    family_zeros,
    miller_family,
    predicted_zero_shift,
    verify_family,
)


def main():
    params = FamilyParams(n=128, c1=1.0, c2=2.0, lambdas=(0.3 + 0.8j,))
    inst = miller_family(params)
    print(f"family member: n = {params.n}, c1 = {params.c1}, c2 = {params.c2}")
    print(
        f"  distinguished zero a = {params.a:.6f}, "
        f"|f(a)| = {abs(evaluate(inst.f, inst.a)):.1e}"
    )

    rep = verify_family(params, theta_grid=1024)
    print(f"  per-zero radial law residual (exact identity): {rep.ten_residuals.max():.3e}")
    print(
        f"  n * ||zeta + c2/n| - 1| ranges over "
        f"[{rep.zero_radius_residuals.min():.3f}, {rep.zero_radius_residuals.max():.3f}]"
    )
    print(f"  prediction error x n: {params.n * rep.t_prediction_errors.max():.3f}")

    # the obstruction: t(theta) - c2 cos(theta) must be <= 0 everywhere
    # for a counterexample, yet its circle mean is >= 0
    vals = rep.lamin_values
    frac_pos = float(np.mean(vals > 0))
    print(
        f"  t - c2 cos: mean {vals.mean():+.4f}, max {vals.max():+.4f}, "
        f"positive on {100 * frac_pos:.1f}% of the circle"
    )

    print()
    print("predicted vs computed radial deviation at three angles")
    rs = family_zeros(params, inst.f)
    w = rs.points + params.c2 / params.n
    for theta0 in (0.5, 2.0, 4.0):
        j = int(np.argmin(np.abs(np.angle(w) - theta0)))
        measured = params.n * (np.abs(w[j]) - 1.0)
        predicted = predicted_zero_shift(params, float(np.angle(w[j])))
        print(
            f"  theta = {np.angle(w[j]):+.3f}: n(|w|-1) = {measured:+.4f}, "
            f"predicted t = {predicted:+.4f}"
        )

    print()
    crit = family_critical_points(params)
    inside = np.sum(np.abs(crit.points) <= 1.0)
    print(f"critical points: {crit.points.size} computed, {inside} inside the unit disk")
    print("  (the zeros are the ones pushed outside -- by Theta(1/n).)")


if __name__ == "__main__":
    main()
