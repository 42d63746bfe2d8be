"""The six identities tying potentials and transforms to f and f'.

The zero measure of a monic degree-n polynomial determines log|f| and
f'/f; the critical measure determines log|f'| and f''/f'.  Each
identity is checked two ways -- root sums on one side, coefficient
Horner evaluation on the other -- so agreement certifies both the
computed roots and the evaluator at once.  Residuals are relative,
|lhs - rhs| / max(1, |lhs|, |rhs|).
"""

import numpy as np

from sendovlab import (
    check_matching_mean,
    critical_points,
    degot_suite,
    example_circle,
    random_instances,
    verify_basic_identities,
    zero_sets,
)


def main():
    rng = np.random.default_rng(11)
    inst = random_instances(rng, 24, 1)[0]
    zeros = zero_sets([inst.f])[0]
    crit = critical_points([inst.f])[0]
    avoid = np.concatenate([inst.f.roots, crit.points])
    pts = []
    while len(pts) < 12:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if np.min(np.abs(avoid - z)) >= 0.06:
            pts.append(z)

    rep = verify_basic_identities(inst.f, np.array(pts), zeros, crit)
    print("random degree-24 instance, 12 sample points")
    for label, row in zip(rep.labels, rep.residuals):
        print(f"  {label:<42} max residual {row.max():.3e}")

    diff = check_matching_mean(zeros, crit)
    print(f"  zero mean vs critical mean: |difference| = {diff:.3e}")

    # the lower/upper envelope inequalities for |f'| near a, on the
    # tightest example: z**50 - 1 with the distinguished zero at 1
    print()
    print("derivative envelope on z**50 - 1 (boundary case):")
    circle = example_circle(50)
    suite = degot_suite(circle, (0.2, 0.35, 0.5), critical_points([circle.f])[0])
    print(
        f"  hypothesis = {suite.hypothesis}, "
        f"|f'(a)|/n - 1 = {suite.fp_abs_at_a_over_n - 1:+.3e}"
    )
    for row in suite.rows[:3]:
        print(
            f"  delta = {row.delta:.2f}: lower slack {row.lower_slack:+.4f}, "
            f"upper slack {row.upper_slack:+.4f}"
        )


if __name__ == "__main__":
    main()
