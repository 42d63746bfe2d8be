"""Counting zeros and critical points with the argument principle.

The winding number of f'/(n f) along |z| = r equals the number of
critical points inside minus the number of zeros inside, so it can be
read off a circle without locating anything.  The radius matters: it
must stay away from both root sets, and a concentration objective
picks one that an averaging argument keeps cheap.  The same machinery
integrates f'/f along open polylines to transport values of f.
"""

import numpy as np

from sendovlab import (
    critical_points,
    evaluate,
    example_origin,
    integrated_log_derivative,
    random_instances,
    select_radius,
    winding_number,
    zero_pole_count,
    zero_sets,
)


def main():
    inst = example_origin(100)
    zeros, crit = zero_sets([inst.f])[0], critical_points([inst.f])[0]
    sel = select_radius(0.2, 0.4, zeros, crit)
    res = winding_number(inst.f, sel.radius)
    direct = zero_pole_count(sel.radius, zeros, crit)
    print("z**100 - z: one zero at the origin, 99 critical points at radius ~0.955")
    print(f"  selected radius {sel.radius:.4f} (objective {sel.objective:.4f})")
    print(
        f"  winding of f'/(n f) = {res.winding} "
        f"(= #crit inside - #zeros inside = {direct}) "
        f"using {res.samples_used} samples"
    )

    print()
    print("random degree-10 instances: winding vs direct count")
    rng = np.random.default_rng(23)
    for _ in range(5):
        f = random_instances(rng, 10, 1)[0].f
        zeros, crit = zero_sets([f])[0], critical_points([f])[0]
        sel = select_radius(0.5, 0.9, zeros, crit)
        w = winding_number(f, sel.radius).winding
        d = zero_pole_count(sel.radius, zeros, crit)
        print(f"  r = {sel.radius:.4f}: winding {w:+d}, direct {d:+d}")

    print()
    print("value transport along a contour (zero-free corridor)")
    f = random_instances(rng, 8, 1)[0].f
    path = [2.0 + 0.0j, 2.0 + 1.5j, -1.0 + 2.0j]
    carried = integrated_log_derivative(f, path, zero_sets([f])[0])
    direct_val = evaluate(f, path[-1])
    rel = abs(carried - direct_val) / abs(direct_val)
    print(f"  f carried from {path[0]} to {path[-1]}: relative error {rel:.3e}")


if __name__ == "__main__":
    main()
