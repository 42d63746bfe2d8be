"""Sweeping zero measures onto circles and reading off their moments.

Balayage pushes an empirical measure inside the disk out to the circle
|z| = R through the Poisson kernel; the uniform measure sweeps to the
constant density 1, so sup|density - 1| measures how far a zero
configuration is from circular.  For z**n - z the gap closes
geometrically in n.  The Fourier coefficients of the potential on a
circle recover raw moments of the measure: the k-th coefficient equals
E[zeta**k] / (2 k R**k).
"""

import numpy as np

from sendovlab import (
    balayage,
    circle_fourier_coeffs,
    empirical_measure,
    example_origin,
    moment,
    random_instances,
)


def main():
    R = 1.1
    print(f"balayage of the zeros of z**n - z onto |z| = {R}")
    print(f"{'n':>5} {'sup |density - 1|':>20} {'mass':>10}")
    for n in (16, 32, 64, 128):
        f = example_origin(n).f
        dens = balayage(empirical_measure(f.roots), R, p=f)
        gap = np.max(np.abs(dens.samples - 1.0))
        print(f"{n:>5} {gap:>20.3e} {dens.mean():>10.6f}")
    print("  the gap ~ 2 R^(-(n-1)): each doubling of n squares it away.")

    print()
    print("moment recovery through circle Fourier coefficients (random n = 12)")
    rng = np.random.default_rng(3)
    inst = random_instances(rng, 12, 1)[0]
    m = empirical_measure(inst.f.roots)
    for k in (1, 2, 3):
        direct = moment(m, k)
        via_circle = 2.0 * k * 1.3**k * circle_fourier_coeffs(m, 1.3, [k])[0]
        print(
            f"  k = {k}: E[zeta^{k}] = {direct:.6f}, "
            f"from circle = {via_circle:.6f}, |diff| = {abs(direct - via_circle):.1e}"
        )


if __name__ == "__main__":
    main()
