import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendovlab.contour import (
    WINDING_BAND,
    AmbiguousCountError,
    select_radius,
    winding_number,
    zero_pole_count,
)
from sendovlab.families import (
    FamilyParams,
    example_circle,
    example_origin,
    family_critical_points,
    miller_family,
    random_instances,
)
from sendovlab.poly_core import Polynomial, derivative, evaluate, from_roots
from sendovlab.rootfind import RootSet, critical_points, find_roots, zero_sets


def _unity_poly(n):
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0], coeffs[n] = -1.0, 1.0
    return Polynomial(coeffs)


class TestWindingNumber:
    def test_circle_poly_inside_unit_circle(self):
        # all 15 critical points of z^16 - 1 sit at 0; no zeros inside r=0.5
        res = winding_number(_unity_poly(16), 0.5)
        assert res.winding == 15
        assert res.min_modulus > 0
        assert res.samples_used >= 1024

    def test_quadratic_outer_circle(self):
        # inside r=2: one critical point, two zeros
        res = winding_number(from_roots([1.0, -1.0]), 2.0)
        assert res.winding == -1

    def test_origin_example_large_degree(self):
        res = winding_number(example_origin(100).f, 0.4)
        assert res.winding == -1

    def test_validation(self):
        p = from_roots([1.0, -1.0])
        with pytest.raises(ValueError):
            winding_number(p, -1.0)

    def test_zero_on_circle_raises(self):
        with pytest.raises(AmbiguousCountError):
            winding_number(from_roots([1.0, -1.0]), 1.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_winding_constant_inside_zero_free_annulus(self, r):
        # z^16 - 1 has no zeros or critical points with 0 < |z| < 1
        res = winding_number(_unity_poly(16), r)
        assert res.winding == 15

    def test_grid_doubles_near_a_zero(self):
        # a zero delta outside |z| = 0.3 turns the argument by about pi
        # over an arc of width delta / r, far below the 1,024-node spacing;
        # on the ray theta = 0, a node of every grid, a few doublings do
        for delta in (1e-6, 1e-7, 1e-8):
            res = winding_number(from_roots([0.3 + delta, -0.5 + 0.5j, 0.7j, -0.8]), 0.3)
            assert res.winding == 1
            assert res.samples_used > 1024

    @pytest.mark.parametrize("delta, winding", [(1e-5, 1), (-1e-5, 0)])
    def test_zero_off_the_node_grid_resolves(self, delta, winding):
        # between two nodes the zero needs about pi r / delta of them
        f = from_roots([(0.3 + delta) * np.exp(0.1j), -0.5 + 0.5j, 0.7j, -0.8])
        res = winding_number(f, 0.3)
        assert res.winding == winding
        assert res.samples_used >= 32768

    def test_zero_off_the_node_grid_too_close_is_refused(self):
        # pi r / delta is about 9.4e6 nodes, past the 2^20 cap
        f = from_roots([(0.3 + 1e-7) * np.exp(0.1j), -0.5 + 0.5j, 0.7j, -0.8])
        with pytest.raises(AmbiguousCountError, match="persists"):
            winding_number(f, 0.3)

    @pytest.mark.parametrize("n", [1000, 1025, 2049])
    def test_start_grid_grows_with_the_degree(self, n):
        # the argument of g turns n - 1 times along |z| = 0.9, more than a
        # fixed 1,024-node grid can follow
        res = winding_number(_unity_poly(n), 0.9)
        assert res.winding == n - 1
        assert res.samples_used >= 4 * n

    @pytest.mark.parametrize("n", [512, 1024])
    def test_family_where_f_prime_underflows(self, n):
        # f' ~ (z + 2/n)^(n-2) is below the float64 range on |z| = 0.2,
        # so it is sampled relative to its largest term
        params = FamilyParams(n=n, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        f = miller_family(params).f
        rs = find_roots(f)
        crit = family_critical_points(params)
        sel = select_radius(0.2, 0.4, rs, crit)
        res = winding_number(f, sel.radius)
        assert res.winding == zero_pole_count(sel.radius, rs, crit) == n - 2


class TestZeroPoleCount:
    def test_quadratic(self):
        f = from_roots([1.0, -1.0])
        assert zero_pole_count(2.0, *zero_sets([f, derivative(f)])) == -1

    def test_circle_poly(self):
        f = _unity_poly(16)
        assert zero_pole_count(0.5, *zero_sets([f, derivative(f)])) == 15

    def test_modulus_near_circle_raises(self):
        f = from_roots([1.0, -1.0])
        with pytest.raises(AmbiguousCountError):
            zero_pole_count(1.0, *zero_sets([f, derivative(f)]))

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_radius_must_be_positive(self, r):
        f = from_roots([1.0, -1.0])
        with pytest.raises(ValueError, match="r must be positive"):
            zero_pole_count(r, *zero_sets([f, derivative(f)]))

    def test_agreement_with_winding(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            inst = random_instances(rng, 9, 1)[0]
            zeros, crit = zero_sets([inst.f, derivative(inst.f)])
            sel = select_radius(0.2, 0.4, zeros, crit)
            assert winding_number(inst.f, sel.radius).winding == zero_pole_count(
                sel.radius, zeros, crit
            )


class TestSelectRadius:
    def test_origin_example_oracle(self):
        n = 100
        f = example_origin(n).f
        sel = select_radius(0.2, 0.4, *zero_sets([f, derivative(f)]))
        # the only inner zero sits at 0, so the best radius is the far
        # end of the window and the objective is 1/(n * 0.4)
        assert sel.radius == pytest.approx(0.4, abs=1e-12)
        assert sel.objective == pytest.approx(1.0 / (n * 0.4), rel=1e-12)
        assert sel.objective < np.log(n) / n

    def test_no_inner_mass_gives_zero_objective(self):
        f = example_circle(16).f
        sel = select_radius(0.2, 0.4, *zero_sets([f, derivative(f)]))
        assert sel.objective == 0.0
        assert sel.radius == pytest.approx(0.2, abs=1e-12)

    def test_validation(self):
        p = from_roots([1.0, -1.0])
        with pytest.raises(ValueError):
            select_radius(0.4, 0.2, *zero_sets([p, derivative(p)]))

    @staticmethod
    def _brute_force(n, zero_moduli, crit_moduli):
        # the (radii x moduli) distance array that sorted moduli replace
        grid = np.linspace(0.2, 0.4, 10 * n)
        floor = float(n) ** -10.0
        all_moduli = np.concatenate([zero_moduli, crit_moduli])
        band = np.maximum(floor, WINDING_BAND * grid)
        admissible = np.min(np.abs(grid[:, None] - all_moduli[None, :]), axis=1) >= band
        inner = zero_moduli[zero_moduli <= 0.5]
        contrib = 1.0 / np.maximum(np.abs(grid[:, None] - inner[None, :]), floor)
        objective = np.where(admissible, contrib.sum(axis=1) / n, np.inf)
        best = int(np.argmin(objective))
        return float(grid[best]), float(objective[best])

    def test_matches_brute_force_admissibility(self):
        # a critical-point modulus placed on the best radius, or half its
        # band below or above it, moves the selection to another radius
        rng = np.random.default_rng(11)
        for trial in range(12):
            n = int(rng.integers(5, 40))
            radii = np.sqrt(rng.uniform(0.0, 1.0, n))
            f = from_roots(radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
            zero_moduli = np.abs(f.roots)
            points = critical_points([f])[0].points
            best, _ = self._brute_force(n, zero_moduli, np.abs(points))
            offset = (0.0, -0.5, 0.5)[trial % 3] * WINDING_BAND * best
            points = np.append(points, best + offset)
            crit = RootSet(points, np.zeros(points.size), converged=True)
            sel = select_radius(0.2, 0.4, zero_sets([f])[0], crit)
            assert sel.radius != best
            assert (sel.radius, sel.objective) == self._brute_force(n, zero_moduli, np.abs(points))

    def test_keeps_away_from_a_critical_point_the_winding_cannot_resolve(self):
        # a zero of f' 1e-7 outside |z| = 0.3 at angle 0.1, between two
        # nodes of every winding grid (zeros of f as in
        # test_zero_off_the_node_grid_too_close_is_refused); no zero of f
        # lies in |z| <= 1/2, so every radius has objective 0
        crit = [(0.3 + 1e-7) * np.exp(0.1j), -0.5 + 0.5j, 0.7j, -0.8, 0.6 + 0.6j]
        n = len(crit) + 1
        coeffs = np.concatenate([[0.0], n * from_roots(crit).coeffs / np.arange(1, n + 1)])
        coeffs[0] = -evaluate(Polynomial(coeffs), 0.9)
        f = Polynomial(coeffs)
        # the n^-10 floor alone admits r1 = 0.3, where the winding refuses
        assert 1e-7 > float(n) ** -10.0
        with pytest.raises(AmbiguousCountError, match="persists"):
            winding_number(f, 0.3)
        zeros, crit = zero_sets([f, derivative(f)])
        sel = select_radius(0.3, 0.4, zeros, crit)
        assert sel.radius > 0.3
        assert sel.objective == 0.0
        assert winding_number(f, sel.radius).winding == zero_pole_count(sel.radius, zeros, crit)

    def test_memory_stays_linear_in_the_degree(self):
        # z^n - 0.45^n at n = 2048: every zero is inner, so the objective
        # sums over 20,480 radii x 2,048 zeros, which as one array is
        # 335 MB; the zeros and the critical points, all at 0, are given
        n = 2048
        zeros = 0.45 * np.exp(2j * np.pi * np.arange(n) / n)
        rs = RootSet(zeros, np.zeros(n), converged=True)
        crit = RootSet(np.zeros(n - 1, dtype=complex), np.zeros(n - 1), converged=True)
        tracemalloc.start()
        try:
            sel = select_radius(0.2, 0.4, rs, crit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sel.radius == pytest.approx(0.2, abs=1e-12)
        assert peak < 8e6
