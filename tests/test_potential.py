import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendovlab.families import (
    FamilyParams,
    example_circle,
    family_critical_points,
    miller_family,
    random_instance,
)
from sendovlab.measures import EmpiricalMeasure, empirical_measure
from sendovlab.poly_core import (
    AtomCollisionError,
    Polynomial,
    _horner,
    derivative,
    evaluate,
    from_roots,
)
from sendovlab.potential import (
    CircleDensity,
    ContourTooCloseError,
    balayage,
    circle_fourier_coeff,
    circle_fourier_coeffs,
    integrated_log_derivative,
    log_potential,
    poisson_kernel,
    stieltjes,
    stieltjes_derivative,
    verify_basic_identities,
)
from sendovlab.sendov_check import critical_points


def _unity_measure(n):
    return empirical_measure(np.exp(2j * np.pi * np.arange(n) / n))


class TestPointwiseTransforms:
    def test_potential_vanishes_inside_uniform_circle(self):
        # U(z) = -(1/n) log|z^n - 1| ~ 0 for |z| < 1
        assert abs(log_potential(_unity_measure(64), 0.5)) < 1e-15

    def test_potential_outside_uniform_circle(self):
        n = 64
        expected = -math.log(2**n - 1) / n
        assert log_potential(_unity_measure(n), 2.0) == pytest.approx(expected, rel=1e-14)

    def test_stieltjes_closed_form(self):
        # s(2) = 2^(n-1) / (2^n - 1) for the n-th roots of unity
        n = 16
        expected = 2 ** (n - 1) / (2**n - 1)
        assert stieltjes(_unity_measure(n), 2.0) == pytest.approx(expected, rel=1e-14)

    def test_stieltjes_derivative_single_atom(self):
        m = empirical_measure(np.array([0.5 + 0j]))
        assert stieltjes_derivative(m, 1.5) == pytest.approx(-1.0, abs=1e-15)

    def test_collisions_raise(self):
        m = _unity_measure(8)
        with pytest.raises(AtomCollisionError):
            log_potential(m, 1.0)
        with pytest.raises(AtomCollisionError):
            stieltjes(m, 1.0)
        with pytest.raises(AtomCollisionError):
            stieltjes_derivative(m, 1.0)

    def test_zero_weight_atom_ignored_by_potential(self):
        m = EmpiricalMeasure(np.array([0j, 1.0]), np.array([0.0, 1.0]))
        assert log_potential(m, 0.0) == 0.0

    @pytest.mark.parametrize("kernel", [log_potential, stieltjes, stieltjes_derivative])
    def test_array_call_equals_scalar_calls(self, kernel):
        rng = np.random.default_rng(4)
        m = empirical_measure(rng.normal(size=37) + 1j * rng.normal(size=37))
        zs = (rng.uniform(-2, 2, 24) + 1j * rng.uniform(-2, 2, 24)).reshape(4, 6)
        out = kernel(m, zs)
        assert out.shape == zs.shape
        scalar = np.array([kernel(m, complex(z)) for z in zs.ravel()])
        assert out.ravel().tobytes() == scalar.tobytes()

    def test_array_call_with_atom_hits(self):
        m = EmpiricalMeasure(np.array([0j, 1.0, -1j]), np.array([0.0, 0.5, 0.5]))
        zs = np.array([0j, 2.0, 0.5j])  # the first hits the zero-weight atom
        scalar = np.array([log_potential(m, complex(z)) for z in zs])
        assert log_potential(m, zs).tobytes() == scalar.tobytes()
        with pytest.raises(AtomCollisionError):
            log_potential(m, np.array([2.0, 1.0]))
        # the transforms refuse every exact hit, of any weight, in both forms
        for kernel in (stieltjes, stieltjes_derivative):
            with pytest.raises(AtomCollisionError):
                kernel(m, zs)
            with pytest.raises(AtomCollisionError):
                kernel(m, 0.0)


class TestIdentitySuite:
    def test_circle_example_residuals_at_rounding_level(self):
        inst = example_circle(16)
        zs = np.array([1.7 + 0.3j, -1.5 + 1.1j, 0.4 + 1.6j, 0.31 + 0.12j])
        rep = verify_basic_identities(inst.f, zs, crit=critical_points(inst.f))
        # the last two identities consume s_zeta, a root sum that cancels
        # to ~|z|^15 at the innermost point, so those rows are only
        # conditioned to ~1e-9 there; the four direct comparisons stay at
        # rounding level
        assert rep.max_residual < 1e-8
        assert rep.residuals[:4].max() < 1e-12
        assert rep.residuals.shape == (6, 4)
        assert not rep.skipped

    def test_points_near_support_are_skipped(self):
        inst = example_circle(16)
        zs = np.array([1.01 + 0.0j, 1.7 + 0.3j])  # first is 0.01 from the zero at 1
        rep = verify_basic_identities(inst.f, zs)
        assert rep.skipped == [0]
        assert rep.evaluated.tolist() == [1.7 + 0.3j]

    def test_random_instances(self):
        rng = np.random.default_rng(12)
        zs = np.array([1.8 + 0.2j, -1.4 + 1.2j, 2.1 - 0.8j])
        for _ in range(5):
            inst = random_instance(rng, 14)
            rep = verify_basic_identities(inst.f, zs)
            assert rep.max_residual < 1e-10

    def test_requires_monic(self):
        p = from_roots([0.5, -0.5], leading=2.0)
        with pytest.raises(ValueError, match="monic"):
            verify_basic_identities(p, [2.0])

    def test_requires_degree_two(self):
        with pytest.raises(ValueError, match="degree"):
            verify_basic_identities(from_roots([0.5]), [2.0])

    def test_quadratic_smallest_case(self):
        rep = verify_basic_identities(from_roots([0.5, -0.5]), [1.3 + 0.4j])
        assert rep.max_residual < 1e-13

    def test_array_pass_matches_a_loop_over_points(self):
        # reference: the identities point by point from scalar kernel
        # calls; only the rounding of abs and log differs, so 1e-14 bounds
        # the change in a relative residual
        rng = np.random.default_rng(21)
        inst = random_instance(rng, 20)
        f = inst.f
        n = f.degree
        fp = derivative(f)
        fpp = fp.coeffs[1:] * np.arange(1, fp.coeffs.size)
        mz, mx = empirical_measure(f.roots), empirical_measure(critical_points(f).points)
        zs = rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30)
        rep = verify_basic_identities(f, zs)
        assert rep.evaluated.size >= 20

        def rel(lhs, rhs):
            return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

        for k, z in enumerate(rep.evaluated.tolist()):
            fz, fpz, fppz = evaluate(f, z), evaluate(fp, z), complex(_horner(fpp, z))
            u_z, u_x = log_potential(mz, z), log_potential(mx, z)
            s_z, s_x = stieltjes(mz, z), stieltjes(mx, z)
            ref = [
                rel(u_z, -math.log(abs(fz)) / n),
                rel(u_x, math.log(n) / (n - 1) - math.log(abs(fpz)) / (n - 1)),
                rel(s_z, fpz / (n * fz)),
                rel(s_x, fppz / ((n - 1) * fpz)),
                rel(u_z - (n - 1) / n * u_x, math.log(abs(s_z)) / n),
                rel(s_z - (n - 1) / n * s_x, -stieltjes_derivative(mz, z) / (n * s_z)),
            ]
            assert np.abs(rep.residuals[:, k] - ref).max() <= 1e-14

    @pytest.mark.parametrize("zs", [[], [1.01, -0.99j]], ids=["empty", "all-skipped"])
    def test_no_evaluated_points(self, zs):
        rep = verify_basic_identities(example_circle(16).f, zs)
        assert rep.residuals.shape == (6, 0)
        assert rep.evaluated.shape == (0,)
        assert rep.skipped == list(range(len(zs)))
        assert rep.max_residual == 0.0

    def test_second_derivative_by_horner_on_miller_family(self):
        # f'' goes through Horner's rule; a power sum of z**j, which for
        # j > 100 Python computes through exp and log, left identity 4
        # at 1.6e-5 on these points
        params = FamilyParams(n=128, c1=1.0, c2=2.0, lambdas=[0.3 + 0.8j])
        inst = miller_family(params)
        crit = family_critical_points(params)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            zs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
            rep = verify_basic_identities(inst.f, zs, crit=crit)
            row = rep.labels.index("stieltjes_vs_logderiv_fprime")
            assert rep.residuals[row].max() <= 1e-6


class TestIntegratedLogDerivative:
    def test_straight_segment_reaches_endpoint(self):
        p = from_roots([1.0, -1.0])
        out = integrated_log_derivative(p, [2.0, 3.0])
        assert out == pytest.approx(evaluate(p, 3.0), rel=1e-9)

    def test_polyline_around_the_disk(self):
        p = from_roots([0.8, -0.3 + 0.4j, 0.1 - 0.6j])
        contour = [2.0, 2.0 + 2.0j, -2.0 + 2.0j, -2.0 - 1.0j]
        out = integrated_log_derivative(p, contour)
        assert out == pytest.approx(evaluate(p, contour[-1]), rel=1e-9)

    def test_closed_loop_returns_start_value(self):
        p = from_roots([1.0, -1.0])
        theta = np.linspace(0, 2 * np.pi, 9)
        loop = (0.3 + 2.0 * np.exp(1j * theta)).tolist()  # encloses both zeros
        out = integrated_log_derivative(p, loop)
        assert out == pytest.approx(evaluate(p, loop[0]), rel=1e-9)

    def test_closed_loop_in_zero_free_region(self):
        p = from_roots([1.0, -1.0])
        square = [3.0, 3.0 + 0.5j, 3.5 + 0.5j, 3.5, 3.0]
        out = integrated_log_derivative(p, square)
        assert out == pytest.approx(evaluate(p, 3.0), rel=1e-11)

    def test_contour_through_zero_rejected(self):
        p = from_roots([1.0, -1.0])
        with pytest.raises(ContourTooCloseError):
            integrated_log_derivative(p, [2.0, 0.9])

    def test_degenerate_contour_rejected(self):
        p = from_roots([1.0, -1.0])
        with pytest.raises(ValueError, match="polyline"):
            integrated_log_derivative(p, [2.0])

    def test_zero_length_segment(self):
        # a segment of length 0 is a point: its distance to a zero is
        # the plain distance, and it adds nothing to the integral
        p = from_roots([1.0, -1.0])
        with pytest.raises(ContourTooCloseError):
            integrated_log_derivative(p, [1.02, 1.02])
        assert integrated_log_derivative(p, [3.0, 3.0]) == evaluate(p, 3.0)


class TestPoissonKernel:
    def test_center_pole_is_flat(self):
        theta = np.linspace(0, 2 * np.pi, 7)
        assert np.allclose(poisson_kernel(1.0, 0.0, theta), 1.0)

    def test_pole_outside_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            poisson_kernel(1.0, 1.0, 0.0)

    def test_mean_is_one(self):
        thetas = 2 * np.pi * np.arange(512) / 512
        vals = poisson_kernel(1.0, 0.6 + 0.25j, thetas)
        assert np.mean(vals) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_three_forms_agree(self, w, theta):
        # closed form vs Herglotz real part vs geometric series
        closed = poisson_kernel(1.0, w, theta)
        z = np.exp(1j * theta)
        herglotz = ((z + w) / (z - w)).real
        q = abs(w)
        phi = np.angle(w) if w != 0 else 0.0
        ks = np.arange(1, 420)
        series = 1.0 + 2.0 * np.sum(q**ks * np.cos(ks * (theta - phi)))
        assert closed == pytest.approx(herglotz, abs=1e-12 * max(1.0, abs(closed)))
        assert closed == pytest.approx(series, abs=1e-11 * max(1.0, abs(closed)))


class TestBalayage:
    def test_atom_at_center_sweeps_flat(self):
        m = empirical_measure(np.array([0.0 + 0j]))
        d = balayage(m, 1.5)
        # kernel = R^2 / |R e^{i theta}|^2, which rounds to 1 within a ulp
        assert np.max(np.abs(d.samples - 1.0)) < 1e-15
        assert d.mean() == 1.0

    def test_roots_of_unity_series_oracle(self):
        n, R = 8, 1.5
        d = balayage(_unity_measure(n), R)
        q = (1.0 / R) ** n
        js = np.arange(1, 40)
        expected = 1.0 + 2.0 * np.sum(
            q**js[:, None] * np.cos(n * js[:, None] * d.thetas[None, :]), axis=0
        )
        assert np.max(np.abs(d.samples - expected)) < 1e-12

    def test_mass_preserved(self):
        rng = np.random.default_rng(2)
        pts = 0.8 * np.sqrt(rng.uniform(0, 1, 17)) * np.exp(2j * np.pi * rng.uniform(0, 1, 17))
        d = balayage(empirical_measure(pts), 1.25)
        assert d.mean() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "atoms, N",
        [(1, None), (5, None), (127, None), (300, None), (300, 19201), (117, 12345)],
    )
    def test_direct_route_matches_reference_sums(self, atoms, N):
        # the direct route runs in blocks of nodes; its samples equal bit for
        # bit those of kernel matrices of 8192 nodes each (a block size that
        # does not divide 8192, or a partial last block, lets the
        # matrix-vector product sum some rows differently: 19201 nodes are
        # 300 blocks of 64 plus one, 12345 are 96 blocks of 128 plus 57),
        # and match one kernel sum over all nodes at once
        rng = np.random.default_rng(atoms)
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, atoms)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, atoms)
        )
        m, R = empirical_measure(pts), 1.1
        d = balayage(m, R, N)
        numer = R * R - np.abs(pts) ** 2

        def kernel_sums(th):
            return (
                numer[None, :] / np.abs(R * np.exp(1j * th)[:, None] - pts[None, :]) ** 2
            ) @ m.weights

        chunked = np.concatenate(
            [kernel_sums(th) for th in np.split(d.thetas, range(8192, d.thetas.size, 8192))]
        )
        assert d.samples.tobytes() == chunked.tobytes()
        one_shot = kernel_sums(d.thetas)
        assert np.max(np.abs(d.samples - one_shot)) <= 1e-14 * np.max(np.abs(one_shot))

    def test_more_atoms_than_a_block_holds(self):
        # 2**15 + 1 atoms leave no room for even one node per 2**15 entries;
        # the block still has its minimum of 16 nodes
        rng = np.random.default_rng(15)
        pts = 0.01 * np.sqrt(rng.uniform(0, 1, 2**15 + 1)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 2**15 + 1)
        )
        d = balayage(empirical_measure(pts), 1.0, N=64)
        assert d.samples.size == 64
        assert np.max(np.abs(d.samples - 1.0)) < 0.03

    def test_atom_hugging_circle_rejected(self):
        m = empirical_measure(np.array([1.4999985 + 0j]))
        with pytest.raises(AtomCollisionError):
            balayage(m, 1.5)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            balayage(empirical_measure(np.array([0j])), 0.9)

    def test_circle_density_validation(self):
        with pytest.raises(ValueError):
            CircleDensity(1.0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            CircleDensity(0.5, np.ones(8))


class TestCircleFourier:
    def test_k0_gives_minus_log_r(self):
        coeff = circle_fourier_coeff(_unity_measure(8), 1.5, 0)
        assert coeff == pytest.approx(-math.log(1.5), abs=1e-12)

    def test_k2_quarter_square_far_branch(self):
        w = 0.5 + 0.3j  # 0.42 inside: quadrature branch
        m = empirical_measure(np.array([w]))
        coeff = circle_fourier_coeff(m, 1.0, 2)
        assert coeff == pytest.approx(w * w / 4.0, abs=1e-10)

    def test_k2_quarter_square_near_branch(self):
        w = 0.96 * np.exp(0.4j)  # within 0.05 of the circle: closed form
        m = empirical_measure(np.array([w]))
        coeff = circle_fourier_coeff(m, 1.0, 2)
        assert coeff == pytest.approx(w * w / 4.0, abs=1e-14)

    def test_atoms_on_circle_exact(self):
        coeff = circle_fourier_coeff(_unity_measure(8), 1.0, 2)
        assert abs(coeff) < 1e-15  # E eta^2 vanishes over the 8th roots

    def test_moment_recovery_at_larger_radius(self):
        rng = np.random.default_rng(8)
        pts = 0.7 * np.exp(2j * np.pi * rng.uniform(0, 1, 9))
        m = empirical_measure(pts)
        for k in (1, 2, 3):
            expected = complex(np.mean(pts**k)) / (2 * k * 1.3**k)
            assert circle_fourier_coeff(m, 1.3, k) == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        m = _unity_measure(8)
        with pytest.raises(ValueError, match="N too small"):
            circle_fourier_coeff(m, 1.0, 100, N=128)
        with pytest.raises(ValueError):
            circle_fourier_coeff(m, 1.0, -1)
        with pytest.raises(ValueError, match="closed disk"):
            circle_fourier_coeff(empirical_measure(np.array([1.6 + 0j])), 1.5, 1)

    @pytest.mark.parametrize("w", [1.2 + 0j, 1.48j], ids=["far", "near"])
    def test_atoms_outside_unit_disk_inside_R(self, w):
        # the closed form E[eta^k] / (2 k R^k) holds for every atom with |eta| <= R
        m = empirical_measure(np.array([w]))
        for k in (1, 2, 3):
            expected = w**k / (2 * k * 1.5**k)
            assert circle_fourier_coeff(m, 1.5, k) == pytest.approx(expected, abs=1e-15)


class TestCircleFourierBatch:
    KS = [5, 0, 3, 3, 8, 1]  # unsorted, with a repeat

    @pytest.mark.parametrize(
        "pts, R",
        [
            (np.exp(2j * np.pi * np.arange(12) / 12), 1.0),  # every atom near the circle
            (0.6 * np.exp(2j * np.pi * np.arange(7) / 7 + 0.3j), 1.2),  # every atom far
            (np.array([0.2 + 0.1j, 0.97j, -0.5, 0.99 + 0j]), 1.0),  # both kinds
        ],
        ids=["near", "far", "mixed"],
    )
    def test_equals_one_index_at_a_time(self, pts, R):
        m = empirical_measure(pts)
        batch = circle_fourier_coeffs(m, R, self.KS, N=512)
        assert batch == [circle_fourier_coeff(m, R, k, N=512) for k in self.KS]

    def test_empty_ks(self):
        assert circle_fourier_coeffs(_unity_measure(8), 1.0, []) == []

    def test_validation_uses_largest_k(self):
        m = _unity_measure(8)
        # 8 * (15 + 1) = 128 nodes are enough for k = 15, 127 are not
        assert len(circle_fourier_coeffs(m, 1.0, [15, 0], N=128)) == 2
        with pytest.raises(ValueError, match="N too small"):
            circle_fourier_coeffs(m, 1.0, [0, 15, 1], N=127)
        with pytest.raises(ValueError, match="nonnegative"):
            circle_fourier_coeffs(m, 1.0, [2, -1], N=4096)
