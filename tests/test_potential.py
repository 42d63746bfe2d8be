import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendovlab.contour import winding_number, zero_pole_count
from sendovlab.families import (
    FamilyParams,
    example_circle,
    family_critical_points,
    miller_family,
    random_instances,
)
from sendovlab.measures import empirical_measure
from sendovlab.poly_core import (
    AtomCollisionError,
    CrossCheckError,
    Polynomial,
    _circle_values,
    _cosets,
    _fold,
    _horner,
    _scaled_values,
    derivative,
    evaluate,
    from_roots,
)
from sendovlab import potential
from sendovlab.potential import (
    CircleDensity,
    ContourTooCloseError,
    _hermitian_half,
    _moment_series,
    balayage,
    circle_fourier_coeffs,
    integrated_log_derivative,
    log_potential,
    poisson_kernel,
    stieltjes,
    stieltjes_derivative,
    verify_basic_identities,
)
from sendovlab.rootfind import RootSet, critical_points, zero_sets


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
        m = empirical_measure(np.array([0j, 1.0, -1j]))
        zs = np.array([0.5 + 0.5j, 2.0, 0.5j])
        scalar = np.array([log_potential(m, complex(z)) for z in zs])
        assert log_potential(m, zs).tobytes() == scalar.tobytes()
        # every kernel refuses an exact hit, in both forms
        for kernel in (log_potential, stieltjes, stieltjes_derivative):
            with pytest.raises(AtomCollisionError):
                kernel(m, np.array([2.0, 1.0]))
            with pytest.raises(AtomCollisionError):
                kernel(m, 0.0)


class TestIdentitySuite:
    def test_circle_example_residuals_at_rounding_level(self):
        inst = example_circle(16)
        zs = np.array([1.7 + 0.3j, -1.5 + 1.1j, 0.4 + 1.6j, 0.31 + 0.12j])
        zeros, crit = zero_sets([inst.f])[0], critical_points([inst.f])[0]
        rep = verify_basic_identities(inst.f, zs, zeros, crit)
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
        rep = verify_basic_identities(inst.f, zs, *zero_sets([inst.f, derivative(inst.f)]))
        assert rep.skipped == [0]
        assert rep.evaluated.tolist() == [1.7 + 0.3j]

    def test_random_instances(self):
        rng = np.random.default_rng(12)
        zs = np.array([1.8 + 0.2j, -1.4 + 1.2j, 2.1 - 0.8j])
        for _ in range(5):
            inst = random_instances(rng, 14, 1)[0]
            rep = verify_basic_identities(inst.f, zs, *zero_sets([inst.f, derivative(inst.f)]))
            assert rep.max_residual < 1e-10

    def test_requires_monic(self):
        p = Polynomial([-0.5, 0.0, 2.0])  # 2 (z - 0.5) (z + 0.5)
        with pytest.raises(ValueError, match="monic"):
            verify_basic_identities(p, [2.0], *zero_sets([p, derivative(p)]))

    def test_requires_degree_two(self):
        # a degree-1 polynomial has no critical points
        p, crit = from_roots([0.5]), RootSet(np.zeros(0), np.zeros(0), True)
        with pytest.raises(ValueError, match="degree"):
            verify_basic_identities(p, [2.0], zero_sets([p])[0], crit)

    def test_quadratic_smallest_case(self):
        f = from_roots([0.5, -0.5])
        rep = verify_basic_identities(f, [1.3 + 0.4j], *zero_sets([f, derivative(f)]))
        assert rep.max_residual < 1e-13

    def test_array_pass_matches_a_loop_over_points(self):
        # reference: the identities point by point from scalar kernel
        # calls; only the rounding of abs and log differs, so 1e-14 bounds
        # the change in a relative residual
        rng = np.random.default_rng(21)
        inst = random_instances(rng, 20, 1)[0]
        f = inst.f
        n = f.degree
        fp = derivative(f)
        fpp = fp.coeffs[1:] * np.arange(1, fp.coeffs.size)
        crit = critical_points([f])[0]
        mz, mx = empirical_measure(f.roots), empirical_measure(crit.points)
        zs = rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30)
        rep = verify_basic_identities(f, zs, zero_sets([f])[0], crit)
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
        f = example_circle(16).f
        rep = verify_basic_identities(f, zs, *zero_sets([f, derivative(f)]))
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
        zeros, crit = zero_sets([inst.f])[0], family_critical_points(params)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            zs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
            rep = verify_basic_identities(inst.f, zs, zeros, crit)
            row = rep.labels.index("stieltjes_vs_logderiv_fprime")
            assert rep.residuals[row].max() <= 1e-6

    def test_a_scalar_is_one_point(self):
        f = example_circle(16).f
        sets = zero_sets([f, derivative(f)])
        rep = verify_basic_identities(f, 1.7 + 0.3j, *sets)
        one = verify_basic_identities(f, [1.7 + 0.3j], *sets)
        assert rep.residuals.shape == (6, 1)
        assert rep.residuals.tobytes() == one.residuals.tobytes()
        assert rep.evaluated.tolist() == [1.7 + 0.3j]

    def test_points_of_more_dimensions_are_refused_by_shape(self):
        f = example_circle(16).f
        sets = zero_sets([f, derivative(f)])
        with pytest.raises(ValueError, match=r"not an array of shape \(2, 2\)"):
            verify_basic_identities(f, np.full((2, 2), 1.7 + 0.3j), *sets)


class TestIntegratedLogDerivative:
    def test_straight_segment_reaches_endpoint(self):
        p = from_roots([1.0, -1.0])
        out = integrated_log_derivative(p, [2.0, 3.0], zero_sets([p])[0])
        assert out == pytest.approx(evaluate(p, 3.0), rel=1e-9)

    def test_polyline_around_the_disk(self):
        p = from_roots([0.8, -0.3 + 0.4j, 0.1 - 0.6j])
        contour = [2.0, 2.0 + 2.0j, -2.0 + 2.0j, -2.0 - 1.0j]
        out = integrated_log_derivative(p, contour, zero_sets([p])[0])
        assert out == pytest.approx(evaluate(p, contour[-1]), rel=1e-9)

    def test_closed_loop_returns_start_value(self):
        p = from_roots([1.0, -1.0])
        theta = np.linspace(0, 2 * np.pi, 9)
        loop = (0.3 + 2.0 * np.exp(1j * theta)).tolist()  # encloses both zeros
        out = integrated_log_derivative(p, loop, zero_sets([p])[0])
        assert out == pytest.approx(evaluate(p, loop[0]), rel=1e-9)

    def test_closed_loop_in_zero_free_region(self):
        p = from_roots([1.0, -1.0])
        square = [3.0, 3.0 + 0.5j, 3.5 + 0.5j, 3.5, 3.0]
        out = integrated_log_derivative(p, square, zero_sets([p])[0])
        assert out == pytest.approx(evaluate(p, 3.0), rel=1e-11)

    def test_contour_through_zero_rejected(self):
        p = from_roots([1.0, -1.0])
        with pytest.raises(ContourTooCloseError):
            integrated_log_derivative(p, [2.0, 0.9], zero_sets([p])[0])

    def test_segment_unsettled_at_the_node_cap_rejected(self):
        # 80 long, 0.06 from both zeros: its rules would need some 10,000 nodes
        p = from_roots([1.0, -1.0])
        with pytest.raises(ContourTooCloseError, match="unsettled at 1024 nodes"):
            integrated_log_derivative(p, [-40.0 + 0.06j, 40.0 + 0.06j], zero_sets([p])[0])

    def test_degenerate_contour_rejected(self):
        p = from_roots([1.0, -1.0])
        with pytest.raises(ValueError, match="polyline"):
            integrated_log_derivative(p, [2.0], zero_sets([p])[0])

    def test_zero_length_segment(self):
        # a segment of length 0 is a point: its distance to a zero is
        # the plain distance, and it adds nothing to the integral
        p = from_roots([1.0, -1.0])
        with pytest.raises(ContourTooCloseError):
            integrated_log_derivative(p, [1.02, 1.02], zero_sets([p])[0])
        assert integrated_log_derivative(p, [3.0, 3.0], zero_sets([p])[0]) == evaluate(p, 3.0)


class TestPoissonKernel:
    def test_center_pole_is_flat(self):
        theta = np.linspace(0, 2 * np.pi, 7)
        assert np.allclose(poisson_kernel(1.0, 0.0, theta), 1.0)

    def test_pole_outside_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            poisson_kernel(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_radius_must_be_positive(self, R):
        with pytest.raises(ValueError, match="R must be positive"):
            poisson_kernel(R, 0.0, 0.0)

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


_RADIUS_CALLS = [
    pytest.param(lambda p, m, zs, cs, R: balayage(m, R, p=p), "R must be >= 1", id="balayage"),
    pytest.param(
        lambda p, m, zs, cs, R: circle_fourier_coeffs(m, R, [0, 1, 2]),
        "R must be >= 1",
        id="circle_fourier_coeffs",
    ),
    pytest.param(
        lambda p, m, zs, cs, R: CircleDensity(R, np.ones(8)), "R must be >= 1", id="density"
    ),
    pytest.param(
        lambda p, m, zs, cs, R: poisson_kernel(R, 0.0, 0.0), "R must be positive", id="poisson"
    ),
    pytest.param(
        lambda p, m, zs, cs, R: zero_pole_count(R, zs, cs), "r must be positive", id="count"
    ),
    pytest.param(lambda p, m, zs, cs, R: winding_number(p, R), "r must be positive", id="winding"),
]


@pytest.mark.parametrize("R", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call, message", _RADIUS_CALLS)
def test_non_finite_radius_is_refused(call, message, R):
    # each radius guard refuses NaN and inf with its own message, as it
    # refuses a radius below its range
    pts = [0.3, -0.2j, 0.5 + 0.1j]
    p = from_roots(pts)
    (zeros,), (crit,) = zero_sets([p]), critical_points([p])
    with pytest.raises(ValueError, match=message):
        call(p, empirical_measure(pts), zeros, crit, R)


def _swept(pts, R, N=None):
    """balayage of the uniform measure on pts, the zeros of from_roots(pts)."""
    pts = np.asarray(pts, dtype=np.complex128)
    return balayage(empirical_measure(pts), R, N, p=from_roots(pts))


class TestCircleValues:
    """poly_core._circle_values against 50-digit values of p and z p'."""

    @staticmethod
    def _oracle(p, R, N, js):
        """p and z p' at the nodes js, each divided by its largest term, and log(M'/M)."""
        with mpmath.workdps(50):
            cs = [mpmath.mpc(complex(c)) for c in p.coeffs]
            terms = [abs(c) * mpmath.mpf(R) ** k for k, c in enumerate(cs)]
            top = max(terms)
            dtop = max(k * t for k, t in enumerate(terms))
            out = []
            for j in js:
                z = mpmath.mpf(R) * mpmath.expjpi(mpmath.mpf(2 * j) / N)
                v, dv = mpmath.polyval(cs[::-1], z, derivative=True)
                out.append((complex(v / top), complex(z * dv / dtop)))
            return np.array(out).T, float(mpmath.log(dtop / top))

    @pytest.mark.parametrize(
        "degree, R, N, js",
        [
            (100, 1.3, 32, range(32)),
            (2000, 1.5, 4096, range(0, 4096, 512)),
            (1023, 0.2, 4096, range(0, 4096, 512)),
            # nodes in every coset (test_coset_count has the counts)
            (100, 1.3, 4099, range(0, 4099, 257)),  # a prime N: one transform
            (1999, 1.5, 4096, range(0, 4096, 257)),
            (999, 1.1, 4096, range(0, 4096, 257)),
            (512, 1.05, 32768, range(0, 32768, 1025)),  # kernels' origin-512
            (8, 1.2, 8192, range(0, 8192, 129)),  # a Fourier group of 8 atoms
            (1024, 1.0, 12288, range(0, 12288, 769)),  # cosets of length 3 * 2^9
        ],
    )
    def test_matches_mpmath_within_the_bound(self, degree, R, N, js):
        # degree 100 on 32 nodes folds four coefficients into each bin;
        # at degree 2000, R^d = 1.5^2000 is past the float64 range; the
        # family's f' at n = 1024 has largest term about 1e-700 on |z| = 0.2
        # (and its low coefficients flushed to 0); the scaled values are finite
        if R < 1.0:
            params = FamilyParams(n=degree + 1, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
            p = derivative(miller_family(params).f)
        else:
            rng = np.random.default_rng(degree)
            p = Polynomial(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
        pz, zdpz, shift, bound = _circle_values(p, R, N)
        js = list(js)
        (ref_p, ref_zdp), ref_shift = self._oracle(p, R, N, js)
        assert np.all(np.isfinite(pz)) and np.all(np.isfinite(zdpz))
        assert np.max(np.abs(pz[js] - ref_p)) <= bound
        assert np.max(np.abs(zdpz[js] - ref_zdp)) <= degree * bound
        assert shift == pytest.approx(ref_shift, abs=1e-12 * max(1.0, abs(ref_shift)))

    @pytest.mark.parametrize(
        "w, N, cosets",
        [
            (513, 32768, 32),
            (9, 8192, 64),
            (49, 1024, 16),
            (1025, 12288, 8),
            (2000, 4096, 2),
            (1000, 4096, 4),
            (101, 4099, 1),
            (2, 1048573, 1),  # a prime near 2^20
            (600, 1024, 1),  # w > N / 2
            (101, 32, 1),  # w > N: folded
        ],
    )
    def test_coset_count(self, w, N, cosets):
        assert _cosets(w, N) == cosets
        L = N // cosets
        assert L >= w or cosets == 1
        # no divisor of N below L reaches max(w, ceil(sqrt N))
        assert not any(N % d == 0 for d in range(max(w, math.isqrt(N - 1) + 1), L))

    @pytest.mark.parametrize("w, N", [(101, 4099), (600, 1024), (101, 32)])
    def test_one_coset_is_the_folded_transform_bit_for_bit(self, w, N):
        # at R = 1, rows whose largest entry is exactly 1 scale to themselves
        rng = np.random.default_rng(w)
        rows = rng.uniform(-0.5, 0.5, (2, w)) + 1j * rng.uniform(-0.5, 0.5, (2, w))
        rows[:, 0] = 1.0
        assert _cosets(w, N) == 1
        values, logs, _ = _scaled_values(rows, 1.0, N)
        assert logs == [0.0, 0.0]
        assert values.tobytes() == np.fft.ifft(_fold(rows, N), norm="forward").tobytes()

    def test_bound_is_eps_log2_n_times_the_coefficient_sum(self):
        # terms |c_k| 2^k are 2, 2, 0, 24: the largest divides the sum, and log2(16) = 4
        p = Polynomial(np.array([2.0, -1.0j, 0.0, 3.0]))
        _, _, shift, bound = _circle_values(p, 2.0, 16)
        assert bound == pytest.approx(np.finfo(float).eps * 4 * 28.0 / 24.0, rel=1e-15)
        assert shift == pytest.approx(math.log(72.0 / 24.0), rel=1e-15)

    @pytest.mark.parametrize("width", [1, 9, 16])
    def test_fold_keeps_the_bits_of_the_block_sum(self, width):
        # a row no longer than N is padded, not summed: the same bits, signed zeros included
        rows = np.array([[-0.0, 1.5 - 0.0j, -2.0j] * 6, [0.25, -0.0, 3.0] * 6])[:, :width]
        padded = np.pad(rows, [(0, 0), (0, 16 - width)])
        assert _fold(rows, 16).tobytes() == padded.reshape(2, -1, 16).sum(axis=1).tobytes()


class TestBalayage:
    def test_atom_at_center_sweeps_flat(self):
        d = _swept([0j], 1.5)
        # p(z) = z, so z p'(z) / p(z) is exactly 1 at every node
        assert np.max(np.abs(d.samples - 1.0)) < 1e-15
        assert d.mean() == 1.0

    def test_roots_of_unity_series_oracle(self):
        n, R = 8, 1.5
        d = _swept(np.exp(2j * np.pi * np.arange(n) / n), R)
        q = (1.0 / R) ** n
        js = np.arange(1, 40)
        expected = 1.0 + 2.0 * np.sum(
            q**js[:, None] * np.cos(n * js[:, None] * d.thetas[None, :]), axis=0
        )
        assert np.max(np.abs(d.samples - expected)) < 1e-12

    def test_mass_preserved(self):
        rng = np.random.default_rng(2)
        pts = 0.8 * np.sqrt(rng.uniform(0, 1, 17)) * np.exp(2j * np.pi * rng.uniform(0, 1, 17))
        d = _swept(pts, 1.25)
        assert d.mean() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "atoms, N, radius, refused",
        [
            pytest.param(1, None, 0.9, False, id="1-None"),
            pytest.param(5, None, 0.9, False, id="5-None"),
            # a hundred or more random atoms in |z| < 0.9 expand to
            # coefficients that lose digits on |z| = 1.1: the coefficient
            # route misses the kernel sum by 2.6e-10 to 1.4e-9 of the
            # largest sample here, past the 1e-10 cross-check, and the
            # conditioning guard refuses them first
            pytest.param(127, None, 0.9, True, id="127-None"),
            pytest.param(300, None, 0.9, True, id="300-None"),
            pytest.param(300, 19201, 0.9, True, id="300-19201"),
            pytest.param(117, 12345, 0.9, True, id="117-12345"),
            pytest.param(127, None, 0.3, False, id="127-None-inner"),
            pytest.param(300, None, 0.3, False, id="300-None-inner"),
            pytest.param(300, 19201, 0.3, False, id="300-19201-inner"),
            pytest.param(117, 12345, 0.3, False, id="117-12345-inner"),
        ],
    )
    def test_direct_route_matches_reference_sums(self, atoms, N, radius, refused):
        # the returned coefficient route against the Poisson kernel summed
        # over every atom at every node at once, on default and odd node
        # counts
        rng = np.random.default_rng(atoms)
        pts = radius * np.sqrt(rng.uniform(0, 1, atoms)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, atoms)
        )
        R = 1.1
        if refused:
            with pytest.raises(AtomCollisionError, match="ill-conditioned"):
                _swept(pts, R, N)
            return
        d = _swept(pts, R, N)
        z = R * np.exp(1j * d.thetas)
        kernel = (R * R - np.abs(pts) ** 2) / np.abs(z[:, None] - pts) ** 2
        one_shot = kernel @ np.full(atoms, 1.0 / atoms)
        assert np.max(np.abs(d.samples - one_shot)) <= 1e-13 * np.max(np.abs(one_shot))

    def test_more_atoms_than_a_block_holds(self):
        # 2**15 + 1 atoms on 64 nodes: the coefficients fold k mod 64, exact
        # on the nodes.  p is multiplied out by a product tree, which for
        # atoms this small gives from_roots' coefficients within 2e-15 in a
        # fraction of from_roots' time
        n = 2**15 + 1
        rng = np.random.default_rng(15)
        pts = 0.01 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        factors = [np.array([-r, 1.0]) for r in pts]
        while len(factors) > 1:
            pairs = zip(factors[::2], factors[1::2])
            factors = [np.convolve(a, b) for a, b in pairs] + factors[len(factors) // 2 * 2 :]
        d = balayage(empirical_measure(pts), 1.0, N=64, p=Polynomial(factors[0]))
        z = np.exp(1j * d.thetas)
        one_shot = np.mean((1.0 - np.abs(pts) ** 2) / np.abs(z[:, None] - pts) ** 2, axis=1)
        assert d.samples.size == 64
        assert np.max(np.abs(d.samples - 1.0)) < 0.03
        assert np.max(np.abs(d.samples - one_shot)) <= 1e-13 * np.max(one_shot)

    def test_moment_series_matches_the_power_loop(self):
        # the blocked powers against one numpy op per term, as the series
        # was once summed: 150 terms are two whole blocks of 64 and a
        # partial one, folded onto 64 bins
        rng = np.random.default_rng(9)
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, 23)) * np.exp(2j * np.pi * rng.uniform(0, 1, 23))
        m, R, terms, N = empirical_measure(pts), 1.1, 150, 64
        ref = np.zeros(N, dtype=np.complex128)
        power, scale = np.ones_like(m.points), 1.0
        for k in range(1, terms + 1):
            power = power * m.points
            scale /= R
            ref[k % N] += scale * np.sum(m.weights * power)
        got = _moment_series(m, R, terms, N)
        assert np.max(np.abs(got - ref)) <= terms * np.finfo(float).eps

    @pytest.mark.parametrize("N", [16, 17, 19201])
    def test_half_length_transform_is_the_real_part_of_the_fft(self, N):
        # a random vector and the moments of 12 atoms, one at 0.9995, folded
        # from 3N + 5 terms: every entry is nonzero, the first included
        rng = np.random.default_rng(N)
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, 12)) * np.exp(2j * np.pi * rng.uniform(0, 1, 12))
        pts[0] = 0.9995j
        folded = _moment_series(empirical_measure(pts), 1.0, 3 * N + 5, N)
        for moments in (rng.standard_normal(N) + 1j * rng.standard_normal(N), folded):
            assert np.all(moments != 0)
            ref = 2.0 * np.fft.fft(moments).real
            got = np.fft.irfft(_hermitian_half(moments), n=N, norm="forward")
            assert got.shape == (N,)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [64, 67])
    def test_series_longer_than_the_nodes(self, N, monkeypatch):
        # an atom at 0.7 R needs 95 terms to fall below 1e-14, folded onto
        # N nodes; q^N is below 1.2e-10, so the sweep still averages to 1
        terms = []

        def spy(m, R, n_terms, n_nodes):
            terms.append(n_terms)
            return _moment_series(m, R, n_terms, n_nodes)

        monkeypatch.setattr(potential, "_moment_series", spy)
        rng = np.random.default_rng(N)
        pts = 0.7 * np.sqrt(rng.uniform(0, 1, 9)) * np.exp(2j * np.pi * rng.uniform(0, 1, 9))
        pts[0] = 0.77
        d = _swept(pts, 1.1, N)
        assert terms == [95] and terms[0] > N
        z = 1.1 * np.exp(1j * d.thetas)
        one_shot = np.mean((1.1**2 - np.abs(pts) ** 2) / np.abs(z[:, None] - pts) ** 2, axis=1)
        assert np.max(np.abs(d.samples - one_shot)) <= 1e-13 * np.max(one_shot)
        moved = pts.copy()
        moved[3] += 1e-6
        with pytest.raises(CrossCheckError, match="cross-check"):
            balayage(empirical_measure(moved), 1.1, N, p=from_roots(pts))

    def test_samples_are_kept_uncopied(self, monkeypatch):
        # balayage hands CircleDensity a read-only array, which it keeps
        made = []

        class Spy(CircleDensity):
            def __post_init__(self):
                made.append(self.samples)
                super().__post_init__()

        monkeypatch.setattr(potential, "CircleDensity", Spy)
        d = _swept([0.5, -0.25j, 0.1 + 0.3j], 1.2)
        assert d.samples is made[0] and not d.samples.flags.writeable

    def test_routes_do_not_share_the_roots(self):
        # the density comes from p's coefficients and the cross-check from
        # m's atoms: moving one atom and keeping p must fail the cross-check
        rng = np.random.default_rng(7)
        pts = 0.8 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
        moved = pts.copy()
        moved[3] += 1e-6
        with pytest.raises(CrossCheckError, match="cross-check"):
            balayage(empirical_measure(moved), 1.2, p=from_roots(pts))

    def test_ill_conditioned_polynomial_rejected(self):
        # (z - 0.9)^30 on |z| = 1: sum |c_k| = 1.9^30 against min |p| = 0.1^30
        pts = np.full(30, 0.9 + 0j)
        with pytest.raises(AtomCollisionError, match="ill-conditioned"):
            _swept(pts, 1.0)

    def test_p_must_match_the_measure(self):
        pts = np.array([0.1, -0.2j, 0.3])
        with pytest.raises(ValueError, match="degree"):
            balayage(empirical_measure(pts), 1.5, p=from_roots(pts[:2]))

    def test_atom_hugging_circle_rejected(self):
        with pytest.raises(AtomCollisionError):
            _swept([1.4999985 + 0j], 1.5)
        with pytest.raises(AtomCollisionError, match="strictly inside"):
            _swept([0.5, 1.5j], 1.5)

    def test_fewer_than_16_nodes_rejected(self):
        with pytest.raises(ValueError, match="N too small"):
            _swept([0.5, -0.5j], 1.0, N=8)

    def test_series_past_the_term_cap_refused(self, monkeypatch):
        # one atom at 1 on |z| = 1.0001 needs 414,489 terms of the moment
        # series to fall below 1e-14, past the cap of 200,000; the sweep is
        # refused before p is evaluated on the circle
        evaluated = []
        monkeypatch.setattr(potential, "_circle_values", lambda *args: evaluated.append(args))
        with pytest.raises(AtomCollisionError, match="needs 414489 terms"):
            _swept([1.0 + 0j], 1.0001)
        assert evaluated == []

    def test_series_under_the_term_cap_resolves(self):
        # on |z| = 1.00025 the same atom needs about 162,000 terms
        d = _swept([1.0 + 0j], 1.00025)
        assert d.mean() == pytest.approx(1.0, abs=1e-10)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            _swept([0j], 0.9)

    def test_circle_density_validation(self):
        with pytest.raises(ValueError):
            CircleDensity(1.0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            CircleDensity(0.5, np.ones(8))


def _log_distance_quadrature(m, R, ks, N):
    """The coefficients by the log-distance quadrature over the roots.

    Near atoms by the closed form, the far atoms' potential on the N
    nodes from the log distances to them, summed in blocks of nodes.
    """
    near = (R - np.abs(m.points)) < potential.NEAR_CIRCLE
    wn, pn = m.weights[near], m.points[near]
    wf, pf = m.weights[~near], m.points[~near]
    z = R * np.exp(2j * np.pi * np.arange(N) / N)
    u = np.concatenate(
        [-(np.log(np.abs(z[lo : lo + 1024, None] - pf)) @ wf) for lo in range(0, N, 1024)]
    )
    coeffs = np.fft.ifft(u)
    out = []
    for k in ks:
        closed = -math.log(R) * np.sum(wn) if k == 0 else np.sum(wn * pn**k) / (2 * k * R**k)
        out.append(complex(closed) + complex(coeffs[k]))
    return out


class TestCircleFourier:
    def test_k0_gives_minus_log_r(self):
        coeff = circle_fourier_coeffs(_unity_measure(8), 1.5, [0])[0]
        assert coeff == pytest.approx(-math.log(1.5), abs=1e-12)

    def test_k2_quarter_square_far_branch(self):
        w = 0.5 + 0.3j  # 0.42 inside: quadrature branch
        m = empirical_measure(np.array([w]))
        coeff = circle_fourier_coeffs(m, 1.0, [2])[0]
        assert coeff == pytest.approx(w * w / 4.0, abs=1e-10)

    def test_k2_quarter_square_near_branch(self):
        w = 0.96 * np.exp(0.4j)  # within 0.05 of the circle: closed form
        m = empirical_measure(np.array([w]))
        coeff = circle_fourier_coeffs(m, 1.0, [2])[0]
        assert coeff == pytest.approx(w * w / 4.0, abs=1e-14)

    def test_atoms_on_circle_exact(self):
        coeff = circle_fourier_coeffs(_unity_measure(8), 1.0, [2])[0]
        assert abs(coeff) < 1e-15  # E eta^2 vanishes over the 8th roots

    def test_moment_recovery_at_larger_radius(self):
        rng = np.random.default_rng(8)
        pts = 0.7 * np.exp(2j * np.pi * rng.uniform(0, 1, 9))
        m = empirical_measure(pts)
        for k in (1, 2, 3):
            expected = complex(np.mean(pts**k)) / (2 * k * 1.3**k)
            assert circle_fourier_coeffs(m, 1.3, [k])[0] == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        m = _unity_measure(8)
        with pytest.raises(ValueError, match="N too small"):
            circle_fourier_coeffs(m, 1.0, [100], N=128)
        with pytest.raises(ValueError):
            circle_fourier_coeffs(m, 1.0, [-1])
        with pytest.raises(ValueError, match="closed disk"):
            circle_fourier_coeffs(empirical_measure(np.array([1.6 + 0j])), 1.5, [1])
        with pytest.raises(ValueError, match="R must be >= 1"):
            circle_fourier_coeffs(empirical_measure(np.array([0.5 + 0j])), 0.9, [1])

    @pytest.mark.parametrize("w", [1.2 + 0j, 1.48j], ids=["far", "near"])
    def test_atoms_outside_unit_disk_inside_R(self, w):
        # the closed form E[eta^k] / (2 k R^k) holds for every atom with |eta| <= R
        m = empirical_measure(np.array([w]))
        for k in (1, 2, 3):
            expected = w**k / (2 * k * 1.5**k)
            assert circle_fourier_coeffs(m, 1.5, [k])[0] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("N", [4096, 65536])
    @pytest.mark.parametrize(
        "source, n, R",
        [
            *[("random", n, R) for n in (64, 256) for R in (1.0, 1.02, 1.2)],
            ("miller", 64, 1.1),
            ("miller", 256, 1.1),
        ],
    )
    def test_coefficient_route_matches_the_log_distance_quadrature(self, source, n, R, N):
        # -(1/n) sum_g log|q_g| from the coefficients of the far atoms'
        # groups against the sum of log distances to the roots, on the same nodes
        if source == "random":
            zeros = random_instances(np.random.default_rng(0), n, 1)[0].f.roots
        else:
            params = FamilyParams(n=n, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
            zeros = zero_sets([miller_family(params).f])[0].points
        m = empirical_measure(zeros)
        ks = range(17)
        ours = circle_fourier_coeffs(m, R, ks, N)
        theirs = _log_distance_quadrature(m, R, ks, N)
        assert max(abs(a - b) for a, b in zip(ours, theirs)) <= 1e-15
        closed = [-math.log(R), *(complex(np.mean(zeros**k)) / (2 * k * R**k) for k in ks[1:])]
        assert max(abs(a - b) for a, b in zip(ours, closed)) <= 1e-15

    @pytest.mark.parametrize("R", [1.0, 1.2], ids=["near-and-far", "all-far"])
    def test_memory_is_linear_in_the_nodes(self, R):
        # degree 256 on 65,536 nodes: the (N x atoms) log-distance matrix
        # alone would take 128 MB
        m = empirical_measure(random_instances(np.random.default_rng(256), 256, 1)[0].f.roots)
        tracemalloc.start()
        try:
            circle_fourier_coeffs(m, R, range(17), 65536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_ill_conditioned_group_refused(self):
        # 8 atoms 0.06 inside the unit circle within 0.01 radians: their
        # polynomial, about (z - 0.94)^8, has terms near 1.94^8 = 200 and
        # falls to 0.06^8 = 1.7e-10 on the circle, so a rounding of 2e-16
        # in the terms is 2.6e-4 of its value there
        pts = 0.94 * np.exp(1j * np.linspace(0.0, 0.01, 8))
        with pytest.raises(AtomCollisionError, match="ill-conditioned"):
            circle_fourier_coeffs(empirical_measure(pts), 1.0, [1])
        # spread round the circle, the same 8 atoms resolve
        pts = 0.94 * np.exp(2j * np.pi * np.arange(8) / 8)
        coeff = circle_fourier_coeffs(empirical_measure(pts), 1.0, [8])[0]
        assert coeff == pytest.approx(0.94**8 / 16.0, abs=1e-15)

    def test_random_degree_256_near_the_unit_circle_resolves(self):
        # multiplied out whole, the far atoms' polynomial loses up to 9
        # digits here, and its rounding bound passes 1e-10 at 11 of these 40
        # (seed 7 at R = 1 among them: a far atom 0.0502 inside the circle);
        # in groups none is refused
        for seed in range(20):
            m = empirical_measure(random_instances(np.random.default_rng(seed), 256, 1)[0].f.roots)
            for R in (1.0, 1.02):
                ours = circle_fourier_coeffs(m, R, range(17))
                theirs = _log_distance_quadrature(m, R, range(17), 4096)
                assert max(abs(a - b) for a, b in zip(ours, theirs)) <= 1e-14


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
        assert batch == [circle_fourier_coeffs(m, R, [k], N=512)[0] for k in self.KS]

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
