import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import match_max_distance
from sendovlab.families import (
    FamilyParams,
    _binomial_shift_coeffs,
    example_circle,
    example_origin,
    family_critical_points,
    family_zeros,
    miller_family,
    origin_derivative,
    predicted_zero_shift,
    predicted_zeros,
    random_instances,
    verify_family,
)
from sendovlab.measures import empirical_measure, moment, summary
from sendovlab.poly_core import derivative, evaluate
from sendovlab.potential import circle_fourier_coeffs
from sendovlab.rootfind import certified, critical_points, find_roots, zero_sets
from sendovlab.sendov_check import sendov_margin

ARC_LAMBDA = np.exp(1j * np.pi / 3)  # |lam| = 1 and |lam - 1| = 1: on the arc


class TestExamples:
    def test_circle_margins_exactly_zero(self):
        for n in (16, 64):
            inst = example_circle(n)
            rep = sendov_margin(*zero_sets([inst.f, derivative(inst.f)]))
            assert np.max(np.abs(rep.margins)) < 1e-12

    def test_origin_critical_radius(self):
        for n in (16, 64):
            inst = example_origin(n)
            crit = critical_points([inst.f])[0]
            expected = n ** (-1.0 / (n - 1))
            assert np.max(np.abs(np.abs(crit.points) - expected)) < 1e-10

    @pytest.mark.parametrize("n", [*range(2, 65), 512, 4096, 8192, 16384])
    def test_origin_closed_form_critical_points_certified(self, n):
        p = origin_derivative(n)
        assert p.coeffs.tobytes() == derivative(example_origin(n).f).coeffs.tobytes()
        crit = certified(zero_sets([p])[0], "critical point")
        assert crit.points is p.roots and crit.iterations == 0
        assert np.max(np.abs(np.abs(crit.points) - n ** (-1.0 / (n - 1)))) < 1e-15

    def test_origin_zero_sets_certified_in_linear_memory(self):
        # z^n - z and its f' have two nonzero terms each; the Newton pass
        # reads only their live Horner blocks, 2 of 128 at this degree.
        # Gathering every block for the 32,767 roots would take over 200 MB.
        n = 16384
        polys = [example_origin(n).f, origin_derivative(n)]
        tracemalloc.start()
        try:
            sets = zero_sets(polys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for p, rs, what in zip(polys, sets, ("zero", "critical point")):
            assert certified(rs, what).points is p.roots
        assert peak < 32e6

    def test_validation(self):
        with pytest.raises(ValueError):
            example_circle(1)
        with pytest.raises(ValueError):
            example_origin(1)
        with pytest.raises(ValueError):
            origin_derivative(1)


class TestFamilyParams:
    def test_a_value(self):
        params = FamilyParams(n=64, c1=1.0, c2=2.0, lambdas=np.array([]))
        assert params.a == 1.0 - 1.0 / 64.0
        assert params.m == 0

    def test_orderings_enforced(self):
        with pytest.raises(ValueError, match="c1"):
            FamilyParams(n=8, c1=2.0, c2=1.0, lambdas=np.array([]))
        with pytest.raises(ValueError, match="c1"):
            FamilyParams(n=8, c1=0.0, c2=1.0, lambdas=np.array([]))

    def test_lambda_constraints(self):
        with pytest.raises(ValueError, match="unit disk"):
            FamilyParams(n=8, c1=1.0, c2=1.0, lambdas=np.array([1.5 + 0j]))
        with pytest.raises(ValueError, match="avoid"):
            # strictly inside D(1, 1): within distance 1 of the point 1
            FamilyParams(n=8, c1=1.0, c2=1.0, lambdas=np.array([0.7 + 0j]))
        with pytest.raises(ValueError, match="distinct"):
            FamilyParams(n=8, c1=1.0, c2=1.0, lambdas=np.array([0.3j, 0.3j]))
        with pytest.raises(ValueError, match="fewer"):
            FamilyParams(n=2, c1=1.0, c2=1.0, lambdas=np.array([0.3j, -0.3j]))

    @pytest.mark.parametrize("lambdas", [[[0.3 + 0.8j]], [[0.3 + 0.8j], [-0.5 + 0.1j]]])
    def test_lambdas_must_be_one_dimensional(self, lambdas):
        with pytest.raises(ValueError, match="lambdas must be one-dimensional"):
            FamilyParams(n=8, c1=1.0, c2=1.0, lambdas=lambdas)


class TestMillerFamily:
    def test_member_is_monic_with_zero_at_a(self):
        params = FamilyParams(n=64, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        inst = miller_family(params)
        assert inst.n == 64
        assert inst.a == params.a
        assert inst.f.monic
        assert abs(evaluate(inst.f, inst.a)) < 1e-12

    def test_m_zero_member_is_shifted_binomial(self):
        # f = (z + c2/n)^n - (a + c2/n)^n
        params = FamilyParams(n=16, c1=1.0, c2=1.0, lambdas=np.array([]))
        inst = miller_family(params)
        w = 1.0 / 16.0
        for z in (0.3 + 0.2j, -0.5, 1.1j):
            direct = (z + w) ** 16 - (params.a + w) ** 16
            assert evaluate(inst.f, z) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("nm", [1, 2, 63, 191, 1100])
    @pytest.mark.parametrize("c2", [1.0, 2.0, 3.5])
    def test_binomial_recurrence_matches_the_per_k_formula(self, nm, c2):
        # C(1100, 550) ~ 1e329 takes the log-space branch
        s = c2 / (nm + 1)
        expected = np.empty(nm + 1)
        for k in range(nm + 1):
            j = nm - k
            try:
                expected[k] = float(math.comb(nm, k)) * s**j
            except OverflowError:
                expected[k] = math.exp(
                    math.lgamma(nm + 1) - math.lgamma(k + 1) - math.lgamma(j + 1)
                    + j * math.log(s)
                )
        assert _binomial_shift_coeffs(nm, s).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "n, c2, lambdas",
        [(400, 1e6, [0.3 + 0.8j]), (100, 1e6, []), (100, 120840.0, [])],
        ids=["coefficients", "m-zero", "constant-only"],
    )
    def test_overflowing_binomial_is_refused(self, n, c2, lambdas):
        # at c2 = 120840 and n = 100 each coefficient fits a float, but
        # (a + c2/n)**n does not
        params = FamilyParams(n=n, c1=1.0, c2=c2, lambdas=np.array(lambdas, dtype=complex))
        with pytest.raises(ValueError, match=r"\(z \+ c2/n\)\*\*\(n-m\) overflows"):
            miller_family(params)

    def test_zeros_stay_order_one_over_n_outside(self):
        params = FamilyParams(n=128, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        rs = find_roots(miller_family(params).f)
        assert rs.converged
        assert np.max(np.abs(rs.points)) < 1.0 + 6.0 / 128.0
        assert np.max(np.abs(rs.points)) > 1.0  # genuinely outside the disk


class TestFamilyCriticalPoints:
    def test_fat_root_is_exact(self):
        params = FamilyParams(n=32, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        crit = family_critical_points(params)
        assert len(crit) == 31
        fat = crit.points[np.abs(crit.points + 2.0 / 32.0) < 1e-14]
        assert fat.size == 30  # n - m - 1 copies, residual 0
        assert np.all(crit.residuals[: fat.size] == 0.0)

    def test_all_points_kill_the_derivative(self):
        params = FamilyParams(n=32, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        inst = miller_family(params)
        fp = derivative(inst.f)
        crit = family_critical_points(params)
        simple = crit.points[np.abs(crit.points + 2.0 / 32.0) >= 1e-14]
        scale = np.sum(np.abs(fp.coeffs))
        for z in simple:
            assert abs(evaluate(fp, complex(z))) <= 1e-10 * scale

    def test_matches_generic_solver_on_simple_part(self):
        params = FamilyParams(n=16, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        inst = miller_family(params)
        analytic = family_critical_points(params)
        generic = find_roots(derivative(inst.f))
        # the fat multiple root scatters in the generic solve; compare
        # only the simple bracket root (farthest from -c2/n)
        target = analytic.points[np.argmax(np.abs(analytic.points + 2.0 / 16.0))]
        nearest = generic.points[np.argmin(np.abs(generic.points - target))]
        assert abs(nearest - target) < 1e-8


class TestPredictedZeroShift:
    def test_constant_profile_when_m_zero(self):
        params = FamilyParams(n=32, c1=1.0, c2=2.5, lambdas=np.array([]))
        assert predicted_zero_shift(params, 0.7) == pytest.approx(1.5)
        out = predicted_zero_shift(params, np.array([0.0, 1.0]))
        assert np.allclose(out, 1.5)

    def test_arc_lambda_profile(self):
        params = FamilyParams(n=32, c1=1.0, c2=1.0, lambdas=np.array([ARC_LAMBDA]))
        # at theta = arg(lambda) the denominator |e^{i theta} - lam| -> 0+
        near = predicted_zero_shift(params, np.pi / 3 + 1e-6)
        far = predicted_zero_shift(params, np.pi / 3 + np.pi)
        assert near > far


class TestPredictedZeros:
    def test_arc_pair_falls_back_to_the_newton_polygon(self):
        # lambda_j on the unit circle: two of the predicted starts would
        # coincide (separation 3.5e-16), and the solve from them fails
        params = FamilyParams(
            n=64, c1=1.0, c2=1.0, lambdas=np.array([ARC_LAMBDA, np.conj(ARC_LAMBDA)])
        )
        assert predicted_zeros(params) is None
        assert certified(family_zeros(params, miller_family(params).f)).converged

    def test_zero_at_a_falls_back_to_the_newton_polygon(self):
        # c1 = n puts a at 0 = lambda_1, so C = 0 and f has a root at 0
        params = FamilyParams(n=8, c1=8.0, c2=8.0, lambdas=np.array([0.0]))
        assert predicted_zeros(params) is None
        zeros = certified(family_zeros(params, miller_family(params).f))
        assert np.count_nonzero(zeros.points == 0) == 1

    def test_zero_at_a_refuses_the_radial_law(self):
        # log|P(a)| is -inf: the per-zero identity would be 0/0 at z = a
        params = FamilyParams(n=8, c1=8.0, c2=8.0, lambdas=np.array([0.0]))
        with pytest.raises(ValueError, match="P\\(a\\) = 0"):
            verify_family(params, theta_grid=16)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("lambdas", [[], [0.3 + 0.8j], [0.3 + 0.8j, -0.5 + 0.5j]])
    def test_polished_starts_are_the_certified_zeros(self, n, lambdas):
        params = FamilyParams(n=n, c1=1.0, c2=2.0, lambdas=np.array(lambdas, dtype=complex))
        z = predicted_zeros(params)
        zeros = certified(family_zeros(params, miller_family(params).f))
        assert zeros.iterations == 1
        assert match_max_distance(z, zeros.points) < 1e-14

    @pytest.mark.parametrize(
        "n, lambdas",
        [
            (n, lambdas)
            for n in (2, 3, 8)
            for lambdas in ([], [0.3 + 0.8j], [ARC_LAMBDA, np.conj(ARC_LAMBDA)])
            if len(lambdas) < n
        ],
    )
    def test_small_degrees_give_separated_starts_or_none(self, n, lambdas):
        params = FamilyParams(n=n, c1=1.0, c2=2.0, lambdas=np.array(lambdas, dtype=complex))
        z = predicted_zeros(params)
        if z is not None:
            assert z.shape == (n,) and np.all(np.isfinite(z))
            theta = np.angle(z + params.c2 / n)
            apart = np.abs(np.angle(np.exp(1j * (theta[:, None] - theta[None, :]))))
            assert apart[~np.eye(n, dtype=bool)].min() >= 0.5 * np.pi / n
        assert certified(family_zeros(params, miller_family(params).f)).converged

    def test_linear_memory(self):
        # the separation check sorts the angles: no n x n array at n = 65,536
        params = FamilyParams(n=1 << 16, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        tracemalloc.start()
        try:
            z = predicted_zeros(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z is not None and z.size == params.n
        assert peak < 16 * 16 * params.n


class TestVerifyFamily:
    def test_reference_member(self):
        params = FamilyParams(n=64, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        rep = verify_family(params, theta_grid=512)
        assert rep.ten_residuals.max() < 1e-9
        assert rep.zero_radius_residuals.max() < 4.0
        assert params.n * rep.t_prediction_errors.max() < 20.0
        assert rep.arc_argument_ok
        assert rep.fine["sigma2"] > 0
        assert rep.fine["one_minus_a"] == pytest.approx(1.0 / 64.0)

    @pytest.mark.parametrize("n", [512, 1024, 4096])
    def test_large_degree_member(self, n):
        # the degrees where the paper's asymptotics matter
        params = FamilyParams(n=n, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        rep = verify_family(params, theta_grid=512)
        assert rep.ten_residuals.max() < 1e-9
        assert params.n * rep.t_prediction_errors.max() < 20.0
        if n == 4096:
            zeros = family_zeros(params, miller_family(params).f)
            assert zeros.converged and zeros.iterations == 1

    def test_arc_lambda_mean_obstruction(self):
        # mean of the profile t - c2 cos over theta equals
        # sum_j log|1 - lambda_j| + (c2 - c1) = 0 for this member, yet a
        # counterexample needs the profile <= 0 everywhere
        # the discrete grid mean picks up O(log N / N) from the on-circle
        # log singularity: exactly -log|lam^N - 1|/N, ~1.3e-4 at N = 4096
        params = FamilyParams(n=64, c1=1.0, c2=1.0, lambdas=np.array([ARC_LAMBDA]))
        rep = verify_family(params, theta_grid=4096)
        assert rep.lamin_values.mean() == pytest.approx(0.0, abs=1e-3)
        assert rep.lamin_values.max() > 0.1
        assert rep.arc_argument_ok

    def test_second_moment_inequality_on_arc(self):
        params = FamilyParams(
            n=64,
            c1=1.0,
            c2=1.0,
            lambdas=np.array([ARC_LAMBDA, np.conj(ARC_LAMBDA)]),
        )
        rep = verify_family(params, theta_grid=256)
        assert rep.sum_lambda_sq.real <= -0.5 * rep.sum_abs_lambda_sq + 1e-12


class TestSecondMoment:
    # E xi^2 of the critical measure is 4 times the k = 2 Fourier
    # coefficient of its potential on the unit circle
    def test_fourier_route_matches_direct(self):
        params = FamilyParams(n=32, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        mx = empirical_measure(family_critical_points(params).points)
        assert abs(moment(mx, 2) - 4.0 * circle_fourier_coeffs(mx, 1.0, [2])[0]) < 1e-8
        assert summary(mx).variance > 0

    def test_circle_example_degenerate(self):
        mx = empirical_measure(critical_points([example_circle(16).f])[0].points)
        second = moment(mx, 2)
        assert abs(second) < 1e-15
        assert abs(second - 4.0 * circle_fourier_coeffs(mx, 1.0, [2])[0]) < 1e-10
        assert summary(mx).variance == 0.0


class TestRandomInstance:
    def test_shape_and_normalization(self):
        rng = np.random.default_rng(0)
        inst = random_instances(rng, 12, 1)[0]
        assert inst.n == 12
        assert np.max(np.abs(inst.f.roots)) <= 1.0 + 1e-12
        assert abs(inst.a - np.max(np.abs(inst.f.roots))) < 1e-14
        assert abs(evaluate(inst.f, inst.a)) < 1e-10

    def test_reproducible(self):
        a = random_instances(np.random.default_rng(42), 10, 1)[0]
        b = random_instances(np.random.default_rng(42), 10, 1)[0]
        assert np.array_equal(a.f.coeffs, b.f.coeffs)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            random_instances(np.random.default_rng(0), 1, 1)

    def test_count_validation(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"need count >= 1 and degree >= 2"):
            random_instances(rng, 8, 0)
        assert rng.bit_generator.state == state

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 6))
    def test_batch_equals_one_at_a_time(self, seed, n, count):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = random_instances(rng_a, n, count)
        singles = [random_instances(rng_b, n, 1)[0] for _ in range(count)]
        assert len(batch) == count
        for x, y in zip(batch, singles):
            assert x.f.coeffs.tobytes() == y.f.coeffs.tobytes()
            assert x.f.roots.tobytes() == y.f.roots.tobytes()
            assert x.a == y.a
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_family_zero_locations_against_shift_law():
    # |zeta + c2/n| = 1 + t(theta)/n + O(1/n^2): the law must tighten as n grows
    errs = []
    for n in (64, 128):
        params = FamilyParams(n=n, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        rep = verify_family(params, theta_grid=64)
        errs.append(rep.t_prediction_errors.max())
    assert errs[1] < errs[0]


def test_generic_solver_cannot_resolve_the_fat_root():
    # documents why family_critical_points exists: the (n-m-1)-fold root
    # at -c2/n scatters to a cluster of radius ~eps^(1/(n-m-1))
    params = FamilyParams(n=24, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
    inst = miller_family(params)
    generic = find_roots(derivative(inst.f))
    spread = np.abs(generic.points + 2.0 / 24.0)
    assert np.sort(spread)[2] > 1e-4  # most of the cluster sits far from the center
