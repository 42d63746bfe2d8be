import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendovlab.families import example_circle, example_origin, random_instances
from sendovlab.measures import (
    EmpiricalMeasure,
    check_matching_mean,
    empirical_measure,
    expect_log_distance,
    moment,
    prob_in_region,
    quantitative_zetas,
    summary,
)
from sendovlab.poly_core import derivative, from_roots
from sendovlab.rootfind import critical_points, find_roots, zero_sets


class TestEmpiricalMeasure:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="1-d"):
            EmpiricalMeasure(np.array([[0j, 1j]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmpiricalMeasure(np.array([0j, complex(np.nan, 0.0)]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one atom"):
            EmpiricalMeasure(np.array([], dtype=complex))
        with pytest.raises(ValueError, match="at least one atom"):
            empirical_measure(np.array([], dtype=complex))

    def test_uniform_constructor(self):
        m = empirical_measure(np.array([0j, 1.0, 1j]))
        assert len(m) == 3
        assert np.all(m.weights == 1.0 / 3.0)

    def test_rootset_input(self):
        rs = find_roots(from_roots([0.5, -0.5]))
        m = empirical_measure(rs)
        assert len(m) == 2


class TestMoments:
    def test_zeroth_moment_exact(self):
        m = empirical_measure(np.exp(2j * np.pi * np.arange(7) / 7))
        assert moment(m, 0) == 1.0 + 0.0j

    def test_roots_of_unity_moments(self):
        n = 8
        m = empirical_measure(np.exp(2j * np.pi * np.arange(n) / n))
        for k in range(1, n):
            assert abs(moment(m, k)) < 1e-15
        assert moment(m, n) == pytest.approx(1.0, abs=1e-14)

    def test_negative_k_rejected(self):
        m = empirical_measure(np.array([0j]))
        with pytest.raises(ValueError):
            moment(m, -1)

    def test_summary_oracle(self):
        m = empirical_measure(np.array([0.0, 1.0, 1j]))
        s = summary(m)
        assert s.mean == pytest.approx((1 + 1j) / 3, abs=1e-15)
        assert moment(m, 2) == pytest.approx((1 - 1) / 3 + 0j, abs=1e-15)
        assert s.variance == pytest.approx(4.0 / 9.0, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_variance_identity_and_mass(self, atoms):
        m = EmpiricalMeasure(np.array(atoms, dtype=complex))
        assert moment(m, 0) == pytest.approx(1.0, abs=1e-12)
        s = summary(m)  # raises internally if the identity breaks
        assert s.variance >= 0.0


class TestMeanMatching:
    def test_circle_example(self):
        inst = example_circle(12)
        assert check_matching_mean(*zero_sets([inst.f, derivative(inst.f)])) < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            inst = random_instances(rng, 10, 1)[0]
            assert check_matching_mean(*zero_sets([inst.f, derivative(inst.f)])) < 1e-10


class TestLogDistance:
    def test_atom_hit_is_minus_infinity(self):
        m = empirical_measure(np.array([0.5 + 0j, -0.5]))
        assert expect_log_distance(m, 0.5) == -math.inf

    def test_array_call_equals_scalar_calls(self):
        m = empirical_measure(np.array([0j, 0.5, -0.5j, 1 + 1j]))
        # the second point hits the atom at 0.5
        zs = np.array([0.1j, 0.5, 2.0 - 1j, 0.3j, -1.2])
        out = expect_log_distance(m, zs)
        scalar = np.array([expect_log_distance(m, complex(z)) for z in zs])
        assert out.tobytes() == scalar.tobytes()
        assert out[1] == -math.inf
        assert np.all(np.isfinite(np.delete(out, 1)))

    def test_uniform_circle_value(self):
        # E log|2 - eta| over n-th roots of unity = log(2^n - 1)/n
        n = 32
        m = empirical_measure(np.exp(2j * np.pi * np.arange(n) / n))
        expected = math.log(2**n - 1) / n
        assert expect_log_distance(m, 2.0) == pytest.approx(expected, rel=1e-14)


class TestProbInRegion:
    def test_origin_example_oracle(self):
        inst = example_origin(10)
        m = empirical_measure(inst.f.roots)
        assert prob_in_region(m, 0.0, 0.5) == pytest.approx(0.1, abs=1e-15)

    def test_whole_disk(self):
        inst = example_origin(10)
        m = empirical_measure(inst.f.roots)
        assert prob_in_region(m, 0.0, 1.0) == pytest.approx(1.0)

    def test_closed_disk_boundary(self):
        # the second atom is within DISK_TOL of the circle
        points = (1.0, 1.0 + 5e-11, 1.1)
        inside = [prob_in_region(empirical_measure([z]), 0.0, 1.0) for z in points]
        assert inside == [1.0, 1.0, 0.0]

    def test_off_centre_disk(self):
        inside = [prob_in_region(empirical_measure([z]), 0.5j, 1.0) for z in (0.0, 2.0, 1.5j)]
        assert inside == [1.0, 0.0, 1.0]

    def test_validation(self):
        m = empirical_measure([0.0])
        for radius in (-1.0, 0.0):
            with pytest.raises(ValueError, match="radius must be positive"):
                prob_in_region(m, 0.0, radius)


class TestQuantitativeZetas:
    def test_circle_example_exactness(self):
        inst = example_circle(16)
        diag = quantitative_zetas(inst, zero_sets([inst.f])[0], critical_points([inst.f])[0])
        # critical points of z^n - 1 sit exactly at 0, so E log|xi - 1| = 0.0
        assert diag.e_log_xi_minus_a == 0.0
        assert abs(diag.e_log_inv_zeta) <= 1e-15
        assert not math.isinf(diag.e_log_inv_zeta)
        assert not math.isinf(diag.e_log_xi_minus_a)

    def test_origin_example_atom_flag(self):
        inst = example_origin(16)
        diag = quantitative_zetas(inst, zero_sets([inst.f])[0], critical_points([inst.f])[0])
        assert math.isinf(diag.e_log_inv_zeta)
