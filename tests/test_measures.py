import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendovlab.families import example_circle, example_origin, random_instance
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
from sendovlab.poly_core import Polynomial, from_roots
from sendovlab.rootfind import find_roots
from sendovlab.sendov_check import Region, critical_points


class TestEmpiricalMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EmpiricalMeasure(np.array([0j, 1j]), np.array([0.5, 0.6]))

    def test_weights_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalMeasure(np.array([0j, 1j]), np.array([1.5, -0.5]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            EmpiricalMeasure(np.array([0j]), np.array([0.5, 0.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([], dtype=complex), np.array([]))

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
        assert s.second_moment == pytest.approx((1 - 1) / 3 + 0j, abs=1e-15)
        assert s.variance == pytest.approx(4.0 / 9.0, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
                st.floats(min_value=0.01, max_value=1.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_variance_identity_and_mass(self, atoms):
        pts = np.array([a for a, _ in atoms], dtype=complex)
        w = np.array([b for _, b in atoms])
        m = EmpiricalMeasure(pts, w / math.fsum(w.tolist()))
        assert moment(m, 0) == pytest.approx(1.0, abs=1e-12)
        s = summary(m)  # raises internally if the identity breaks
        assert s.variance >= 0.0


class TestMeanMatching:
    def test_circle_example(self):
        inst = example_circle(12)
        match = check_matching_mean(inst.f)
        assert match.ok
        assert match.difference < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            inst = random_instance(rng, 10)
            match = check_matching_mean(inst.f)
            assert match.ok
            assert match.difference < 1e-10


class TestLogDistance:
    def test_atom_hit_is_minus_infinity(self):
        m = empirical_measure(np.array([0.5 + 0j, -0.5]))
        assert expect_log_distance(m, 0.5) == -math.inf

    def test_zero_weight_hit_skipped(self):
        m = EmpiricalMeasure(np.array([0j, 1.0]), np.array([0.0, 1.0]))
        assert expect_log_distance(m, 0.0) == 0.0

    def test_array_call_equals_scalar_calls(self):
        m = EmpiricalMeasure(
            np.array([0j, 0.5, -0.5j, 1 + 1j]), np.array([0.0, 0.25, 0.25, 0.5])
        )
        # hits on the zero-weight atom and on the atom at 0.5
        zs = np.array([0j, 0.5, 2.0 - 1j, 0.3j, -1.2])
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
        assert prob_in_region(m, Region.disk(0.0, 0.5)) == pytest.approx(0.1, abs=1e-15)

    def test_whole_disk(self):
        inst = example_origin(10)
        m = empirical_measure(inst.f.roots)
        assert prob_in_region(m, Region.closed_disk(0.0, 1.0)) == pytest.approx(1.0)


class TestQuantitativeZetas:
    def test_circle_example_exactness(self):
        inst = example_circle(16)
        diag = quantitative_zetas(inst, crit=critical_points(inst.f))
        # critical points of z^n - 1 sit exactly at 0, so E log|xi - 1| = 0.0
        assert diag.e_log_xi_minus_a == 0.0
        assert abs(diag.e_log_inv_zeta) <= 1e-15
        assert not diag.zeta_atom_at_origin
        assert not diag.xi_atom_at_a

    def test_origin_example_atom_flag(self):
        inst = example_origin(16)
        diag = quantitative_zetas(inst, crit=critical_points(inst.f))
        assert diag.zeta_atom_at_origin
        assert math.isinf(diag.e_log_inv_zeta)
