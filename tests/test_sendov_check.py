import math
import os
import subprocess
import sys
from pathlib import Path

import tracemalloc

import numpy as np
import pytest

from conftest import match_max_distance
from sendovlab import sendov_check
from sendovlab.families import (
    FamilyParams,
    example_circle,
    example_origin,
    family_critical_points,
    family_zeros,
    miller_family,
    random_instances,
)
from sendovlab.poly_core import (
    CrossCheckError,
    Polynomial,
    SendovInstance,
    derivative,
    from_roots,
)
from sendovlab.rootfind import RootSet, certified, critical_points, zero_sets
from sendovlab.sendov_check import degot_suite, sendov_margin


class TestCriticalPoints:
    def test_quadratic(self):
        rs = critical_points([from_roots([1.0, -1.0])])[0]
        assert rs.points.tolist() == [0.0]

    def test_cubic(self):
        # f = z^3 - 3z, f' = 3z^2 - 3
        rs = critical_points([Polynomial([0.0, -3.0, 0.0, 1.0])])[0]
        assert match_max_distance(rs.points, [1.0, -1.0]) < 1e-14


class TestSendovMargin:
    def test_circle_example_margins_vanish(self):
        inst = example_circle(16)
        rep = sendov_margin(*zero_sets([inst.f, derivative(inst.f)]))
        assert rep.holds
        assert np.max(np.abs(rep.margins)) < 1e-12
        assert rep.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_origin_example(self):
        n = 16
        inst = example_origin(n)
        rep = sendov_margin(*zero_sets([inst.f, derivative(inst.f)]))
        assert rep.holds
        r = n ** (-1.0 / (n - 1))
        # the origin zero's nearest critical point sits at distance r
        assert rep.min_margin == pytest.approx(1.0 - r, abs=1e-10)

    def test_margins_live_in_diameter_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            inst = random_instances(rng, 12, 1)[0]
            rep = sendov_margin(*zero_sets([inst.f, derivative(inst.f)]))
            assert rep.holds
            assert rep.margins.min() >= -1.0
            assert rep.margins.max() <= 1.0

    def test_diameter_bound_refuses_a_far_critical_set(self):
        # zeros +-1 in the closed disk and a certified critical point at 5:
        # a margin of -5 is below the Gauss-Lucas bound of -1
        zeros = zero_sets([from_roots([1.0, -1.0])])[0]
        far = RootSet(np.array([5.0 + 0j]), np.zeros(1), True)
        with pytest.raises(CrossCheckError, match="margin below the diameter bound"):
            sendov_margin(zeros, far)

    def test_nan_margin_is_named_as_nan(self):
        # a NaN zero lies in no disk, so only the upper check sees its NaN margin
        zeros = RootSet(np.array([0.5, np.nan]), np.zeros(2), True)
        crit = RootSet(np.array([0.1 + 0j]), np.zeros(1), True)
        with pytest.raises(CrossCheckError, match="margin above 1 or NaN"):
            sendov_margin(zeros, crit)

    @pytest.mark.parametrize("source", ["random-64", "miller-1024"])
    def test_blocked_margins_keep_the_bits_of_the_full_matrix(self, source, monkeypatch):
        if source == "random-64":
            inst = random_instances(np.random.default_rng(64), 64, 1)[0]
            zeros, crit = zero_sets([inst.f, derivative(inst.f)])
        else:
            params = FamilyParams(n=1024, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
            zeros = family_zeros(params, miller_family(params).f)
            crit = family_critical_points(params)
        full = 1.0 - np.abs(zeros.points[:, None] - crit.points[None, :]).min(axis=1)
        # blocks of 7 rows at degree 64 and 3 at 1024, the last one short
        monkeypatch.setattr(sendov_check, "_MARGIN_BLOCK", 3 * len(crit) + 2)
        assert sendov_margin(zeros, crit).margins.tobytes() == full.tobytes()

    def test_margins_need_memory_of_one_block(self):
        # certified sets of 4096 zeros and 4095 critical points: the full
        # (zeros x critical points) distances alone would take 400 MB
        n = 4096
        zeros = np.exp(2j * np.pi * np.arange(n) / n)
        zeros = RootSet(zeros, np.zeros(n), True)
        crit = RootSet(0.5 * zeros.points[:-1], np.zeros(n - 1), True)
        tracemalloc.start()
        try:
            rep = sendov_margin(zeros, crit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # each zero but the last has its critical point at half its radius
        assert np.max(np.abs(rep.margins[:-1] - 0.5)) < 1e-12
        assert rep.min_margin == rep.margins[-1] < 0.5


class TestMarginBatch:
    """The margins of many pairs at once, against one call per pair."""

    @pytest.mark.parametrize("block", [None, 1 << 20], ids=["default-block", "block-2^20"])
    def test_mixed_list_equals_single_calls_bit_for_bit(self, block, monkeypatch):
        # 64 random instances of degree 24 with the family at n = 1024 and
        # its analytic critical points between them.  Blocks of 2^14
        # distances take the random pairs 29 at a time, and the family,
        # a group of one pair, in blocks of 16 rows; blocks of 2^20 take
        # each group whole
        if block is not None:
            monkeypatch.setattr(sendov_check, "_MARGIN_BLOCK", block)
        fs = [inst.f for inst in random_instances(np.random.default_rng(24), 24, 64)]
        pairs = list(zip(zero_sets(fs), critical_points(fs)))
        params = FamilyParams(n=1024, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        family = family_zeros(params, miller_family(params).f), family_critical_points(params)
        pairs.insert(5, family)
        reports = sendov_margin([z for z, _ in pairs], [c for _, c in pairs])
        assert len(reports) == 65
        for (zeros, crit), rep in zip(pairs, reports):
            one = sendov_margin(zeros, crit)
            full = 1.0 - np.abs(zeros.points[:, None] - crit.points[None, :]).min(axis=1)
            assert rep.margins.tobytes() == one.margins.tobytes() == full.tobytes()
            assert rep.min_margin.hex() == one.min_margin.hex()
            assert rep.holds == one.holds
        assert reports[5].margins.size == 1024

    def test_each_pair_keeps_its_checks(self):
        # zeros +-1 with their critical point 0, and with one at 5: the far
        # pair is the second of its size, so the check must read its own row
        zeros = zero_sets([from_roots([1.0, -1.0])])[0]
        near = RootSet(np.array([0.0 + 0j]), np.zeros(1), True)
        far = RootSet(np.array([5.0 + 0j]), np.zeros(1), True)
        reports = sendov_margin([zeros, zeros], [near, near])
        assert [rep.min_margin for rep in reports] == [0.0, 0.0]
        with pytest.raises(CrossCheckError, match="margin below the diameter bound"):
            sendov_margin([zeros, zeros], [near, far])
        lost = RootSet(np.array([0.0 + 0j]), np.ones(1), False, iterations=5)
        with pytest.raises(RuntimeError, match="critical point finding did not converge"):
            sendov_margin([zeros, zeros], [near, lost])
        with pytest.raises(ValueError, match="2 zero sets but 1 critical point sets"):
            sendov_margin([zeros, zeros], [near])
        assert sendov_margin([], []) == []


def _hull_gap(p, crit) -> float:
    """Largest |xi - sum_j w_j z_j / sum_j w_j|, w_j = 1/|xi - z_j|^2, over crit.

    f'(xi) = 0 makes sum_j 1/(xi - z_j) vanish; conjugating each term
    shows that xi is this mean of the zeros with positive weights, which
    is the Gauss-Lucas theorem, so a gap of 0 puts xi in the zero hull.
    """
    z = certified(zero_sets([p])[0]).points
    w = 1.0 / np.abs(crit[:, None] - z[None, :]) ** 2
    return float(np.max(np.abs(crit - (w @ z) / w.sum(axis=1))))


def test_margin_bound_is_checked_under_optimization():
    # the diameter bound raises CrossCheckError, which python -O keeps
    code = (
        "import numpy as np\n"
        "from sendovlab import CrossCheckError, example_circle, sendov_margin\n"
        "from sendovlab.rootfind import RootSet, zero_sets\n"
        "inst = example_circle(8)\n"
        "far = RootSet(np.full(7, 5.0 + 0j), np.zeros(7), True)\n"
        "try:\n"
        "    sendov_margin(zero_sets([inst.f])[0], far)\n"
        "except CrossCheckError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout == "margin below the diameter bound\n", proc.stderr[-2000:]


class TestGaussLucas:
    def test_square_configuration(self):
        p = from_roots([0.0, 1.0, 1j, 1.0 + 1j])
        assert _hull_gap(p, critical_points([p])[0].points) < 1e-12

    def test_collinear_roots(self):
        p = from_roots([-1.0, 0.0, 1.0])
        assert _hull_gap(p, critical_points([p])[0].points) < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            inst = random_instances(rng, 10, 1)[0]
            assert _hull_gap(inst.f, critical_points([inst.f])[0].points) < 1e-10

    def test_detects_exterior_point(self):
        # a fake critical point far outside the hull is no weighted mean
        p = from_roots([0.5, -0.5])
        assert _hull_gap(p, np.array([2.0 + 0j])) > 1.0


class TestDegotSuite:
    def test_circle_example_is_boundary_case(self):
        n = 50
        inst = example_circle(n)
        rep = degot_suite(inst, [0.5], critical_points([inst.f])[0])
        assert rep.hypothesis == "boundary"
        assert rep.fp_abs_at_a_over_n == pytest.approx(1.0, abs=1e-12)
        row = rep.rows[0]
        # |f(0.5)| - (1 - sqrt(3)/2) = sqrt(3)/2 - 0.5^50
        assert row.lower_slack == pytest.approx(
            math.sqrt(0.75) - 0.5**50, rel=1e-12
        )
        assert row.upper_slack == pytest.approx(
            1.25 ** (n / 2) - (1.0 - 0.5**n), rel=1e-10
        )

    def test_upper_bound_past_the_float_range_is_infinite(self):
        # 1.25**4096 overflows: the bound reads inf, with no numpy warning
        inst = example_circle(8192)
        row = degot_suite(inst, [0.5], critical_points([inst.f])[0]).rows[0]
        assert row.upper_slack == math.inf
        assert type(row.upper_slack) is float

    def test_negative_base_at_odd_degree_refused(self):
        # zeros 0.9, 10 and 9 put the zero mean at 6.63: at delta = 0.8 the
        # base 1 + delta^2 - 2 delta Re mu is -8.97, and n/2 = 1.5 is no integer
        inst = SendovInstance(Polynomial(from_roots([0.9, 10.0, 9.0]).coeffs), 0.9)
        crit = critical_points([inst.f])[0]
        with pytest.raises(ValueError, match=r"-8\.97333 < 0 .* mu = 6\.63333"):
            degot_suite(inst, [0.8], crit)

    def test_far_critical_set_satisfies_hypothesis(self):
        # no critical point in the closed disk D(a, 1): the nearest is 4 away
        inst = SendovInstance(from_roots([1.0, -0.2]), 1.0)
        far = RootSet(np.array([5.0 + 0j]), np.zeros(1), True)
        assert degot_suite(inst, [0.5], far).hypothesis == "holds"

    def test_typical_instance_violates_hypothesis(self):
        inst_poly = from_roots([1.0, -0.2])

        crit = critical_points([inst_poly])[0]
        rep = degot_suite(SendovInstance(inst_poly, 1.0), [0.3, 0.6], crit)
        assert rep.hypothesis == "violated"
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert row.upper_slack > 0  # the AM-GM bound is unconditional

    def test_delta_range_validated(self):
        inst = example_circle(8)
        crit = critical_points([inst.f])[0]
        with pytest.raises(ValueError, match="outside"):
            degot_suite(inst, [1.5], crit)
        with pytest.raises(ValueError, match="outside"):
            degot_suite(inst, [0.0], crit)

    def test_requires_positive_a(self):
        inst = example_origin(8)
        with pytest.raises(ValueError, match="a > 0"):
            degot_suite(inst, [0.1], critical_points([inst.f])[0])
