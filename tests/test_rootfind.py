import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import match_max_distance
from sendovlab import cli, rootfind
from sendovlab.families import (
    FamilyParams,
    example_circle,
    example_origin,
    family_zeros,
    miller_family,
    predicted_zeros,
    random_instances,
)
from sendovlab.poly_core import Polynomial, derivative, evaluate, from_roots
from sendovlab.rootfind import (
    RootSet,
    certified,
    critical_points,
    find_roots,
    zero_sets,
)
from sendovlab.rootfind import _horner_table, _newton_pass, _paired_starts

UNIT_ROUNDOFF = 2.0**-53


def _gamma(k):
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


class TestRootSet:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            RootSet(np.array([1.0 + 0j]), np.array([0.0, 0.0]), True)

    def test_len(self):
        rs = RootSet(np.array([1.0 + 0j, 2.0]), np.zeros(2), True)
        assert len(rs) == 2


class TestFindRoots:
    def test_quadratic(self):
        rs = find_roots(Polynomial([-1.0, 0.0, 1.0]))
        assert rs.converged
        assert match_max_distance(rs.points, [1.0, -1.0]) < 1e-14

    def test_roots_of_unity(self):
        n = 16
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[0], coeffs[n] = -1.0, 1.0
        rs = find_roots(Polynomial(coeffs))
        expected = np.exp(2j * np.pi * np.arange(n) / n)
        assert rs.converged
        assert match_max_distance(rs.points, expected) < 1e-12

    def test_pure_power_roots_exact(self):
        coeffs = np.zeros(6, dtype=complex)
        coeffs[5] = 1.0
        rs = find_roots(Polynomial(coeffs))
        assert rs.converged
        assert np.all(rs.points == 0.0)
        assert np.all(rs.residuals == 0.0)

    def test_origin_root_stripped_exactly(self):
        n = 10
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[1], coeffs[n] = -1.0, 1.0  # z^n - z
        rs = find_roots(Polynomial(coeffs))
        assert rs.converged
        assert np.sum(rs.points == 0.0) == 1
        others = rs.points[rs.points != 0.0]
        expected = np.exp(2j * np.pi * np.arange(n - 1) / (n - 1))
        assert match_max_distance(others, expected) < 1e-12

    def test_backward_error_certificate(self):
        rng = np.random.default_rng(3)
        roots = 0.9 * np.exp(2j * np.pi * rng.uniform(0, 1, 8)) * rng.uniform(0.5, 1, 8)
        p = from_roots(roots)
        rs = find_roots(p)
        assert rs.converged
        # residual definition: |p(z)| <= res * sum_k |c_k| |z|^k
        for z, res in zip(rs.points, rs.residuals):
            scale = float(np.sum(np.abs(p.coeffs) * np.abs(z) ** np.arange(p.degree + 1)))
            assert abs(evaluate(p, z)) <= max(res, 1e-15) * scale * 1.0000001

    def test_multiple_root_reported_as_cluster(self):
        p = from_roots([0.5] * 4)
        rs = find_roots(p)
        # one 4-point cluster about the root, centred on it
        assert rs.points.size == 4
        assert np.all(np.abs(rs.points - 0.5) <= 1e-2)
        assert abs(np.mean(rs.points) - 0.5) < 1e-3

    @pytest.mark.parametrize("sign", [1.0, -1.0, 1j, -1j], ids=["1", "-1", "i", "-i"])
    def test_leading_sign_keeps_blocks_dead(self, monkeypatch, sign):
        # +-(z^256 - 1) and +-i (z^256 - 1): dividing by a leading -1 or -i
        # gives the zero coefficients -0 parts, which must not keep their
        # Horner blocks live
        live = []

        def recording(coeffs):
            table, slots = _horner_table(coeffs)
            live.append(sum(k >= 0 for k in slots))
            return table, slots

        monkeypatch.setattr(rootfind, "_horner_table", recording)
        coeffs = np.zeros(257, dtype=complex)
        coeffs[0], coeffs[256] = -sign, sign
        rs = find_roots(Polynomial(coeffs))
        assert live == [3]
        assert rs.converged
        expected = np.exp(2j * np.pi * np.arange(256) / 256)
        assert match_max_distance(rs.points, expected) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=8,
        )
    )
    def test_separated_roots_recovered(self, roots):
        roots = np.array(roots, dtype=complex)
        d = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(d, np.inf)
        assume(d.min() >= 0.15)
        rs = find_roots(from_roots(roots))
        assert rs.converged
        assert match_max_distance(rs.points, roots) < 1e-5


    @pytest.mark.parametrize("low", [0, 1])
    def test_degree_1024_binomials(self, low):
        # z^1024 - 1 and z^1024 - z: every power of |z| > 1 would overflow
        coeffs = np.zeros(1025, dtype=complex)
        coeffs[low], coeffs[1024] = -1.0, 1.0
        rs = find_roots(Polynomial(coeffs))
        assert rs.converged
        assert np.all(np.isfinite(rs.residuals))
        assert np.all(np.isfinite(rs.points))

    def test_lost_iterate_restarts_from_its_rotated_start(self, monkeypatch):
        # the first Aberth step sends one iterate to NaN: it restarts from
        # its start turned by 0.37 rad, and the set still converges
        roots = np.array([0.5, -0.5j, 0.3 + 0.1j, -0.8 + 0.2j, 0.7j, -0.3 - 0.4j, 0.9, -0.6])
        steps = []
        aberth_step = rootfind._aberth_step

        def losing_one(z, wn, rows, idx):
            step = aberth_step(z, wn, rows, idx)
            if not steps:
                step[0] = np.nan
            steps.append(step)
            return step

        monkeypatch.setattr(rootfind, "_aberth_step", losing_one)
        rs = certified(find_roots(from_roots(roots)))
        assert len(steps) > 1 and np.isnan(steps[0][0])
        assert match_max_distance(rs.points, roots) < 1e-12

    def test_lost_iterate_past_the_first_row_restarts_from_its_rotated_start(self, monkeypatch):
        # three rows solved together from given starts; the first step
        # sends iterate 3 of row 2 to NaN, and the next step finds it at
        # that start turned by 0.37 rad: the live iterates are flat
        # indices, whose arithmetic only goes wrong past row 0
        rng = np.random.default_rng(4)
        d = 8
        roots = rng.uniform(0.3, 0.9, (3, d)) * np.exp(2j * np.pi * rng.uniform(size=(3, d)))
        coeffs = np.stack([from_roots(r).coeffs for r in roots])
        starts = [1.05 * np.exp(0.1j) * r for r in roots]
        seen = []
        aberth_step = rootfind._aberth_step

        def losing_one(z, wn, rows, idx):
            seen.append(z.copy())
            step = aberth_step(z, wn, rows, idx)
            if len(seen) == 1:
                assert idx.tolist() == list(range(3 * d))
                step[2 * d + 3] = np.nan
            return step

        monkeypatch.setattr(rootfind, "_aberth_step", losing_one)
        z, res, _ = rootfind._aberth(coeffs, starts)
        restarted = seen[1] == np.stack(starts) * np.exp(0.37j)
        assert np.flatnonzero(restarted).tolist() == [2 * d + 3]
        assert (res <= rootfind._TOL).all()
        for row, want in zip(z, roots):
            assert match_max_distance(row, want) < 1e-12

    def test_iteration_counts(self):
        # Newton-polygon start circles sit on the root moduli, so the
        # count stays flat in the degree
        params = FamilyParams(n=256, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        rs = find_roots(miller_family(params).f)
        assert rs.converged
        assert rs.iterations <= 30
        crit = find_roots(derivative(example_origin(512).f))
        assert crit.converged
        assert crit.iterations <= 8

    def test_degree_one_in_closed_form(self):
        c0, c1 = 0.3 - 0.2j, 2.0 + 1.0j
        rs = find_roots(Polynomial([c0, c1]))
        assert rs.converged and rs.iterations == 0
        assert abs(rs.points[0] + c0 / c1) <= 4 * UNIT_ROUNDOFF * abs(c0 / c1)
        assert rs.residuals[0] <= 4 * UNIT_ROUNDOFF
        # the exact zero root is stripped first, as in any solve
        stripped = find_roots(Polynomial([0.0, c0, c1]))
        assert stripped.points.tolist() == [0.0, rs.points[0]]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=13,
        )
    )
    def test_matches_mpmath_oracle(self, coeffs):
        # degrees 3 to 12 with arbitrary coefficients, against
        # 50-digit roots
        assume(abs(coeffs[0]) > 1e-3 and abs(coeffs[-1]) > 1e-3)
        rs = find_roots(Polynomial(coeffs))
        with mpmath.workdps(50):
            exact = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        exact = np.array([complex(r) for r in exact])
        assert rs.converged
        assert match_max_distance(rs.points, exact) < 1e-6 * max(1.0, np.abs(exact).max())


class TestSeededStart:
    @pytest.mark.parametrize("n", [64, 192, 1024])
    def test_family_from_its_predicted_zeros(self, n):
        # the generic Newton-polygon start takes 10 to 16 iterations here
        params = FamilyParams(n=n, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        f = miller_family(params).f
        seeded = family_zeros(params, f)
        generic = find_roots(f)
        assert seeded.converged and generic.converged
        assert seeded.iterations == 1 < generic.iterations
        assert match_max_distance(seeded.points, generic.points) < 1e-14

    def test_any_distinct_start_reaches_the_same_roots(self):
        p = Polynomial(from_roots([0.5, -0.5j, 0.3 + 0.1j, -0.8 + 0.2j]).coeffs)
        start = 0.9 * np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j)
        rs = find_roots(p, start)
        assert rs.converged and rs.iterations > 0
        assert match_max_distance(rs.points, find_roots(p).points) < 1e-14
        assert find_roots(p, None).points.tobytes() == find_roots(p).points.tobytes()

    def test_refuses_a_bad_start(self):
        p = Polynomial(from_roots([0.5, -0.5j, 0.3 + 0.1j]).coeffs)
        for start in ([0.1, 0.2], np.zeros((3, 1)), [0.1, 0.2, np.nan], [0.1, np.inf, 0.3]):
            with pytest.raises(ValueError, match="3 finite points"):
                find_roots(p, start)
        with pytest.raises(ValueError, match="nonzero constant term"):
            find_roots(Polynomial([0.0, 1.0, 1.0]), [0.5, -0.5])


def _aberth_reference(coeffs, start, post_step=True):
    """``rootfind._aberth`` as it was when every iterate took the post-convergence step."""
    b, w = coeffs.shape
    d = w - 1
    coeffs = coeffs / coeffs[:, -1, None]
    coeffs[coeffs == 0] = 0
    table = _horner_table(coeffs)
    z = np.empty((b, d), dtype=np.complex128)
    polygon = [r for r, s in enumerate(start) if s is None]
    if polygon:
        z[polygon] = rootfind._start_points(np.abs(coeffs[polygon]))
    for r, s in enumerate(start):
        if s is not None:
            z[r] = s
    restart = z * np.exp(0.37j)
    wn = np.zeros((b, d), dtype=np.complex128)
    residual = np.full((b, d), np.inf)
    frozen = np.zeros((b, d), dtype=bool)

    def refresh(rows, cols):
        wn[rows, cols], residual[rows, cols] = _newton_pass(table, d, rows, z[rows, cols])

    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iterations in range(1, rootfind._MAX_ITER + 1):
            rows, cols = np.nonzero(~frozen)
            refresh(rows, cols)
            frozen[rows, cols] = residual[rows, cols] <= rootfind._TOL
            if frozen.all():
                break
            rows, cols = np.nonzero(~frozen)
            z[rows, cols] -= rootfind._aberth_step(z, wn[rows, cols], rows, rows * d + cols)
            lost = ~np.isfinite(z)
            if lost.any():
                z[lost] = restart[lost]
        else:
            refresh(*np.nonzero(~frozen))
        if post_step:
            rows, cols = np.divmod(np.arange(b * d), d)
            trial = z - rootfind._aberth_step(z, wn.ravel(), rows, rows * d + cols).reshape(b, d)
            _, trial_res = _newton_pass(table, d, rows, trial.ravel())
            keep = (trial_res <= residual.ravel()).reshape(b, d)
            z = np.where(keep, trial, z)
            residual = np.where(keep, trial_res.reshape(b, d), residual)
    return z, residual, iterations


class TestPostStep:
    """The post-convergence step is taken only by the iterates the iteration moved."""

    def test_seeded_family_solve_is_one_evaluation_pass(self, monkeypatch):
        params = FamilyParams(n=1024, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        f = miller_family(params).f
        passes = []
        newton_pass = rootfind._newton_pass

        def counted(table, d, rows, z):
            passes.append(z.size)
            return newton_pass(table, d, rows, z)

        monkeypatch.setattr(rootfind, "_newton_pass", counted)
        rs = family_zeros(params, f)
        assert rs.converged and rs.iterations == 1
        assert passes == [1024]
        assert rs.points.tobytes() == predicted_zeros(params).tobytes()

    def _assert_reference(self, coeffs, start):
        z, res, iterations = rootfind._aberth(coeffs, start)
        ref_z, ref_res, ref_iterations = _aberth_reference(coeffs, start)
        assert z.tobytes() == ref_z.tobytes()
        assert res.tobytes() == ref_res.tobytes()
        assert iterations == ref_iterations
        return z

    def test_newton_polygon_solve_equals_the_reference(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((5, 61)) + 1j * rng.standard_normal((5, 61))
        self._assert_reference(coeffs, [None] * 5)

    def test_paired_start_batch_equals_the_reference(self):
        fs = _random_fs(24, 64)
        coeffs = np.stack([derivative(f).coeffs for f in fs])
        starts = _paired_starts(fs)
        assert coeffs.shape == (64, 24) and all(s is not None for s in starts)
        self._assert_reference(coeffs, starts)

    def test_double_root_cluster_equals_the_reference_and_is_tightened(self):
        coeffs = from_roots([1.0, 1.0, -2.0]).coeffs[None, :]
        z = self._assert_reference(coeffs, [None])
        loose = _aberth_reference(coeffs, [None], post_step=False)[0]
        cluster = np.abs(z[0] - 1.0) < 1e-3
        assert cluster.sum() == 2
        assert np.abs(z[0, cluster] - 1.0).max() < np.abs(loose[0, cluster] - 1.0).min()

    def test_a_start_that_passes_is_kept(self):
        r = np.array([0.5, -0.5j, 0.3 + 0.1j, -0.8 + 0.2j, 0.7j, -0.3 - 0.4j])
        coeffs = from_roots(r).coeffs[None, :]
        start = r.copy()
        start[3:] += 1e-3
        z, res, _ = rootfind._aberth(coeffs, [start])
        ref_z, ref_res, _ = _aberth_reference(coeffs, [start])
        _, first_res = _newton_pass(_horner_table(coeffs), 6, np.zeros(3, np.intp), r[:3])
        # the reference steps these exact zeros too, by rounding
        assert ref_z[0, :3].tobytes() != r[:3].tobytes()
        assert z[0, :3].tobytes() == r[:3].tobytes()
        assert res[0, :3].tobytes() == first_res.tobytes()
        assert z[0, 3:].tobytes() == ref_z[0, 3:].tobytes()
        assert res[0, 3:].tobytes() == ref_res[0, 3:].tobytes()


def _as_points(pairs):
    """The complex points of a record's (re, im) rows, bit for bit."""
    return np.ascontiguousarray(pairs).view(np.complex128)[:, 0]


def _random_fs(degree, count, seed=5):
    return [inst.f for inst in random_instances(np.random.default_rng(seed), degree, count)]


class TestPairedStarts:
    """The f' solve seeded at z_j - 1/S_j, against the Newton-polygon solve as the oracle."""

    def test_row_equals_its_single_solve_and_starts(self):
        fs = _random_fs(24, 8)
        starts = _paired_starts(fs)
        assert all(s is not None and s.shape == (23,) for s in starts)
        sets = critical_points(fs)
        for f, start, rs in zip(fs, starts, sets):
            # a row's starts and its solve do not depend on the batch
            assert _paired_starts([f])[0].tobytes() == start.tobytes()
            single = find_roots(derivative(f), start)
            assert rs.points.tobytes() == single.points.tobytes()
            assert rs.residuals.tobytes() == single.residuals.tobytes()

    @pytest.mark.parametrize("degree, count", [(24, 64), (48, 16), (256, 4)])
    def test_agrees_with_the_newton_polygon_solve(self, degree, count):
        fs = _random_fs(degree, count)
        seeded = critical_points(fs)
        generic = zero_sets([derivative(f) for f in fs])
        assert all(rs.converged for rs in seeded + generic)
        assert seeded[0].iterations <= generic[0].iterations
        for a, b in zip(seeded, generic):
            assert match_max_distance(a.points, b.points) < 1e-12

    def _assert_polygon_solve(self, p):
        assert _paired_starts([p]) == [None]
        rs = certified(critical_points([p])[0], "critical point")
        assert rs.points.tobytes() == find_roots(derivative(p)).points.tobytes()
        return rs

    def test_double_zero_falls_back(self):
        # the two starts of a double zero coincide (or are not finite)
        p = from_roots([0.5, 0.5, -0.3j, 0.2 + 0.6j, -0.7])
        rs = self._assert_polygon_solve(p)
        assert np.min(np.abs(rs.points - 0.5)) < 1e-12

    def test_stripped_zero_root_falls_back(self):
        # c_1 = 0: f' has the root 0, which a solve strips
        coeffs = np.array([0.2, 0.0, -0.5, 1.0], dtype=complex)
        roots = find_roots(Polynomial(coeffs)).points
        p = Polynomial(coeffs, roots)
        assert certified(zero_sets([p])[0]).points is p.roots
        rs = self._assert_polygon_solve(p)
        assert 0 in rs.points.tolist()

    def test_polynomial_without_roots_falls_back(self):
        f = _random_fs(12, 1)[0]
        self._assert_polygon_solve(Polynomial(f.coeffs))
        assert _paired_starts([f, Polynomial(f.coeffs)])[1] is None

    @pytest.mark.parametrize(
        "roots",
        [[[0.5, 0.0], [0.5, 0.0], [0.0, -0.3], [0.2, 0.6]], [[0.9, 0.0], [-0.2, 0.5], [0.0, -0.7]]],
        ids=["double-zero", "simple-zeros"],
    )
    def test_polynomial_config_is_certified(self, roots):
        zeros = np.array(roots) @ np.array([1.0, 1j])
        coeffs = from_roots(zeros).coeffs
        poly = {"coeffs": [[c.real, c.imag] for c in coeffs], "roots": roots}
        cfg = cli.ExperimentConfig(
            command="check", instance={"polynomial": poly, "a": roots[0][0]}, options={}, seed=0
        )
        rec = cli.run(cfg)
        assert rec.ok
        crit = _as_points(rec.results["instances"][0]["critical_points"])
        assert crit.tobytes() == critical_points([from_roots(zeros)])[0].points.tobytes()

    def test_critical_points_are_the_cli_set(self):
        # critical_points solves f' the way the CLI's check does, bit for bit
        cfg = cli.ExperimentConfig(
            command="check", instance={"random": {"count": 4, "degree": 24}}, options={}, seed=3
        )
        rec = cli.run(cfg)
        sets = critical_points(_random_fs(24, 4, seed=3))
        for row, rs in zip(rec.results["instances"], sets):
            assert _as_points(row["critical_points"]).tobytes() == rs.points.tobytes()

    def test_memory_stays_linear_in_the_degree(self):
        # 16 rows of degree 512: a (B, n, n) difference array would be
        # 67 MB; the blocked repulsion sum holds one 16.8 MB block
        rng = np.random.default_rng(2)
        polys = [
            Polynomial(np.ones(513), rng.uniform(-1, 1, 512) + 1j * rng.uniform(-1, 1, 512))
            for _ in range(16)
        ]
        tracemalloc.start()
        try:
            starts = _paired_starts(polys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(s is not None for s in starts)
        assert peak < 24e6


class TestCriticalPoints:
    def test_batch_equals_single_calls_bit_for_bit(self):
        # random rows of two degrees, a repeated zero (its paired starts
        # fall back to the Newton polygon), a polynomial without roots,
        # and z^16 - 1, whose f' = 16 z^15 strips to degree 0
        fs = _random_fs(24, 3) + _random_fs(48, 2)
        polys = [
            fs[0],
            fs[3],
            from_roots([0.5, 0.5, -0.3j, 0.2 + 0.6j, -0.7]),
            fs[1],
            Polynomial(fs[2].coeffs),
            example_circle(16).f,
            fs[4],
        ]
        assert [i for i, s in enumerate(_paired_starts(polys)) if s is None] == [2, 4, 5]
        many = critical_points(polys)
        assert len(many) == len(polys)
        for p, rs in zip(polys, many):
            single = critical_points([p])[0]
            assert rs.points.tobytes() == single.points.tobytes()
            assert rs.residuals.tobytes() == single.residuals.tobytes()
            assert rs.converged == single.converged
        assert many[5].points.tolist() == [0j] * 15

    def test_refuses_degree_below_two_by_its_degree(self):
        # p' of a degree-1 p is a constant: the message names p's degree
        with pytest.raises(ValueError, match=r"degree at least 2, not 1$"):
            critical_points([Polynomial([1.0, 2.0])])
        with pytest.raises(ValueError, match=r"not 1$"):
            critical_points([example_circle(4).f, Polynomial([1.0, 2.0])])

    def test_iteration_budget_exit_is_not_certified(self, monkeypatch):
        # one Aberth iteration from the paired starts does not converge
        monkeypatch.setattr(rootfind, "_MAX_ITER", 1)
        rs = critical_points(_random_fs(12, 1))[0]
        assert not rs.converged and rs.iterations == 1
        with pytest.raises(RuntimeError, match="zero finding did not converge"):
            certified(rs)


class TestZeroSets:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(0, 3), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=8,
        )
    )
    def test_equals_single_solves_bit_for_bit(self, specs):
        # (degree, exact zero roots, seed): equal stripped degrees share a batch
        polys = []
        for degree, zeros, seed in specs:
            rng = np.random.default_rng(seed)
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            coeffs[: min(zeros, degree)] = 0.0
            polys.append(Polynomial(coeffs))
        many = zero_sets(polys)
        assert len(many) == len(polys)
        for p, rs in zip(polys, many):
            single = find_roots(p)
            assert rs.points.tobytes() == single.points.tobytes()
            assert rs.residuals.tobytes() == single.residuals.tobytes()
            assert rs.converged == single.converged

    def test_iterations_are_the_batch_count(self):
        bare = Polynomial(from_roots([0.5, -0.5j, 0.3 + 0.1j]).coeffs)
        polys = [bare, Polynomial([1e-6, 3.0, 0.0, 1.0])]
        many = zero_sets(polys)
        assert many[0].iterations == many[1].iterations
        assert many[0].iterations == max(find_roots(p).iterations for p in polys)

    def test_empty(self):
        assert zero_sets([]) == []

    def test_mixed_list_in_input_order(self):
        # attached and solved sets of one degree: the rooted ones come back
        # with their attached points, the others as a solve of each
        rooted = [from_roots([0.5, -0.5j, 0.3 + 0.1j]), from_roots([0.1, 0.7j, -0.4])]
        bare = [Polynomial(p.coeffs[::-1] + 1.0) for p in rooted]
        polys = [bare[0], rooted[0], rooted[1], bare[1]]
        sets = zero_sets(polys)
        assert sets[1].points is rooted[0].roots and sets[2].points is rooted[1].roots
        assert sets[1].iterations == sets[2].iterations == 0
        for p, rs in zip(bare, (sets[0], sets[3])):
            assert rs.points.tobytes() == find_roots(p).points.tobytes()
            assert rs.iterations > 0


class TestNewtonPass:
    # d + 1 is a multiple of the block length isqrt(d + 1) for d <= 24
    # and leaves a partial last block for d >= 191
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 24, 191, 192, 193, 511, 1024])
    def test_within_horner_bound_of_50_digit_values(self, d):
        # Horner's a-priori bound (Higham, Accuracy and Stability of
        # Numerical Algorithms, 5.1): |computed - p(x)| <= gamma_{2d} *
        # sum_k |c_k| |x|^k, here gamma_{2d+1} since the stored k c_k and
        # |c_k| are rounded once; the corrections and backward errors
        # follow to first order, plus a few roundings in the quotients
        rng = np.random.default_rng(d)
        c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        c = c / c[-1]
        phase = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 3))
        near_roots = find_roots(Polynomial(c)).points[:3]
        z = np.concatenate(
            [r * phase for r in (0.4, 0.999, 1.0, 1.001, 3.0)]
            + [np.array([1.0, -1.0, 1j, -1j]), near_roots]
        )
        wn, res = _newton_pass(_horner_table(c[None, :]), d, np.zeros(z.size, np.intp), z)
        assert np.all(np.isfinite(wn)) and np.all(np.isfinite(res))
        g, u = _gamma(2 * d + 1), UNIT_ROUNDOFF
        with mpmath.workdps(50):
            for zk, wk, rk in zip(z, wn, res):
                outside = abs(zk) > 1.0
                # the pass evaluates the reversed polynomial at the float 1/z
                x = complex(1.0 / zk) if outside else complex(zk)
                a = c[::-1] if outside else c
                p, dp = mpmath.polyval([mpmath.mpc(v) for v in a[::-1]], x, derivative=True)
                s, ds = mpmath.polyval(
                    [abs(mpmath.mpc(v)) for v in a[::-1]], abs(x), derivative=True
                )
                e_p, e_dp = g * s, g * ds
                if outside:
                    den = x * (d * p - x * dp)
                    e_den = abs(x) * (d * e_p + abs(x) * e_dp)
                    e_den += 6 * u * abs(x) * (d * abs(p) + abs(x) * abs(dp))
                else:
                    den, e_den = dp, e_dp
                if abs(den) > 2 * e_den:
                    w = p / den
                    bound = (e_p + abs(w) * e_den) / (abs(den) - e_den) + 8 * u * abs(w)
                    assert abs(wk - w) <= bound, (zk, abs(wk - w), bound)
                r = abs(p) / s
                bound = g * (1 + r) / (1 - g) + 2 * u * r
                assert abs(rk - r) <= bound, (zk, abs(rk - r), bound)

    def test_values_do_not_depend_on_the_other_iterates(self):
        rng = np.random.default_rng(11)
        c = rng.standard_normal((3, 193)) + 1j * rng.standard_normal((3, 193))
        z = 1.5 * (rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60))
        rows = rng.integers(0, 3, 60)
        wn, res = _newton_pass(_horner_table(c), 192, rows, z)
        for k in range(60):
            table = _horner_table(c[rows[k], None])
            one = _newton_pass(table, 192, np.zeros(1, np.intp), z[k : k + 1])
            assert one[0].tobytes() == wn[k : k + 1].tobytes()
            assert one[1].tobytes() == res[k : k + 1].tobytes()


def test_critical_points_of_derivative_match_theory():
    # f = z^3 - 3z has critical points exactly at +-1
    p = Polynomial([0.0, -3.0, 0.0, 1.0])
    rs = find_roots(derivative(p))
    assert match_max_distance(rs.points, [1.0, -1.0]) < 1e-14
