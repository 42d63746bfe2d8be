import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendovlab.families import FamilyParams, random_instances
from sendovlab.measures import EmpiricalMeasure
from sendovlab.poly_core import (
    Polynomial,
    SendovInstance,
    derivative,
    evaluate,
    from_roots,
    from_roots_batch,
)
from sendovlab.poly_core import _horner, _leja_orders
from sendovlab.potential import CircleDensity
from sendovlab.rootfind import RootSet, certified, zero_sets


class TestPolynomialConstruction:
    def test_degree_and_leading(self):
        p = Polynomial([1.0, -2.0, 0.0, 1.0])
        assert p.degree == 3
        assert p.leading == 1.0
        assert p.monic

    def test_rejects_constant(self):
        with pytest.raises(ValueError, match="degree"):
            Polynomial([3.0])

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError, match="leading"):
            Polynomial([1.0, 2.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Polynomial([1.0, np.inf])

    def test_rejects_2d_coeffs(self):
        with pytest.raises(ValueError, match="coeffs must be one-dimensional"):
            Polynomial([[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_root_count_mismatch(self):
        with pytest.raises(ValueError, match="root count"):
            Polynomial([-1.0, 0.0, 1.0], roots=[1.0])

    def test_rejects_inconsistent_roots(self):
        # the roots are stored as given and refused where they are used
        p = Polynomial([-1.0, 0.0, 1.0], roots=[0.5, -0.5])
        with pytest.raises(RuntimeError, match="certificate"):
            certified(zero_sets([p])[0])

    def test_coeffs_read_only(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    def test_callers_arrays_stay_writeable(self):
        # the polynomial keeps read-only copies and never freezes the
        # arrays it was built from
        r = np.array([0.5, -0.5j])
        p = from_roots(r)
        c = np.array([-1.0, 0.0, 1.0], dtype=np.complex128)
        q = Polynomial(c)
        s = np.array([1.0, -1.0], dtype=np.complex128)
        a = Polynomial(q.coeffs, s)
        for arr in (r, c, s):
            assert arr.flags.writeable
        for arr in (p.coeffs, p.roots, q.coeffs, a.coeffs, a.roots):
            assert not arr.flags.writeable
        r[0], c[0], s[0] = 9.0, 9.0, 9.0
        assert p.roots[0] == 0.5
        assert q.coeffs[0] == -1.0
        assert a.roots[0] == 1.0

    def test_frozen_classes_leave_callers_arrays_writeable(self):
        # each keeps a read-only copy of a writeable array it is built
        # from, and keeps an array that is already read-only as it is
        pts = np.array([0.5, -0.5j])
        res = np.array([1e-16, 2e-16])
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        lams = np.array([0.3 + 0.8j])
        rs = RootSet(pts, res, True)
        em = EmpiricalMeasure(pts)
        cd = CircleDensity(1.5, samples)
        fp = FamilyParams(n=8, c1=1.0, c2=2.0, lambdas=lams)
        for arr in (pts, res, samples, lams):
            assert arr.flags.writeable
        kept = (rs.points, rs.residuals, em.points, cd.samples, fp.lambdas)
        for arr in kept:
            assert not arr.flags.writeable
        pts[0], res[0], samples[0], lams[0] = 9.0, 9.0, 9.0, 9.0
        assert rs.points[0] == em.points[0] == 0.5
        assert rs.residuals[0] == 1e-16
        assert cd.samples[0] == 1.0
        assert fp.lambdas[0] == 0.3 + 0.8j
        assert RootSet(rs.points, rs.residuals, True).points is rs.points
        assert EmpiricalMeasure(rs.points).points is rs.points
        assert CircleDensity(1.5, cd.samples).samples is cd.samples
        assert FamilyParams(n=8, c1=1.0, c2=2.0, lambdas=fp.lambdas).lambdas is fp.lambdas

    def test_consistency_check_accepts_cyclic_roots_degree_64(self):
        # angular-ordered roots of unity are the worst case for naive
        # incremental expansion; the certificate where the roots are used
        # must not false-alarm on them
        n = 64
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[0], coeffs[n] = -1.0, 1.0
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        p = Polynomial(coeffs, roots)
        assert p.degree == n
        assert certified(zero_sets([p])[0]).points is p.roots


class TestFromRoots:
    def test_quadratic_oracle(self):
        p = from_roots([1.0, -1.0])
        assert np.allclose(p.coeffs, [-1.0, 0.0, 1.0], rtol=0, atol=1e-15)

    def test_monic(self):
        p = from_roots([2.0, -0.5j])
        assert p.leading == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_roots([])

    def test_roots_of_unity_expansion_is_stable(self):
        n = 64
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        p = from_roots(roots)
        expected = np.zeros(n + 1, dtype=complex)
        expected[0], expected[n] = -1.0, 1.0
        assert np.max(np.abs(p.coeffs - expected)) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=7,
        )
    )
    def test_expansion_reproduces_the_product(self, roots):
        roots = np.array(roots, dtype=complex)
        try:
            p = from_roots(roots)
        except ValueError as exc:
            # refused only where the constant term underflows to 0
            assert "underflows" in str(exc)
            assert np.prod(np.abs(roots)) < np.finfo(float).tiny
            return
        z = 1.5 + 0.5j
        direct = np.prod(z - roots)
        assert abs(evaluate(p, z) - direct) <= 1e-10 * max(1.0, abs(direct))


class TestFromRootsBatch:
    def test_matches_single_expansion(self):
        rng = np.random.default_rng(11)
        roots = 0.8 * (rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)))
        batch = from_roots_batch(roots)
        for row, crow in zip(roots, batch):
            assert np.max(np.abs(from_roots(row).coeffs - crow)) < 1e-12

    def test_rejects_an_underflowing_constant_term(self):
        # 0.45^2048 is about 1e-710: c_0 rounds to 0, which leaves middle
        # coefficients of rounding noise whose zeros are not the roots
        n = 2048
        roots = 0.45 * np.exp(2j * np.pi * np.arange(n) / n)
        with pytest.raises(ValueError, match="underflows"):
            from_roots(roots)
        with pytest.raises(ValueError, match="underflows"):
            from_roots_batch(np.stack([roots / 0.45, roots]))

    def test_rejects_an_overflowing_expansion(self):
        with pytest.raises(ValueError, match="overflows"):
            from_roots_batch(np.array([[1.0, 2.0], [1e200, -1e200]]))

    def test_zero_roots_keep_their_zero_constant_term(self):
        c = from_roots_batch(np.array([[0.0, 1e-200, 1e-200], [1.0, 2.0, 3.0]]))
        assert c[0, 0] == 0 and c[1, 0] == -6.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-d"):
            from_roots_batch(np.array([1.0, 2.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            from_roots_batch(np.array([[0.5, np.nan], [1.0, 2.0]]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(1, 9),
        st.integers(1, 14),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_rows_equal_from_roots_bit_for_bit(self, b, m, seed, repeat):
        rng = np.random.default_rng(seed)
        roots = rng.standard_normal((b, m)) + 1j * rng.standard_normal((b, m))
        if repeat:
            roots[:, m // 2 :] = roots[:, : m - m // 2]
        batch = from_roots_batch(roots)
        single = np.array([from_roots(row).coeffs for row in roots])
        assert batch.tobytes() == single.tobytes()


def _leja_reference(roots):
    """Per-row Leja order: first the largest modulus, then max distance product."""
    m = roots.size
    if m <= 2:
        return np.arange(m)
    order = [int(np.argmax(np.abs(roots)))]
    score = np.zeros(m)
    for _ in range(1, m):
        with np.errstate(divide="ignore"):
            score += np.log(np.abs(roots - roots[order[-1]]))
        cand = np.setdiff1d(np.arange(m), order)
        order.append(int(cand[np.argmax(score[cand])]))
    return np.array(order)


def _expand_reference(roots):
    """Multiply out prod (z - r) one root at a time in the reference order."""
    coeffs = np.ones(1, dtype=complex)
    for r in roots[_leja_reference(roots)]:
        nxt = np.zeros(coeffs.size + 1, dtype=complex)
        nxt[1:] = coeffs
        nxt[:-1] -= r * coeffs
        coeffs = nxt
    return coeffs


class TestLejaTies:
    """Repeated roots score -inf against themselves, like the chosen ones."""

    UNITY = np.exp(2j * np.pi * np.arange(3) / 3)
    ROWS = np.array(
        [
            [1, 1, 1, 0.5, 0.5, -1],
            [*UNITY, *UNITY],
            [0.3 + 0.2j] * 6,
            [0, 0, 0, 0, 0.5, 0.5],
            [0.9, -0.2j, 0.4 + 0.4j, -0.7, 0.1, 0.6j],
        ],
        dtype=complex,
    )

    def test_order_is_the_reference_permutation(self):
        orders = _leja_orders(self.ROWS)
        for row, order in zip(self.ROWS, orders):
            assert sorted(order) == list(range(row.size))
            assert order.tolist() == _leja_reference(row).tolist()

    def test_expansion_matches_reference_and_product(self):
        batch = from_roots_batch(self.ROWS)
        z = 1.5 + 0.5j
        for row, coeffs in zip(self.ROWS, batch):
            assert coeffs.tobytes() == _expand_reference(row).tobytes()
            direct = np.prod(z - row)
            assert abs(evaluate(from_roots(row), z) - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_short_rows_keep_their_order(self):
        rows = np.array([[0.1, 0.9], [0.9, 0.1]], dtype=complex)
        assert _leja_orders(rows).tolist() == [[0, 1], [0, 1]]
        assert _leja_orders(rows[:, :1]).tolist() == [[0], [0]]


class TestEvaluate:
    def test_cubic_oracle(self):
        p = Polynomial([1.0, -2.0, 0.0, 1.0])  # z^3 - 2z + 1
        assert evaluate(p, 2.0) == pytest.approx(5.0)
        assert evaluate(p, 1 + 1j) == pytest.approx(-3.0 + 0.0j)

    def test_array_input(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        out = evaluate(p, np.array([0.0, 1.0, 2.0]))
        assert np.allclose(out, [-1.0, 0.0, 3.0])

    def test_scalar_returns_python_complex(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        assert isinstance(evaluate(p, 1.5), complex)

    @pytest.mark.parametrize("d", [1, 24, 48, 191, 512])
    def test_point_walk_equals_the_array_walk(self, d):
        # _horner at one point walks Python complexes; it rounds, bit for
        # bit, as the walk on 0-d complex arrays it replaced
        def array_walk(coeffs, z):
            acc = np.zeros((), dtype=np.complex128)
            for c in coeffs[::-1]:
                acc = acc * z + c
            return acc.tobytes()

        rng = np.random.default_rng(d)
        for _ in range(20):
            c = rng.standard_normal(d + 1) * 10.0 ** rng.uniform(-4, 4, d + 1)
            c = c + 1j * rng.standard_normal(d + 1)
            c[rng.uniform(size=d + 1) < 0.2] = 0
            a = float(rng.uniform(0.0, 1.0))
            z = complex(*rng.uniform(-1.2, 1.2, 2))
            for point in (a, z):
                value = _horner(c, point)
                assert type(value) is complex
                assert np.complex128(value).tobytes() == array_walk(c, point)
            # the scale walk of SendovInstance and miller_family
            scale = np.complex128(_horner(np.abs(c), a)).tobytes()
            assert scale == array_walk(np.abs(c), a)


class TestDerivative:
    def test_coefficients(self):
        p = Polynomial([1.0, -2.0, 0.0, 1.0])
        d = derivative(p)
        assert np.allclose(d.coeffs, [-2.0, 0.0, 3.0])
        assert d.roots is None


class TestSendovInstance:
    def test_requires_monic(self):
        p = Polynomial([-0.5, 0.0, 2.0])  # 2 (z - 0.5) (z + 0.5)
        with pytest.raises(ValueError, match="monic"):
            SendovInstance(p, 0.5)

    def test_requires_zero_at_a(self):
        p = from_roots([0.5, -0.5])
        with pytest.raises(ValueError, match="residual"):
            SendovInstance(p, 0.25)

    def test_requires_a_in_unit_interval(self):
        p = from_roots([1.5, 0.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SendovInstance(p, 1.5)

    def test_rejects_exterior_roots_when_attached(self):
        p = from_roots([1.2, 0.5])
        with pytest.raises(ValueError, match="disk"):
            SendovInstance(p, 0.5)

    def test_coefficient_form_skips_disk_check(self):
        p = from_roots([1.2, 0.5])
        inst = SendovInstance(Polynomial(p.coeffs), 0.5)
        assert inst.n == 2

    def test_n_property(self):
        inst = SendovInstance(from_roots([0.7, -0.1, 0.2]), 0.7)
        assert inst.n == 3


def _drawn_roots(seed, n, count):
    """The zeros that random_instances draws from seed, before it rotates them."""
    draws = np.random.default_rng(seed).uniform([[0.15], [0.7]], [[0.85], [1.0]], (count, 2, n))
    angles = 2.0 * np.pi * (np.arange(n) + draws[:, 0]) / n
    return draws[:, 1] * np.exp(1j * angles)


class TestNormalizeSendov:
    def test_selected_zero_lands_exactly_on_axis(self):
        insts = random_instances(np.random.default_rng(7), 12, 4)
        for inst, roots in zip(insts, _drawn_roots(7, 12, 4)):
            top = int(np.argmax(np.abs(roots)))
            # Python's abs, which rounds some moduli apart from np.abs
            assert inst.a == abs(complex(roots[top]))
            assert inst.f.roots[top] == inst.a + 0j

    def test_pairwise_distances_preserved(self):
        insts = random_instances(np.random.default_rng(8), 16, 4)
        for inst, roots in zip(insts, _drawn_roots(8, 16, 4)):
            before = np.abs(roots[:, None] - roots[None, :])
            after = np.abs(inst.f.roots[:, None] - inst.f.roots[None, :])
            assert np.max(np.abs(before - after)) < 1e-14
