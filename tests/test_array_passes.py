"""The array passes of the small-solve path against the loops they replace.

Each reference below is the per-row, per-edge or per-point loop the
package used before, or for the Newton pass its dense Horner table, for
the Leja order its per-step masking of the chosen roots and for the
identity suite its three Horner walks, kept here as the oracle: the
array pass must give the same bits, and for the samplers (the identity
points and the random instances) the same generator state.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sendovlab.cli import _sample_points
from sendovlab.families import FamilyParams, miller_family, random_instances
from sendovlab.poly_core import _horner, _leja_orders, derivative, from_roots, from_roots_batch
from sendovlab.potential import IDENTITY_STANDOFF, _values_to_second_derivative
from sendovlab.rootfind import (
    _START_ROTATION,
    _aberth_step,
    _horner_table,
    _newton_pass,
    _start_points,
    _upper_hull,
)


def _sample_points_loop(rng, count, avoid):
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) <= 2.0 and np.min(np.abs(z - avoid)) >= IDENTITY_STANDOFF:
            out.append(z)
    return np.array(out, dtype=np.complex128)


def _random_instances_loop(rng, n, count):
    """Roots, coefficients and a of each instance, drawn and rotated one row at a time."""
    roots = np.empty((count, n), dtype=np.complex128)
    for row in range(count):
        angles = 2.0 * np.pi * (np.arange(n) + rng.uniform(0.15, 0.85, n)) / n
        radii = rng.uniform(0.7, 1.0, n)
        roots[row] = radii * np.exp(1j * angles)
    rotated = np.empty_like(roots)
    tops = []
    for row, k in enumerate(np.argmax(np.abs(roots), axis=1)):
        z0 = complex(roots[row, k])
        a = abs(z0)
        rotated[row] = roots[row] * (z0.conjugate() / a if z0 != 0 else 1.0)
        rotated[row, k] = a
        tops.append(min(a, 1.0))
    return rotated, from_roots_batch(rotated), tops


def _start_points_loop(abs_coeffs):
    b, w = abs_coeffs.shape
    d = w - 1
    with np.errstate(divide="ignore"):
        logc = np.log(abs_coeffs)
    z = np.empty((b, d), dtype=np.complex128)
    for row in range(b):
        lc = logc[row].tolist()
        hull = _upper_hull(lc)
        offset = 0
        for i, j in zip(hull[:-1], hull[1:]):
            m = j - i
            radius = np.exp((lc[i] - lc[j]) / m)
            ell = np.arange(m)
            angles = (
                2.0 * np.pi * ell / m
                + 2.0 * np.pi * offset / d
                + _START_ROTATION
                + 1e-3 * np.cos(3.0 * ell)
            )
            z[row, offset : offset + m] = radius * np.exp(1j * angles)
            offset += m
    return z


def _dense_table(coeffs):
    """Every block of the Horner table, live or dead: the table the pass once read."""
    n_rows, w = coeffs.shape
    b = math.isqrt(w)
    nb = -(-w // b)
    a = np.stack([coeffs, coeffs[:, ::-1]], axis=1)
    table = np.zeros((n_rows, 2, 3, nb * b), dtype=np.complex128)
    table[:, :, 0, :w] = a
    table[:, :, 1, : w - 1] = a[:, :, 1:] * np.arange(1, w)
    table[:, :, 2, :w] = np.abs(a)
    return table.reshape(2 * n_rows, 3, nb, b).transpose(3, 1, 2, 0).copy()


def _newton_pass_out_of_place(table, d, rows, z):
    """The pass over a dense table, every block of every Horner step out of place."""
    b, _, nb, _ = table.shape
    outside = np.abs(z) > 1.0
    x = np.where(outside, 1.0 / z, z)
    groups = 2 * rows + outside
    step = np.stack([x, x, np.abs(x).astype(np.complex128)])
    blocks = np.take(table[b - 1], groups, axis=2)
    for i in range(b - 2, -1, -1):
        blocks = blocks * step[:, None] + np.take(table[i], groups, axis=2)
    xb = step
    for bit in bin(b)[3:]:
        xb = xb * xb
        if bit == "1":
            xb = xb * step
    acc = blocks[:, nb - 1]
    for j in range(nb - 2, -1, -1):
        acc = acc * xb + blocks[:, j]
    p, dp, scale = acc[0], acc[1], acc[2].real
    den = np.where(outside, x * (d * p - x * dp), dp)
    den = np.where(den == 0, 1e-300, den)
    return p / den, np.abs(p) / scale


def _leja_orders_masked(roots):
    """Leja order with the chosen roots masked to -inf and the ties broken among unchosen ones."""
    b, m = roots.shape
    order = np.tile(np.arange(m), (b, 1))
    if m <= 2:
        return order
    rows = np.arange(b)
    chosen = np.zeros((b, m), dtype=bool)
    order[:, 0] = np.argmax(np.abs(roots), axis=1)
    chosen[rows, order[:, 0]] = True
    score = np.zeros((b, m))
    for k in range(1, m):
        with np.errstate(divide="ignore"):
            score += np.log(np.abs(roots - roots[rows, order[:, k - 1], None]))
        masked = np.where(chosen, -np.inf, score)
        best = masked.max(axis=1)
        nxt = np.argmax(~chosen & (masked == best[:, None]), axis=1)
        order[:, k] = nxt
        chosen[rows, nxt] = True
    return order


def _aberth_step_unblocked(z, wn, rows, cols):
    diff = z[rows, cols][:, None] - z[rows]
    diff[np.arange(rows.size), cols] = np.inf
    s = np.sum(1.0 / diff, axis=1)
    denom = 1.0 - wn * s
    denom = np.where(denom == 0, 1.0, denom)
    return wn / denom


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _monic_moduli(coeffs):
    coeffs = np.atleast_2d(coeffs)
    return np.abs(coeffs / coeffs[:, -1, None])


class TestSamplePoints:
    @pytest.mark.parametrize("count", [1, 40, 200])
    @pytest.mark.parametrize("dense", [False, True])
    def test_points_and_stream_equal_the_loop(self, count, dense):
        setup = np.random.default_rng(3)
        size = 1500 if dense else 12
        avoid = setup.uniform(-2, 2, size) + 1j * setup.uniform(-2, 2, size)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        got = _sample_points(rng, count, avoid)
        want = _sample_points_loop(ref, count, avoid)
        assert got.size == count
        assert _same_bits(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.uniform() == ref.uniform()


class TestRandomInstances:
    @pytest.mark.parametrize("count", [1, 16, 64])
    @pytest.mark.parametrize("n", [2, 24, 48])
    def test_instances_and_stream_equal_the_loop(self, count, n):
        rng, ref = np.random.default_rng(count + n), np.random.default_rng(count + n)
        insts = random_instances(rng, n, count)
        roots, coeffs, tops = _random_instances_loop(ref, n, count)
        assert _same_bits(np.stack([inst.f.roots for inst in insts]), roots)
        assert _same_bits(np.stack([inst.f.coeffs for inst in insts]), coeffs)
        assert [inst.a for inst in insts] == tops
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.uniform() == ref.uniform()


class TestIdentityEvaluation:
    @pytest.mark.parametrize("n", [2, 3, 24, 64])
    def test_one_walk_equals_three(self, n):
        # n = 2 has a constant f''; the iterates lie inside and outside
        # |z| = 1, on the axes with either sign of zero in the other part
        rng = np.random.default_rng(n)
        f = from_roots(rng.uniform(0.7, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
        z = _iterates(rng, 200)
        assert (np.abs(z) > 1).any() and (np.abs(z) < 1).any()
        fp = derivative(f).coeffs
        fpp = fp[1:] * np.arange(1, fp.size)
        got = _values_to_second_derivative(f, z)
        want = (_horner(f.coeffs, z), _horner(fp, z), _horner(fpp, z))
        assert len(got) == 3
        assert all(_same_bits(g, w) for g, w in zip(got, want))


class TestStartPoints:
    def test_random_batch(self):
        insts = random_instances(np.random.default_rng(5), 24, 64)
        rows = np.stack([derivative(inst.f).coeffs for inst in insts])
        moduli = _monic_moduli(rows)
        assert moduli.shape == (64, 24)
        assert _same_bits(_start_points(moduli), _start_points_loop(moduli))

    def test_miller_row(self):
        params = FamilyParams(n=192, c1=1.0, c2=2.0, lambdas=np.array([0.3 + 0.8j]))
        coeffs = np.trim_zeros(miller_family(params).f.coeffs, "f")
        moduli = _monic_moduli(coeffs)
        assert _same_bits(_start_points(moduli), _start_points_loop(moduli))

    def test_interior_zero_coefficients(self):
        # n z^(n-1) - 1, the derivative of z^n - z
        n = 64
        coeffs = np.zeros(n, dtype=complex)
        coeffs[0], coeffs[-1] = -1.0, n
        moduli = _monic_moduli(coeffs)
        assert _same_bits(_start_points(moduli), _start_points_loop(moduli))


class TestLejaOrders:
    @pytest.mark.parametrize("b", [1, 16, 64])
    @pytest.mark.parametrize("kind", ["random", "tied", "repeated", "all-equal", "mixed"])
    def test_equals_the_masked_order(self, b, kind):
        rng = np.random.default_rng(b)
        for m in (1, 2, 3, 7, 24, 48):
            roots = rng.standard_normal((b, m)) + 1j * rng.standard_normal((b, m))
            if kind == "tied":
                # integer points: many equal distance products
                roots = np.round(2 * roots)
            elif kind == "repeated":
                roots[:, m // 2 :] = roots[:, : m - m // 2]
            elif kind == "all-equal":
                roots[:] = roots[:, :1]
            elif kind == "mixed":
                roots[::3, 1:] = roots[::3, :1]
                roots[1::3, m // 2 :] = roots[1::3, : m - m // 2]
            got = _leja_orders(roots)
            assert got.dtype == np.intp and got.shape == (b, m)
            assert np.array_equal(got, _leja_orders_masked(roots))
            assert np.array_equal(np.sort(got, axis=1), np.tile(np.arange(m), (b, 1)))

    def test_repeat_free_row_of_512(self):
        # no root repeats, so no step tests for a row without a finite score
        rng = np.random.default_rng(512)
        roots = (rng.standard_normal(512) + 1j * rng.standard_normal(512))[None, :]
        assert np.unique(roots).size == 512
        assert np.array_equal(_leja_orders(roots), _leja_orders_masked(roots))


def _sparse(d, terms):
    """Ascending coefficients of degree d with the given {power: coefficient}."""
    coeffs = np.zeros(d + 1, dtype=np.complex128)
    for k, c in terms.items():
        coeffs[k] = c
    return coeffs


def _iterates(rng, count, roots=()):
    """Iterates at moduli 0.2 to 3, on both axes and at the given roots.

    The axis points lie inside and outside |z| = 1, each with either sign
    of zero in its other part: there the parts of p that vanish are sums
    of signed zeros, which the pass must round as the dense table does.
    """
    z = rng.uniform(0.2, 3.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    axes = [
        complex(*pair)
        for t in (0.3, 0.9, 1.0, 1.7, 40.0)
        for s in (t, -t)
        for zero in (0.0, -0.0)
        for pair in ((s, zero), (zero, s))
    ]
    return np.concatenate([z, [0j], axes, roots])


def _assert_pass_equals_the_dense_oracle(coeffs, z, rows):
    d = coeffs.shape[1] - 1
    table, slots = _horner_table(coeffs)
    live = np.flatnonzero(np.array(slots) >= 0)
    dense = _dense_table(coeffs)
    assert len(slots) == dense.shape[2]
    assert np.array_equal(np.array(slots)[live], np.arange(live.size))
    # the live blocks are the dense table's, and every other block is +0
    assert _same_bits(table, dense[:, :, live])
    dead = np.setdiff1d(np.arange(dense.shape[2]), live)
    assert not dense[:, :, dead].view(np.uint64).any()
    # 1/z at z = 0 divides by zero in the branch np.where discards, and
    # p/p' overflows where p' underflows at small |z|
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        got = _newton_pass((table, slots), d, rows, z)
        want = _newton_pass_out_of_place(dense, d, rows, z)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    return live, dense.shape[2]


class TestNewtonPass:
    def test_equals_the_out_of_place_pass(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=(3, 41)) + 1j * rng.normal(size=(3, 41))
        rows = np.repeat(np.arange(3), 50)
        # moduli from 0.2 to 3: both orientations of the table are read
        z = rng.uniform(0.2, 3.0, rows.size) * np.exp(2j * np.pi * rng.uniform(size=rows.size))
        assert (np.abs(z) > 1).any() and (np.abs(z) <= 1).any()
        live, nb = _assert_pass_equals_the_dense_oracle(coeffs, z, rows)
        assert live.size == nb

    @pytest.mark.parametrize("n", [128, 256, 512, 1000])
    @pytest.mark.parametrize("example", ["circle", "origin-stripped", "origin-derivative"])
    def test_extremal_examples_read_only_live_blocks(self, n, example):
        # z^n - 1, z^(n-1) - 1 (z^n - z with its zero root stripped) and
        # n z^(n-1) - 1: their few nonzero terms fall in different blocks
        if example == "circle":
            coeffs = _sparse(n, {0: -1.0, n: 1.0})
            roots = np.exp(2j * np.pi * np.arange(n) / n)
        elif example == "origin-stripped":
            coeffs = _sparse(n - 1, {0: -1.0, n - 1: 1.0})
            roots = np.exp(2j * np.pi * np.arange(n - 1) / (n - 1))
        else:
            coeffs = _sparse(n - 1, {0: -1.0, n - 1: float(n)})
            roots = n ** (-1.0 / (n - 1)) * np.exp(2j * np.pi * np.arange(n - 1) / (n - 1))
        z = _iterates(np.random.default_rng(n), 200, roots)
        rows = np.zeros(z.size, np.intp)
        live, nb = _assert_pass_equals_the_dense_oracle(coeffs[None, :], z, rows)
        assert live.size <= 3 < nb and live[-1] == nb - 1

    def test_dead_blocks_add_a_positive_zero(self):
        # z^128 - 1 with c_0 = -(1 + 0j) = -1 - 0j: at -0 - 0.3j and its
        # like, the imaginary part of p is a signed zero that comes out as
        # the dense table's only because every dead block adds +0
        coeffs = _sparse(128, {0: -(1 + 0j), 128: 1.0})[None, :]
        assert np.signbit(coeffs[0, 0].imag)
        z = _iterates(np.random.default_rng(128), 20)
        live, nb = _assert_pass_equals_the_dense_oracle(coeffs, z, np.zeros(z.size, np.intp))
        assert live.size == 2 < nb

    def test_interior_run_of_dead_blocks(self):
        # 1 + z^40 + z^200: b = 14, and blocks 0, 2, 11 and 14 of 15 are live
        coeffs = _sparse(200, {0: 1.0, 40: 1.0, 200: 1.0})[None, :]
        z = _iterates(np.random.default_rng(40), 300)
        live, nb = _assert_pass_equals_the_dense_oracle(coeffs, z, np.zeros(z.size, np.intp))
        assert live.tolist() == [0, 2, 11, 14] and nb == 15

    def test_mixed_batch_reads_the_union_of_live_blocks(self):
        rng = np.random.default_rng(19)
        d = 300
        dense_row = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        coeffs = np.stack([_sparse(d, {0: -1.0, d: 1.0}), dense_row])
        z = _iterates(rng, 200)
        rows = np.arange(z.size) % 2
        live, nb = _assert_pass_equals_the_dense_oracle(coeffs, z, rows)
        assert live.size == nb
        # the sparse row alone reads two blocks; with the dense one, every block
        assert _horner_table(coeffs[:1])[0].shape[2] == 2

    def test_memory_stays_linear_in_the_iterates(self):
        # the blocks of 1024 iterates at d = 512 are 1.2 MB; gathering the
        # whole table for them at once would be about 26 MB.  The row is
        # dense, so every one of its 24 blocks is live and gathered.
        d = 512
        coeffs = np.random.default_rng(512).normal(size=(1, d + 1)).astype(np.complex128)
        table = _horner_table(coeffs)
        assert table[1] == list(range(24))
        z = 0.9 * np.exp(2j * np.pi * (np.arange(1024) + 0.5) / 1024)
        rows = np.zeros(z.size, dtype=np.intp)
        tracemalloc.start()
        try:
            _newton_pass(table, d, rows, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestAberthStep:
    def test_blocks_keep_bits_and_bound_memory(self):
        d = 2048
        rng = np.random.default_rng(13)
        z = (rng.uniform(0.5, 1.5, d) * np.exp(2j * np.pi * rng.uniform(size=d)))[None, :]
        wn = 1e-3 * (rng.normal(size=d) + 1j * rng.normal(size=d))
        rows, cols = np.zeros(d, dtype=np.intp), np.arange(d)
        want = _aberth_step_unblocked(z, wn, rows, cols)
        tracemalloc.start()
        try:
            got = _aberth_step(z, wn, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_bits(got, want)
        # one block of 2^20 complex entries is 16.8 MB; the unblocked step
        # holds two 67 MB (d x d) complex arrays
        assert peak < 24e6
