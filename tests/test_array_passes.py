"""The array passes of the small-solve path against the loops they replace.

Each reference below is the per-row, per-edge or per-point loop the
package used before, kept here as the oracle: the array pass must give
the same bits, and for the sampler the same generator state.
"""

import tracemalloc

import numpy as np
import pytest

from sendovlab.cli import _sample_points
from sendovlab.families import FamilyParams, example_circle, miller_family, random_instances
from sendovlab.poly_core import derivative
from sendovlab.potential import IDENTITY_STANDOFF
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


def _newton_pass_out_of_place(table, d, rows, z):
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


class TestNewtonPass:
    def test_equals_the_out_of_place_pass(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=(3, 41)) + 1j * rng.normal(size=(3, 41))
        table = _horner_table(coeffs)
        rows = np.repeat(np.arange(3), 50)
        # moduli from 0.2 to 3: both orientations of the table are read
        z = rng.uniform(0.2, 3.0, rows.size) * np.exp(2j * np.pi * rng.uniform(size=rows.size))
        assert (np.abs(z) > 1).any() and (np.abs(z) <= 1).any()
        got = _newton_pass(table, 40, rows, z)
        want = _newton_pass_out_of_place(table, 40, rows, z)
        assert all(_same_bits(g, w) for g, w in zip(got, want))

    def test_memory_stays_linear_in_the_iterates(self):
        # the blocks of 1024 iterates at d = 512 are 1.2 MB; gathering the
        # whole table for them at once would be about 26 MB
        d = 512
        table = _horner_table(example_circle(d).f.coeffs[None, :])
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
