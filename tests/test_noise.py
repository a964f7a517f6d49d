import numpy as np
import pytest
from scipy.special import ndtri

from siwf import noise
from siwf.noise import _ndtri, _uniforms, coarsen, generate_noise, generate_noise_block

EXPM2 = np.exp(-2.0)


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        a = generate_noise(1234, 2, 1e-3, 500)
        b = generate_noise(1234, 2, 1e-3, 500)
        assert np.array_equal(a.increments, b.increments)

    def test_streams_differ(self):
        a = generate_noise(1234, 1, 1e-3, 100, stream=0)
        b = generate_noise(1234, 1, 1e-3, 100, stream=1)
        assert not np.array_equal(a.increments, b.increments)

    def test_seeds_differ(self):
        a = generate_noise(1, 1, 1e-3, 100)
        b = generate_noise(2, 1, 1e-3, 100)
        assert not np.array_equal(a.increments, b.increments)

    def test_block_matches_individual_streams(self):
        block = generate_noise_block(99, 2, 1e-3, 50, [3, 7, 11])
        for row, stream in zip(block, [3, 7, 11]):
            single = generate_noise(99, 2, 1e-3, 50, stream=stream)
            assert np.array_equal(row, single.increments)


class TestStatistics:
    def test_mean_clt_bound(self):
        dt = 1e-3
        n = 1_000_000
        inc = generate_noise(2024, 1, dt, n).increments
        assert abs(inc.mean()) <= 4 * np.sqrt(dt / n)

    def test_variance_within_one_percent(self):
        dt = 1e-3
        inc = generate_noise(2025, 1, dt, 1_000_000).increments
        assert abs(inc.var() / dt - 1.0) <= 0.01


class TestPaths:
    def test_coarsen_sums_pairs(self):
        path = generate_noise(5, 2, 0.01, 10)
        coarse = coarsen(path, 2)
        assert coarse.n_steps == 5
        assert coarse.dt == pytest.approx(0.02)
        expected = path.increments.reshape(5, 2, 2).sum(axis=1)
        assert np.array_equal(coarse.increments, expected)

    def test_coarsen_preserves_endpoint(self):
        path = generate_noise(8, 1, 1e-3, 64)
        for factor in (2, 4, 8):
            coarse = coarsen(path, factor)
            assert coarse.increments.sum() == pytest.approx(
                path.increments.sum(), abs=1e-12
            )

    def test_coarsen_rejects_indivisible(self):
        path = generate_noise(8, 1, 1e-3, 10)
        with pytest.raises(ValueError):
            coarsen(path, 3)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            generate_noise(0, 1, 0.0, 10)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_block_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            generate_noise_block(1, 1, dt, 3, [0])

    @pytest.mark.parametrize("n_channels, n_steps", [(-1, 3), (1, -3)])
    def test_block_rejects_negative_shape(self, n_channels, n_steps):
        with pytest.raises(ValueError, match="must be non-negative"):
            generate_noise_block(1, n_channels, 1e-3, n_steps, [0])


def _ulps(got, ref):
    return np.abs(got - ref) / np.spacing(np.abs(ref))


class TestNdtri:
    """The numpy port of Cephes ndtri against scipy.special.ndtri."""

    @pytest.fixture(scope="class")
    def draws(self):
        u = np.random.Generator(np.random.Philox(key=2024)).random(1 << 20)
        return u, _ndtri(u.copy())

    def test_central_draws_bit_identical(self, draws):
        u, got = draws
        central = (u > EXPM2) & (u <= 1.0 - EXPM2)
        assert central.mean() > 0.7
        assert np.array_equal(got[central], ndtri(u[central]))

    def test_tail_draws_within_8_ulp(self, draws):
        # the tail calls numpy's log, whose last bit may differ from the C
        # library's; over 16M draws the gap reached 5 ulp, on 2 draws
        u, got = draws
        tail = (u <= EXPM2) | (u > 1.0 - EXPM2)
        assert _ulps(got[tail], ndtri(u[tail])).max() <= 8

    def test_edge_inputs(self):
        central = np.array([0.5, np.nextafter(EXPM2, 1),
                            np.nextafter(1 - EXPM2, 0)])
        assert np.array_equal(_ndtri(central.copy()), ndtri(central))
        tail = np.array([2.0**-64, 1 - 2.0**-53, 1e-15,
                         np.nextafter(EXPM2, 0), np.nextafter(1 - EXPM2, 1)])
        assert tail[2] < np.exp(-32.0)  # the P2/Q2 branch
        assert _ulps(_ndtri(tail.copy()), ndtri(tail)).max() <= 8

    def test_zero_reads_as_two_to_minus_64(self):
        assert _ndtri(np.array([0.0]))[0] == ndtri(2.0**-64)

    def test_empty(self):
        assert _ndtri(np.empty(0)).shape == (0,)


class TestBlockGenerator:
    def test_rekeyed_generator_matches_fresh_ones(self):
        # an odd draw count leaves the previous stream's buffer half used
        seed, streams = 77, [0, 5, 2**64 + 3, 10**20]
        out = np.empty((len(streams), 37, 1))
        _uniforms(seed, streams, out)
        for row, s in zip(out, streams):
            key = np.array([seed, s & (2**64 - 1)], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(row, fresh.random((37, 1)))

    def test_chunking_does_not_change_values(self):
        # rows straddle _ndtri chunk boundaries in the block, not alone
        n_steps = noise._CHUNK // 3 + 7
        streams = [4, 0, 9, 2]
        block = generate_noise_block(11, 2, 1e-3, n_steps, streams)
        assert block.size > 2 * noise._CHUNK
        for row, s in zip(block, streams):
            single = generate_noise_block(11, 2, 1e-3, n_steps, [s])[0]
            assert np.array_equal(row, single)
