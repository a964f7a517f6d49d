import numpy as np
import pytest

from siwf.noise import coarsen, generate_noise, generate_noise_block


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
