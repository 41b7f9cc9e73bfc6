import numpy as np
import pytest

from updrspred.augment import SIGMA_SCALE, augment_training_set, jitter
from updrspred.errors import ParameterError, ShapeError
from updrspred.linalg import RandomSource


class TestJitter:
    def test_zero_sigma_is_identity(self):
        X = np.arange(12.0).reshape(4, 3)
        out = jitter(X, np.zeros(3), RandomSource(0))
        assert np.array_equal(out, X)

    def test_noise_statistics(self):
        X = np.zeros((100_000, 1))
        out = jitter(X, np.array([1.0]), RandomSource(7))
        delta = out - X
        assert abs(delta.mean()) < 0.02
        assert abs(delta.std() - 1.0) < 0.02

    def test_same_seed_identical(self):
        X = np.arange(20.0).reshape(5, 4)
        sigma = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(
            jitter(X, sigma, RandomSource(5)), jitter(X, sigma, RandomSource(5))
        )

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            jitter(np.zeros((2, 2)), np.array([0.1, -0.1]), RandomSource(0))

    def test_sigma_length_checked(self):
        with pytest.raises(ShapeError):
            jitter(np.zeros((2, 2)), np.array([0.1]), RandomSource(0))

    def test_per_column_scaling(self):
        X = np.zeros((50_000, 2))
        out = jitter(X, np.array([0.5, 2.0]), RandomSource(9))
        assert abs(out[:, 0].std() - 0.5) < 0.02
        assert abs(out[:, 1].std() - 2.0) < 0.05


class TestAugmentTrainingSet:
    def test_zero_copies_is_identity(self):
        X = np.arange(6.0).reshape(3, 2)
        y = np.array([1.0, 2.0, 3.0])
        Xa, ya = augment_training_set(X, y, 0, RandomSource(0))
        assert np.array_equal(Xa, X) and np.array_equal(ya, y)

    def test_block_layout(self):
        rng = RandomSource(1)
        X = rng.gaussians(0, 1, 200).reshape(100, 2)
        y = rng.gaussians(0, 1, 100)
        Xa, ya = augment_training_set(X, y, 2, RandomSource(2))
        assert Xa.shape == (300, 2) and ya.shape == (300,)
        assert np.array_equal(Xa[:100], X)

    def test_targets_never_perturbed(self):
        rng = RandomSource(3)
        X = rng.gaussians(0, 1, 60).reshape(30, 2)
        y = rng.gaussians(5, 2, 30)
        _, ya = augment_training_set(X, y, 3, RandomSource(4))
        for block in range(4):
            assert np.array_equal(ya[block * 30 : (block + 1) * 30], y)

    def test_standardized_input_noise_scale(self):
        rng = RandomSource(6)
        X = rng.gaussians(0, 1, 40_000).reshape(20_000, 2)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = np.zeros(20_000)
        Xa, _ = augment_training_set(X, y, 1, RandomSource(7))
        delta = Xa[20_000:] - X
        assert abs(delta.std() - SIGMA_SCALE) < 0.1 * SIGMA_SCALE

    def test_noise_follows_column_stddev(self):
        X = np.column_stack([np.tile([-10.0, 10.0], 15_000), np.tile([-1.0, 1.0], 15_000)])
        y = np.zeros(30_000)
        Xa, _ = augment_training_set(X, y, 1, RandomSource(8))
        delta = Xa[30_000:] - X
        assert abs(delta[:, 0].std() - 10.0 * SIGMA_SCALE) < 0.02 * 10.0 * SIGMA_SCALE
        assert abs(delta[:, 1].std() - SIGMA_SCALE) < 0.02 * SIGMA_SCALE

    def test_negative_copies_rejected(self):
        with pytest.raises(ParameterError, match="copies must be >= 0"):
            augment_training_set(np.zeros((3, 2)), np.zeros(3), -1, RandomSource(0))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            augment_training_set(np.zeros((3, 2)), np.zeros(4), 1, RandomSource(0))
