"""Jittering: grow the training set with Gaussian-perturbed copies.

Noise is added to features only, never to targets, and the pipeline applies
it after standardization so one ``sigma_scale`` means the same relative
perturbation in every column. Validation and test rows are never jittered;
the cross-validation harness enforces that by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import RandomSource


@dataclass
class JitterConfig:
    sigma_scale: float = 0.01  # noise stddev as a multiple of column stddev
    copies: int = 1  # jittered replicas appended per original row

    def validate(self) -> None:
        if self.sigma_scale < 0:
            raise ParameterError(f"sigma_scale must be >= 0, got {self.sigma_scale}")
        if self.copies < 0:
            raise ParameterError(f"copies must be >= 0, got {self.copies}")


def jitter(X: np.ndarray, sigma_per_column: np.ndarray, rng: RandomSource) -> np.ndarray:
    """One perturbed copy of X: entry (i, j) gains N(0, sigma_j**2) noise.

    Draws a standard-normal matrix in row-major order and scales it per
    column, so a zero sigma yields exactly the original values.
    """
    X = np.asarray(X, dtype=np.float64)
    sigma = np.asarray(sigma_per_column, dtype=np.float64)
    if sigma.shape != (X.shape[1],):
        raise ShapeError(f"need one sigma per column: X has {X.shape[1]}, got {sigma.shape}")
    if np.any(sigma < 0):
        raise ParameterError("column sigmas must be >= 0")
    noise = rng.gaussians(0.0, 1.0, X.size).reshape(X.shape)
    return X + noise * sigma


def augment_training_set(
    X: np.ndarray,
    y: np.ndarray,
    config: JitterConfig,
    rng: RandomSource,
) -> tuple[np.ndarray, np.ndarray]:
    """Originals followed by ``copies`` jittered blocks with unchanged targets.

    Column noise is ``sigma_scale`` times the column's own stddev, which is
    1 for standardized input.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    config.validate()
    if config.copies == 0:
        return X.copy(), y.copy()
    sigma = config.sigma_scale * X.std(axis=0)
    blocks_X = [X]
    blocks_y = [y]
    for _ in range(config.copies):
        blocks_X.append(jitter(X, sigma, rng))
        blocks_y.append(y)
    return np.vstack(blocks_X), np.concatenate(blocks_y)
