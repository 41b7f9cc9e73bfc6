"""Jittering: grow the training set with Gaussian-perturbed copies.

Noise is added to features only, never to targets, and the pipeline applies
it after standardization so one ``SIGMA_SCALE`` means the same relative
perturbation in every column. Validation and test rows are never jittered;
the cross-validation harness enforces that by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import RandomSource

# noise stddev as a multiple of the column's own stddev
SIGMA_SCALE = 0.01


def jitter(X: np.ndarray, sigma: np.ndarray, rng: RandomSource) -> np.ndarray:
    """One perturbed copy of X: entry (i, j) gains N(0, sigma_j**2) noise.

    Draws a standard-normal matrix in row-major order and scales it per
    column, so a zero sigma yields exactly the original values.
    """
    if sigma.shape != (X.shape[1],):
        raise ShapeError(f"need one sigma per column: X has {X.shape[1]}, got {sigma.shape}")
    if np.any(sigma < 0):
        raise ParameterError("column sigmas must be >= 0")
    noise = rng.gaussians(0.0, 1.0, X.size).reshape(X.shape)
    return X + noise * sigma


def augment_training_set(
    X: np.ndarray,
    y: np.ndarray,
    copies: int,
    rng: RandomSource,
) -> tuple[np.ndarray, np.ndarray]:
    """Originals followed by ``copies`` jittered blocks with unchanged targets.

    Column noise is ``SIGMA_SCALE`` times the column's own stddev, which is
    1 for standardized input.
    """
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if copies < 0:
        raise ParameterError(f"copies must be >= 0, got {copies}")
    if copies == 0:
        return X.copy(), y.copy()
    sigma = SIGMA_SCALE * X.std(axis=0)
    blocks_X = [X]
    blocks_y = [y]
    for _ in range(copies):
        blocks_X.append(jitter(X, sigma, rng))
        blocks_y.append(y)
    return np.vstack(blocks_X), np.concatenate(blocks_y)
