"""The four linear reference methods behind one fit/predict interface.

All of them model y = Xw + intercept on the standardized, un-augmented
design matrix; they differ only in the solver:

  lls          least squares by Householder QR
  cg           conjugate gradients on the normal equations X'X w = X'y
  adam_linear  full-batch Adam descent on the squared-error objective
  ridge        L2-penalized normal equations (intercept unpenalized)

The Adam variant optimizes against a z-scored copy of the target and maps
the weights back afterwards: with the shared 0.001 learning-rate schedule,
a raw target whose mean sits tens of units from zero would eat the whole
step budget just moving the intercept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .optimize import Adam, lr_at_step, solve_cg, solve_lls, solve_ridge

METHOD_ORDER = ("lls", "cg", "adam_linear", "ridge")

DISPLAY_NAMES = {
    "lls": "LLS",
    "cg": "Conjugate Gradient",
    "adam_linear": "Adam optimization",
    "ridge": "Ridge Regressions",
}


@dataclass
class BaselineSpec:
    method: str
    adam_steps: int
    lr_initial: float
    ridge_lambda: float = 1.0

    def validate(self) -> None:
        if self.method not in METHOD_ORDER:
            raise ConfigError(f"unknown baseline method {self.method!r}; "
                              f"expected one of {METHOD_ORDER}")


@dataclass
class LinearModel:
    weights: np.ndarray
    intercept: float
    method: str


def _fit_adam_linear(X: np.ndarray, y: np.ndarray, spec: BaselineSpec) -> np.ndarray:
    n, d = X.shape
    mu = y.mean()
    sd = y.std()
    if sd == 0.0:
        sd = 1.0
    yz = (y - mu) / sd
    theta = np.zeros(d + 1)  # weights, then the intercept
    grad = np.empty(d + 1)
    adam = Adam()
    for step in range(spec.adam_steps):
        residual = X @ theta[:d] + theta[d] - yz
        grad[:d] = (2.0 / n) * (X.T @ residual)
        grad[d] = (2.0 / n) * residual.sum()
        adam.step(theta, grad, lr_at_step(spec.lr_initial, step))
    weights = theta * sd
    weights[d] += mu
    return weights


def fit_baseline(spec: BaselineSpec, X_train: np.ndarray, y_train: np.ndarray) -> LinearModel:
    """Fit one method; expects an already-standardized design matrix."""
    spec.validate()
    X = np.asarray(X_train, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeError(f"incompatible shapes X{X.shape}, y{y.shape}")
    n, d = X.shape
    Xi = np.column_stack([X, np.ones(n)])

    if spec.method == "lls":
        full = solve_lls(Xi, y)
    elif spec.method == "cg":
        A = Xi.T @ Xi
        b = Xi.T @ y
        full = solve_cg(A, b)
    elif spec.method == "adam_linear":
        full = _fit_adam_linear(X, y, spec)
    else:
        full = solve_ridge(Xi, y, spec.ridge_lambda, unpenalized=d)

    return LinearModel(weights=full[:d], intercept=float(full[d]), method=spec.method)


def predict_linear(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise ShapeError(
            f"model has {model.weights.shape[0]} weights, input has shape {X.shape}"
        )
    return X @ model.weights + model.intercept
