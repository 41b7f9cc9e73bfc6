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
step budget just moving the intercept. Its loss is a quadratic in the d+1
weights, so the fit forms the Gram matrix ``Xi'Xi`` and ``Xi'yz`` of the
intercept-augmented design once, and each step's gradient is
``(2/n)(Xi'Xi theta - Xi'yz)``: one (d+1)-square product per step, with no
pass over the training rows. This is the residual form's gradient in exact
arithmetic; it rounds differently, so Adam's iterate moves in the last
digits (see README, "Numerics worth knowing").

``fit_baseline`` refuses a ``y`` that is not one value per row with
``ShapeError`` and a design with no rows with ``EmptyInputError``, before
any method runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError
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


def _fit_adam_linear(Xi: np.ndarray, y: np.ndarray, spec: BaselineSpec) -> np.ndarray:
    """Adam's iterate after ``spec.adam_steps`` steps on the intercept-augmented ``Xi``."""
    n = Xi.shape[0]
    mu = y.mean()
    sd = y.std()
    if sd == 0.0:
        sd = 1.0
    yz = (y - mu) / sd
    gram = Xi.T @ Xi
    rhs = Xi.T @ yz
    scale = 2.0 / n
    theta = np.zeros(Xi.shape[1])  # weights, then the intercept
    grad = np.empty_like(theta)
    adam = Adam()
    for step in range(spec.adam_steps):
        # grad = (2/n) (Xi'Xi theta - Xi'yz)
        np.matmul(gram, theta, out=grad)
        grad -= rhs
        grad *= scale
        adam.step(theta, grad, lr_at_step(spec.lr_initial, step))
    weights = theta * sd
    weights[-1] += mu
    return weights


def fit_baseline(spec: BaselineSpec, X_train: np.ndarray, y_train: np.ndarray) -> LinearModel:
    """Fit one method; expects an already-standardized design matrix."""
    spec.validate()
    X = np.asarray(X_train, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ShapeError(f"need X (rows, features) and y with one value per row, "
                         f"got X{X.shape}, y{y.shape}")
    n, d = X.shape
    if n == 0:
        raise EmptyInputError(f"no training rows to fit {spec.method!r} on (X{X.shape})")
    Xi = np.column_stack([X, np.ones(n)])

    if spec.method == "lls":
        full = solve_lls(Xi, y)
    elif spec.method == "cg":
        A = Xi.T @ Xi
        b = Xi.T @ y
        full = solve_cg(A, b)
    elif spec.method == "adam_linear":
        full = _fit_adam_linear(Xi, y, spec)
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
