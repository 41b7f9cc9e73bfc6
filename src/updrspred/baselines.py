"""The four linear reference methods behind one fit/predict interface.

All of them model y = Xw + intercept on the standardized, un-augmented
design matrix; they differ only in the solver:

  lls          least squares by QR (LAPACK's Householder QR via numpy)
  cg           conjugate gradients on the normal equations, run on the
               design itself (CGLS)
  adam_linear  full-batch Adam descent on the squared-error objective
  ridge        the same QR least squares with penalty rows appended

LLS, CG and ridge all work on the intercept-augmented design ``Xi`` and
never form ``Xi'Xi``, so none of them squares the design's condition
number. ``solve_lls`` takes R and ``Q'y`` from one QR of ``[Xi y]`` and
never forms Q. Ridge solves [Xi; sqrt(lambda) [I_d 0]] w = [y; 0] in the
least-squares sense (Bjorck, *Numerical Methods for Least Squares
Problems*, SIAM 1996, section 2.3); the zero last column leaves the
intercept unpenalized. CG is CGLS (Hestenes & Stiefel 1952; Paige &
Saunders 1982, ACM TOMS 8:43): in exact arithmetic the conjugate-gradient
iteration on ``Xi'Xi w = Xi'y``, but each step takes one product with
``Xi`` and one with ``Xi'``.

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

``fit_baseline`` refuses an unknown method or a negative ``ridge_lambda``
with ``ConfigError``, a ``y`` that is not one value per row with
``ShapeError`` and a design with no rows with ``EmptyInputError``, before
any method runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, EmptyInputError, RankError, ShapeError
from .optimize import Adam

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
        # sqrt of a negative (or NaN) penalty would give NaN weights silently
        if not self.ridge_lambda >= 0.0:
            raise ConfigError(f"ridge_lambda must be >= 0, got {self.ridge_lambda}")


@dataclass
class LinearModel:
    weights: np.ndarray
    intercept: float


def solve_lls(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimize ||Xw - y||^2 by QR (not normal equations).

    One Householder QR of ``[X y]`` gives both R and ``Q'y``, so Q is never
    formed. Refuses a design whose R has a diagonal entry at or below
    ``max(m, n) * eps * max|diag R|`` with ``RankError``.
    """
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeError(f"incompatible shapes X{X.shape}, y{y.shape}")
    m, n = X.shape
    if m < n:
        raise ShapeError(f"need at least as many rows as columns, got {m}x{n}")
    Ry = np.linalg.qr(np.column_stack([X, y]), mode="r")
    R, qty = Ry[:n, :n], Ry[:n, n]
    diag = np.abs(np.diag(R))
    tol = max(m, n) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < n:
        raise RankError(f"design matrix is rank deficient: numerical rank {rank} < {n}")
    return np.linalg.solve(R, qty)


def solve_cg(X: np.ndarray, y: np.ndarray, tol: float = 1e-10,
             max_iter: Optional[int] = None) -> np.ndarray:
    """Conjugate gradients on X'X w = X'y, run on X itself (CGLS), from w0 = 0.

    Each step takes one product with X and one with X'; X'X is never
    formed. Stops when ``||X'(y - Xw)|| / ||X'y|| <= tol`` or after
    ``max_iter`` steps (default 10 per unknown). The products and dot
    products are numpy elementwise operations and sums, not BLAS calls, so
    the result does not depend on which BLAS kernel the machine runs.
    """
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ShapeError(f"incompatible shapes X{X.shape}, y{y.shape}")
    n = X.shape[1]
    if max_iter is None:
        max_iter = 10 * n
    w = np.zeros(n)
    XT = np.ascontiguousarray(X.T)
    r = y.copy()              # y - Xw
    s = (XT * r).sum(axis=1)  # the normal equations' residual X'(y - Xw)
    p = s.copy()
    ss = (s * s).sum()
    s0_norm = np.sqrt(ss)
    if s0_norm == 0.0:
        return w
    for _ in range(max_iter):
        if np.sqrt(ss) / s0_norm <= tol:
            break
        # p lies in range(X'), so Xp != 0 until s reaches 0
        q = (X * p).sum(axis=1)
        alpha = ss / (q * q).sum()
        w += alpha * p
        r -= alpha * q
        s = (XT * r).sum(axis=1)
        ss_next = (s * s).sum()
        p = s + (ss_next / ss) * p
        ss = ss_next
    return w


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
    adam = Adam(len(theta), spec.lr_initial)
    for _ in range(spec.adam_steps):
        # grad = (2/n) (Xi'Xi theta - Xi'yz)
        np.matmul(gram, theta, out=grad)
        grad -= rhs
        grad *= scale
        adam.step(theta, grad)
    weights = theta * sd
    weights[-1] += mu
    return weights


def fit_baseline(spec: BaselineSpec, X_train: np.ndarray, y_train: np.ndarray) -> LinearModel:
    """Fit one method; expects an already-standardized design matrix."""
    spec.validate()
    if X_train.ndim != 2 or y_train.ndim != 1 or X_train.shape[0] != y_train.shape[0]:
        raise ShapeError(f"need X (rows, features) and y with one value per row, "
                         f"got X{X_train.shape}, y{y_train.shape}")
    n, d = X_train.shape
    if n == 0:
        raise EmptyInputError(f"no training rows to fit {spec.method!r} on (X{X_train.shape})")
    Xi = np.column_stack([X_train, np.ones(n)])

    if spec.method == "lls":
        full = solve_lls(Xi, y_train)
    elif spec.method == "cg":
        full = solve_cg(Xi, y_train)
    elif spec.method == "adam_linear":
        full = _fit_adam_linear(Xi, y_train, spec)
    else:
        penalty = np.sqrt(spec.ridge_lambda) * np.eye(d, d + 1)
        full = solve_lls(np.vstack([Xi, penalty]), np.concatenate([y_train, np.zeros(d)]))

    return LinearModel(weights=full[:d], intercept=float(full[d]))


def predict_linear(model: LinearModel, X: np.ndarray) -> np.ndarray:
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise ShapeError(
            f"model has {model.weights.shape[0]} weights, input has shape {X.shape}"
        )
    return X @ model.weights + model.intercept
