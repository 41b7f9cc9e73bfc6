"""Training machinery and direct solvers.

One half drives the network: Adam over a flat parameter vector, a staircase
exponential learning-rate schedule, early stopping on validation loss, and
the epoch loop tying them together. The other half solves the linear
baselines directly: least squares by Householder QR, conjugate gradients on
the normal equations, and ridge regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DefinitenessError,
    NumericError,
    ParameterError,
    RankError,
    ShapeError,
    SymmetryError,
)
from .linalg import RandomSource
from .nn import ModelParams, commit_batchnorm, model_backward, model_forward


# staircase exponential decay: the rate falls by LR_DECAY_FACTOR every
# LR_DECAY_STEPS optimizer updates
LR_DECAY_FACTOR = 0.9
LR_DECAY_STEPS = 10_000
# rows per inference batch in ``predict_network``
PREDICT_BATCH = 256


def lr_at_step(initial: float, step: int) -> float:
    """Learning rate after ``step`` optimizer updates (step 0 = ``initial``)."""
    if step < 0:
        raise ParameterError(f"step must be >= 0, got {step}")
    return initial * LR_DECAY_FACTOR ** float(step // LR_DECAY_STEPS)


class Adam:
    """Adam over one flat parameter vector; the moments are vectors like it.

    A step works in two scratch vectors allocated with the moments and keeps
    the operation order of the textbook expression, so it gives that
    expression's bits without its whole-vector temporaries.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self):
        self.t = 0
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self._scratch: Optional[tuple[np.ndarray, np.ndarray]] = None

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """One in-place update of ``theta``."""
        if grad.shape != theta.shape:
            raise ShapeError(f"gradient has shape {grad.shape}, parameters have {theta.shape}")
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
            self._scratch = (np.empty_like(theta), np.empty_like(theta))
        self.t += 1
        s1, s2 = self._scratch
        # m = BETA1 m + (1 - BETA1) g
        self.m *= self.BETA1
        np.multiply(grad, 1.0 - self.BETA1, out=s1)
        self.m += s1
        # v = BETA2 v + (1 - BETA2) g g
        self.v *= self.BETA2
        np.multiply(grad, 1.0 - self.BETA2, out=s1)
        s1 *= grad
        self.v += s1
        # theta -= lr m_hat / (sqrt(v_hat) + EPS)
        np.divide(self.m, 1.0 - self.BETA1 ** self.t, out=s1)
        s1 *= lr
        np.divide(self.v, 1.0 - self.BETA2 ** self.t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.EPS
        s1 /= s2
        theta -= s1


@dataclass
class EarlyStopper:
    """Track validation loss; stop after ``patience`` epochs without
    improvement by more than ``min_delta``, restoring the best snapshot."""

    patience: int
    min_delta: float
    best_loss: float = field(default=np.inf)
    stale_epochs: int = 0
    best_vector: Optional[np.ndarray] = None

    def update(self, val_loss: float, params: ModelParams) -> str:
        """Returns "continue" or "stop"."""
        if not np.isfinite(val_loss):
            raise NumericError(f"validation loss is not finite: {val_loss}")
        if self.best_loss - val_loss > self.min_delta:
            self.best_loss = float(val_loss)
            self.stale_epochs = 0
            self.best_vector = params.vector.copy()
            return "continue"
        self.stale_epochs += 1
        if self.stale_epochs > self.patience:
            return "stop"
        return "continue"

    def restore(self, params: ModelParams) -> ModelParams:
        """Copy the best snapshot, if any, back into ``params``; returns it."""
        if self.best_vector is not None:
            params.vector[:] = self.best_vector
        return params


# ---------------------------------------------------------------------------
# direct solvers


def _householder_qr(A: np.ndarray):
    """Thin QR via Householder reflections; returns (Q^T b applicator, R).

    Returns the reflectors so Q^T can be applied to a vector without
    forming Q.
    """
    m, n = A.shape
    R = A.copy()
    reflectors = []
    for j in range(n):
        x = R[j:, j]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            reflectors.append(None)
            continue
        v = x.copy()
        v[0] += np.copysign(norm_x, x[0])
        v /= np.linalg.norm(v)
        R[j:, j:] -= 2.0 * np.outer(v, v @ R[j:, j:])
        reflectors.append(v)
    return reflectors, R


def _apply_qt(reflectors, b: np.ndarray) -> np.ndarray:
    out = b.astype(np.float64).copy()
    for j, v in enumerate(reflectors):
        if v is None:
            continue
        out[j:] -= 2.0 * v * (v @ out[j:])
    return out


def solve_lls(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimize ||Xw - y||^2 by Householder QR (not normal equations)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeError(f"incompatible shapes X{X.shape}, y{y.shape}")
    m, n = X.shape
    if m < n:
        raise ShapeError(f"need at least as many rows as columns, got {m}x{n}")
    reflectors, R = _householder_qr(X)
    diag = np.abs(np.diag(R[:n, :n]))
    tol = max(m, n) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < n:
        raise RankError(f"design matrix is rank deficient: numerical rank {rank} < {n}")
    qty = _apply_qt(reflectors, y)[:n]
    w = np.zeros(n)
    for i in range(n - 1, -1, -1):
        w[i] = (qty[i] - R[i, i + 1:n] @ w[i + 1:]) / R[i, i]
    return w


def solve_cg(A: np.ndarray, b: np.ndarray, tol: float = 1e-10,
             max_iter: Optional[int] = None) -> np.ndarray:
    """Conjugate gradients for symmetric positive definite A, from x0 = 0."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,):
        raise ShapeError(f"incompatible shapes A{A.shape}, b{b.shape}")
    scale = np.abs(A).max()
    if scale > 0 and np.abs(A - A.T).max() > 1e-10 * scale:
        raise SymmetryError("matrix is not symmetric within 1e-10")
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    b_norm = np.sqrt(b @ b)
    if b_norm == 0.0:
        return x
    for _ in range(max_iter):
        if np.sqrt(rr) / b_norm <= tol:
            break
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise DefinitenessError("conjugate gradient broke down: p'Ap <= 0")
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_next = r @ r
        p = r + (rr_next / rr) * p
        rr = rr_next
    return x


def solve_ridge(X: np.ndarray, y: np.ndarray, lam: float,
                unpenalized: Optional[int] = None) -> np.ndarray:
    """Minimize ||Xw - y||^2 + lam * ||w||^2 via the regularized normal
    equations. ``unpenalized`` names a column (the intercept) left out of
    the penalty."""
    if lam < 0:
        raise ParameterError(f"ridge penalty must be >= 0, got {lam}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeError(f"incompatible shapes X{X.shape}, y{y.shape}")
    n = X.shape[1]
    penalty = np.full(n, lam)
    if unpenalized is not None:
        penalty[unpenalized] = 0.0
    A = X.T @ X + np.diag(penalty)
    return np.linalg.solve(A, X.T @ y)


# ---------------------------------------------------------------------------
# network training loop


@dataclass
class TrainSettings:
    epochs: int
    batch_size: int
    lr_initial: float
    patience: int
    min_delta: float = 1e-4


@dataclass
class TrainHistory:
    """Per-epoch losses, plus the validation predictions of the epoch whose
    parameters early stopping keeps (equal to predicting with them)."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False
    best_val_preds: Optional[np.ndarray] = None


def predict_network(params: ModelParams, X_seq: np.ndarray) -> np.ndarray:
    """Inference-mode predictions for (N, T, d) input, batched for memory."""
    data = np.asarray(X_seq, dtype=np.float64)
    out = np.empty(data.shape[0])
    for start in range(0, data.shape[0], PREDICT_BATCH):
        chunk = data[start:start + PREDICT_BATCH]
        preds, _ = model_forward(chunk, params, mode="infer")
        out[start:start + len(chunk)] = preds
    return out


def train_network(
    params: ModelParams,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    settings: TrainSettings,
    rng: RandomSource,
) -> tuple[ModelParams, TrainHistory]:
    """Minibatch Adam with LR decay and early stopping on validation MSE.

    Batches whose tail would be a single sample fold it into the previous
    batch (train-mode batch norm needs at least two rows). A non-finite
    minibatch loss raises NumericError before anything is updated.
    Training updates ``params`` in place and returns it holding the best
    snapshot; ``history.best_val_preds`` holds that snapshot's validation
    predictions, so callers need not predict the validation set again.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    n = X_train.shape[0]
    if n < 2:
        raise ParameterError("training needs at least 2 samples")

    optimizer = Adam()
    stopper = EarlyStopper(patience=settings.patience, min_delta=settings.min_delta)
    history = TrainHistory()
    step = 0

    for epoch in range(settings.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        start = 0
        while start < n:
            stop = start + settings.batch_size
            if n - stop == 1:
                stop = n
            batch_idx = order[start:min(stop, n)]
            start = stop
            xb = X_train[batch_idx]
            yb = y_train[batch_idx]
            _, cache = model_forward(xb, params, mode="train", rng=rng)
            loss, grad = model_backward(cache, yb, params)
            if not np.isfinite(loss):
                # stop before one bad step writes NaN into every parameter
                raise NumericError(
                    f"epoch {epoch + 1}, step {n_batches + 1}: minibatch loss is not finite ({loss})"
                )
            commit_batchnorm(cache, params)
            optimizer.step(params.trainable, grad, lr_at_step(settings.lr_initial, step))
            step += 1
            epoch_loss += loss
            n_batches += 1

        val_preds = predict_network(params, X_val)
        val_mse = float(np.mean((val_preds - y_val) ** 2))
        history.train_loss.append(epoch_loss / max(1, n_batches))
        history.val_loss.append(val_mse)
        history.epochs_run = epoch + 1
        verdict = stopper.update(val_mse, params)
        if stopper.stale_epochs == 0:  # this epoch's parameters were kept
            history.best_val_preds = val_preds
        if verdict == "stop":
            history.stopped_early = True
            break

    return stopper.restore(params), history
