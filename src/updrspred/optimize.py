"""Network training: Adam over a flat parameter vector, a staircase
exponential learning-rate schedule, early stopping on validation loss, and
the epoch loop tying them together. The adam_linear baseline reuses
``Adam`` and ``lr_at_step``; the direct solvers live in ``baselines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyInputError, NumericError, ParameterError, ShapeError
from .linalg import RandomSource
from .nn import (
    ModelParams,
    commit_batchnorm,
    draw_dropout_masks,
    model_backward,
    model_forward,
)


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
    Each target must hold one value per row of its inputs (ShapeError), and
    the validation set must not be empty (EmptyInputError).

    A step's cache is dropped once its batch-norm statistics are committed,
    so no view of ``params.workspace`` is alive when the epoch's validation
    predict grows the workspace, and the smaller buffer is freed.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    for name, X, y in (("train", X_train, y_train), ("val", X_val, y_val)):
        if y.shape != X.shape[:1]:
            raise ShapeError(f"y_{name} has shape {y.shape}, X_{name} has shape {X.shape}")
    n = X_train.shape[0]
    if n < 2:
        raise ParameterError("training needs at least 2 samples")
    if len(X_val) == 0:
        raise EmptyInputError("early stopping needs a non-empty validation set")

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
            masks = draw_dropout_masks(params, len(batch_idx), rng)
            _, cache = model_forward(xb, params, mode="train", dropout_masks=masks)
            loss, grad = model_backward(cache, yb, params)
            if not np.isfinite(loss):
                # stop before one bad step writes NaN into every parameter
                raise NumericError(
                    f"epoch {epoch + 1}, step {n_batches + 1}: minibatch loss is not finite ({loss})"
                )
            commit_batchnorm(cache, params)
            del cache  # its workspace views; see the docstring
            optimizer.step(params.trainable, grad, lr_at_step(settings.lr_initial, step))
            step += 1
            epoch_loss += loss
            n_batches += 1

        val_preds = predict_network(params, X_val)
        val_mse = float(np.mean((val_preds - y_val) ** 2))
        history.train_loss.append(epoch_loss / max(1, n_batches))
        history.val_loss.append(val_mse)
        verdict = stopper.update(val_mse, params)
        if stopper.stale_epochs == 0:  # this epoch's parameters were kept
            history.best_val_preds = val_preds
        if verdict == "stop":
            history.stopped_early = True
            break

    return stopper.restore(params), history
