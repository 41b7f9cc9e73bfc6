"""Network training: Adam over a flat parameter vector on a staircase
exponential learning-rate schedule, early stopping on validation loss, and
the epoch loop tying them together. The adam_linear baseline reuses only
``Adam``; the direct solvers live in ``baselines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyInputError, NumericError, ParameterError, ShapeError
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
    """Adam over one flat vector of ``size`` parameters, with moment vectors
    like it; step ``t`` (from 0) moves at ``lr_at_step(lr_initial, t)``.

    A step walks the vectors in chunks of ``CHUNK`` entries, so that the
    parameters, the gradient, the two moments and two chunk-sized scratch
    vectors stay in L2 cache through the step's passes over a chunk. Every
    entry gets the textbook expression's operations in its order, so a
    step gives that expression's bits without its whole-vector temporaries.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8
    CHUNK = 16_384  # six 128 KB slices

    def __init__(self, size: int, lr_initial: float):
        self.lr_initial = lr_initial
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        s1, s2 = np.empty(min(size, self.CHUNK)), np.empty(min(size, self.CHUNK))
        # per chunk: its slice, and its views of the moments and the scratch
        self._chunks = [(slice(a, a + self.CHUNK), self.m[a:a + self.CHUNK],
                         self.v[a:a + self.CHUNK], s1[:size - a], s2[:size - a])
                        for a in range(0, size, self.CHUNK)]

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """One in-place update of ``theta``."""
        if not grad.shape == theta.shape == self.m.shape:
            raise ShapeError(f"gradient has shape {grad.shape}, parameters have "
                             f"{theta.shape}, the optimizer {self.m.shape}")
        lr = lr_at_step(self.lr_initial, self.t)
        self.t += 1
        m_scale = 1.0 - self.BETA1 ** self.t
        v_scale = 1.0 - self.BETA2 ** self.t
        for part, m, v, s1, s2 in self._chunks:
            th, g = theta[part], grad[part]
            # m = BETA1 m + (1 - BETA1) g
            m *= self.BETA1
            np.multiply(g, 1.0 - self.BETA1, out=s1)
            m += s1
            # v = BETA2 v + (1 - BETA2) g g
            v *= self.BETA2
            np.multiply(g, 1.0 - self.BETA2, out=s1)
            s1 *= g
            v += s1
            # theta -= lr m_hat / (sqrt(v_hat) + EPS)
            np.divide(m, m_scale, out=s1)
            s1 *= lr
            np.divide(v, v_scale, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.EPS
            s1 /= s2
            th -= s1


@dataclass
class EarlyStopper:
    """Track validation loss; stop on the (``patience`` + 1)-th epoch in a row
    without improvement by more than ``min_delta``, restoring the best
    snapshot."""

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
            if self.best_vector is None:
                self.best_vector = params.vector.copy()
            else:  # into the old snapshot, so two are never held at once
                self.best_vector[:] = params.vector
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
    """Inference-mode predictions for (N, T, 1) input, batched for memory."""
    out = np.empty(X_seq.shape[0])
    for start in range(0, X_seq.shape[0], PREDICT_BATCH):
        chunk = X_seq[start:start + PREDICT_BATCH]
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

    The batch boundaries are planned once, a one-row tail folded into the
    batch before it (train-mode batch norm needs at least two rows), and
    each epoch walks them over a fresh permutation. A non-finite minibatch
    loss raises NumericError before anything is updated.
    Training updates ``params`` in place and returns it holding the best
    snapshot; ``history.best_val_preds`` holds that snapshot's validation
    predictions, so callers need not predict the validation set again.
    Each target must hold one value per row of its inputs (ShapeError), and
    the validation set must not be empty (EmptyInputError).

    A step's cache is dropped once its batch-norm statistics are committed,
    so no view of ``params.scratch`` is alive when the epoch's validation
    predict grows that buffer, and the smaller one is freed. Its gradient
    is dropped once Adam has applied it, so one step's gradient is freed
    before the next one is allocated.
    """
    for name, X, y in (("train", X_train, y_train), ("val", X_val, y_val)):
        if y.shape != X.shape[:1]:
            raise ShapeError(f"y_{name} has shape {y.shape}, X_{name} has shape {X.shape}")
    n = X_train.shape[0]
    if n < 2:
        raise ParameterError("training needs at least 2 samples")
    if len(X_val) == 0:
        raise EmptyInputError("early stopping needs a non-empty validation set")

    optimizer = Adam(params.n_trainable, settings.lr_initial)
    stopper = EarlyStopper(patience=settings.patience, min_delta=settings.min_delta)
    history = TrainHistory()
    bounds = list(range(0, n, settings.batch_size)) + [n]
    if bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # fold a one-row tail into the batch before it
    batches = list(zip(bounds, bounds[1:]))

    for epoch in range(settings.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for step, (start, stop) in enumerate(batches, start=1):
            batch_idx = order[start:stop]
            _, cache = model_forward(X_train[batch_idx], params, mode="train", rng=rng)
            loss, grad = model_backward(cache, y_train[batch_idx], params)
            if not np.isfinite(loss):
                # stop before one bad step writes NaN into every parameter
                raise NumericError(
                    f"epoch {epoch + 1}, step {step}: minibatch loss is not finite ({loss})"
                )
            commit_batchnorm(cache, params)
            del cache  # its scratch views; see the docstring
            optimizer.step(params.trainable, grad)
            del grad  # so the next step's gradient is not allocated beside it
            epoch_loss += loss

        val_preds = predict_network(params, X_val)
        val_mse = float(np.mean((val_preds - y_val) ** 2))
        history.train_loss.append(epoch_loss / len(batches))
        history.val_loss.append(val_mse)
        verdict = stopper.update(val_mse, params)
        if stopper.stale_epochs == 0:  # this epoch's parameters were kept
            history.best_val_preds = val_preds
        if verdict == "stop":
            history.stopped_early = True
            break

    return stopper.restore(params), history
