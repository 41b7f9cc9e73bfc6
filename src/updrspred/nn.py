"""Bidirectional LSTM with attention, dense/batch-norm/dropout head, and
hand-derived backpropagation.

Layout of the network, front to back:

    sequence (T steps of one value each)
      -> forward LSTM scan and backward LSTM scan (u units each), run in
         lockstep: each step advances both directions, and every gate of a
         direction's step is one product of [h_{t-1}, x_t, 1] with the
         direction's fused matrix, whose last row is the bias
      -> per-step concatenated states H, shape (T, 2u)
      -> attention: weights softmax(v . tanh(W h_t)), context = sum_t w_t h_t
      -> dense(relu) -> batch norm -> dropout, twice; a train-mode forward
         draws its own dropout masks from the random source it is given
      -> single linear output unit

Everything is vectorized over a leading batch axis, and the scans also
over the two directions: their activations are stored gate-major, so each
elementwise operation of a step covers both directions in one contiguous
block. The backward pass mirrors the forward step by step, including
backpropagation through time over both scan directions and through the
batch-norm statistics, so the analytic gradients can be validated against
central finite differences (see :func:`grad_check`).

Two numeric invariants are asserted on every forward pass and counted in
``INVARIANT_CHECKS``: attention weights must sum to 1 within 1e-9, and
train-mode batch normalization must center each feature within 1e-6.

The large per-call arrays (the scans' buffers, the states ``H``, the
attention scores and their gradients) are views of the parameters' one
grow-only ``scratch`` buffer (see :meth:`ModelParams.carve`), so a step of
a shape seen before allocates no large array. They are laid out by
lifetime (see :func:`_buffer_shapes`): groups that are never live at the
same time start at one offset. In a train step the forward scan's step
scratch, then ``H`` with the attention scores and the attention backward's
scratch, then the scan backward's buffers share one region, since each is
dead before the next is written; in an inference call the attention
scores overlay the scan's buffers, which are dead once ``H`` is written,
and ``H`` overlays the scan's step scratch. A forward's cache holds
``mode``, ``buffers`` (those views), ``weights``, ``head``, ``head_out``,
``preds`` and ``carves``, as :func:`model_forward` describes, and holds
only until the next forward on the same parameters.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from .errors import (
    EmptyInputError,
    NumericError,
    ParameterError,
    ShapeError,
    StateError,
)
from .linalg import RandomSource

INVARIANT_CHECKS = {"attention_weight_sum": 0, "batchnorm_zero_mean": 0}

# the running batch-norm statistics keep this share of their value per step
BN_MOMENTUM = 0.9
# seed of the dropout masks that every grad-check forward draws afresh
MASK_SEED = 0x5EED


def reset_invariant_counters() -> None:
    for key in INVARIANT_CHECKS:
        INVARIANT_CHECKS[key] = 0


# ---------------------------------------------------------------------------
# parameters

# Column blocks of each fused LSTM matrix, in order. The three sigmoid
# gates come first so the scan activates them as one block.
GATES = ("forget", "input", "output", "cell")


class ModelParams:
    """Every parameter of the network in one contiguous float64 vector.

    ``vector`` holds the trainable values first (``trainable``, the first
    ``n_trainable`` entries) and the batch-norm running statistics after
    them. ``p[name]`` is a reshaped view into it, so writing through a view
    changes the vector and a snapshot is one ``vector.copy()``.

    ``blocks`` maps each name to its ``(start, stop, shape)`` in the vector.

    Each LSTM direction has one fused matrix over the concatenated
    [h_prev, x_t, 1] input, shape (units + 2, 4 * units): the hidden rows,
    the input row, then the bias as the last row. Its columns are blocks
    in ``GATES`` order. ``p["lstm.w"]`` holds the pair, forward direction
    first, as one (2, units + 2, 4 * units) block. Dense weights are
    (out_dim, in_dim).

    ``scratch`` is the flat float64 buffer that every :func:`model_forward`
    on these parameters, and its :func:`model_backward`, carve their large
    arrays from (see :meth:`carve`), and ``carves`` counts the carves, so a
    holder of views can tell whether a later forward may have overwritten
    them. The buffer is empty until the first forward and grows only when
    a carve needs more than it holds, so calls of one shape allocate
    nothing after the first, and none faults in pages that the previous
    one handed back to the OS. Since every forward overwrites it, one
    thread at a time runs the network on a given ``ModelParams``.

    The buffer is an anonymous memory map, not a ``malloc`` block, so
    dropping it always hands its pages back to the OS, and its place does
    not depend on the heap. A ``malloc`` block of this size comes from the
    heap once an earlier one has been freed (glibc then raises its mmap
    threshold), where small allocations can split the freed block so that
    the next fold's buffer no longer fits and the heap grows by a whole
    buffer: with ``malloc``, ``net-train``'s peak RSS read 66.8 or 76.6 MB
    depending only on the directory the run started from.

    Growing costs far more than the difference in size, so the infer carve
    of one predict chunk should not be larger than the train carve: the
    first validation predict after the train steps would then grow the
    buffer. In one measurement at ``net-train`` shape, with a ``malloc``
    buffer and an earlier layout, an infer carve of 14.2 MB over a train
    carve of 13.8 MB raised peak RSS by about 11 MB, from 66.8 to 78.1 MB.
    At that shape (batch 64, 10 steps, 100 units, attention 64) the train
    carve is now 12.52 MiB and a 256-row infer carve 11.02 MiB.
    """

    def __init__(self, units: int, attn_dim: int, dense_widths: tuple[int, int],
                 dropout_rate: float, l2: float, bn_eps: float):
        hidden = 2 * units
        d1, d2 = dense_widths
        trainable = {
            "lstm.w": (2, units + 2, 4 * units),
            "attn.w": (attn_dim, hidden), "attn.v": (attn_dim,),
            "dense1.w": (d1, hidden), "dense1.b": (d1,),
            "bn1.gamma": (d1,), "bn1.beta": (d1,),
            "dense2.w": (d2, d1), "dense2.b": (d2,),
            "bn2.gamma": (d2,), "bn2.beta": (d2,),
            "out.w": (d2,), "out.b": (1,),
        }
        running = {
            "bn1.running_mean": (d1,), "bn1.running_var": (d1,),
            "bn2.running_mean": (d2,), "bn2.running_var": (d2,),
        }
        self.blocks, stop = {}, 0
        for name, shape in {**trainable, **running}.items():
            start, stop = stop, stop + math.prod(shape)
            self.blocks[name] = (start, stop, shape)
        self.n_trainable = self.blocks["bn1.running_mean"][0]  # the first running entry
        self.vector = np.zeros(stop)
        self.trainable = self.vector[:self.n_trainable]
        self._views = self.views(self.vector)
        self.units = units
        self.dropout_rate = dropout_rate
        self.l2 = l2
        self.bn_eps = bn_eps
        self.scratch = np.empty(0)
        self.carves = 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``vector``, laid out like ``self.vector``.

        A vector of ``n_trainable`` entries (a gradient) gets the trainable
        names only.
        """
        return {name: vector[start:stop].reshape(shape)
                for name, (start, stop, shape) in self.blocks.items() if stop <= len(vector)}

    def carve(self, batch: int, steps: int, train: bool) -> dict[str, tuple]:
        """One forward call's arrays by group, laid out as :func:`_buffer_shapes` gives them.

        Every array is a view of ``scratch``, sized once for the whole call,
        the backward's groups included in train mode, so the buffer never
        grows partway through a step. A carve that needs more than the
        buffer holds replaces it, freeing the old one first unless a view of
        it is still alive. Every carve counts in ``carves``.
        """
        regions = _buffer_shapes(batch, steps, self.units, len(self["attn.v"]), train)
        groups, start = {}, 0
        for region in regions:
            end = start
            for name, group in region.items():
                groups[name], offset = [], start  # every group of a region starts at it
                for shape in group:
                    size = math.prod(shape)
                    groups[name].append((offset, offset + size, shape))
                    # whole 64-byte steps, so every block is aligned as the buffer is
                    offset += -(-size // 8) * 8
                end = max(end, offset)
            start = end
        self.carves += 1
        if self.scratch.size < start:
            self.scratch = None  # free the old buffer before the larger one
            self.scratch = np.frombuffer(mmap.mmap(-1, 8 * start), dtype=np.float64)
        return {name: tuple(self.scratch[a:b].reshape(shape) for a, b, shape in blocks)
                for name, blocks in groups.items()}


def _buffer_shapes(batch: int, steps: int, units: int, attn_dim: int,
                   train: bool) -> list[dict[str, tuple]]:
    """Shapes of the arrays a forward call carves, by group, in regions.

    Each region is a dict of groups that start at one offset and so overlay
    each other: no two of them are live at the same time. A region is as
    long as its longest group, and the regions follow each other. A group's
    arrays follow each other. The groups and their lifetimes, in the
    phases of a call (the scan's steps, the scan's end, which writes ``H``,
    the attention, the attention's backward, the scan's backward):

        scan                (hx, acts, cells, tanh_cells) of both directions,
                            as :func:`_lstm_scan` uses them: from the scan
                            until ``H`` is written, and in train mode on to
                            the end of :func:`_lstm_scan_backward`, whose
                            cache it is
        scan_scratch        the scan's (z, ig) step scratch: the scan's
                            steps only
        states              infer only; (H,): from the scan's end to the
                            attention
        scores              infer only; (pre,), the attention's pre-scores:
                            the attention only
        attention           train only; (H, pre, d_pre_lin, its scratch,
                            d_pre_lin @ attn.w): ``H`` from the scan's end,
                            ``pre`` from the attention, the other three in
                            the attention's backward, which is the last
                            phase that reads any of them
        d_states            train only; (dH,): from the attention's backward
                            to the end of the scan's backward
        scan_backward       train only; the (d_gates, dh, dc, tmp, dsig) of
                            :func:`_lstm_scan_backward`: that backward only

    In train mode ``scan_scratch``, ``attention`` and ``scan_backward``
    share the last region, and ``scan`` and ``d_states`` have their own. In
    infer mode ``scores`` overlays ``scan``, and ``scan_scratch`` overlays
    ``states``.

    The direction axis (forward first) comes first in ``hx``, so each
    direction's [h, x, 1] rows are one (T * B, R) block, and in
    ``d_gates``; ``acts`` is gate-major, (kept, 4, 2, B, u), so a gate of
    both directions is one contiguous block.
    """
    B, T, u = batch, steps, units
    kept = T if train else 1
    scan = {"scan": ((2, T + 1, B, u + 2), (kept, 4, 2, B, u), (kept + 1, 2, B, u),
                     (kept, 2, B, u))}
    scan_scratch = {"scan_scratch": ((2, B, 4 * u), (2, B, u))}
    if not train:
        return [{**scan, "scores": ((B * T, attn_dim),)},
                {**scan_scratch, "states": ((B, T, 2 * u),)}]
    return [scan, {"d_states": ((B, T, 2 * u),)},
            {**scan_scratch,
             "attention": ((B, T, 2 * u), (B * T, attn_dim), (B * T, attn_dim),
                           (B * T, attn_dim), (B * T, 2 * u)),
             "scan_backward": ((2, T, B, 4 * u), (2, B, u), (2, B, u), (2, B, u),
                               (3, 2, B, u))}]


def _glorot(rng: RandomSource, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniforms(math.prod(shape)) * 2.0 - 1.0).reshape(shape) * limit


def init_model_params(
    rng: RandomSource,
    *,
    units: int,
    attn_dim: int,
    dense_widths: tuple[int, int],
    dropout_rate: float = 0.3,
    l2: float = 1e-4,
    bn_eps: float = 1e-5,
) -> ModelParams:
    if not 0.0 <= dropout_rate < 1.0:
        raise ParameterError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
    p = ModelParams(units, attn_dim, dense_widths, dropout_rate, l2, bn_eps)
    rows = units + 1
    for w in p["lstm.w"]:  # forward direction first
        for gate in ("forget", "input", "cell", "output"):  # the draw order
            k = GATES.index(gate)
            w[:rows, k * units:(k + 1) * units] = _glorot(rng, rows, units, (rows, units))
        # forget bias starts at 1 so early training does not flush the cell
        w[rows, :units] = 1.0
    for name in ("attn.w", "attn.v", "dense1.w", "dense2.w", "out.w"):  # the draw order
        w = p[name]
        # a matrix is (fan_out, fan_in); a vector feeds one output
        fan_out, fan_in = w.shape if w.ndim == 2 else (1, len(w))
        w[:] = _glorot(rng, fan_in, fan_out, w.shape)
    for tag in ("bn1", "bn2"):
        p[f"{tag}.gamma"][:] = 1.0
        p[f"{tag}.running_var"][:] = 1.0
    return p


# ---------------------------------------------------------------------------
# layer forwards (batched) and backwards


def _lstm_scan(X: np.ndarray, w: np.ndarray, buffers, scratch, H: np.ndarray) -> None:
    """Run both directions' recurrences over (B, T, 1) from zero states.

    ``w`` is the (2, u + 2, 4u) pair of fused matrices, forward direction
    first, bias row last. ``buffers`` is ``(hx, acts, cells, tanh_cells)``
    and ``scratch`` the ``(z, ig)`` step scratch, shaped as
    :func:`_buffer_shapes` gives them; the scan overwrites them all. The
    forward direction's states go into ``H[:, :, :u]``, and the backward
    direction, which reads the sequence reversed, writes its states back
    in the sequence's order into ``H[:, :, u:]``. ``H`` may share storage
    with ``scratch``: it is written only after the last step. Train-mode
    ``buffers`` are then the cache that :func:`_lstm_scan_backward` reads.

    The scan runs time-major, both directions in lockstep. Row t of
    direction k's ``hx[k]`` (T + 1, B, u + 2) holds [h_{t-1}, x_t, 1], x_t
    taken in that direction's order, so a step's biased gates are one
    product per direction with its fused matrix, into ``z``. The gates are
    activated out of ``z`` into the step's gate-major row of ``acts``, (4,
    2, B, u): f, i and o sigmoided as one contiguous block, the candidate
    tanhed, and every cell and hidden update after that covers both
    directions at once. The step writes c_t into the cell row after c_{t-1}
    (the first is the zero start) and h_t into the hidden part of ``hx[:,
    t + 1]``; the last row's input part is unused. The ones column is
    written on every call, since ``hx`` is reused scratch. Train-mode
    buffers keep a gate, cell and tanh(c) row for every step, which only
    the backward pass reads. Infer-mode buffers keep one gate row, one tanh
    row and two cell rows, reused in turn. ``X`` is only read.
    """
    B, T = X.shape[:2]
    u = w.shape[2] // 4
    hx, acts, cells, tanh_cells = buffers
    z, ig = scratch
    zg = z.reshape(2, B, 4, u).transpose(2, 0, 1, 3)  # z's gate-major view
    kept = len(acts)
    hx[:, 0, :, :u] = 0.0
    hx[0, :T, :, u:-1] = X.transpose(1, 0, 2)
    hx[1, :T, :, u:-1] = X[:, ::-1].transpose(1, 0, 2)
    hx[:, :T, :, -1] = 1.0
    cells[0] = 0.0
    # IEEE semantics make the plain sigmoid exact on both tails: exp(-x)
    # overflows to inf -> 0, underflows to 0 -> 1
    with np.errstate(over="ignore"):
        for t in range(T):
            a = acts[t % kept]
            np.matmul(hx[:, t], w, out=z)  # one product per direction
            sig = a[:3]
            np.negative(zg[:3], out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.reciprocal(sig, out=sig)
            np.tanh(zg[3], out=a[3])
            c = cells[(t + 1) % (kept + 1)]
            np.multiply(a[0], cells[t % (kept + 1)], out=c)
            np.multiply(a[1], a[3], out=ig)
            c += ig
            tanh_c = tanh_cells[t % kept]
            np.tanh(c, out=tanh_c)
            np.multiply(a[2], tanh_c, out=hx[:, t + 1, :, :u])
    H[:, :, :u] = hx[0, 1:, :, :u].transpose(1, 0, 2)
    H[:, ::-1, u:] = hx[1, 1:, :, :u].transpose(1, 0, 2)


def _lstm_scan_backward(cache, dH: np.ndarray, w: np.ndarray, dw: np.ndarray,
                        scratch) -> None:
    """Backpropagation through time for both scan directions in lockstep.

    ``dH`` is the gradient of ``H`` (B, T, 2u), the backward direction's
    half read in that direction's (reversed) order. Overwrites ``dw``, laid
    out like the (2, u + 2, 4u) pair ``w``. Each step writes each
    direction's gate gradients into one contiguous (B, 4u) row of
    ``d_gates``, and the gradient of each whole matrix, bias row included,
    is one product over all steps after the loop, written into ``dw``
    (Appleyard et al. 2016).
    The gate-derivative factors are formed step by step in (2, B, u)-sized
    scratch: formed for all T up front they make blocks that outgrow the
    cache, which measured slower. ``scratch`` is ``(d_gates, dh, dc, tmp,
    dsig)``, shaped as :func:`_buffer_shapes` gives them and overwritten.
    """
    hx, acts, cells, tanh_cells = cache
    T, _, _, B, u = acts.shape
    w_hidden_t = w[:, :u].transpose(0, 2, 1)
    d_gates, dh, dc, tmp, dsig = scratch
    dc.fill(0.0)
    for t in range(T - 1, -1, -1):
        a = acts[t]
        sig, i, o, g = a[:3], a[1], a[2], a[3]
        tanh_c = tanh_cells[t]
        d = d_gates[:, t].reshape(2, B, 4, u).transpose(2, 0, 1, 3)  # gate-major view
        if t == T - 1:
            dh[0] = dH[:, t, :u]
            dh[1] = dH[:, T - 1 - t, u:]
        else:
            np.matmul(d_gates[:, t + 1], w_hidden_t, out=dh)
            dh[0] += dH[:, t, :u]
            dh[1] += dH[:, T - 1 - t, u:]
            dc *= acts[t + 1, 0]  # the next step's forget gate
        # sigmoid'(z) = s * (1 - s) for the f, i, o blocks at once
        np.subtract(1.0, sig, out=dsig)
        dsig *= sig
        # d_o = dh * tanh(c) * o'
        np.multiply(dh, tanh_c, out=tmp)
        np.multiply(tmp, dsig[2], out=d[2])
        # dc += dh * o * (1 - tanh(c)^2)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh
        dc += tmp
        # d_f = dc * c_prev * f', d_i = dc * g * i', d_g = dc * i * (1 - g^2)
        np.multiply(dc, cells[t], out=tmp)
        np.multiply(tmp, dsig[0], out=d[0])
        np.multiply(dc, g, out=tmp)
        np.multiply(tmp, dsig[1], out=d[1])
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= i
        np.multiply(dc, tmp, out=d[3])
    np.matmul(hx[:, :T].reshape(2, T * B, -1).transpose(0, 2, 1),
              d_gates.reshape(2, T * B, 4 * u), out=dw)


def _attention_batch(H: np.ndarray, w: np.ndarray, v: np.ndarray, pre: np.ndarray):
    """H (B, T, D) -> (context (B, D), weights (B, T)).

    The tanh pre-scores are written into ``pre``, (B * T, attn_dim).
    """
    B, T, D = H.shape
    np.matmul(H.reshape(B * T, D), w.T, out=pre)
    np.tanh(pre, out=pre)
    pre = pre.reshape(B, T, -1)  # (B, T, A)
    scores = pre @ v  # (B, T)
    shifted = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    weights = expd / expd.sum(axis=1, keepdims=True)
    sums = weights.sum(axis=1)
    INVARIANT_CHECKS["attention_weight_sum"] += len(sums)
    if not np.all(np.abs(sums - 1.0) <= 1e-9):
        raise NumericError("attention weights failed to normalize")
    context = np.matmul(weights[:, None, :], H)[:, 0, :]
    return context, weights


def batchnorm_forward(X: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray, mode: str,
                      eps: float):
    """Normalize columns of (B, d); returns (out, cache).

    Train mode uses batch statistics and records running stats updated at
    ``BN_MOMENTUM`` in the cache (the caller commits them); infer mode uses
    the running stats.
    """
    if mode == "train":
        if X.shape[0] < 2:
            raise ParameterError("train-mode batch norm needs a batch of at least 2")
        mean = X.mean(axis=0)
        var = X.var(axis=0)
        istd = 1.0 / np.sqrt(var + eps)
        xhat = (X - mean) * istd
        INVARIANT_CHECKS["batchnorm_zero_mean"] += 1
        if not np.all(np.abs(xhat.mean(axis=0)) <= 1e-6):
            raise NumericError("batch norm failed to center the batch")
        new_mean = BN_MOMENTUM * running_mean + (1 - BN_MOMENTUM) * mean
        new_var = BN_MOMENTUM * running_var + (1 - BN_MOMENTUM) * var
        cache = {"xhat": xhat, "istd": istd, "new_running": (new_mean, new_var)}
    elif mode == "infer":
        istd = 1.0 / np.sqrt(running_var + eps)
        xhat = (X - running_mean) * istd
        cache = {"xhat": xhat, "istd": istd, "new_running": None}
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    return gamma * xhat + beta, cache


def _batchnorm_backward(dout: np.ndarray, cache, gamma: np.ndarray):
    xhat = cache["xhat"]
    istd = cache["istd"]
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * gamma
    B = dout.shape[0]
    dx = (istd / B) * (B * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx, dgamma, dbeta


def draw_dropout_masks(p: ModelParams, batch: int, rng: RandomSource):
    """The two inverted-dropout masks of a train-mode batch of ``batch`` rows.

    Each entry keeps its unit with probability ``1 - dropout_rate`` and
    scales survivors by ``1 / (1 - dropout_rate)``, so inference, which
    applies no mask, sees the same expected activations. A zero rate draws
    nothing and returns masks of ones.
    """
    masks = []
    for k in (1, 2):
        shape = (batch, len(p[f"dense{k}.b"]))
        if p.dropout_rate == 0.0:
            masks.append(np.ones(shape))
        else:
            keep = rng.uniforms(shape[0] * shape[1]).reshape(shape) >= p.dropout_rate
            masks.append(keep / (1.0 - p.dropout_rate))
    return masks


# ---------------------------------------------------------------------------
# whole-model forward / backward


def model_forward(x, p: ModelParams, mode: str = "infer", rng: RandomSource | None = None):
    """Forward a batch of sequences (B, T, 1), one value per step.

    Returns (predictions, cache); predictions holds one value per sequence.
    Train mode needs a batch of at least 2 (batch norm uses batch
    statistics) and a random source ``rng``: once the input has passed its
    checks, it draws the batch's dropout masks from ``rng`` with
    :func:`draw_dropout_masks` and applies them. Infer mode applies no
    dropout and draws nothing, and its scan buffers keep one step's rows.

    The scan buffers, ``H`` and the attention scores, and in train mode the
    buffers :func:`model_backward` needs, are carved from ``p.scratch``,
    once for the call. The cache holds only what the backward,
    :func:`commit_batchnorm` and the grad-check conditioner read:

        mode, preds   the mode, and the predictions (an array of their own)
        buffers       the carved views by group (:func:`_buffer_shapes`);
                      ``buffers["scan"]`` is the scan backward's cache; in
                      infer mode ``buffers["states"][0]`` is ``H`` and
                      ``buffers["scores"][0]`` the tanh pre-scores, and in
                      train mode they are the first two arrays of
                      ``buffers["attention"]``
        weights       the attention weights
        head          each dense layer's (input, pre-activation, batch-norm
                      cache, dropout mask), front to back; masks are None
                      in infer mode
        head_out      the last dense layer's output
        carves        ``p.carves`` after this call's carve: the views hold
                      only until the next forward on ``p``, and
                      :func:`model_backward` refuses a stale cache
    """
    if mode not in ("train", "infer"):
        raise ParameterError(f"unknown mode {mode!r}")
    if x.ndim != 3:
        raise ShapeError(f"expected (B, T, 1) input, got shape {x.shape}")
    if x.shape[1] == 0:
        raise EmptyInputError("empty sequence")
    if x.shape[2] != 1:
        raise ShapeError(f"the network reads one value per step, got {x.shape[2]}")
    masks = (None, None)
    if mode == "train":
        if rng is None:
            raise ParameterError("train mode needs a random source for its dropout masks")
        masks = draw_dropout_masks(p, x.shape[0], rng)

    buffers = p.carve(x.shape[0], x.shape[1], mode == "train")
    if mode == "train":
        H, pre = buffers["attention"][:2]
    else:
        (H,), (pre,) = buffers["states"], buffers["scores"]
    _lstm_scan(x, p["lstm.w"], buffers["scan"], buffers["scan_scratch"], H)

    out, weights = _attention_batch(H, p["attn.w"], p["attn.v"], pre)
    head = []
    for k, mask in enumerate(masks, start=1):
        lin = out @ p[f"dense{k}.w"].T + p[f"dense{k}.b"]
        normed, bn_cache = batchnorm_forward(
            np.maximum(lin, 0.0), p[f"bn{k}.gamma"], p[f"bn{k}.beta"],
            p[f"bn{k}.running_mean"], p[f"bn{k}.running_var"], mode, p.bn_eps)
        head.append((out, lin, bn_cache, mask))
        out = normed if mask is None else normed * mask
    preds = out @ p["out.w"] + p["out.b"][0]

    cache = {"mode": mode, "buffers": buffers, "weights": weights, "head": head,
             "head_out": out, "preds": preds, "carves": p.carves}
    return preds, cache


def _l2_penalty(p: ModelParams) -> float:
    return p.l2 * sum(float((p[f"dense{k}.w"] ** 2).sum()) for k in (1, 2))


def model_backward(cache, target, p: ModelParams):
    """Loss and gradient for a train-mode forward cache.

    Loss is the batch mean of squared errors plus the L2 penalty on the two
    hidden dense weight matrices. The gradient is one vector laid out like
    ``p.trainable``; the large intermediates reuse the scratch region that
    the forward carved for them. A cache from before the latest
    :func:`model_forward` on ``p`` raises StateError, since that forward
    overwrote the buffers it holds.
    """
    if not isinstance(cache, dict) or "preds" not in cache:
        raise StateError("model_backward needs the cache from model_forward")
    if cache["mode"] != "train":
        raise StateError("model_backward needs a train-mode forward cache")
    if cache["carves"] != p.carves:
        raise StateError("stale cache: a later model_forward on these parameters "
                         "overwrote its buffers")
    preds = cache["preds"]
    if target.shape != preds.shape:
        raise ShapeError(f"target shape {target.shape} does not match predictions {preds.shape}")
    B = len(target)
    residual = preds - target
    loss = float((residual * residual).mean()) + _l2_penalty(p)

    grad = np.zeros(p.n_trainable)
    g = p.views(grad)
    dpreds = 2.0 * residual / B

    g["out.w"][:] = cache["head_out"].T @ dpreds
    g["out.b"][0] = dpreds.sum()
    d_out = np.outer(dpreds, p["out.w"])
    for k in (2, 1):
        out, lin, bn_cache, mask = cache["head"][k - 1]
        d_act, g[f"bn{k}.gamma"][:], g[f"bn{k}.beta"][:] = _batchnorm_backward(
            d_out * mask, bn_cache, p[f"bn{k}.gamma"])
        d_lin = d_act * (lin > 0)
        w = p[f"dense{k}.w"]
        g[f"dense{k}.w"][:] = d_lin.T @ out + 2.0 * p.l2 * w
        g[f"dense{k}.b"][:] = d_lin.sum(axis=0)
        d_out = d_lin @ w  # the gradient of the layer's input
    d_context = d_out

    # attention: context = sum_t weights_t h_t with weights = softmax(scores)
    buffers = cache["buffers"]
    H, pre, d_pre_lin, d_pre_tmp, d_pre_h = buffers["attention"]
    (dH,) = buffers["d_states"]
    weights = cache["weights"]
    B, T, D = H.shape
    np.multiply(weights[:, :, None], d_context[:, None, :], out=dH)
    d_weights = np.matmul(H, d_context[:, :, None])[:, :, 0]
    wsum = (weights * d_weights).sum(axis=1, keepdims=True)
    d_scores = weights * (d_weights - wsum)
    g["attn.v"][:] = d_scores.reshape(B * T) @ pre
    # d_pre_lin = d_scores * v * (1 - pre^2), in this order
    np.multiply(d_scores.reshape(B * T, 1), p["attn.v"], out=d_pre_lin)
    np.multiply(pre, pre, out=d_pre_tmp)
    np.subtract(1.0, d_pre_tmp, out=d_pre_tmp)
    d_pre_lin *= d_pre_tmp
    g["attn.w"][:] = d_pre_lin.T @ H.reshape(B * T, D)
    np.matmul(d_pre_lin, p["attn.w"], out=d_pre_h)
    dH += d_pre_h.reshape(B, T, D)

    # the scan backward's buffers overlay H, the pre-scores and the
    # attention backward's scratch, all dead from here
    _lstm_scan_backward(buffers["scan"], dH, p["lstm.w"], g["lstm.w"], buffers["scan_backward"])
    return loss, grad


def commit_batchnorm(cache, p: ModelParams) -> None:
    """Apply the running-stat updates recorded by a train-mode forward."""
    for k, (_, _, bn_cache, _) in enumerate(cache["head"], start=1):
        new = bn_cache["new_running"]
        if new is not None:
            p[f"bn{k}.running_mean"][:] = new[0]
            p[f"bn{k}.running_var"][:] = new[1]


def param_blocks(p: ModelParams) -> dict[str, np.ndarray]:
    """Positions in ``p.trainable`` of every named parameter block.

    The fused LSTM matrices are split by gate (``fwd.w_forget``,
    ``bwd.w_output``, ...), bias row included, so a gradient error is
    reported against the gate it sits in.
    """
    u = p.units
    blocks = {}
    for name, positions in p.views(np.arange(p.n_trainable)).items():
        if name == "lstm.w":
            for tag, direction in zip(("fwd", "bwd"), positions):
                for k, gate in enumerate(GATES):
                    blocks[f"{tag}.w_{gate}"] = direction[:, k * u:(k + 1) * u].ravel()
        else:
            blocks[name] = positions.ravel()
    return blocks


def grad_check(p: ModelParams, x, y, eps: float = 1e-4):
    """Compare analytic gradients with central finite differences.

    Every forward draws its dropout masks from a fresh
    ``RandomSource(MASK_SEED)`` and so applies the same masks, and no
    forward mutates the parameters, so the loss is a deterministic function
    of the parameter vector. Returns
    (max relative error, worst error per block of :func:`param_blocks`);
    an entry whose analytic or numeric value is not finite errs by inf.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    _, cache = model_forward(x, p, mode="train", rng=RandomSource(MASK_SEED))
    _, analytic = model_backward(cache, y, p)

    def loss_at() -> float:
        _, c = model_forward(x, p, mode="train", rng=RandomSource(MASK_SEED))
        r = c["preds"] - y
        return float((r * r).mean()) + _l2_penalty(p)

    theta = p.trainable
    worst = 0.0
    per_block: dict[str, float] = {}
    for name, positions in param_blocks(p).items():
        block_worst = 0.0
        for idx in positions:
            keep = theta[idx]
            theta[idx] = keep + eps
            up = loss_at()
            theta[idx] = keep - eps
            down = loss_at()
            theta[idx] = keep
            numeric = (up - down) / (2.0 * eps)
            a = analytic[idx]
            if math.isfinite(a) and math.isfinite(numeric):
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            else:
                rel = math.inf  # max() would drop a NaN
            block_worst = max(block_worst, rel)
        per_block[name] = block_worst
        worst = max(worst, block_worst)
    return worst, per_block


def random_gradcheck_model(seed: int, eps: float = 1e-4):
    """A random tiny model plus a batch, well conditioned for grad checking.

    Central differences at a fixed step are only trustworthy where the loss
    is smooth and small, so three things are arranged here. Candidates are
    resampled until no ReLU pre-activation sits within 20*eps of its kink
    (columns dead across the whole batch are fine: a perturbation cannot
    wake them). Batch norm gets a large epsilon to bound the curvature of
    its inverse-stddev term. And targets sit close to the model's own
    predictions, keeping the loss at a few hundredths so that the
    difference quotient's rounding noise stays far below the comparison
    floor; this matters because bias entries feeding a fully-alive
    batch-norm column have exactly zero gradient (uniform column shifts
    cancel), and a zero must not be swamped by rounding of a large loss.
    Returns (params, X, y).
    """
    base = RandomSource(seed)
    margin = 20.0 * eps
    batch, T = 8, 5
    for _ in range(64):
        params_rng = base.spawn()
        data_rng = base.spawn()
        p = init_model_params(
            params_rng, units=4, attn_dim=3, dense_widths=(6, 4),
            dropout_rate=0.3, l2=1e-3, bn_eps=1.0,
        )
        X = data_rng.gaussians(0.0, 1.0, batch * T).reshape(batch, T, 1)
        preds, cache = model_forward(X, p, mode="train", rng=RandomSource(MASK_SEED))
        y = preds + data_rng.gaussians(0.0, 0.15, batch)
        near_kink = ((np.abs(lin) < margin) & ~np.all(lin <= -margin, axis=0)
                     for _, lin, _, _ in cache["head"])
        if not any(np.any(kinks) for kinks in near_kink):
            return p, X, y
    raise NumericError(f"could not condition a grad-check model from seed {seed}")
