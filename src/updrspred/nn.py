"""Bidirectional LSTM with attention, dense/batch-norm/dropout head, and
hand-derived backpropagation.

Layout of the network, front to back:

    sequence (T steps of input_dim values)
      -> forward LSTM scan and backward LSTM scan (u units each)
      -> per-step concatenated states H, shape (T, 2u)
      -> attention: weights softmax(v . tanh(W h_t)), context = sum_t w_t h_t
      -> dense(relu) -> batch norm -> dropout, twice
      -> single linear output unit

Everything is vectorized over a leading batch axis. The backward pass
mirrors the forward step by step, including backpropagation through time
over both scan directions and through the batch-norm statistics, so the
analytic gradients can be validated against central finite differences
(see :func:`grad_check`).

Two numeric invariants are asserted on every forward pass and counted in
``INVARIANT_CHECKS``: attention weights must sum to 1 within 1e-9, and
train-mode batch normalization must center each feature within 1e-6.

The large per-call arrays (the scans' buffers, the states ``H``, the
attention scores and their gradients) are views of the parameters' one
reused :class:`~updrspred.linalg.Workspace`, so a step of a shape seen
before allocates no large array. A train-mode cache therefore holds only
until the next :func:`model_forward` on the same parameters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptyInputError,
    NumericError,
    ParameterError,
    ShapeError,
    StateError,
)
from .linalg import RandomSource, Workspace

INVARIANT_CHECKS = {"attention_weight_sum": 0, "batchnorm_zero_mean": 0}


def reset_invariant_counters() -> None:
    for key in INVARIANT_CHECKS:
        INVARIANT_CHECKS[key] = 0


# ---------------------------------------------------------------------------
# parameters

# Column blocks of each fused LSTM weight and bias, in order. The three
# sigmoid gates come first so the scan activates them as one block.
GATES = ("forget", "input", "output", "cell")


class ModelParams:
    """Every parameter of the network in one contiguous float64 vector.

    ``vector`` holds the trainable values first (``trainable``, the first
    ``n_trainable`` entries) and the batch-norm running statistics after
    them. ``p[name]`` is a reshaped view into it, so writing through a view
    changes the vector and a snapshot is one ``vector.copy()``.

    Each LSTM direction has one fused weight over the concatenated
    [h_prev, x_t] input, shape (units + input_dim, 4 * units), and one
    4 * units bias; both are split into column blocks in ``GATES`` order.
    Dense weights are (out_dim, in_dim).

    ``workspace`` is the buffer that every :func:`model_forward` on these
    parameters, and its :func:`model_backward`, carve their large arrays
    from (see :meth:`carve`). It is empty until the first forward. Since
    every forward overwrites it, one thread at a time runs the network on
    a given ``ModelParams``.
    """

    def __init__(self, input_dim: int, units: int, attn_dim: int,
                 dense_widths: tuple[int, int], dropout_rate: float, l2: float,
                 bn_momentum: float, bn_eps: float):
        rows = units + input_dim
        hidden = 2 * units
        d1, d2 = dense_widths
        trainable = {
            "fwd.w": (rows, 4 * units), "fwd.b": (4 * units,),
            "bwd.w": (rows, 4 * units), "bwd.b": (4 * units,),
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
        self.shapes = {**trainable, **running}
        self.n_trainable = sum(int(np.prod(s)) for s in trainable.values())
        self.vector = np.zeros(sum(int(np.prod(s)) for s in self.shapes.values()))
        self.trainable = self.vector[:self.n_trainable]
        self._views = self.views(self.vector)
        self.input_dim = input_dim
        self.units = units
        self.dropout_rate = dropout_rate
        self.l2 = l2
        self.bn_momentum = bn_momentum
        self.bn_eps = bn_eps
        self.workspace = Workspace()
        self._layouts: dict = {}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``vector``, laid out like ``self.vector``.

        A vector of ``n_trainable`` entries (a gradient) gets the trainable
        names only.
        """
        out = {}
        offset = 0
        for name, shape in self.shapes.items():
            if offset == len(vector):
                break
            size = int(np.prod(shape))
            out[name] = vector[offset:offset + size].reshape(shape)
            offset += size
        return out

    def carve(self, batch: int, steps: int, train: bool) -> dict[str, tuple]:
        """One forward call's arrays, grouped as in :func:`_buffer_shapes`.

        Every array is a view of ``workspace``, reserved once for the whole
        call, the backward's groups included in train mode, so the buffer
        never grows partway through a step. The offsets of a shape are
        worked out on its first call and kept.
        """
        key = (batch, steps, train)
        if key not in self._layouts:
            shapes = _buffer_shapes(batch, steps, self.input_dim, self.units,
                                    self.shapes["attn.v"][0], train)
            groups, offset = {}, 0
            for name, group in shapes.items():
                groups[name] = []
                for shape in group:
                    size = math.prod(shape)
                    groups[name].append((offset, offset + size, shape))
                    # whole 64-byte steps, so every block is aligned as the buffer is
                    offset += -(-size // 8) * 8
            self._layouts[key] = offset, groups
        total, groups = self._layouts[key]
        floats = self.workspace.reserve(total)
        return {name: tuple(floats[start:stop].reshape(shape) for start, stop, shape in blocks)
                for name, blocks in groups.items()}


def _buffer_shapes(batch: int, steps: int, input_dim: int, units: int, attn_dim: int,
                   train: bool) -> dict[str, tuple]:
    """Shapes of the arrays a forward call carves, by group.

    ``fwd`` and ``bwd`` are each scan direction's (hx, acts, cells,
    tanh_cells) and ``scan_scratch`` the step scratch they share, all as
    :func:`_lstm_scan` uses them; ``attention`` is (H, pre). Train mode adds
    :func:`model_backward`'s groups: ``scan_backward``, the (d_gates, dh,
    dc, tmp, dsig) that both directions' :func:`_lstm_scan_backward` share,
    and ``attention_backward``, (dH, d_pre_lin, its scratch, and
    d_pre_lin @ attn.w).
    """
    B, T, d, u = batch, steps, input_dim, units
    kept = T if train else 1
    scan = ((T + 1, B, u + d), (kept, B, 4 * u), (kept + 1, B, u), (kept, B, u))
    shapes = {"fwd": scan, "bwd": scan, "scan_scratch": ((B, u), (B, 3 * u)),
              "attention": ((B, T, 2 * u), (B * T, attn_dim))}
    if train:
        shapes["scan_backward"] = ((T, B, 4 * u), (B, u), (B, u), (B, u), (B, 3 * u))
        shapes["attention_backward"] = ((B, T, 2 * u), (B * T, attn_dim),
                                        (B * T, attn_dim), (B * T, 2 * u))
    return shapes


def _glorot(rng: RandomSource, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    size = int(np.prod(shape))
    return (rng.uniforms(size) * 2.0 - 1.0).reshape(shape) * limit


def init_model_params(
    rng: RandomSource,
    *,
    input_dim: int = 1,
    units: int,
    attn_dim: int,
    dense_widths: tuple[int, int],
    dropout_rate: float = 0.3,
    l2: float = 1e-4,
    bn_momentum: float = 0.9,
    bn_eps: float = 1e-5,
) -> ModelParams:
    if not 0.0 <= dropout_rate < 1.0:
        raise ParameterError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
    p = ModelParams(input_dim, units, attn_dim, dense_widths, dropout_rate, l2,
                    bn_momentum, bn_eps)
    hidden = 2 * units
    d1, d2 = dense_widths
    rows = units + input_dim
    for tag in ("fwd", "bwd"):
        w = p[f"{tag}.w"]
        for gate in ("forget", "input", "cell", "output"):  # the draw order
            k = GATES.index(gate)
            w[:, k * units:(k + 1) * units] = _glorot(rng, rows, units, (rows, units))
        # forget bias starts at 1 so early training does not flush the cell
        p[f"{tag}.b"][:units] = 1.0
    p["attn.w"][:] = _glorot(rng, hidden, attn_dim, (attn_dim, hidden))
    p["attn.v"][:] = _glorot(rng, attn_dim, 1, (attn_dim,))
    p["dense1.w"][:] = _glorot(rng, hidden, d1, (d1, hidden))
    p["dense2.w"][:] = _glorot(rng, d1, d2, (d2, d1))
    p["out.w"][:] = _glorot(rng, d2, 1, (d2,))
    for tag in ("bn1", "bn2"):
        p[f"{tag}.gamma"][:] = 1.0
        p[f"{tag}.running_var"][:] = 1.0
    return p


# ---------------------------------------------------------------------------
# layer forwards (batched) and backwards


def _lstm_scan(X: np.ndarray, w: np.ndarray, b: np.ndarray, mode: str, buffers, scratch):
    """Run the recurrence over (B, T, input_dim) from zero states.

    ``w`` and ``b`` are one direction's fused weight and bias. ``buffers``
    is the direction's ``(hx, acts, cells, tanh_cells)`` and ``scratch`` its
    ``(ig, sig)`` step scratch, shaped as :func:`_buffer_shapes` gives them;
    the scan overwrites them all. Returns the states (B, T, units), a view
    of ``hx``, and in train mode ``buffers`` as the cache that
    :func:`_lstm_scan_backward` reads.

    The scan runs time-major. Row t of ``hx`` (T + 1, B, units + input_dim)
    holds [h_{t-1}, x_t], so a step's gates are one product with the fused
    weight, written into its gate row and activated there: f, i and o
    sigmoided, the candidate tanhed. The step writes c_t into the cell row
    after c_{t-1} (the first is the zero start) and h_t into the hidden part
    of ``hx[t + 1]``; the last row's input part is unused. Train mode keeps
    a gate, cell and tanh(c) row for every step, which only the backward
    pass reads. Infer mode keeps one gate row, one tanh row and two cell
    rows, reused in turn, and returns no cache. ``X`` is only read.
    """
    T = X.shape[1]
    u = w.shape[1] // 4
    hx, acts, cells, tanh_cells = buffers
    ig, sig = scratch  # sig is contiguous, so the chain runs on flat data
    kept = len(acts)
    hx[0, :, :u] = 0.0
    hx[:T, :, u:] = X.transpose(1, 0, 2)
    cells[0] = 0.0
    # IEEE semantics make the plain sigmoid exact on both tails: exp(-x)
    # overflows to inf -> 0, underflows to 0 -> 1
    with np.errstate(over="ignore"):
        for t in range(T):
            a = acts[t % kept]
            np.matmul(hx[t], w, out=a)
            a += b
            np.negative(a[:, :3 * u], out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.reciprocal(sig, out=a[:, :3 * u])
            g = a[:, 3 * u:]
            np.tanh(g, out=g)
            c = cells[(t + 1) % (kept + 1)]
            np.multiply(a[:, :u], cells[t % (kept + 1)], out=c)
            np.multiply(a[:, u:2 * u], g, out=ig)
            c += ig
            tanh_c = tanh_cells[t % kept]
            np.tanh(c, out=tanh_c)
            np.multiply(a[:, 2 * u:3 * u], tanh_c, out=hx[t + 1, :, :u])
    states = hx[1:, :, :u].transpose(1, 0, 2)
    return states, buffers if mode == "train" else None


def _lstm_scan_backward(cache, d_states: np.ndarray, w: np.ndarray,
                        dw: np.ndarray, db: np.ndarray, scratch) -> None:
    """Backpropagation through time for one scan direction.

    Accumulates into ``dw`` and ``db``, which are laid out like ``w`` and
    the bias and start at zero. Each step writes its gate gradients into
    one contiguous (B, 4u) row of ``d_gates``, and the weight and bias
    gradients are one product and one sum over all steps after the loop
    (Appleyard et al. 2016). The gate-derivative factors are formed step
    by step in (B, u)-sized scratch: formed for all T up front they make
    blocks that outgrow the cache, which measured slower. ``scratch`` is
    ``(d_gates, dh, dc, tmp, dsig)``, shaped as :func:`_buffer_shapes`
    gives them and overwritten.
    """
    hx, acts, cells, tanh_cells = cache
    T, B, _ = acts.shape
    u = w.shape[1] // 4
    w_hidden_t = w[:u].T
    d_states = d_states.transpose(1, 0, 2)
    d_gates, dh, dc, tmp, dsig = scratch
    dc.fill(0.0)
    for t in range(T - 1, -1, -1):
        a = acts[t]
        i = a[:, u:2 * u]
        o = a[:, 2 * u:3 * u]
        g = a[:, 3 * u:]
        sig = a[:, :3 * u]
        tanh_c = tanh_cells[t]
        d = d_gates[t]
        if t == T - 1:
            dh[:] = d_states[t]
        else:
            np.matmul(d_gates[t + 1], w_hidden_t, out=dh)
            dh += d_states[t]
            dc *= acts[t + 1, :, :u]  # the next step's forget gate
        # sigmoid'(z) = s * (1 - s) for the f, i, o blocks at once
        np.subtract(1.0, sig, out=dsig)
        dsig *= sig
        # d_o = dh * tanh(c) * o'
        np.multiply(dh, tanh_c, out=tmp)
        np.multiply(tmp, dsig[:, 2 * u:], out=d[:, 2 * u:3 * u])
        # dc += dh * o * (1 - tanh(c)^2)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh
        dc += tmp
        # d_f = dc * c_prev * f', d_i = dc * g * i', d_g = dc * i * (1 - g^2)
        np.multiply(dc, cells[t], out=tmp)
        np.multiply(tmp, dsig[:, :u], out=d[:, :u])
        np.multiply(dc, g, out=tmp)
        np.multiply(tmp, dsig[:, u:2 * u], out=d[:, u:2 * u])
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= i
        np.multiply(dc, tmp, out=d[:, 3 * u:])
    flat = d_gates.reshape(T * B, 4 * u)
    dw += hx[:T].reshape(T * B, -1).T @ flat
    db += flat.sum(axis=0)


def _attention_batch(H: np.ndarray, w: np.ndarray, v: np.ndarray, pre: np.ndarray):
    """H (B, T, D) -> (context (B, D), weights (B, T), tanh pre-scores).

    The pre-scores are written into ``pre``, (B * T, attn_dim), and
    returned as a (B, T, attn_dim) view of it.
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
    return context, weights, pre


def batchnorm_forward(X: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray, mode: str,
                      momentum: float, eps: float):
    """Normalize columns of (B, d); returns (out, cache).

    Train mode uses batch statistics and records updated running stats in
    the cache (the caller commits them); infer mode uses the running stats.
    """
    X = np.asarray(X, dtype=np.float64)
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
        new_mean = momentum * running_mean + (1 - momentum) * mean
        new_var = momentum * running_var + (1 - momentum) * var
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


def _dropout_shapes(p: ModelParams, batch: int):
    return [(batch, p["dense1.b"].shape[0]), (batch, p["dense2.b"].shape[0])]


def draw_dropout_masks(p: ModelParams, batch: int, rng: RandomSource):
    """The two inverted-dropout masks of a train-mode batch of ``batch`` rows.

    Each entry keeps its unit with probability ``1 - dropout_rate`` and
    scales survivors by ``1 / (1 - dropout_rate)``, so inference, which
    applies no mask, sees the same expected activations. A zero rate draws
    nothing and returns masks of ones.
    """
    masks = []
    for shape in _dropout_shapes(p, batch):
        if p.dropout_rate == 0.0:
            masks.append(np.ones(shape))
        else:
            keep = rng.uniforms(shape[0] * shape[1]).reshape(shape) >= p.dropout_rate
            masks.append(keep / (1.0 - p.dropout_rate))
    return masks


# ---------------------------------------------------------------------------
# whole-model forward / backward


def _batchnorm(p: ModelParams, tag: str, X: np.ndarray, mode: str):
    return batchnorm_forward(X, p[f"{tag}.gamma"], p[f"{tag}.beta"],
                             p[f"{tag}.running_mean"], p[f"{tag}.running_var"], mode,
                             p.bn_momentum, p.bn_eps)


def model_forward(x, p: ModelParams, mode: str = "infer", dropout_masks=None):
    """Forward a batch of sequences (B, T, input_dim).

    Returns (predictions, cache); predictions holds one value per sequence.
    Train mode needs a batch of at least 2 (batch norm uses batch
    statistics) and applies ``dropout_masks``, the (B, d1) and (B, d2)
    pair that :func:`draw_dropout_masks` draws. Infer mode applies no
    dropout and keeps no per-step scan buffers in the cache.

    The scan buffers, ``H`` and the attention scores, and in train mode the
    buffers :func:`model_backward` needs, are carved from ``p.workspace``,
    reserved once for the call. The cache holds views of them, so it is
    valid only until the next forward on ``p`` overwrites them; the cache
    records the workspace's reserve count, which :func:`model_backward`
    checks. The predictions are an array of their own.
    """
    if mode not in ("train", "infer"):
        raise ParameterError(f"unknown mode {mode!r}")
    data = np.asarray(x, dtype=np.float64)
    if data.ndim != 3:
        raise ShapeError(f"expected (B, T, d) input, got shape {data.shape}")
    if data.shape[1] == 0:
        raise EmptyInputError("empty sequence")
    if data.shape[2] != p.input_dim:
        raise ShapeError(
            f"model expects {p.input_dim} values per step, got {data.shape[2]}"
        )
    train = mode == "train"
    mask1 = mask2 = None
    if train:
        if dropout_masks is None:
            raise ParameterError("train mode needs dropout masks")
        shapes = _dropout_shapes(p, data.shape[0])
        got = [np.shape(mask) for mask in dropout_masks]
        if got != shapes:  # a (1, d1) mask would broadcast over the batch
            raise ShapeError(f"dropout masks must have shapes {shapes}, got {got}")
        mask1, mask2 = dropout_masks

    buffers = p.carve(data.shape[0], data.shape[1], train)
    scratch = buffers["scan_scratch"]
    states_f, caches_f = _lstm_scan(data, p["fwd.w"], p["fwd.b"], mode, buffers["fwd"], scratch)
    states_b_rev, caches_b = _lstm_scan(data[:, ::-1, :], p["bwd.w"], p["bwd.b"], mode,
                                        buffers["bwd"], scratch)
    H, pre = buffers["attention"]
    u = p.units
    H[:, :, :u] = states_f
    H[:, :, u:] = states_b_rev[:, ::-1, :]

    context, weights, pre = _attention_batch(H, p["attn.w"], p["attn.v"], pre)

    lin1 = context @ p["dense1.w"].T + p["dense1.b"]
    a1 = np.maximum(lin1, 0.0)
    bn1_out, bn1_cache = _batchnorm(p, "bn1", a1, mode)
    drop1 = bn1_out * mask1 if train else bn1_out

    lin2 = drop1 @ p["dense2.w"].T + p["dense2.b"]
    a2 = np.maximum(lin2, 0.0)
    bn2_out, bn2_cache = _batchnorm(p, "bn2", a2, mode)
    drop2 = bn2_out * mask2 if train else bn2_out

    preds = drop2 @ p["out.w"] + p["out.b"][0]

    cache = {
        "mode": mode, "data": data, "caches_f": caches_f, "caches_b": caches_b,
        "H": H, "weights": weights, "pre": pre, "context": context,
        "lin1": lin1, "bn1_cache": bn1_cache, "mask1": mask1, "drop1": drop1,
        "lin2": lin2, "bn2_cache": bn2_cache, "mask2": mask2, "drop2": drop2,
        "preds": preds, "reserve": p.workspace.reserves,
        "scan_backward": buffers.get("scan_backward"),
        "attention_backward": buffers.get("attention_backward"),
    }
    return preds, cache


def _l2_penalty(p: ModelParams) -> float:
    return p.l2 * (float((p["dense1.w"] ** 2).sum()) + float((p["dense2.w"] ** 2).sum()))


def model_backward(cache, target, p: ModelParams):
    """Loss and gradient for a train-mode forward cache.

    Loss is the batch mean of squared errors plus the L2 penalty on the two
    hidden dense weight matrices. The gradient is one vector laid out like
    ``p.trainable``; the large intermediates reuse the workspace region
    that the forward reserved for them. A cache from before the latest
    :func:`model_forward` on ``p`` raises StateError, since that forward
    overwrote the buffers it holds.
    """
    if not isinstance(cache, dict) or "preds" not in cache:
        raise StateError("model_backward needs the cache from model_forward")
    if cache["mode"] != "train":
        raise StateError("model_backward needs a train-mode forward cache")
    if cache["reserve"] != p.workspace.reserves:
        raise StateError("stale cache: a later model_forward on these parameters "
                         "overwrote its buffers")
    y = np.atleast_1d(np.asarray(target, dtype=np.float64))
    preds = cache["preds"]
    if y.shape != preds.shape:
        raise ShapeError(f"target shape {y.shape} does not match predictions {preds.shape}")
    B = len(y)
    residual = preds - y
    data_loss = float((residual * residual).mean())
    loss = data_loss + _l2_penalty(p)

    grad = np.zeros(p.n_trainable)
    g = p.views(grad)
    dpreds = 2.0 * residual / B

    g["out.w"][:] = cache["drop2"].T @ dpreds
    g["out.b"][0] = dpreds.sum()
    d_drop2 = np.outer(dpreds, p["out.w"])

    d_bn2_out = d_drop2 * cache["mask2"]
    d_a2, g["bn2.gamma"][:], g["bn2.beta"][:] = _batchnorm_backward(
        d_bn2_out, cache["bn2_cache"], p["bn2.gamma"])
    d_lin2 = d_a2 * (cache["lin2"] > 0)
    g["dense2.w"][:] = d_lin2.T @ cache["drop1"] + 2.0 * p.l2 * p["dense2.w"]
    g["dense2.b"][:] = d_lin2.sum(axis=0)
    d_drop1 = d_lin2 @ p["dense2.w"]

    d_bn1_out = d_drop1 * cache["mask1"]
    d_a1, g["bn1.gamma"][:], g["bn1.beta"][:] = _batchnorm_backward(
        d_bn1_out, cache["bn1_cache"], p["bn1.gamma"])
    d_lin1 = d_a1 * (cache["lin1"] > 0)
    g["dense1.w"][:] = d_lin1.T @ cache["context"] + 2.0 * p.l2 * p["dense1.w"]
    g["dense1.b"][:] = d_lin1.sum(axis=0)
    d_context = d_lin1 @ p["dense1.w"]

    # attention: context = sum_t weights_t h_t with weights = softmax(scores)
    H = cache["H"]
    weights = cache["weights"]
    pre = cache["pre"]
    B, T, D = H.shape
    dH, d_pre_lin, d_pre_tmp, d_pre_h = cache["attention_backward"]
    np.multiply(weights[:, :, None], d_context[:, None, :], out=dH)
    d_weights = np.matmul(H, d_context[:, :, None])[:, :, 0]
    wsum = (weights * d_weights).sum(axis=1, keepdims=True)
    d_scores = weights * (d_weights - wsum)
    pre_rows = pre.reshape(B * T, -1)
    g["attn.v"][:] = d_scores.reshape(B * T) @ pre_rows
    # d_pre_lin = d_scores * v * (1 - pre^2), in this order
    np.multiply(d_scores.reshape(B * T, 1), p["attn.v"], out=d_pre_lin)
    np.multiply(pre_rows, pre_rows, out=d_pre_tmp)
    np.subtract(1.0, d_pre_tmp, out=d_pre_tmp)
    d_pre_lin *= d_pre_tmp
    g["attn.w"][:] = d_pre_lin.T @ H.reshape(B * T, D)
    np.matmul(d_pre_lin, p["attn.w"], out=d_pre_h)
    dH += d_pre_h.reshape(B, T, D)

    u = p.units
    scratch = cache["scan_backward"]
    _lstm_scan_backward(cache["caches_f"], dH[:, :, :u], p["fwd.w"], g["fwd.w"], g["fwd.b"],
                        scratch)
    _lstm_scan_backward(cache["caches_b"], dH[:, ::-1, u:], p["bwd.w"], g["bwd.w"], g["bwd.b"],
                        scratch)
    return loss, grad


def commit_batchnorm(cache, p: ModelParams) -> None:
    """Apply the running-stat updates recorded by a train-mode forward."""
    for tag in ("bn1", "bn2"):
        new = cache[f"{tag}_cache"]["new_running"]
        if new is not None:
            p[f"{tag}.running_mean"][:] = new[0]
            p[f"{tag}.running_var"][:] = new[1]


def param_blocks(p: ModelParams) -> dict[str, np.ndarray]:
    """Positions in ``p.trainable`` of every named parameter block.

    The fused LSTM weights and biases are split by gate (``fwd.w_forget``,
    ``bwd.b_output``, ...), so a gradient error is reported against the
    gate it sits in.
    """
    u = p.units
    blocks = {}
    for name, positions in p.views(np.arange(p.n_trainable)).items():
        if name.startswith(("fwd.", "bwd.")):
            for k, gate in enumerate(GATES):
                blocks[f"{name}_{gate}"] = positions[..., k * u:(k + 1) * u].ravel()
        else:
            blocks[name] = positions.ravel()
    return blocks


def grad_check(p: ModelParams, x, y, eps: float = 1e-4):
    """Compare analytic gradients with central finite differences.

    The dropout masks are drawn once and reused for every perturbed
    forward, and forwards never mutate parameters, so the loss is a
    deterministic function of the parameter vector. Returns
    (max relative error, worst error per block of :func:`param_blocks`).
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    data = np.asarray(x, dtype=np.float64)
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    masks = draw_dropout_masks(p, data.shape[0], RandomSource(0x5EED))

    _, cache = model_forward(data, p, mode="train", dropout_masks=masks)
    _, analytic = model_backward(cache, y, p)

    def loss_at() -> float:
        _, c = model_forward(data, p, mode="train", dropout_masks=masks)
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
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
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
            params_rng, input_dim=1, units=4, attn_dim=3, dense_widths=(6, 4),
            dropout_rate=0.3, l2=1e-3, bn_eps=1.0,
        )
        X = data_rng.gaussians(0.0, 1.0, batch * T).reshape(batch, T, 1)
        masks = draw_dropout_masks(p, batch, RandomSource(0x5EED))
        preds, cache = model_forward(X, p, mode="train", dropout_masks=masks)
        y = preds + data_rng.gaussians(0.0, 0.15, batch)
        smooth = True
        for lin in (cache["lin1"], cache["lin2"]):
            dead = np.all(lin <= -margin, axis=0)
            near_kink = (np.abs(lin) < margin) & ~dead[None, :]
            if np.any(near_kink):
                smooth = False
                break
        if smooth:
            return p, X, y
    raise NumericError(f"could not condition a grad-check model from seed {seed}")
