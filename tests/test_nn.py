import itertools
import math
import mmap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updrspred.config import RunConfig
from updrspred.errors import (
    EmptyInputError,
    NumericError,
    ParameterError,
    ShapeError,
    StateError,
)
import updrspred.nn as nn_module
from updrspred.linalg import RandomSource
from updrspred.nn import (
    GATES,
    INVARIANT_CHECKS,
    _attention_batch,
    _buffer_shapes,
    _lstm_scan,
    _lstm_scan_backward,
    batchnorm_forward,
    commit_batchnorm,
    draw_dropout_masks,
    grad_check,
    init_model_params,
    model_backward,
    model_forward,
    param_blocks,
    random_gradcheck_model,
    reset_invariant_counters,
)
from updrspred.optimize import PREDICT_BATCH


def fuse(gates):
    """One direction's fused matrix from per-gate matrices and biases: the
    biases are its last row."""
    w = np.concatenate([gates[f"w_{gate}"] for gate in GATES], axis=1)
    b = np.concatenate([gates[f"b_{gate}"] for gate in GATES])
    return np.vstack([w, b])


def nan_buffers(batch, steps, units, train):
    """Every group of _buffer_shapes, filled with NaN so a read before a write shows."""
    regions = _buffer_shapes(batch, steps, units, 1, train)
    return {name: tuple(np.full(shape, np.nan) for shape in group)
            for region in regions for name, group in region.items()}


def scan(X, w, mode):
    """_lstm_scan with the (2, u + 2, 4u) pair ``w`` on buffers of the shapes
    model_forward carves; returns the states H (B, T, 2u) and the scan
    buffers, which in train mode are the backward's cache."""
    B, T, _ = X.shape
    buffers = nan_buffers(B, T, w.shape[2] // 4, mode == "train")
    H = buffers["attention" if mode == "train" else "states"][0]
    _lstm_scan(X, w, buffers["scan"], buffers["scan_scratch"], H)
    return H, buffers["scan"]


def scan_backward(cache, dH, w, dw):
    """_lstm_scan_backward on scratch of the shapes model_forward carves."""
    T, _, _, B, u = cache[1].shape  # the gate rows
    scratch = nan_buffers(B, T, u, True)["scan_backward"]
    _lstm_scan_backward(cache, dH, w, dw, scratch)


def pair(w_fwd, w_bwd=None):
    """The (2, u + 2, 4u) block of both directions' matrices, forward first;
    one matrix serves both directions."""
    return np.stack([w_fwd, w_fwd if w_bwd is None else w_bwd])


def zero_lstm(units):
    return np.zeros((units + 2, 4 * units))


def random_gates(rng, units, scale=0.6):
    rows = units + 1
    gates = {}
    for gate in ("forget", "input", "cell", "output"):
        gates[f"w_{gate}"] = rng.gaussians(0, scale, rows * units).reshape(rows, units)
        gates[f"b_{gate}"] = rng.gaussians(0, scale, units)
    return gates


# The groups of a carve by mode (train or not), each group's first and last
# phase of use: 0 the scan's steps, 1 the scan's end, which writes H from
# the scan's buffers, 2 the attention, 3 the attention's backward, 4 the
# scan's backward; an infer call ends after phase 2. Two groups may share
# storage only if their spans do not meet.
LIFETIMES = {
    True: {"scan": (0, 4), "scan_scratch": (0, 0), "attention": (1, 3), "d_states": (3, 4),
           "scan_backward": (4, 4)},
    False: {"scan": (0, 1), "scan_scratch": (0, 0), "states": (1, 2), "scores": (2, 2)},
}
# the groups that the layout puts at one offset, by mode
SHARED_GROUPS = {True: [("scan_scratch", "attention", "scan_backward")],
                 False: [("scan", "scores"), ("scan_scratch", "states")]}


def paper_model():
    return init_model_params(RandomSource(0), units=100, attn_dim=64, dense_widths=(64, 32))


def tiny_model(seed, dropout=0.0, l2=0.0):
    return init_model_params(
        RandomSource(seed), units=4, attn_dim=3,
        dense_widths=(6, 4), dropout_rate=dropout, l2=l2,
    )


def model_with_lstm(w_fwd, w_bwd=None):
    """The tiny model (4 units) with the forward direction's matrix set to
    w_fwd and the backward one's to w_bwd (w_fwd if not given)."""
    p = tiny_model(30)
    p["lstm.w"][:] = pair(w_fwd, w_bwd)
    return p


def scalar_scan_oracle(seq, gates):
    """Hidden states of one (T, 1) sequence from zero state,
    recomputed step by step with plain Python floats."""
    u = len(gates["b_forget"])
    h = [0.0] * u
    c = [0.0] * u
    states = []
    for x in seq:
        z = h + list(x)

        def pre(gate, j):
            w = gates[f"w_{gate}"]
            return sum(z[r] * w[r, j] for r in range(len(z))) + gates[f"b_{gate}"][j]

        f = [1.0 / (1.0 + math.exp(-pre("forget", j))) for j in range(u)]
        i = [1.0 / (1.0 + math.exp(-pre("input", j))) for j in range(u)]
        g = [math.tanh(pre("cell", j)) for j in range(u)]
        o = [1.0 / (1.0 + math.exp(-pre("output", j))) for j in range(u)]
        c = [f[j] * c[j] + i[j] * g[j] for j in range(u)]
        h = [o[j] * math.tanh(c[j]) for j in range(u)]
        states.append(h)
    return states


def reference_scan(X, w):
    """The per-step batched scan that preceded the time-major one, with the
    bias added after the input product: the oracle for ``_lstm_scan``.
    Returns the states (B, T, units) and the cache
    ``(X, states, acts, c_prevs, tanh_cs)``."""
    B, T, _ = X.shape
    u = w.shape[1] // 4
    pre_input = X.reshape(B * T, -1) @ w[u:-1] + w[-1]
    pre_input = np.ascontiguousarray(pre_input.reshape(B, T, 4 * u).transpose(1, 0, 2))
    acts = np.empty((T, B, 4 * u))
    c_prevs = np.empty((T, B, u))
    tanh_cs = np.empty((T, B, u))
    states = np.empty((B, T, u))
    h = np.zeros((B, u))
    c = np.zeros((B, u))
    for t in range(T):
        gates = h @ w[:u] + pre_input[t]
        with np.errstate(over="ignore"):
            acts[t, :, :3 * u] = 1.0 / (1.0 + np.exp(-gates[:, :3 * u]))
        acts[t, :, 3 * u:] = np.tanh(gates[:, 3 * u:])
        c_prevs[t] = c
        c = acts[t, :, :u] * c + acts[t, :, u:2 * u] * acts[t, :, 3 * u:]
        tanh_cs[t] = np.tanh(c)
        h = acts[t, :, 2 * u:3 * u] * tanh_cs[t]
        states[:, t, :] = h
    return states, (X, states, acts, c_prevs, tanh_cs)


def reference_scan_backward(cache, d_states, w, dw):
    """BPTT for :func:`reference_scan` with the hidden, input and bias rows'
    gradients summed step by step into ``dw``, which starts at zero: the
    oracle for ``_lstm_scan_backward``."""
    X, states, acts, c_prevs, tanh_cs = cache
    B, T, u = d_states.shape
    dh_next = np.zeros((B, u))
    dc_next = np.zeros((B, u))
    d_gates = np.empty((B, 4 * u))
    for t in range(T - 1, -1, -1):
        f, i, o, g = (acts[t, :, k * u:(k + 1) * u] for k in range(4))
        tanh_c = tanh_cs[t]
        dh = d_states[:, t, :] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        d_gates[:, :u] = dc * c_prevs[t] * f * (1 - f)
        d_gates[:, u:2 * u] = dc * g * i * (1 - i)
        d_gates[:, 2 * u:3 * u] = dh * tanh_c * o * (1 - o)
        d_gates[:, 3 * u:] = dc * i * (1 - g * g)
        h_prev = states[:, t - 1, :] if t > 0 else np.zeros((B, u))
        dw[:u] += h_prev.T @ d_gates
        dw[u:-1] += X[:, t, :].T @ d_gates
        dw[-1] += d_gates.sum(axis=0)
        dh_next = d_gates @ w[:u].T
        dc_next = dc * f


def assert_relatively_close(got, want, rel=1e-12):
    """Largest difference within ``rel`` of the largest reference magnitude."""
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max()), np.finfo(np.float64).tiny)
    assert float(np.abs(got - want).max()) <= rel * scale


class TestParamLayout:
    def test_paper_shape_counts(self):
        config = RunConfig()
        p = init_model_params(RandomSource(0), units=config.lstm_units,
                              attn_dim=config.attn_dim,
                              dense_widths=tuple(config.dense_widths))
        assert p.n_trainable == 109_633
        # running mean and variance of both batch norms follow the trainable part
        assert p.vector.size == 109_633 + 2 * (64 + 32)
        assert p["bn2.running_var"].base is p.vector

    def test_views_alias_the_vector(self):
        p = tiny_model(31)
        p.vector[:] = np.arange(p.vector.size)
        assert p["lstm.w"][0, 0, 0] == 0.0
        # the backward direction's matrix follows the forward one's
        assert p["lstm.w"][1, 0, 0] == p["lstm.w"][0].size
        assert p["out.b"][0] == p.n_trainable - 1
        assert p["bn1.running_mean"][0] == p.n_trainable
        p["attn.v"][:] = -1.0
        assert np.count_nonzero(p.trainable == -1.0) == 3

    def test_init_fills_fused_columns_in_draw_order(self):
        # Glorot draws per direction in the order forget, input, cell,
        # output, each landing in its gate's column block above the bias row
        p = tiny_model(32)
        rng = RandomSource(32)
        u, rows = 4, 5
        limit = math.sqrt(6.0 / (rows + u))
        assert p["lstm.w"].shape == (2, rows + 1, 4 * u)
        for w in p["lstm.w"]:  # the forward direction draws first
            for gate in ("forget", "input", "cell", "output"):
                k = GATES.index(gate)
                expected = (rng.uniforms(rows * u) * 2.0 - 1.0).reshape(rows, u) * limit
                assert np.array_equal(w[:rows, k * u:(k + 1) * u], expected)
            assert np.array_equal(w[rows], [1.0] * u + [0.0] * 3 * u)


class TestLstmCell:
    def test_zero_parameters(self):
        u = 3
        X = np.array([[[5.0], [0.3]]])
        states, (_, acts, cells, _) = scan(X, pair(zero_lstm(u)), "train")
        c_prevs = cells[:-1]
        assert acts.shape == (2, 4, 2, 1, u)  # gate-major: step, gate, direction
        assert np.all(acts[:, :3] == 0.5)  # forget, input, output
        assert np.all(acts[:, 3] == 0.0)  # candidate
        assert np.all(c_prevs == 0.0)
        assert np.all(states == 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        u = 2
        w = zero_lstm(u)
        w[-1, :2 * u] = 100.0  # forget and input gates saturated open
        w[u:-1, 3 * u:] = 1.0  # candidate = tanh(x_t)
        X = np.array([[[0.7], [0.0], [0.0], [0.0]]])
        _, (_, _, cells, _) = scan(X, pair(w), "train")
        c_prevs = cells[:-1]
        # forward: the first step writes tanh(0.7); zero inputs afterwards add nothing
        assert np.allclose(c_prevs[1:, 0, 0, :], math.tanh(0.7), atol=1e-12)
        # backward: the sequence reversed reaches 0.7 only at its last step
        assert np.all(c_prevs[:, 1] == 0.0)
        assert np.allclose(cells[-1, 1, 0, :], math.tanh(0.7), atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = RandomSource(414)
        u = 3
        gates_fwd, gates_bwd = random_gates(rng, u), random_gates(rng, u)
        X = rng.gaussians(0, 1, 2 * 6).reshape(2, 6, 1)
        states, _ = scan(X, pair(fuse(gates_fwd), fuse(gates_bwd)), "train")
        for row in range(2):
            assert np.allclose(states[row, :, :u], scalar_scan_oracle(X[row], gates_fwd),
                               atol=1e-12)
            assert np.allclose(states[row, ::-1, u:],
                               scalar_scan_oracle(X[row, ::-1], gates_bwd), atol=1e-12)

    def test_gate_ranges(self):
        # moderate magnitudes: the open-interval bounds hold mathematically
        # but float64 rounds tanh(|x| > 19) to exactly 1
        rng = RandomSource(5)
        u = 4
        w = pair(fuse(random_gates(rng, u, scale=0.8)), fuse(random_gates(rng, u, scale=0.8)))
        X = rng.gaussians(0, 1, 12).reshape(2, 6, 1)
        _, (_, acts, _, _) = scan(X, w, "train")
        assert np.all((acts[:, :3] > 0) & (acts[:, :3] < 1))
        assert np.all((acts[:, 3] > -1) & (acts[:, 3] < 1))


class TestScanMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(batch=st.integers(1, 9), steps=st.integers(1, 7), units=st.integers(1, 6),
           seed=st.integers(0, 2**31 - 1))
    def test_states_and_gradients_match(self, batch, steps, units, seed):
        rng = RandomSource(seed)
        w_fwd = fuse(random_gates(rng, units))
        w_bwd = fuse(random_gates(rng, units))
        X = rng.gaussians(0, 1, batch * steps).reshape(batch, steps, 1)
        dH = rng.gaussians(0, 1, batch * steps * 2 * units).reshape(batch, steps, 2 * units)
        kept = X.copy()
        X.setflags(write=False)
        dH.setflags(write=False)
        w = pair(w_fwd, w_bwd)

        states, cache = scan(X, w, "train")
        dw = np.full_like(w, np.nan)  # NaN would survive an accumulation into dw
        scan_backward(cache, dH, w, dw)
        # each direction on its own view: the backward one reads the
        # sequence, and its states' gradient, reversed
        for k, (seq, d_states, got) in enumerate((
                (X, dH[:, :, :units], states[:, :, :units]),
                (X[:, ::-1], dH[:, ::-1, units:], states[:, ::-1, units:]))):
            want_states, want_cache = reference_scan(seq, w[k])
            assert_relatively_close(got, want_states)
            want_dw = np.zeros_like(w[k])
            reference_scan_backward(want_cache, d_states, w[k], want_dw)
            # the weight rows and the bias row, each against its own scale
            assert_relatively_close(dw[k, :-1], want_dw[:-1])
            assert_relatively_close(dw[k, -1], want_dw[-1])
        assert np.array_equal(X, kept)


class TestInferScan:
    @settings(max_examples=100, deadline=None)
    @given(batch=st.integers(1, 300), steps=st.integers(1, 12), units=st.integers(1, 8),
           scale=st.sampled_from([0.6, 30.0]), seed=st.integers(0, 2**31 - 1))
    def test_states_equal_the_training_scan(self, batch, steps, units, scale, seed):
        # inputs of +-50 against weights of scale 30 drive gate pre-activations
        # past -709, where exp(-z) overflows in the sigmoid
        rng = RandomSource(seed)
        w = pair(fuse(random_gates(rng, units, scale=scale)),
                 fuse(random_gates(rng, units, scale=scale)))
        size = batch * steps
        X = rng.gaussians(0, 1, size)
        wild = rng.uniforms(size) < 0.2
        X[wild] = np.where(rng.uniforms(size) < 0.5, -50.0, 50.0)[wild]
        X = X.reshape(batch, steps, 1)
        X.setflags(write=False)
        want, _ = scan(X, w, "train")
        got, (_, acts, cells, tanh_cells) = scan(X, w, "infer")
        assert (len(acts), len(cells), len(tanh_cells)) == (1, 2, 1)
        assert np.array_equal(got, want)

    def test_infer_cache_keeps_one_gate_row_per_scan(self):
        p = tiny_model(40)
        X = RandomSource(41).gaussians(0, 1, 6 * 5).reshape(6, 5, 1)
        _, cache = model_forward(X, p, mode="infer")
        assert cache["buffers"]["scan"][1].shape == (1, 4, 2, 6, 4)
        assert "scan_backward" not in cache["buffers"]
        _, train_cache = model_forward(X, p, mode="train", rng=RandomSource(42))
        assert train_cache["buffers"]["scan"][1].shape == (5, 4, 2, 6, 4)


class TestBilstm:
    def test_t1_uses_same_step_twice(self):
        p = model_with_lstm(fuse(random_gates(RandomSource(6), 4)))
        _, cache = model_forward(np.array([[0.4]])[None], p)
        H = cache["buffers"]["states"][0][0]
        assert H.shape == (1, 8)
        assert np.allclose(H[0, :4], H[0, 4:])

    def test_palindrome_symmetry(self):
        p = model_with_lstm(fuse(random_gates(RandomSource(7), 4)))
        seq = np.array([[0.3], [-1.2], [0.5], [-1.2], [0.3]])
        _, cache = model_forward(seq[None], p)
        H = cache["buffers"]["states"][0][0]
        T = seq.shape[0]
        for t in range(T):
            assert np.allclose(H[t, :4], H[T - 1 - t, 4:], atol=1e-12)

    def test_backward_direction_reads_the_sequence_reversed(self):
        # distinct matrices: a swapped matrix or a missing time reversal
        # shows, which the palindrome test, with one matrix for both, cannot
        rng = RandomSource(34)
        w_fwd, w_bwd = fuse(random_gates(rng, 4)), fuse(random_gates(rng, 4))
        p = model_with_lstm(w_fwd, w_bwd)
        X = rng.gaussians(0, 1, 3 * 6).reshape(3, 6, 1)
        _, cache = model_forward(X, p)
        H = cache["buffers"]["states"][0]
        forward, _ = reference_scan(X, w_fwd)
        backward, _ = reference_scan(X[:, ::-1], w_bwd)
        assert_relatively_close(H[:, :, :4], forward)
        assert_relatively_close(H[:, :, 4:], backward[:, ::-1])

    def test_zero_parameters_zero_states(self):
        p = model_with_lstm(zero_lstm(4))
        _, cache = model_forward(np.array([[1.0], [2.0]])[None], p)
        assert np.array_equal(cache["buffers"]["states"][0][0], np.zeros((2, 8)))

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptyInputError):
            model_forward(np.zeros((0, 1))[None], tiny_model(33))


def attend(H, w, v):
    context, weights = _attention_batch(H[None], w, v, np.empty((len(H), len(v))))
    return context[0], weights[0]


class TestAttention:
    def test_identical_rows_uniform_weights(self):
        rng = RandomSource(8)
        w = rng.gaussians(0, 1, 12).reshape(3, 4)
        v = rng.gaussians(0, 1, 3)
        row = rng.gaussians(0, 1, 4)
        H = np.tile(row, (5, 1))
        context, weights = attend(H, w, v)
        assert np.allclose(weights, 0.2, atol=1e-12)
        assert np.allclose(context, row, atol=1e-12)

    def test_saturated_scores_pick_one_state(self):
        # v . tanh(w h) = 20 * h[0]: second row scores far above the first.
        H = np.array([[0.0, 1.0], [1.0, 5.0]])
        context, weights = attend(H, np.array([[20.0, 0.0]]), np.array([20.0]))
        assert weights[1] > 1 - 1e-6
        assert np.allclose(context, H[1], atol=1e-4)

    def test_matches_scalar_oracle(self):
        rng = RandomSource(9)
        w = rng.gaussians(0, 1, 8).reshape(2, 4)
        v = rng.gaussians(0, 1, 2)
        H = rng.gaussians(0, 1, 12).reshape(3, 4)
        context, weights = attend(H, w, v)
        scores = []
        for t in range(3):
            pre = [math.tanh(sum(w[a, d] * H[t, d] for d in range(4))) for a in range(2)]
            scores.append(sum(v[a] * pre[a] for a in range(2)))
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        ref_w = [e / sum(exps) for e in exps]
        ref_c = [sum(ref_w[t] * H[t, d] for t in range(3)) for d in range(4)]
        assert np.allclose(weights, ref_w, atol=1e-12)
        assert np.allclose(context, ref_c, atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = RandomSource(10)
        w = rng.gaussians(0, 2, 20).reshape(4, 5)
        v = rng.gaussians(0, 2, 4)
        for _ in range(25):
            H = rng.gaussians(0, 5, 35).reshape(7, 5)
            _, weights = attend(H, w, v)
            assert abs(weights.sum() - 1.0) <= 1e-9
            assert np.all(weights >= 0)

    def test_score_shift_invariance(self):
        # Adding a constant to every score must leave the weights unchanged;
        # shifting v's output via an extra constant row reproduces that.
        rng = RandomSource(11)
        H = rng.gaussians(0, 1, 20).reshape(5, 4)
        w = rng.gaussians(0, 1, 12).reshape(3, 4)
        v = rng.gaussians(0, 1, 3)
        _, base = attend(H, w, v)
        pre = np.tanh(H @ w.T)
        scores = pre @ v
        for shift in (-50.0, 3.7, 200.0):
            shifted = scores + shift
            e = np.exp(shifted - shifted.max())
            assert np.allclose(e / e.sum(), base, atol=1e-9)


class TestBatchNorm:
    def bn(self, d, **kw):
        base = dict(gamma=np.ones(d), beta=np.zeros(d),
                    running_mean=np.zeros(d), running_var=np.ones(d), eps=1e-5)
        base.update(kw)
        return base

    def test_train_mode_normalizes(self):
        rng = RandomSource(12)
        X = rng.gaussians(3.0, 2.0, 200).reshape(50, 4)
        out, _ = batchnorm_forward(X, **self.bn(4), mode="train")
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_constant_column_maps_to_beta(self):
        bn = self.bn(1, beta=np.array([5.0]))
        X = np.full((10, 1), 2.5)
        out, _ = batchnorm_forward(X, **bn, mode="train")
        assert np.allclose(out, 5.0, atol=1e-12)

    def test_infer_mode_uses_running_stats(self):
        bn = self.bn(2, running_mean=np.array([1.0, -2.0]),
                     running_var=np.array([1.0, 1.0]), beta=np.array([0.5, 0.5]))
        X = np.array([[1.0, -2.0]])
        out, _ = batchnorm_forward(X, **bn, mode="infer")
        assert np.allclose(out, 0.5, atol=1e-5)

    def test_batch_of_one_rejected_in_train(self):
        with pytest.raises(ParameterError):
            batchnorm_forward(np.ones((1, 3)), **self.bn(3), mode="train")

    def test_running_stats_updated_with_momentum(self, monkeypatch):
        bn = self.bn(1)
        X = np.array([[2.0], [4.0]])  # batch mean 3, var 1
        _, cache = batchnorm_forward(X, **bn, mode="train")
        new_mean, new_var = cache["new_running"]
        assert new_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 3.0)
        assert new_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)
        # the momentum is the module's one constant
        monkeypatch.setattr(nn_module, "BN_MOMENTUM", 0.5)
        _, cache = batchnorm_forward(X, **bn, mode="train")
        assert cache["new_running"][0][0] == pytest.approx(1.5)


class TestDropout:
    def test_rate_zero_identity(self):
        p = tiny_model(40, dropout=0.0)
        rng = RandomSource(0)
        masks = draw_dropout_masks(p, 5, rng)
        assert [m.shape for m in masks] == [(5, 6), (5, 4)]
        assert all(np.all(m == 1.0) for m in masks)
        assert rng.uniforms(1)[0] == RandomSource(0).uniforms(1)[0]

    def test_infer_identity(self):
        p = tiny_model(41, dropout=0.9)
        X = RandomSource(42).gaussians(0, 1, 3 * 5).reshape(3, 5, 1)
        dropped, _ = model_forward(X, p, mode="infer")
        p.dropout_rate = 0.0
        kept, _ = model_forward(X, p, mode="infer")
        assert np.array_equal(dropped, kept)

    def test_expectation_preserved(self):
        p = tiny_model(43, dropout=0.3)
        rng = RandomSource(13)
        total = np.zeros(6)
        trials = 100_000
        for _ in range(trials // 100):
            total += draw_dropout_masks(p, 100, rng)[0].sum(axis=0)
        assert np.all(np.abs(total / trials - 1.0) < 0.02)

    def test_survivors_scaled(self):
        p = tiny_model(44, dropout=0.5)
        for mask in draw_dropout_masks(p, 50, RandomSource(45)):
            assert set(np.unique(mask)) == {0.0, 2.0}

    def test_rate_one_rejected(self):
        with pytest.raises(ParameterError):
            tiny_model(46, dropout=1.0)

    def test_train_mode_needs_a_random_source(self):
        p = tiny_model(49, dropout=0.5)
        with pytest.raises(ParameterError, match="train mode needs a random source"):
            model_forward(np.ones((4, 5, 1)), p, mode="train")

    def test_train_forward_applies_the_masks_its_source_draws(self):
        p = tiny_model(50, dropout=0.5)
        X = RandomSource(51).gaussians(0, 1, 4 * 5).reshape(4, 5, 1)
        rng, twin = RandomSource(52), RandomSource(52)
        _, cache = model_forward(X, p, mode="train", rng=rng)
        want = draw_dropout_masks(p, 4, twin)
        for (_, _, _, mask), expected in zip(cache["head"], want):
            assert np.array_equal(mask, expected)
        # the forward drew the masks and nothing else from its source
        assert rng.next_u64() == twin.next_u64()

    def test_refused_input_draws_no_masks(self):
        p = tiny_model(53, dropout=0.5)
        rng = RandomSource(54)
        with pytest.raises(ShapeError):
            model_forward(np.ones((4, 5, 2)), p, mode="train", rng=rng)
        assert rng.next_u64() == RandomSource(54).next_u64()


class TestModelForward:
    def test_zero_parameters_predict_bias(self):
        p = tiny_model(1)
        p.trainable[:] = 0.0
        p["out.b"][0] = 7.25
        preds, _ = model_forward(np.ones((5, 1))[None], p, mode="infer")
        assert preds[0] == pytest.approx(7.25)

    def test_infer_deterministic(self):
        p = tiny_model(2, dropout=0.3)
        x = RandomSource(3).gaussians(0, 1, 5).reshape(5, 1)
        p1, _ = model_forward(x[None], p, mode="infer")
        p2, _ = model_forward(x[None], p, mode="infer")
        assert p1[0] == p2[0]

    def test_prediction_finite(self):
        p = tiny_model(4)
        rng = RandomSource(5)
        for _ in range(10):
            x = rng.gaussians(0, 10, 5).reshape(5, 1)
            preds, _ = model_forward(x[None], p, mode="infer")
            assert math.isfinite(preds[0])

    def test_batch_shape(self):
        p = tiny_model(6)
        X = RandomSource(7).gaussians(0, 1, 3 * 5).reshape(3, 5, 1)
        preds, _ = model_forward(X, p, mode="infer")
        assert preds.shape == (3,)

    def test_train_mode_single_sample_rejected(self):
        p = tiny_model(8, dropout=0.0)
        with pytest.raises(ParameterError):
            model_forward(np.ones((5, 1))[None], p, mode="train", rng=RandomSource(0))

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_wrong_step_width_or_missing_batch_axis_rejected(self, mode):
        p = tiny_model(9)
        rng = RandomSource(10)
        with pytest.raises(ShapeError, match="the network reads one value per step, got 2"):
            model_forward(np.ones((3, 4, 2)), p, mode=mode, rng=rng)
        with pytest.raises(ShapeError, match=r"expected \(B, T, 1\) input"):
            model_forward(np.ones((5, 1)), p, mode=mode, rng=rng)
        assert p.carves == 0

    def test_unknown_mode_rejected_before_any_work(self):
        p = tiny_model(9)
        before = dict(INVARIANT_CHECKS)
        with pytest.raises(ParameterError, match="unknown mode 'eval'"):
            model_forward(np.ones((5, 4, 1)), p, mode="eval")
        assert INVARIANT_CHECKS == before


class TestModelBackward:
    def forward_train(self, p, seed=21, batch=3, T=5):
        X = RandomSource(seed).gaussians(0, 1, batch * T).reshape(batch, T, 1)
        preds, cache = model_forward(X, p, mode="train", rng=RandomSource(seed + 1))
        return X, preds, cache

    def test_perfect_fit_zero_loss_and_output_grad(self):
        p = tiny_model(10, l2=0.0)
        _, preds, cache = self.forward_train(p)
        loss, grad = model_backward(cache, preds.copy(), p)
        assert loss == 0.0
        assert np.allclose(p.views(grad)["out.w"], 0.0)
        assert np.allclose(p.views(grad)["out.b"], 0.0)

    def test_penalty_only_gradient_is_2_lambda_w(self):
        p = tiny_model(11, l2=0.05)
        kept = {name: p[name].copy() for name in ("dense1.w", "dense2.w")}
        p.trainable[:] = 0.0
        for name, values in kept.items():
            p[name][:] = values
        _, preds, cache = self.forward_train(p)
        assert np.allclose(preds, 0.0)
        loss, grad = model_backward(cache, np.zeros_like(preds), p)
        g = p.views(grad)
        assert np.allclose(g["dense1.w"], 2 * 0.05 * p["dense1.w"], atol=1e-12)
        assert np.allclose(g["dense2.w"], 2 * 0.05 * p["dense2.w"], atol=1e-12)

    def test_infer_cache_rejected(self):
        p = tiny_model(12)
        X = np.ones((3, 5, 1))
        _, cache = model_forward(X, p, mode="infer")
        with pytest.raises(StateError):
            model_backward(cache, np.zeros(3), p)

    def test_missing_cache_rejected(self):
        with pytest.raises(StateError):
            model_backward({"nope": 1}, np.zeros(3), tiny_model(13))

    def test_gradients_cover_all_parameters(self):
        p = tiny_model(14, dropout=0.2, l2=0.01)
        _, preds, cache = self.forward_train(p)
        _, grad = model_backward(cache, preds + 1.0, p)
        assert grad.shape == p.trainable.shape
        assert np.all(np.isfinite(grad))
        # the named blocks, split by gate, tile the trainable vector
        positions = np.concatenate(list(param_blocks(p).values()))
        assert np.array_equal(np.sort(positions), np.arange(p.n_trainable))


class TestGradCheck:
    def test_tiny_random_models_pass(self):
        for seed in range(5):
            p, X, y = random_gradcheck_model(seed)
            worst, _ = grad_check(p, X, y, eps=1e-4)
            assert worst < 1e-5, f"seed {seed}: {worst}"

    def test_corrupted_gradient_detected(self, monkeypatch):
        original = nn_module.model_backward

        def corrupted(cache, target, p):
            loss, grad = original(cache, target, p)
            grad[param_blocks(p)["fwd.w_forget"]] = 0.0
            return loss, grad

        monkeypatch.setattr(nn_module, "model_backward", corrupted)
        p, X, y = random_gradcheck_model(7)
        worst, per_block = grad_check(p, X, y, eps=1e-4)
        assert worst > 1e-2
        assert per_block["fwd.w_forget"] > 1e-2

    def test_nan_gradient_entry_fails_its_block(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a NaN must not reach the maxima as NaN
        original = nn_module.model_backward

        def poisoned(cache, target, p):
            loss, grad = original(cache, target, p)
            grad[5] = np.nan
            return loss, grad

        monkeypatch.setattr(nn_module, "model_backward", poisoned)
        p, X, y = random_gradcheck_model(0)
        worst, per_block = grad_check(p, X, y, eps=1e-4)
        block = next(name for name, positions in param_blocks(p).items() if 5 in positions)
        assert worst == np.inf
        assert per_block[block] == np.inf

    def test_penalty_only_model_near_exact(self):
        # zero data path: only the quadratic penalty contributes, and its
        # central difference is exact up to rounding of a tiny loss
        p = tiny_model(300, dropout=0.0, l2=0.05)
        p.trainable[:] = 0.0
        p["dense1.w"][2, 3] = 1.0
        p["dense2.w"][1, 4] = -0.8
        X = np.zeros((3, 5, 1))
        y = np.zeros(3)
        worst, _ = grad_check(p, X, y, eps=1e-4)
        assert worst < 1e-10

    def test_bad_eps_rejected(self):
        p = tiny_model(400)
        with pytest.raises(ParameterError):
            grad_check(p, np.zeros((3, 5, 1)), np.zeros(3), eps=0.0)


class TestInvariantCounters:
    def test_counters_advance(self):
        reset_invariant_counters()
        p = tiny_model(15)
        X = RandomSource(16).gaussians(0, 1, 4 * 5).reshape(4, 5, 1)
        model_forward(X, p, mode="train", rng=RandomSource(17))
        assert INVARIANT_CHECKS["attention_weight_sum"] == 4
        assert INVARIANT_CHECKS["batchnorm_zero_mean"] == 2

    def test_violation_raises(self):
        H = np.full((2, 2, 3), np.nan)
        with pytest.raises(NumericError):
            _attention_batch(H, np.zeros((2, 3)), np.zeros(2), np.empty((4, 2)))


class TestWorkspaceCarving:
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_a_later_forward_makes_the_cache_stale(self, mode):
        p = tiny_model(50, dropout=0.3)
        X = RandomSource(51).gaussians(0, 1, 4 * 5).reshape(4, 5, 1)
        preds, cache = model_forward(X, p, mode="train", rng=RandomSource(52))
        model_forward(X, p, mode=mode, rng=RandomSource(52))
        with pytest.raises(StateError, match="stale"):
            model_backward(cache, preds, p)

    def test_a_smaller_carve_reuses_the_buffer_and_a_larger_one_replaces_it(self):
        p = init_model_params(RandomSource(64), units=5, attn_dim=3, dense_widths=(4, 4))
        assert p.scratch.size == 0 and p.carves == 0
        first = p.carve(6, 4, True)
        buffer = p.scratch
        smaller = p.carve(2, 3, True)
        assert p.scratch is buffer
        assert np.shares_memory(first["scan"][0], smaller["scan"][0])
        larger = p.carve(12, 4, True)
        assert p.scratch is not buffer and p.scratch.size > buffer.size
        assert all(np.shares_memory(a, p.scratch) for group in larger.values() for a in group)
        assert not np.shares_memory(larger["scan"][0], buffer)
        assert p.carves == 3

    def test_every_forward_carves_once_and_a_backward_not_at_all(self):
        p = tiny_model(65)
        X = RandomSource(66).gaussians(0, 1, 4 * 5).reshape(4, 5, 1)
        preds, cache = model_forward(X, p, mode="train", rng=RandomSource(67))
        assert p.carves == cache["carves"] == 1
        model_backward(cache, preds, p)
        assert p.carves == 1
        _, cache = model_forward(X, p, mode="infer")
        assert p.carves == cache["carves"] == 2

    def test_growing_frees_the_old_buffer_before_the_new_one(self, monkeypatch):
        # with no view of the old buffer alive, the two are never held at once:
        # the old memory map is closed before the new one is made
        p = init_model_params(RandomSource(68), units=16, attn_dim=8, dense_widths=(4, 4))
        p.carve(32, 10, True)  # its views die at once
        old = p.scratch.nbytes
        old_map = weakref.ref(p.scratch.base.obj)
        alive_when_mapping = []
        make_map = mmap.mmap

        def spy(*args):
            alive_when_mapping.append(old_map() is not None)
            return make_map(*args)

        monkeypatch.setattr(nn_module.mmap, "mmap", spy)
        p.carve(64, 10, True)
        assert alive_when_mapping == [False]
        assert isinstance(p.scratch.base.obj, make_map)
        assert p.scratch.nbytes > old > 2 ** 17

    def test_results_do_not_depend_on_what_the_workspace_held(self):
        # every carved array is written before it is read: a buffer full of
        # NaN, left by a larger call, gives the same bits as a fresh one.
        # Between the forward and the backward only the scan's buffers, H and
        # the pre-scores are live, so NaN written over every other float of
        # the buffer then must not show either, nor NaN written over the
        # whole buffer before an infer call
        X = RandomSource(53).gaussians(0, 1, 6 * 5).reshape(6, 5, 1)
        y = RandomSource(54).gaussians(0, 1, 6)
        results = []
        for warm in (False, True):
            p = tiny_model(55, dropout=0.3)
            if warm:
                model_forward(np.ones((9, 7, 1)), p, mode="train", rng=RandomSource(57))
                p.scratch.fill(np.nan)
            preds, cache = model_forward(X, p, mode="train", rng=RandomSource(56))
            if warm:
                live = [*cache["buffers"]["scan"], *cache["buffers"]["attention"][:2]]
                kept = [array.copy() for array in live]
                p.scratch.fill(np.nan)
                for array, values in zip(live, kept):
                    array[...] = values
            loss, grad = model_backward(cache, y, p)
            if warm:
                p.scratch.fill(np.nan)
            results.append((preds, loss, grad, model_forward(X, p, mode="infer")[0]))
        (p0, l0, g0, i0), (p1, l1, g1, i1) = results
        assert p0.tobytes() == p1.tobytes() and l0 == l1
        assert g0.tobytes() == g1.tobytes() and i0.tobytes() == i1.tobytes()

    @pytest.mark.parametrize("train", [True, False])
    def test_groups_share_storage_only_when_never_live_together(self, train):
        p = init_model_params(RandomSource(58), units=5, attn_dim=3, dense_widths=(4, 4))
        buffers = p.carve(3, 4, train)
        lives = LIFETIMES[train]
        assert set(buffers) == set(lives)
        for group in buffers.values():  # a group's arrays follow each other
            for i, a in enumerate(group):
                assert not any(np.shares_memory(a, b) for b in group[i + 1:])
        shared = [set(names) for names in SHARED_GROUPS[train]]
        for a, b in itertools.combinations(buffers, 2):
            overlap = any(np.shares_memory(x, z) for x in buffers[a] for z in buffers[b])
            (a0, a1), (b0, b1) = lives[a], lives[b]
            if a0 <= b1 and b0 <= a1:
                assert not overlap, (a, b)
            assert overlap == any({a, b} <= names for names in shared), (a, b)

    def test_paper_shape_train_carve_budget(self):
        # B=64, T=10, 100 units, attention 64: H, the pre-scores and the
        # attention backward's scratch share the last region with the scan's
        # step scratch and the scan backward's buffers, so a train carve is
        # the scan's buffers, dH and the scan backward's buffers (12.52 MiB);
        # a PREDICT_BATCH-row infer carve lays H over the step scratch
        p = paper_model()
        p.carve(64, 10, True)
        assert p.scratch.nbytes <= 12.6 * 2 ** 20
        p = paper_model()
        p.carve(PREDICT_BATCH, 10, False)
        assert p.scratch.nbytes <= 11.1 * 2 ** 20

    # (batch, steps, units, attn_dim): the paper's shape, which is also the
    # net-train benchmark's, and ingest-linear's 8-unit network
    @pytest.mark.parametrize("batch, steps, units, attn_dim",
                             [(64, 10, 100, 64), (64, 20, 8, 8)])
    def test_a_predict_chunk_fits_in_the_train_carve(self, batch, steps, units, attn_dim):
        # a validation predict after a train step must not grow the workspace
        p = init_model_params(RandomSource(59), units=units, attn_dim=attn_dim,
                              dense_widths=(64, 32))
        p.carve(batch, steps, True)
        floats = p.scratch
        p.carve(PREDICT_BATCH, steps, False)
        assert p.scratch is floats

    def test_a_small_train_batch_grows_the_workspace_once_by_under_a_megabyte(self):
        # rfe-forest's network (32 rows, 10 steps, 8 units, attention 8): a
        # PREDICT_BATCH-row call's states H and [h, x, 1] rows alone outgrow
        # the 32-row train carve, so the first predict grows the workspace
        p = init_model_params(RandomSource(59), units=8, attn_dim=8, dense_widths=(16, 8))
        p.carve(32, 10, True)
        train = p.scratch.size
        p.carve(PREDICT_BATCH, 10, False)
        assert 0 < (p.scratch.size - train) * 8 < 2 ** 20
        floats = p.scratch
        p.carve(32, 10, True)
        assert p.scratch is floats

    @pytest.mark.parametrize("batch, steps, units, attn_dim", [(64, 10, 100, 64), (6, 5, 4, 3)])
    def test_shared_offsets_give_the_bits_of_separate_storage(self, monkeypatch, batch, steps,
                                                              units, attn_dim):
        X = RandomSource(60).gaussians(0, 1, batch * steps).reshape(batch, steps, 1)
        y = RandomSource(61).gaussians(0, 1, batch)

        def run():
            p = init_model_params(RandomSource(62), units=units, attn_dim=attn_dim,
                                  dense_widths=(64, 32))
            preds, cache = model_forward(X, p, mode="train", rng=RandomSource(63))
            loss, grad = model_backward(cache, y, p)
            return p.scratch.size, preds, loss, grad, model_forward(X, p)[0]

        shared = run()
        layout = nn_module._buffer_shapes
        monkeypatch.setattr(nn_module, "_buffer_shapes", lambda *args: [
            {name: group} for region in layout(*args) for name, group in region.items()])
        separate = run()
        assert separate[0] > shared[0]  # every group has storage of its own
        assert shared[2] == separate[2]
        for a, b in zip(shared[1:], separate[1:]):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBatchNormCommit:
    def test_commit_applies_running_updates(self):
        p = tiny_model(18)
        X = RandomSource(19).gaussians(0, 1, 4 * 5).reshape(4, 5, 1)
        _, cache = model_forward(X, p, mode="train", rng=RandomSource(20))
        before = p["bn1.running_mean"].copy()
        commit_batchnorm(cache, p)
        assert not np.array_equal(p["bn1.running_mean"], before)
