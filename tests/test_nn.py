import math

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


def fuse(gates):
    """One direction's fused (w, b) from per-gate matrices and biases."""
    w = np.concatenate([gates[f"w_{gate}"] for gate in GATES], axis=1)
    b = np.concatenate([gates[f"b_{gate}"] for gate in GATES])
    return w, b


def nan_buffers(batch, steps, input_dim, units, train):
    """Every group of _buffer_shapes, filled with NaN so a read before a write shows."""
    shapes = _buffer_shapes(batch, steps, input_dim, units, 1, train)
    return {name: tuple(np.full(shape, np.nan) for shape in group)
            for name, group in shapes.items()}


def scan(X, w, b, mode):
    """_lstm_scan on buffers of the shapes model_forward carves."""
    B, T, d = X.shape
    buffers = nan_buffers(B, T, d, w.shape[1] // 4, mode == "train")
    return _lstm_scan(X, w, b, mode, buffers["fwd"], buffers["scan_scratch"])


def scan_backward(cache, d_states, w, dw, db):
    """_lstm_scan_backward on scratch of the shapes model_forward carves."""
    hx, acts = cache[:2]
    T, B = acts.shape[:2]
    u = w.shape[1] // 4
    scratch = nan_buffers(B, T, hx.shape[2] - u, u, True)["scan_backward"]
    _lstm_scan_backward(cache, d_states, w, dw, db, scratch)


def zero_lstm(input_dim, units):
    return np.zeros((units + input_dim, 4 * units)), np.zeros(4 * units)


def random_gates(rng, input_dim, units, scale=0.6):
    rows = units + input_dim
    gates = {}
    for gate in ("forget", "input", "cell", "output"):
        gates[f"w_{gate}"] = rng.gaussians(0, scale, rows * units).reshape(rows, units)
        gates[f"b_{gate}"] = rng.gaussians(0, scale, units)
    return gates


def tiny_model(seed, dropout=0.0, l2=0.0):
    return init_model_params(
        RandomSource(seed), input_dim=1, units=4, attn_dim=3,
        dense_widths=(6, 4), dropout_rate=dropout, l2=l2,
    )


def model_with_lstm(w, b):
    """The tiny model (4 units) with both scan directions set to (w, b)."""
    p = tiny_model(30)
    for tag in ("fwd", "bwd"):
        p[f"{tag}.w"][:] = w
        p[f"{tag}.b"][:] = b
    return p


def scalar_scan_oracle(seq, gates):
    """Hidden states of one (T, input_dim) sequence from zero state,
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


def reference_scan(X, w, b):
    """The per-step batched scan that preceded the time-major one: the
    oracle for ``_lstm_scan``. Returns the states (B, T, units) and the
    cache ``(X, states, acts, c_prevs, tanh_cs)``."""
    B, T, _ = X.shape
    u = w.shape[1] // 4
    pre_input = X.reshape(B * T, -1) @ w[u:] + b
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


def reference_scan_backward(cache, d_states, w, dw, db):
    """BPTT for :func:`reference_scan` with the weight gradient summed step
    by step: the oracle for ``_lstm_scan_backward``."""
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
        dw[u:] += X[:, t, :].T @ d_gates
        db += d_gates.sum(axis=0)
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
        assert p["fwd.w"][0, 0] == 0.0
        assert p["out.b"][0] == p.n_trainable - 1
        assert p["bn1.running_mean"][0] == p.n_trainable
        p["attn.v"][:] = -1.0
        assert np.count_nonzero(p.trainable == -1.0) == 3

    def test_init_fills_fused_columns_in_draw_order(self):
        # Glorot draws per direction in the order forget, input, cell,
        # output, each landing in its gate's column block
        p = tiny_model(32)
        rng = RandomSource(32)
        u, rows = 4, 5
        limit = math.sqrt(6.0 / (rows + u))
        for tag in ("fwd", "bwd"):
            for gate in ("forget", "input", "cell", "output"):
                k = GATES.index(gate)
                expected = (rng.uniforms(rows * u) * 2.0 - 1.0).reshape(rows, u) * limit
                assert np.array_equal(p[f"{tag}.w"][:, k * u:(k + 1) * u], expected)
            assert np.array_equal(p[f"{tag}.b"], [1.0] * u + [0.0] * 3 * u)


class TestLstmCell:
    def test_zero_parameters(self):
        u = 3
        X = np.array([[[5.0, -1.0], [0.3, 2.0]]])
        states, (_, acts, cells, _) = scan(X, *zero_lstm(2, u), "train")
        c_prevs = cells[:-1]
        assert np.all(acts[:, :, :3 * u] == 0.5)  # forget, input, output
        assert np.all(acts[:, :, 3 * u:] == 0.0)  # candidate
        assert np.all(c_prevs == 0.0)
        assert np.all(states == 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        u = 2
        w, b = zero_lstm(1, u)
        b[:2 * u] = 100.0  # forget and input gates saturated open
        w[u:, 3 * u:] = 1.0  # candidate = tanh(x_t)
        X = np.array([[[0.7], [0.0], [0.0], [0.0]]])
        _, (_, _, cells, _) = scan(X, w, b, "train")
        c_prevs = cells[:-1]
        # the first step writes tanh(0.7); zero inputs afterwards add nothing
        assert np.allclose(c_prevs[1:, 0, :], math.tanh(0.7), atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = RandomSource(414)
        gates = random_gates(rng, 2, 3)
        X = rng.gaussians(0, 1, 2 * 6 * 2).reshape(2, 6, 2)
        states, _ = scan(X, *fuse(gates), "train")
        for row in range(2):
            assert np.allclose(states[row], scalar_scan_oracle(X[row], gates), atol=1e-12)

    def test_gate_ranges(self):
        # moderate magnitudes: the open-interval bounds hold mathematically
        # but float64 rounds tanh(|x| > 19) to exactly 1
        rng = RandomSource(5)
        u = 4
        w, b = fuse(random_gates(rng, 1, u, scale=0.8))
        X = rng.gaussians(0, 1, 12).reshape(2, 6, 1)
        _, (_, acts, _, _) = scan(X, w, b, "train")
        assert np.all((acts[:, :, :3 * u] > 0) & (acts[:, :, :3 * u] < 1))
        assert np.all((acts[:, :, 3 * u:] > -1) & (acts[:, :, 3 * u:] < 1))


class TestScanMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(batch=st.integers(1, 9), steps=st.integers(1, 7), input_dim=st.integers(1, 3),
           units=st.integers(1, 6), reverse=st.booleans(), seed=st.integers(0, 2**31 - 1))
    def test_states_and_gradients_match(self, batch, steps, input_dim, units, reverse, seed):
        rng = RandomSource(seed)
        w, b = fuse(random_gates(rng, input_dim, units))
        X = rng.gaussians(0, 1, batch * steps * input_dim).reshape(batch, steps, input_dim)
        dH = rng.gaussians(0, 1, batch * steps * 2 * units).reshape(batch, steps, 2 * units)
        kept = X.copy()
        X.setflags(write=False)
        dH.setflags(write=False)
        # the views model_forward and model_backward pass for each direction
        if reverse:
            seq, d_states = X[:, ::-1, :], dH[:, ::-1, units:]
        else:
            seq, d_states = X, dH[:, :, :units]

        states, cache = scan(seq, w, b, "train")
        want_states, want_cache = reference_scan(seq, w, b)
        assert_relatively_close(states, want_states)

        dw, db = np.zeros_like(w), np.zeros_like(b)
        scan_backward(cache, d_states, w, dw, db)
        want_dw, want_db = np.zeros_like(w), np.zeros_like(b)
        reference_scan_backward(want_cache, d_states, w, want_dw, want_db)
        assert_relatively_close(dw, want_dw)
        assert_relatively_close(db, want_db)
        assert np.array_equal(X, kept)


class TestInferScan:
    @settings(max_examples=100, deadline=None)
    @given(batch=st.integers(1, 300), steps=st.integers(1, 12), input_dim=st.integers(1, 3),
           units=st.integers(1, 8), scale=st.sampled_from([0.6, 30.0]),
           reverse=st.booleans(), seed=st.integers(0, 2**31 - 1))
    def test_states_equal_the_training_scan(self, batch, steps, input_dim, units, scale,
                                            reverse, seed):
        # inputs of +-50 against weights of scale 30 drive gate pre-activations
        # past -709, where exp(-z) overflows in the sigmoid
        rng = RandomSource(seed)
        w, b = fuse(random_gates(rng, input_dim, units, scale=scale))
        size = batch * steps * input_dim
        X = rng.gaussians(0, 1, size)
        wild = rng.uniforms(size) < 0.2
        X[wild] = np.where(rng.uniforms(size) < 0.5, -50.0, 50.0)[wild]
        X = X.reshape(batch, steps, input_dim)
        X.setflags(write=False)
        seq = X[:, ::-1, :] if reverse else X  # the backward direction's view
        want, _ = scan(seq, w, b, "train")
        got, cache = scan(seq, w, b, "infer")
        assert cache is None
        assert np.array_equal(got, want)

    def test_infer_cache_holds_no_scan_buffers(self):
        p = tiny_model(40)
        X = RandomSource(41).gaussians(0, 1, 6 * 5).reshape(6, 5, 1)
        _, cache = model_forward(X, p, mode="infer")
        assert cache["caches_f"] is None and cache["caches_b"] is None
        masks = draw_dropout_masks(p, 6, RandomSource(42))
        _, train_cache = model_forward(X, p, mode="train", dropout_masks=masks)
        assert len(train_cache["caches_f"]) == len(train_cache["caches_b"]) == 4


class TestBilstm:
    def test_t1_uses_same_step_twice(self):
        p = model_with_lstm(*fuse(random_gates(RandomSource(6), 1, 4)))
        _, cache = model_forward(np.array([[0.4]])[None], p)
        H = cache["H"][0]
        assert H.shape == (1, 8)
        assert np.allclose(H[0, :4], H[0, 4:])

    def test_palindrome_symmetry(self):
        p = model_with_lstm(*fuse(random_gates(RandomSource(7), 1, 4)))
        seq = np.array([[0.3], [-1.2], [0.5], [-1.2], [0.3]])
        _, cache = model_forward(seq[None], p)
        H = cache["H"][0]
        T = seq.shape[0]
        for t in range(T):
            assert np.allclose(H[t, :4], H[T - 1 - t, 4:], atol=1e-12)

    def test_zero_parameters_zero_states(self):
        p = model_with_lstm(*zero_lstm(1, 4))
        _, cache = model_forward(np.array([[1.0], [2.0]])[None], p)
        assert np.array_equal(cache["H"][0], np.zeros((2, 8)))

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptyInputError):
            model_forward(np.zeros((0, 1))[None], tiny_model(33))


def attend(H, w, v):
    context, weights, _ = _attention_batch(H[None], w, v, np.empty((len(H), len(v))))
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
                    running_mean=np.zeros(d), running_var=np.ones(d),
                    momentum=0.9, eps=1e-5)
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

    def test_running_stats_updated_with_momentum(self):
        bn = self.bn(1)
        X = np.array([[2.0], [4.0]])  # batch mean 3, var 1
        _, cache = batchnorm_forward(X, **bn, mode="train")
        new_mean, new_var = cache["new_running"]
        assert new_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 3.0)
        assert new_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)


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

    def test_train_mode_needs_masks(self):
        p = tiny_model(49, dropout=0.5)
        with pytest.raises(ParameterError, match="train mode needs dropout masks"):
            model_forward(np.ones((4, 5, 1)), p, mode="train")

    @pytest.mark.parametrize("rows, widths", [(1, (6, 4)), (4, (4, 6)), (5, (6, 4))])
    def test_misshapen_masks_rejected(self, rows, widths):
        # a (1, d1) mask would broadcast silently over a 4-row batch
        p = tiny_model(50, dropout=0.5)
        masks = [np.ones((rows, width)) for width in widths]
        with pytest.raises(ShapeError, match="dropout masks must have shapes"):
            model_forward(np.ones((4, 5, 1)), p, mode="train", dropout_masks=masks)


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
            model_forward(np.ones((5, 1))[None], p, mode="train",
                          dropout_masks=draw_dropout_masks(p, 1, RandomSource(0)))

    def test_wrong_step_width_or_missing_batch_axis_rejected(self):
        p = tiny_model(9)
        with pytest.raises(ShapeError, match="model expects 1 values per step, got 2"):
            model_forward(np.ones((4, 2))[None], p, mode="infer")
        with pytest.raises(ShapeError, match=r"expected \(B, T, d\) input"):
            model_forward(np.ones((5, 1)), p, mode="infer")

    def test_unknown_mode_rejected_before_any_work(self):
        p = tiny_model(9)
        before = dict(INVARIANT_CHECKS)
        with pytest.raises(ParameterError, match="unknown mode 'eval'"):
            model_forward(np.ones((5, 4, 1)), p, mode="eval")
        assert INVARIANT_CHECKS == before


class TestModelBackward:
    def forward_train(self, p, seed=21, batch=3, T=5):
        X = RandomSource(seed).gaussians(0, 1, batch * T).reshape(batch, T, 1)
        masks = draw_dropout_masks(p, batch, RandomSource(seed + 1))
        preds, cache = model_forward(X, p, mode="train", dropout_masks=masks)
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
        import updrspred.nn as nn_module
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
        masks = draw_dropout_masks(p, 4, RandomSource(17))
        model_forward(X, p, mode="train", dropout_masks=masks)
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
        masks = draw_dropout_masks(p, 4, RandomSource(52))
        preds, cache = model_forward(X, p, mode="train", dropout_masks=masks)
        model_forward(X, p, mode=mode, dropout_masks=masks if mode == "train" else None)
        with pytest.raises(StateError, match="stale"):
            model_backward(cache, preds, p)

    def test_results_do_not_depend_on_what_the_workspace_held(self):
        # every carved array is written before it is read: a buffer full of
        # NaN, left by a larger call, gives the same bits as a fresh one
        X = RandomSource(53).gaussians(0, 1, 6 * 5).reshape(6, 5, 1)
        y = RandomSource(54).gaussians(0, 1, 6)
        masks = draw_dropout_masks(tiny_model(55, dropout=0.3), 6, RandomSource(56))
        results = []
        for warm in (False, True):
            p = tiny_model(55, dropout=0.3)
            if warm:
                model_forward(np.ones((9, 7, 1)), p, mode="train",
                              dropout_masks=draw_dropout_masks(p, 9, RandomSource(57)))
                p.workspace.floats.fill(np.nan)
            preds, cache = model_forward(X, p, mode="train", dropout_masks=masks)
            results.append((preds, *model_backward(cache, y, p),
                            model_forward(X, p, mode="infer")[0]))
        (p0, l0, g0, i0), (p1, l1, g1, i1) = results
        assert p0.tobytes() == p1.tobytes() and l0 == l1
        assert g0.tobytes() == g1.tobytes() and i0.tobytes() == i1.tobytes()


class TestBatchNormCommit:
    def test_commit_applies_running_updates(self):
        p = tiny_model(18)
        X = RandomSource(19).gaussians(0, 1, 4 * 5).reshape(4, 5, 1)
        masks = draw_dropout_masks(p, 4, RandomSource(20))
        _, cache = model_forward(X, p, mode="train", dropout_masks=masks)
        before = p["bn1.running_mean"].copy()
        commit_batchnorm(cache, p)
        assert not np.array_equal(p["bn1.running_mean"], before)
