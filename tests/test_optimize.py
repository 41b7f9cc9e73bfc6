import tracemalloc

import numpy as np
import pytest

from updrspred.errors import EmptyInputError, NumericError, ShapeError
from updrspred.linalg import RandomSource
from updrspred.nn import (
    commit_batchnorm,
    draw_dropout_masks,
    init_model_params,
    model_backward,
    model_forward,
)
from updrspred.optimize import (
    Adam,
    EarlyStopper,
    TrainSettings,
    lr_at_step,
    predict_network,
    train_network,
)


class TestLrSchedule:
    def test_initial(self):
        assert lr_at_step(0.001, 0) == 0.001

    def test_one_decay(self):
        assert lr_at_step(0.001, 10_000) == pytest.approx(0.0009)

    def test_two_decays(self):
        assert lr_at_step(0.001, 25_000) == pytest.approx(0.00081)

    def test_non_increasing(self):
        rates = [lr_at_step(0.001, step) for step in range(0, 60_000, 2_500)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestAdam:
    def test_first_step_magnitude(self):
        theta = np.array([0.0])
        adam = Adam()
        adam.step(theta, np.array([1.0]), lr=0.001)
        # bias correction makes m_hat = g and v_hat = g*g at t=1
        assert theta[0] == pytest.approx(-0.001, rel=1e-6)

    def test_zero_gradient_fixed_point(self):
        theta = np.array([1.0, -2.0])
        adam = Adam()
        adam.step(theta, np.zeros(2), lr=0.1)
        assert np.array_equal(theta, [1.0, -2.0])

    def test_matches_scalar_recurrence(self):
        # hand-rolled two-step recurrence with constant gradient
        g = 0.7
        lr = 0.01
        b1, b2, eps = 0.9, 0.999, 1e-8
        theta = 0.5
        m = v = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        params = np.array([0.5])
        adam = Adam()
        for _ in range(2):
            adam.step(params, np.array([g]), lr=lr)
        assert params[0] == pytest.approx(theta, abs=1e-15)

    def test_matches_expression_oracle_bit_for_bit(self):
        # the update as one numpy expression per moment, with temporaries;
        # the in-place step must keep its operation order and so its bits
        b1, b2, eps = Adam.BETA1, Adam.BETA2, Adam.EPS
        rng = RandomSource(26)
        n = 1_000
        theta = rng.gaussians(0, 1, n)
        want = theta.copy()
        m, v = np.zeros(n), np.zeros(n)
        adam = Adam()
        lr = 0.003
        for t in range(1, 51):
            grad = rng.gaussians(0, 1, n) * (0.0, 1.0, 1e6)[t % 3]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            want -= lr * m_hat / (np.sqrt(v_hat) + eps)
            adam.step(theta, grad, lr)
            assert np.array_equal(theta, want)
            assert np.array_equal(adam.m, m)
            assert np.array_equal(adam.v, v)

    def test_shape_mismatch(self):
        adam = Adam()
        with pytest.raises(ShapeError):
            adam.step(np.zeros(3), np.zeros(2), lr=0.1)


class TestEarlyStopper:
    def test_never_stops_on_improvement(self):
        p = init_model_params(RandomSource(0), units=2, attn_dim=2, dense_widths=(3, 2))
        stopper = EarlyStopper(patience=2, min_delta=0.0)
        for loss in (1.0, 0.9, 0.8, 0.7):
            assert stopper.update(loss, p) == "continue"

    def test_counter_arithmetic(self):
        p = init_model_params(RandomSource(1), units=2, attn_dim=2, dense_widths=(3, 2))
        stopper = EarlyStopper(patience=3, min_delta=0.0)
        assert stopper.update(1.0, p) == "continue"
        results = [stopper.update(1.1, p) for _ in range(4)]
        assert results == ["continue", "continue", "continue", "stop"]
        assert stopper.best_loss == 1.0

    def test_min_delta_counts_small_gains_as_stale(self):
        p = init_model_params(RandomSource(2), units=2, attn_dim=2, dense_widths=(3, 2))
        stopper = EarlyStopper(patience=5, min_delta=0.5)
        stopper.update(1.0, p)
        stopper.update(0.7, p)  # gain 0.3 <= min_delta
        assert stopper.stale_epochs == 1

    def test_restores_best_snapshot(self):
        p = init_model_params(RandomSource(3), units=2, attn_dim=2, dense_widths=(3, 2))
        stopper = EarlyStopper(patience=1, min_delta=0.0)
        stopper.update(1.0, p)
        best = p.vector.copy()
        p["out.w"][:] = 99.0
        p["bn1.running_mean"][:] = 5.0
        stopper.update(2.0, p)
        restored = stopper.restore(p)
        assert np.array_equal(restored.vector, best)

    def test_nan_loss_aborts(self):
        p = init_model_params(RandomSource(4), units=2, attn_dim=2, dense_widths=(3, 2))
        with pytest.raises(NumericError):
            EarlyStopper(patience=15, min_delta=1e-4).update(float("nan"), p)


class TestTrainNetwork:
    def make_problem(self, n=60, T=4, seed=11):
        rng = RandomSource(seed)
        X = rng.gaussians(0, 1, n * T).reshape(n, T, 1)
        y = 0.8 * X[:, 0, 0] - 0.5 * X[:, 2, 0]
        return X[: n - 12], y[: n - 12], X[n - 12:], y[n - 12:]

    def small_params(self, seed=12):
        return init_model_params(RandomSource(seed), units=6, attn_dim=4,
                                 dense_widths=(8, 4), dropout_rate=0.1, l2=1e-5)

    def test_loss_decreases(self):
        # tiny data means few optimizer steps; raise the rate to compensate
        Xt, yt, Xv, yv = self.make_problem()
        params = self.small_params()
        settings = TrainSettings(epochs=40, batch_size=16, lr_initial=0.01, patience=100)
        trained, history = train_network(params, Xt, yt, Xv, yv, settings, RandomSource(13))
        assert history.val_loss[-1] < 0.5 * history.val_loss[0]
        assert len(history.val_loss) == 40

    def test_early_stopping_restores_best(self):
        Xt, yt, Xv, yv = self.make_problem(seed=14)
        params = self.small_params(seed=15)
        settings = TrainSettings(epochs=200, batch_size=16, lr_initial=0.001, patience=3,
                                 min_delta=1e-3)
        trained, history = train_network(params, Xt, yt, Xv, yv, settings, RandomSource(16))
        if history.stopped_early:
            assert len(history.val_loss) < 200
        best = min(history.val_loss)
        preds = predict_network(trained, Xv)
        final = float(np.mean((preds - yv) ** 2))
        assert final == pytest.approx(best, rel=1e-9)

    def test_kept_val_preds_equal_predicting_with_the_restored_weights(self):
        # a high rate with no patience: validation loss rises after an early
        # best epoch, and training stops and restores that epoch
        Xt, yt, Xv, yv = self.make_problem(seed=27)
        settings = TrainSettings(epochs=30, batch_size=8, lr_initial=0.1, patience=0)
        trained, history = train_network(self.small_params(28), Xt, yt, Xv, yv, settings,
                                         RandomSource(29))
        best_epoch = int(np.argmin(history.val_loss))
        assert history.stopped_early
        assert best_epoch < len(history.val_loss) - 1
        preds = predict_network(trained, Xv)
        assert history.best_val_preds.tobytes() == preds.tobytes()
        assert float(np.mean((preds - yv) ** 2)) == history.val_loss[best_epoch]

    def test_deterministic(self):
        Xt, yt, Xv, yv = self.make_problem(seed=17)
        settings = TrainSettings(epochs=4, batch_size=16, lr_initial=0.001, patience=15)
        t1, h1 = train_network(self.small_params(18), Xt, yt, Xv, yv, settings,
                               RandomSource(19))
        t2, h2 = train_network(self.small_params(18), Xt, yt, Xv, yv, settings,
                               RandomSource(19))
        assert h1.val_loss == h2.val_loss
        assert np.array_equal(t1.vector, t2.vector)

    def test_no_singleton_batches(self):
        # 17 samples with batch 16 would leave a tail of 1; must not raise
        rng = RandomSource(20)
        X = rng.gaussians(0, 1, 17 * 3).reshape(17, 3, 1)
        y = rng.gaussians(0, 1, 17)
        params = init_model_params(RandomSource(21), units=3, attn_dim=2,
                                   dense_widths=(4, 3), dropout_rate=0.0)
        settings = TrainSettings(epochs=2, batch_size=16, lr_initial=0.001, patience=15)
        train_network(params, X, y, X[:4], y[:4], settings, RandomSource(22))

    @pytest.mark.parametrize("n_train, n_val", [
        (25, 12),  # more targets than rows would train on the first 20
        (15, 12),  # fewer targets than rows would fail on a batch index
        (20, 1),  # one validation target would broadcast over 12 predictions
    ])
    def test_misaligned_targets_refused(self, n_train, n_val):
        rng = RandomSource(30)
        X = rng.gaussians(0, 1, 32 * 4).reshape(32, 4, 1)
        y = rng.gaussians(0, 1, 32)
        settings = TrainSettings(epochs=1, batch_size=8, lr_initial=0.001, patience=15)
        with pytest.raises(ShapeError):
            train_network(self.small_params(31), X[:20], y[:n_train], X[20:], y[20:20 + n_val],
                          settings, RandomSource(32))

    def test_empty_validation_set_refused(self):
        # it used to warn "Mean of empty slice" and fail on a nan loss
        Xt, yt, Xv, yv = self.make_problem(seed=33)
        settings = TrainSettings(epochs=1, batch_size=8, lr_initial=0.001, patience=15)
        with pytest.raises(EmptyInputError):
            train_network(self.small_params(34), Xt, yt, Xv[:0], yv[:0], settings,
                          RandomSource(35))

    def test_non_finite_minibatch_loss_raises_before_any_update(self):
        # an output weight of 1e300 overflows the squared error; Adam must
        # not get to write the resulting NaN gradient into the parameters
        Xt, yt, Xv, yv = self.make_problem(seed=23)
        params = self.small_params(seed=24)
        params["out.w"][:] = 1e300
        before = params.vector.copy()
        settings = TrainSettings(epochs=2, batch_size=16, lr_initial=0.001, patience=15)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="epoch 1, step 1: minibatch loss is not finite"):
            train_network(params, Xt, yt, Xv, yv, settings, RandomSource(25))
        assert np.array_equal(params.vector, before)


class TestWorkspaceReuse:
    def test_steps_and_predictions_allocate_no_large_array(self):
        # after one step and one predict have sized the workspace, more of
        # them reuse its buffer and allocate nothing near one gate array;
        # numpy's broadcasting ufuncs take iteration buffers of at most
        # 8192 items per operand, so the gate array here is several times that
        B, T, units = 32, 20, 32
        rng = RandomSource(40)
        X = rng.gaussians(0, 1, 40 * T).reshape(40, T, 1)
        y = rng.gaussians(0, 1, 40)
        params = init_model_params(RandomSource(41), units=units, attn_dim=4,
                                   dense_widths=(8, 4))

        def step():
            masks = draw_dropout_masks(params, B, rng)
            _, cache = model_forward(X[:B], params, mode="train", dropout_masks=masks)
            model_backward(cache, y[:B], params)
            commit_batchnorm(cache, params)

        step()
        predict_network(params, X)
        buffer = params.workspace.floats
        gate_bytes = T * B * 4 * units * 8
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(3):
                step()
                predict_network(params, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.workspace.floats is buffer
        assert peak - before < gate_bytes
