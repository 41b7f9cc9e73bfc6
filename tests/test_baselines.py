import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updrspred.baselines import (
    DISPLAY_NAMES,
    METHOD_ORDER,
    BaselineSpec,
    LinearModel,
    fit_baseline,
    predict_linear,
)
from updrspred.errors import ConfigError, ShapeError
from updrspred.linalg import RandomSource


def spec(method, **fields):
    """A spec with the run defaults: 5,000 Adam steps from rate 0.001."""
    return BaselineSpec(method=method, adam_steps=5000, lr_initial=0.001, **fields)


def standardized_problem(seed, n=200, d=5, noise=0.0):
    rng = RandomSource(seed)
    X = rng.gaussians(0, 1, n * d).reshape(n, d)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    w = rng.gaussians(0, 2, d)
    y = X @ w + 3.0 + noise * rng.gaussians(0, 1, n)
    return X, y, w


class TestFitBaseline:
    def test_lls_exact_recovery(self):
        X = np.linspace(-1, 1, 50).reshape(50, 1)
        X = (X - X.mean()) / X.std()
        y = 2.0 * X[:, 0] + 1.0
        model = fit_baseline(spec("lls"), X, y)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-10)
        assert model.intercept == pytest.approx(1.0, abs=1e-10)

    def test_cg_matches_lls_predictions(self):
        X, y, _ = standardized_problem(1, noise=0.5)
        lls = fit_baseline(spec("lls"), X, y)
        cg = fit_baseline(spec("cg"), X, y)
        mse_l = np.mean((predict_linear(lls, X) - y) ** 2)
        mse_c = np.mean((predict_linear(cg, X) - y) ** 2)
        assert abs(mse_l - mse_c) < 1e-6

    def test_ridge_zero_lambda_equals_lls(self):
        X, y, _ = standardized_problem(2, noise=0.3)
        lls = fit_baseline(spec("lls"), X, y)
        ridge = fit_baseline(spec("ridge", ridge_lambda=0.0), X, y)
        assert np.allclose(lls.weights, ridge.weights, atol=1e-8)
        assert lls.intercept == pytest.approx(ridge.intercept, abs=1e-8)

    def test_adam_linear_close_to_lls(self):
        X, y, _ = standardized_problem(3, noise=1.0)
        y = y * 10.0 + 25.0  # realistic score scale
        lls = fit_baseline(spec("lls"), X, y)
        adam = fit_baseline(spec("adam_linear"), X, y)
        mse_l = np.mean((predict_linear(lls, X) - y) ** 2)
        mse_a = np.mean((predict_linear(adam, X) - y) ** 2)
        assert abs(mse_l - mse_a) < 0.05

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            fit_baseline(spec("svm"), np.eye(3), np.ones(3))

    def test_display_names_cover_methods(self):
        assert set(DISPLAY_NAMES) == set(METHOD_ORDER)


class TestPredictLinear:
    def test_zero_weights_constant(self):
        model = LinearModel(weights=np.zeros(3), intercept=4.5, method="lls")
        out = predict_linear(model, np.ones((5, 3)))
        assert np.array_equal(out, np.full(5, 4.5))

    def test_identity_design(self):
        model = LinearModel(weights=np.array([1.0, 2.0]), intercept=0.5, method="lls")
        out = predict_linear(model, np.eye(2))
        assert np.array_equal(out, [1.5, 2.5])

    def test_hand_checked(self):
        model = LinearModel(weights=np.array([2.0, -1.0]), intercept=1.0, method="lls")
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        # 2 - 2 + 1 = 1, 6 - 4 + 1 = 3
        assert np.array_equal(predict_linear(model, X), [1.0, 3.0])

    def test_shape_mismatch(self):
        model = LinearModel(weights=np.zeros(2), intercept=0.0, method="lls")
        with pytest.raises(ShapeError):
            predict_linear(model, np.ones((3, 4)))


class TestBaselineEquivalences:
    def test_three_direct_solvers_agree(self):
        X, y, _ = standardized_problem(4, n=300, d=8, noise=2.0)
        y = y * 8.0 + 30.0
        mses = {}
        for method in ("lls", "cg", "ridge"):
            model = fit_baseline(spec(method, ridge_lambda=0.0), X, y)
            mses[method] = np.mean((predict_linear(model, X) - y) ** 2)
        assert abs(mses["lls"] - mses["cg"]) < 1e-3
        assert abs(mses["lls"] - mses["ridge"]) < 1e-3

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 200), d=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
    def test_solvers_agree_on_well_conditioned_designs(self, n, d, seed):
        # centered orthogonal columns scaled to norms in [sqrt(n)/2, sqrt(n)]
        # next to the intercept's sqrt(n): the design with its intercept
        # column has condition number at most 2
        n = max(n, d + 2)
        rng = RandomSource(seed)
        Z = rng.gaussians(0, 1, n * d).reshape(n, d)
        Q, _ = np.linalg.qr(Z - Z.mean(axis=0))
        V, _ = np.linalg.qr(rng.gaussians(0, 1, d * d).reshape(d, d))
        scales = np.sqrt(n) * (0.5 + 0.5 * rng.uniforms(d))
        X = (Q * scales) @ V.T
        y = X @ rng.gaussians(0, 3, d) + 20.0 + rng.gaussians(0, 2, n)
        lls = fit_baseline(spec("lls"), X, y)
        for method in ("cg", "ridge"):
            other = fit_baseline(spec(method, ridge_lambda=0.0), X, y)
            assert np.allclose(other.weights, lls.weights, rtol=0, atol=1e-8)
            assert other.intercept == pytest.approx(lls.intercept, rel=0, abs=1e-8)
