import warnings

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
    solve_cg,
    solve_lls,
)
from updrspred.errors import ConfigError, EmptyInputError, RankError, ShapeError
from updrspred.linalg import RandomSource
from updrspred.optimize import Adam


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


def near_collinear_problem(seed, n=200, d=5, noise=0.5):
    """``standardized_problem`` with its last column a 1e-4-jittered copy of the first."""
    X, y, w = standardized_problem(seed, n=n, d=d, noise=noise)
    X[:, -1] = X[:, 0] + 1e-4 * RandomSource(seed + 1000).gaussians(0, 1, n)
    X[:, -1] = (X[:, -1] - X[:, -1].mean()) / X[:, -1].std()
    return X, y, w


def off_center_problem(seed, n=200, d=5, noise=0.5):
    """``standardized_problem`` with its columns shifted off zero mean, as a
    fold's jittered or held-out rows can be; the intercept then couples to
    the weights."""
    X, y, w = standardized_problem(seed, n=n, d=d, noise=noise)
    return X + np.linspace(-1.5, 1.5, d), y, w


def well_conditioned_problem(n, d, seed):
    """Centered orthogonal columns scaled to norms in [sqrt(n)/2, sqrt(n)]
    next to the intercept's sqrt(n): with its intercept column the design
    has condition number at most 2."""
    n = max(n, d + 2)
    rng = RandomSource(seed)
    Z = rng.gaussians(0, 1, n * d).reshape(n, d)
    Q, _ = np.linalg.qr(Z - Z.mean(axis=0))
    V, _ = np.linalg.qr(rng.gaussians(0, 1, d * d).reshape(d, d))
    scales = np.sqrt(n) * (0.5 + 0.5 * rng.uniforms(d))
    X = (Q * scales) @ V.T
    y = X @ rng.gaussians(0, 3, d) + 20.0 + rng.gaussians(0, 2, n)
    return X, y


def with_intercept(X):
    return np.column_stack([X, np.ones(len(X))])


def full_vector(model):
    """A fitted model's weights followed by its intercept."""
    return np.append(model.weights, model.intercept)


def reference_adam_linear(X, y, steps, lr_initial):
    """The residual-form loop: two passes over the training rows per step.

    Returns (weights, intercept) on the original target scale.
    """
    n, d = X.shape
    mu = y.mean()
    sd = y.std()
    if sd == 0.0:
        sd = 1.0
    yz = (y - mu) / sd
    theta = np.zeros(d + 1)
    grad = np.empty(d + 1)
    adam = Adam(d + 1, lr_initial)
    for _ in range(steps):
        residual = X @ theta[:d] + theta[d] - yz
        grad[:d] = (2.0 / n) * (X.T @ residual)
        grad[d] = (2.0 / n) * residual.sum()
        adam.step(theta, grad)
    return theta[:d] * sd, theta[d] * sd + mu


class TestSolveLls:
    def test_identity(self):
        w = solve_lls(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1, 2, 3], atol=1e-12)

    def test_consistent_system_interpolates(self):
        rng = RandomSource(5)
        X = rng.gaussians(0, 1, 40).reshape(8, 5)
        w_true = rng.gaussians(0, 1, 5)
        y = X @ w_true
        w = solve_lls(X, y)
        assert np.linalg.norm(X @ w - y) < 1e-10

    def test_matches_normal_equations(self):
        rng = RandomSource(6)
        X = rng.gaussians(0, 1, 250).reshape(50, 5)
        y = rng.gaussians(0, 1, 50)
        w = solve_lls(X, y)
        w_ref = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.allclose(w, w_ref, atol=1e-8)

    def test_rank_deficient_reports_rank(self):
        X = np.column_stack([np.ones(6), np.ones(6)])
        with pytest.raises(RankError, match="rank 1"):
            solve_lls(X, np.arange(6.0))

    def test_underdetermined_rejected(self):
        with pytest.raises(ShapeError):
            solve_lls(np.ones((2, 3)), np.ones(2))


class TestSolveCg:
    """CGLS on a design X: CG on X'X w = X'y without forming X'X."""

    def test_identity_design_converges_first_iteration(self):
        y = np.array([3.0, -1.0, 2.0])
        assert np.allclose(solve_cg(np.eye(3), y), y, atol=1e-12)

    def test_diagonal_design(self):
        # X'X = diag(1, 4, 9) and X'y = (1, 2, 3)
        w = solve_cg(np.diag([1.0, 2.0, 3.0]), np.ones(3), tol=1e-12)
        assert np.allclose(w, [1.0, 0.5, 1.0 / 3.0], atol=1e-10)

    def test_finite_termination_on_random_designs(self):
        rng = RandomSource(7)
        for m, n in ((10, 4), (20, 8), (30, 12)):
            X = rng.gaussians(0, 1, m * n).reshape(m, n)
            y = rng.gaussians(0, 1, m)
            w = solve_cg(X, y, tol=1e-14, max_iter=n + 2)
            oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
            assert np.allclose(w, oracle, atol=1e-8)

    def test_stops_on_the_normal_equations_residual(self):
        X, y, _ = near_collinear_problem(19)
        Xi = with_intercept(X)
        for tol in (1e-4, 1e-8):
            w = solve_cg(Xi, y, tol=tol)
            s = Xi.T @ (y - Xi @ w)
            assert np.linalg.norm(s) <= tol * np.linalg.norm(Xi.T @ y)

    def test_iteration_cap(self):
        # one step from 0 is the steepest-descent step along X'y
        X = np.diag([1.0, 2.0])
        y = np.ones(2)
        s = X.T @ y
        alpha = (s @ s) / np.sum((X @ s) ** 2)
        assert np.allclose(solve_cg(X, y, max_iter=1), alpha * s, rtol=0, atol=1e-15)

    def test_zero_normal_rhs(self):
        assert np.array_equal(solve_cg(np.eye(2), np.zeros(2)), np.zeros(2))
        # y orthogonal to the columns: X'y = 0, so w = 0 solves the normal equations
        X = np.array([[1.0], [0.0]])
        assert np.array_equal(solve_cg(X, np.array([0.0, 5.0])), np.zeros(1))

    @pytest.mark.parametrize("y_shape", [(4,), (3, 1)])
    def test_misshapen_target_refused(self, y_shape):
        with pytest.raises(ShapeError):
            solve_cg(np.ones((3, 2)), np.ones(y_shape))


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
        model = LinearModel(weights=np.zeros(3), intercept=4.5)
        out = predict_linear(model, np.ones((5, 3)))
        assert np.array_equal(out, np.full(5, 4.5))

    def test_identity_design(self):
        model = LinearModel(weights=np.array([1.0, 2.0]), intercept=0.5)
        out = predict_linear(model, np.eye(2))
        assert np.array_equal(out, [1.5, 2.5])

    def test_hand_checked(self):
        model = LinearModel(weights=np.array([2.0, -1.0]), intercept=1.0)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        # 2 - 2 + 1 = 1, 6 - 4 + 1 = 3
        assert np.array_equal(predict_linear(model, X), [1.0, 3.0])

    def test_shape_mismatch(self):
        model = LinearModel(weights=np.zeros(2), intercept=0.0)
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
        X, y = well_conditioned_problem(n, d, seed)
        lls = fit_baseline(spec("lls"), X, y)
        for method in ("cg", "ridge"):
            other = fit_baseline(spec(method, ridge_lambda=0.0), X, y)
            assert np.allclose(other.weights, lls.weights, rtol=0, atol=1e-8)
            assert other.intercept == pytest.approx(lls.intercept, rel=0, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 200), d=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
    def test_qr_paths_match_lstsq_and_the_penalized_normal_equations(self, n, d, seed):
        X, y = well_conditioned_problem(n, d, seed)
        Xi = with_intercept(X)
        oracle, *_ = np.linalg.lstsq(Xi, y, rcond=None)
        assert np.allclose(solve_lls(Xi, y), oracle, rtol=0, atol=1e-10)
        # (Xi'Xi + lam D)^-1 Xi'y, with D the identity minus the intercept's entry
        D = np.diag(np.append(np.ones(d), 0.0))
        for lam in (0.0, 0.5, 1.0, 10.0):
            ridge = fit_baseline(spec("ridge", ridge_lambda=lam), X, y)
            expected = np.linalg.solve(Xi.T @ Xi + lam * D, Xi.T @ y)
            assert np.allclose(full_vector(ridge), expected, rtol=0, atol=1e-9)


class TestRidge:
    """Ridge through ``fit_baseline``: least squares on the penalty-augmented
    design. Its lambda = 0 case is ``TestFitBaseline.test_ridge_zero_lambda_equals_lls``."""

    def test_huge_lambda_shrinks_weights_but_not_the_intercept(self):
        rng = RandomSource(9)
        X = rng.gaussians(0, 1, 40).reshape(40, 1)
        y = rng.gaussians(5, 1, 40)
        model = fit_baseline(spec("ridge", ridge_lambda=1e12), X, y)
        assert abs(model.weights[0]) < 1e-6
        assert model.intercept == pytest.approx(y.mean(), abs=1e-6)

    @pytest.mark.parametrize("lam, weight", [(0.0, 1.0), (1.0, 2.0 / 3.0)])
    def test_hand_case(self, lam, weight):
        # (w + b - 2)^2 + (-w + b)^2 + lam w^2 is least at b = 1, w = 4 / (4 + 2 lam)
        model = fit_baseline(spec("ridge", ridge_lambda=lam), np.array([[1.0], [-1.0]]),
                             np.array([2.0, 0.0]))
        assert model.weights[0] == pytest.approx(weight, rel=0, abs=1e-14)
        assert model.intercept == pytest.approx(1.0, rel=0, abs=1e-14)

    def test_weight_norm_non_increasing_in_lambda(self):
        rng = RandomSource(10)
        X = rng.gaussians(0, 1, 200).reshape(40, 5)
        y = rng.gaussians(0, 1, 40)
        norms = [np.linalg.norm(fit_baseline(spec("ridge", ridge_lambda=lam), X, y).weights)
                 for lam in (0.0, 0.5, 2.0, 10.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_fewer_rows_than_weights_solvable_with_a_penalty(self):
        # the penalty rows make [Xi; sqrt(lam) I] full rank; least squares alone is not
        X, y, _ = standardized_problem(17, n=4, d=6)
        with pytest.raises(RankError):
            fit_baseline(spec("ridge", ridge_lambda=0.0), X, y)
        Xi = with_intercept(X)
        D = np.diag(np.append(np.ones(6), 0.0))
        model = fit_baseline(spec("ridge", ridge_lambda=1.0), X, y)
        expected = np.linalg.solve(Xi.T @ Xi + D, Xi.T @ y)
        assert np.allclose(full_vector(model), expected, rtol=0, atol=1e-10)


class TestAdamLinearMatchesReference:
    """The Gram-form fit reaches the residual-form loop's training objective."""

    @pytest.mark.parametrize("steps, lr", [(5000, 0.001), (1000, 0.03)])
    @pytest.mark.parametrize("make, seed, n, d", [
        (standardized_problem, 11, 200, 5),
        (standardized_problem, 12, 600, 20),
        (near_collinear_problem, 13, 200, 5),
        (near_collinear_problem, 14, 600, 20),
        (off_center_problem, 18, 200, 5),
    ])
    def test_training_objective_within_1e5(self, make, seed, n, d, steps, lr):
        X, y, _ = make(seed, n=n, d=d, noise=1.0)
        y = y * 8.0 + 30.0
        ref_w, ref_b = reference_adam_linear(X, y, steps, lr)
        model = fit_baseline(BaselineSpec("adam_linear", adam_steps=steps, lr_initial=lr), X, y)
        ref_mse = np.mean((X @ ref_w + ref_b - y) ** 2)
        mse = np.mean((predict_linear(model, X) - y) ** 2)
        assert abs(mse - ref_mse) <= 1e-5 * ref_mse


class TestFitBaselineRefusals:
    """Misshapen or empty inputs are refused the same way by every method."""

    @pytest.mark.parametrize("method", METHOD_ORDER)
    @pytest.mark.parametrize("y_shape", [(30, 1), (20,)])
    def test_y_not_one_value_per_row_refused_naming_both_shapes(self, method, y_shape):
        X, y, _ = standardized_problem(16, n=30, d=3)
        with pytest.raises(ShapeError) as err:
            fit_baseline(spec(method), X, y[:y_shape[0]].reshape(y_shape))
        assert "(30, 3)" in str(err.value) and str(y_shape) in str(err.value)

    @pytest.mark.parametrize("method", METHOD_ORDER)
    @pytest.mark.parametrize("lam", [-0.1, float("nan")])
    def test_negative_or_nan_ridge_lambda_refused(self, method, lam):
        X, y, _ = standardized_problem(16, n=30, d=3)
        with pytest.raises(ConfigError, match="ridge_lambda must be >= 0"):
            fit_baseline(spec(method, ridge_lambda=lam), X, y)

    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_empty_design_refused_without_warnings(self, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInputError):
                fit_baseline(spec(method), np.empty((0, 3)), np.empty(0))
