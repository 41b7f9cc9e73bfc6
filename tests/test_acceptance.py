"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 3 and 4 need the canonical telemonitoring CSV, which cannot ship
with the repository; they skip with a download hint when it is absent (see
README). Everything else runs on synthetic or generated data.
"""

import json
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from updrspred.baselines import BaselineSpec, fit_baseline, predict_linear, solve_cg, solve_lls
from updrspred.cli import main as cli_main
from updrspred.config import RunConfig, config_from_dict
from updrspred.dataset import (
    DEFAULT_REGRESSORS,
    apply_standardizer,
    build_design,
    fit_standardizer,
    holdout_split,
    kfold_split,
    load_csv,
)
from updrspred.evaluate import NETWORK_NAME, mse, r2, run_experiment
from updrspred.forest import ForestParams
from updrspred.linalg import RandomSource
from updrspred.nn import INVARIANT_CHECKS, reset_invariant_counters
from updrspred.rfe import rfe_select

from conftest import REAL_DATA_HINT, real_dataset_path


def announce(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {number} ({name}): PASS{suffix}")


def test_criterion_1_gradient_correctness():
    started = time.time()
    result = CliRunner().invoke(cli_main, ["gradcheck"], catch_exceptions=False)
    elapsed = time.time() - started
    assert result.exit_code == 0, result.output
    worst_line = [l for l in result.output.splitlines() if l.startswith("max relative")]
    assert worst_line, result.output
    worst = float(worst_line[0].rsplit(" ", 1)[1])
    assert worst < 1e-5
    assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"
    announce(1, "gradient correctness", f"max rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_solver_oracle_equivalence():
    started = time.time()
    rng = RandomSource(0xACCE)
    for trial in range(100):
        X = rng.gaussians(0, 1, 250).reshape(50, 5)
        y = rng.gaussians(0, 1, 50)
        Xi = np.column_stack([X, np.ones(50)])
        w_lls = solve_lls(Xi, y)
        w_cg = solve_cg(Xi, y, tol=1e-12, max_iter=200)
        ridge = fit_baseline(BaselineSpec("ridge", adam_steps=0, lr_initial=0.001,
                                          ridge_lambda=0.0), X, y)
        w_ridge = np.append(ridge.weights, ridge.intercept)
        assert np.max(np.abs(w_cg - w_lls)) < 1e-8, f"trial {trial}"
        assert np.max(np.abs(w_ridge - w_lls)) < 1e-8, f"trial {trial}"
    elapsed = time.time() - started
    assert elapsed < 10.0, f"solver comparison took {elapsed:.1f}s"
    announce(2, "solver oracle equivalence", f"100 problems in {elapsed:.1f}s")


def baseline_cv_metrics(path, seed=0):
    """Mean test MSE / R2 per linear method under the harness protocol."""
    ds = load_csv(path)
    X_all, y_all = build_design(ds, "total", DEFAULT_REGRESSORS)
    master = RandomSource(seed)
    trainval, test = holdout_split(len(y_all), 0.2, master.spawn())
    folds = kfold_split(len(trainval), 5, master.spawn())
    sums = {m: {"test_mse": 0.0, "test_r2": 0.0} for m in ("lls", "cg", "adam_linear")}
    for local_train, _ in folds:
        train_idx = trainval[local_train]
        stats = fit_standardizer(X_all[train_idx], column_names=DEFAULT_REGRESSORS)
        X_tr = apply_standardizer(stats, X_all[train_idx])
        X_te = apply_standardizer(stats, X_all[test])
        for method in sums:
            model = fit_baseline(RunConfig().baseline_spec(method), X_tr, y_all[train_idx])
            preds = predict_linear(model, X_te)
            sums[method]["test_mse"] += mse(y_all[test], preds)
            sums[method]["test_r2"] += r2(y_all[test], preds)
    return {m: {k: v / len(folds) for k, v in vals.items()} for m, vals in sums.items()}


def test_criterion_3_baseline_reproduction():
    path = real_dataset_path()
    if path is None:
        pytest.skip(REAL_DATA_HINT)
    started = time.time()
    metrics = baseline_cv_metrics(path)
    elapsed = time.time() - started
    lls_mse = metrics["lls"]["test_mse"]
    lls_r2 = metrics["lls"]["test_r2"]
    assert 9.5 <= lls_mse <= 12.5, f"LLS test MSE {lls_mse}"
    assert 0.88 <= lls_r2 <= 0.92, f"LLS test R2 {lls_r2}"
    assert abs(metrics["cg"]["test_mse"] - lls_mse) < 0.05
    assert abs(metrics["adam_linear"]["test_mse"] - lls_mse) < 0.05
    assert elapsed < 120.0, f"baselines took {elapsed:.1f}s"
    announce(3, "baseline reproduction",
             f"LLS test MSE {lls_mse:.4f}, R2 {lls_r2:.6f} in {elapsed:.0f}s")


def full_config(path, seed, epochs):
    jobs = min(os.cpu_count() or 1, 5)
    return config_from_dict(
        {"dataset": path, "seed": seed, "epochs": epochs, "jobs": jobs}
    )


def test_criterion_4_model_ordering():
    path = real_dataset_path()
    if path is None:
        pytest.skip(REAL_DATA_HINT)
    # Reduced epoch default keeps three full runs inside the time budget;
    # the deviation is recorded in each report's embedded config snapshot.
    epochs = int(os.environ.get("UPDRSPRED_ACCEPT_EPOCHS", "60"))
    started = time.time()
    lstm_mses, lls_mses = [], []
    for seed in (1, 2, 3):
        report = run_experiment(full_config(path, seed, epochs))
        lstm_mses.append(report.aggregate[NETWORK_NAME]["test_mse"]["mean"])
        lls_mses.append(report.aggregate["LLS"]["test_mse"]["mean"])
    elapsed = time.time() - started
    mean_lstm = float(np.mean(lstm_mses))
    mean_lls = float(np.mean(lls_mses))
    assert mean_lstm < mean_lls, (
        f"ordering not reproduced: LSTM {mean_lstm:.4f} vs LLS {mean_lls:.4f}"
    )
    stretch = "met" if mean_lstm < 9.0 else "missed"
    assert elapsed < 3600.0, f"three runs took {elapsed:.0f}s"
    announce(4, "model ordering",
             f"LSTM {mean_lstm:.4f} < LLS {mean_lls:.4f}; stretch target 9.0 {stretch}; "
             f"epochs={epochs}; {elapsed:.0f}s")


def test_criterion_5_normalization_invariants(synthetic_csv):
    # The checks are asserted inside every forward pass (violations raise),
    # so any completed run certifies zero violations; this exercises them
    # across a whole experiment and confirms the counters advanced.
    reset_invariant_counters()
    config = config_from_dict(dict(
        dataset=str(synthetic_csv), k_folds=2, epochs=2, lstm_units=8, attn_dim=6,
        dense_widths=(12, 6), rfe_k=4, forest_n_trees=10, forest_max_depth=5,
        batch_size=16, adam_linear_steps=200, subsample_rows=150, seed=3,
    ))
    run_experiment(config)
    attention_checks = INVARIANT_CHECKS["attention_weight_sum"]
    bn_checks = INVARIANT_CHECKS["batchnorm_zero_mean"]
    assert attention_checks > 0
    assert bn_checks > 0
    announce(5, "normalization invariants",
             f"{attention_checks} attention sums and {bn_checks} batch-norm "
             f"centering checks, zero violations")


def test_criterion_6_rfe_sanity_oracle():
    started = time.time()
    params = ForestParams(n_trees=20, max_depth=6, min_samples_leaf=5)
    hits = 0
    n_seeds = 100
    for seed in range(n_seeds):
        rng = RandomSource(0xFE0 + seed)
        x0 = rng.gaussians(0, 1, 120)
        noise = rng.gaussians(0, 1, 120 * 5).reshape(120, 5)
        X = np.column_stack([x0, noise])
        y = 3.0 * x0 + rng.gaussians(0, 1, 120)
        result = rfe_select(X, y, 1, params, rng.spawn())
        if result.selected == (0,):
            hits += 1
    elapsed = time.time() - started
    assert hits >= 95, f"signal feature kept in only {hits}/100 seeds"
    assert elapsed < 120.0, f"oracle took {elapsed:.1f}s"
    announce(6, "feature elimination sanity", f"{hits}/100 seeds in {elapsed:.0f}s")


def test_criterion_7_determinism(synthetic_csv, tmp_path):
    doc = dict(
        dataset=str(synthetic_csv), k_folds=2, epochs=2, lstm_units=8, attn_dim=6,
        dense_widths=[12, 6], rfe_k=4, forest_n_trees=10, forest_max_depth=5,
        batch_size=16, adam_linear_steps=200, subsample_rows=150, seed=21,
        out_dir=str(tmp_path / "runs"),
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    runner = CliRunner()
    outputs = []
    for _ in range(2):
        result = runner.invoke(cli_main, ["--config", str(config_path), "train-eval"],
                               catch_exceptions=False)
        assert result.exit_code == 0, result.output
        run_dir = next(l for l in result.output.splitlines()
                       if l.startswith("run directory:")).split(":", 1)[1].strip()
        outputs.append(open(os.path.join(run_dir, "report.json"), "rb").read())
    assert outputs[0] == outputs[1]
    announce(7, "determinism", f"{len(outputs[0])} byte reports identical")


def test_criterion_8_metric_identities():
    rng = RandomSource(0x1DE)
    for _ in range(1000):
        n = 5 + int(rng.integers(40, 1)[0])
        y = rng.gaussians(0, 4, n)
        y_hat = y + rng.gaussians(0, 2, n)
        tss = float(((y - y.mean()) ** 2).sum())
        if tss == 0.0:
            continue
        identity_gap = abs(r2(y, y_hat) - (1.0 - mse(y, y_hat) * n / tss))
        assert identity_gap < 1e-12
    y = rng.gaussians(3, 2, 50)
    assert mse(y, y) == 0.0
    assert r2(y, y) == 1.0
    announce(8, "metric identities", "1000 random vectors within 1e-12")
