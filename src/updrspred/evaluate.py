"""Metrics, the cross-validated experiment harness, and report rendering.

The harness holds out one shared test partition, splits the remainder into
k folds, and inside every fold standardizes on the training rows, runs the
forest-guided elimination, jitter-augments the network's training matrix,
trains the recurrent model with early stopping on the fold's validation
loss, and fits the four linear baselines on the identical standardized,
un-augmented matrix. Test rows never touch standardization, elimination,
augmentation, or early stopping; the fold runner asserts that disjointness
outright.

Reported "train" numbers are computed on the un-augmented training rows so
the network and the baselines are compared on the same footing. The
network's validation figures come from the predictions early stopping made
with the parameters it kept, so its validation rows are not predicted
again. The single test partition is shared across folds and each method's
test figure is the mean over the fold models.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .augment import augment_training_set
from .baselines import DISPLAY_NAMES, METHOD_ORDER, fit_baseline, predict_linear
from .config import RunConfig
from .dataset import (
    build_design,
    apply_standardizer,
    fit_standardizer,
    grouped_holdout_split,
    grouped_kfold_split,
    holdout_split,
    kfold_split,
    load_csv,
    to_sequences,
)
from .errors import (
    DegenerateTargetError,
    EmptyInputError,
    NumericError,
    ShapeError,
    StateError,
)
from .linalg import RandomSource
from .nn import INVARIANT_CHECKS, init_model_params
from .optimize import predict_network, train_network
from .rfe import rfe_select

NETWORK_NAME = "LSTM-Attention"
REPORT_VERSION = 1


def mse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean squared error over paired observations."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ShapeError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise EmptyInputError("mse needs at least one observation")
    diff = y - y_hat
    return float((diff * diff).mean())


def r2(y: np.ndarray, y_hat: np.ndarray) -> float:
    """A coefficient of determination: 1 minus residual over total variation."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ShapeError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if y.size < 2:
        raise EmptyInputError("r2 needs at least two observations")
    # compare values: a constant target's total variation can round to a
    # tiny nonzero value and make r2 about -1e29
    if y.max() == y.min():
        raise DegenerateTargetError("target is constant; r2 undefined")
    total = float(((y - y.mean()) ** 2).sum())
    residual = float(((y - y_hat) ** 2).sum())
    return 1.0 - residual / total


@dataclass
class MethodMetrics:
    train_mse: float
    val_mse: float
    test_mse: float
    test_r2: float

    def as_dict(self) -> dict:
        return {
            "train_mse": self.train_mse,
            "val_mse": self.val_mse,
            "test_mse": self.test_mse,
            "test_r2": self.test_r2,
        }


@dataclass
class CvReport:
    methods: list
    folds: list  # one {method display name -> MethodMetrics} per fold
    aggregate: dict  # method -> metric -> {"mean": .., "std": ..}
    config: dict
    seed: int
    details: dict = field(default_factory=dict)

    def to_structured(self) -> str:
        doc = {
            "version": REPORT_VERSION,
            "seed": self.seed,
            "config": self.config,
            "methods": self.methods,
            "folds": [
                {name: metrics.as_dict() for name, metrics in fold.items()}
                for fold in self.folds
            ],
            "aggregate": self.aggregate,
            "details": self.details,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


METRIC_KEYS = ("train_mse", "val_mse", "test_mse", "test_r2")


def _aggregate(methods, folds) -> dict:
    out = {}
    for name in methods:
        out[name] = {}
        for key in METRIC_KEYS:
            values = np.array([getattr(fold[name], key) for fold in folds])
            out[name][key] = {"mean": float(values.mean()), "std": float(values.std())}
    return out


def _check_finite(value: float, fold: int, method: str, metric: str) -> float:
    if not np.isfinite(value):
        raise NumericError(
            f"fold {fold}: method {method!r} produced non-finite {metric} ({value})"
        )
    return float(value)


def _score(fold_no: int, name: str, pred_parts, y_parts) -> MethodMetrics:
    """Metrics of one fitted method from its train, val and test predictions."""
    y_tr, y_va, y_te = y_parts
    p_tr, p_va, p_te = pred_parts
    return MethodMetrics(
        train_mse=_check_finite(mse(y_tr, p_tr), fold_no, name, "train MSE"),
        val_mse=_check_finite(mse(y_va, p_va), fold_no, name, "val MSE"),
        test_mse=_check_finite(mse(y_te, p_te), fold_no, name, "test MSE"),
        test_r2=_check_finite(r2(y_te, p_te), fold_no, name, "test R2"),
    )


def _fold_rngs(fold_rng: RandomSource) -> dict:
    # one derived stream per stochastic stage, in a fixed order
    return {
        "rfe": fold_rng.spawn(),
        "augment": fold_rng.spawn(),
        "baseline_augment": fold_rng.spawn(),
        "init": fold_rng.spawn(),
        "train": fold_rng.spawn(),
    }


def _run_fold(args) -> tuple[dict, dict, dict]:
    """One fold: (metrics per method, detail, invariant checks made)."""
    (fold_no, config, X_all, y_all, train_idx, val_idx, test_idx, fold_rng) = args
    checks_before = dict(INVARIANT_CHECKS)

    overlap = (
        np.intersect1d(train_idx, test_idx).size
        + np.intersect1d(val_idx, test_idx).size
        + np.intersect1d(train_idx, val_idx).size
    )
    if overlap:
        raise StateError(f"fold {fold_no}: split indices overlap")

    rngs = _fold_rngs(fold_rng)
    X_tr_raw, y_tr = X_all[train_idx], y_all[train_idx]
    X_va_raw, y_va = X_all[val_idx], y_all[val_idx]
    X_te_raw, y_te = X_all[test_idx], y_all[test_idx]
    y_parts = (y_tr, y_va, y_te)

    stats = fit_standardizer(X_tr_raw, column_names=config.regressors)
    X_tr = apply_standardizer(stats, X_tr_raw)
    X_va = apply_standardizer(stats, X_va_raw)
    X_te = apply_standardizer(stats, X_te_raw)
    if y_tr.max() == y_tr.min():  # its std can round to a tiny nonzero value
        raise DegenerateTargetError("training target is constant in this fold")

    results = {}
    baseline_X, baseline_y = X_tr, y_tr
    if config.augment_baselines:
        baseline_X, baseline_y = augment_training_set(
            X_tr, y_tr, config.jitter_copies, rngs["baseline_augment"]
        )
    for method in METHOD_ORDER:
        model = fit_baseline(config.baseline_spec(method), baseline_X, baseline_y)
        name = DISPLAY_NAMES[method]
        preds = tuple(predict_linear(model, X) for X in (X_tr, X_va, X_te))
        results[name] = _score(fold_no, name, preds, y_parts)

    selection = rfe_select(
        X_tr, y_tr, config.rfe_k, config.forest_params(), rngs["rfe"],
        protected=config.protected_indices(),
    )
    selected = list(selection.selected)

    X_tr_sel = X_tr[:, selected]
    X_va_sel = X_va[:, selected]
    X_te_sel = X_te[:, selected]
    X_aug, y_aug = augment_training_set(
        X_tr_sel, y_tr, config.jitter_copies, rngs["augment"]
    )

    # the network regresses a z-scored target; the 0.001-rate schedule
    # cannot march the output bias tens of units in a realistic epoch budget
    y_mu = float(y_tr.mean())
    y_sd = float(y_tr.std())

    params = init_model_params(
        rngs["init"],
        input_dim=1,
        units=config.lstm_units,
        attn_dim=config.attn_dim,
        dense_widths=tuple(config.dense_widths),
    )
    trained, history = train_network(
        params,
        to_sequences(X_aug),
        (y_aug - y_mu) / y_sd,
        to_sequences(X_va_sel),
        (y_va - y_mu) / y_sd,
        config.train_settings(),
        rngs["train"],
    )

    def net_predict(X_sel):
        return predict_network(trained, to_sequences(X_sel)) * y_sd + y_mu

    # early stopping scored the kept parameters on the validation rows
    # already; their predictions are the ones a fresh predict would give
    net_preds = (net_predict(X_tr_sel), history.best_val_preds * y_sd + y_mu,
                 net_predict(X_te_sel))
    results[NETWORK_NAME] = _score(fold_no, NETWORK_NAME, net_preds, y_parts)

    detail = {
        "selected_features": [config.regressors[i] for i in selected],
        "elimination_order": [config.regressors[i] for i in selection.elimination_order],
        "epochs_run": len(history.val_loss),
        "stopped_early": history.stopped_early,
        "final_val_loss": history.val_loss[-1] if history.val_loss else None,
    }
    checks = {key: count - checks_before[key] for key, count in INVARIANT_CHECKS.items()}
    return results, detail, checks


def run_experiment(config: RunConfig) -> CvReport:
    """Execute the whole protocol for one seed; see the module docstring."""
    config.validate()
    dataset = load_csv(config.dataset)
    X_all, y_all = build_design(dataset, config.target, config.regressors)
    groups = dataset.column("subject#")

    master = RandomSource(config.seed)
    if config.subsample_rows is not None and config.subsample_rows < len(y_all):
        sub_rng = master.spawn()
        keep = np.sort(sub_rng.permutation(len(y_all))[: config.subsample_rows])
        X_all, y_all, groups = X_all[keep], y_all[keep], groups[keep]

    holdout_rng = master.spawn()
    kfold_rng = master.spawn()
    n = len(y_all)
    if config.group_by_subject:
        trainval_idx, test_idx = grouped_holdout_split(
            groups, config.test_fraction, holdout_rng
        )
        fold_local = grouped_kfold_split(groups[trainval_idx], config.k_folds, kfold_rng)
    else:
        trainval_idx, test_idx = holdout_split(n, config.test_fraction, holdout_rng)
        fold_local = kfold_split(len(trainval_idx), config.k_folds, kfold_rng)

    fold_rngs = [master.spawn() for _ in range(config.k_folds)]
    fold_args = []
    for fold_no, (local_train, local_val) in enumerate(fold_local):
        fold_args.append((
            fold_no,
            config,
            X_all,
            y_all,
            trainval_idx[local_train],
            trainval_idx[local_val],
            test_idx,
            fold_rngs[fold_no],
        ))

    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(_run_fold, fold_args))
        # the workers counted in their own copies of the counters
        for _, _, checks in outcomes:
            for key, count in checks.items():
                INVARIANT_CHECKS[key] += count
    else:
        outcomes = [_run_fold(args) for args in fold_args]

    folds = [results for results, _, _ in outcomes]
    details = {
        "folds": [detail for _, detail, _ in outcomes],
        "n_rows": int(n),
        "n_test": int(len(test_idx)),
        "test_aggregation": "mean over fold models on one shared test partition",
    }
    methods = [DISPLAY_NAMES[m] for m in METHOD_ORDER] + [NETWORK_NAME]
    return CvReport(
        methods=methods,
        folds=folds,
        aggregate=_aggregate(methods, folds),
        config=config.to_dict(),
        seed=config.seed,
        details=details,
    )


# ---------------------------------------------------------------------------
# rendering


def _fmt(value: float, places: int) -> str:
    return f"{value:.{places}f}"


def _protocol_notes(report: CvReport) -> list:
    """Closing lines of the text tables: the split protocol, and the
    motor_UPDRS caveat when that subscale is a regressor."""
    config = report.config
    split = ("by subject" if config["group_by_subject"]
             else "record-wise (one subject's visits can sit on both sides)")
    notes = [f"Split: {split}, k_folds={config['k_folds']}, "
             f"test_fraction={config['test_fraction']}"]
    if "motor_UPDRS" in config["regressors"]:
        notes.append("Note: the regressors include motor_UPDRS, "
                     "which total UPDRS contains as a subscale")
    return notes


def render_mse_table(report: CvReport) -> str:
    width = max(len(m) for m in report.methods)
    lines = [f"{'Method'.ljust(width)} | Train MSE |  Val. MSE |  Test MSE"]
    lines.append("-" * len(lines[0]))
    for name in report.methods:
        agg = report.aggregate[name]
        lines.append(
            f"{name.ljust(width)} | "
            f"{_fmt(agg['train_mse']['mean'], 4).rjust(9)} | "
            f"{_fmt(agg['val_mse']['mean'], 4).rjust(9)} | "
            f"{_fmt(agg['test_mse']['mean'], 4).rjust(9)}"
        )
    return "\n".join(lines + _protocol_notes(report)) + "\n"


def render_r2_table(report: CvReport) -> str:
    width = max(len(m) for m in report.methods)
    lines = [f"{'Method'.ljust(width)} | R2"]
    lines.append("-" * len(lines[0]))
    for name in report.methods:
        lines.append(
            f"{name.ljust(width)} | {_fmt(report.aggregate[name]['test_r2']['mean'], 6)}"
        )
    return "\n".join(lines + _protocol_notes(report)) + "\n"


def render_csv(report: CvReport) -> str:
    lines = ["method,train_mse,val_mse,test_mse,test_r2"]
    for name in report.methods:
        agg = report.aggregate[name]
        lines.append(
            f"{name},{agg['train_mse']['mean']!r},{agg['val_mse']['mean']!r},"
            f"{agg['test_mse']['mean']!r},{agg['test_r2']['mean']!r}"
        )
    return "\n".join(lines) + "\n"
