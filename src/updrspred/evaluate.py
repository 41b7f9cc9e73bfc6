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
import os
from dataclasses import asdict, dataclass, field

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
REPORT_VERSION = 2


def mse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean squared error over paired observations."""
    if y.shape != y_hat.shape:
        raise ShapeError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise EmptyInputError("mse needs at least one observation")
    diff = y - y_hat
    return float((diff * diff).mean())


def r2(y: np.ndarray, y_hat: np.ndarray) -> float:
    """A coefficient of determination: 1 minus residual over total variation."""
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
class CvReport:
    methods: list
    folds: list  # one {method display name -> {metric key -> value}} per fold
    aggregate: dict  # method -> metric -> {"mean": .., "std": ..}
    config: dict
    seed: int
    details: dict = field(default_factory=dict)

    def to_structured(self) -> str:
        doc = {"version": REPORT_VERSION, **asdict(self)}
        return json.dumps(doc, indent=2, sort_keys=True)


METRIC_KEYS = ("train_mse", "val_mse", "test_mse", "test_r2")


def _aggregate(methods, folds) -> dict:
    out = {}
    for name in methods:
        out[name] = {}
        for key in METRIC_KEYS:
            values = np.array([fold[name][key] for fold in folds])
            out[name][key] = {"mean": float(values.mean()), "std": float(values.std())}
    return out


def _score(fold_no: int, name: str, pred_parts, y_parts) -> dict:
    """Metrics of one fitted method, keyed by ``METRIC_KEYS``, from its
    train, val and test predictions. Each is checked as soon as it is
    computed, so a NaN train MSE is reported before a constant test target."""
    metrics = {}
    for key, label, metric, part in (
        ("train_mse", "train MSE", mse, 0),
        ("val_mse", "val MSE", mse, 1),
        ("test_mse", "test MSE", mse, 2),
        ("test_r2", "test R2", r2, 2),
    ):
        value = metric(y_parts[part], pred_parts[part])
        if not np.isfinite(value):
            raise NumericError(
                f"fold {fold_no}: method {name!r} produced non-finite {label} ({value})"
            )
        metrics[key] = value
    return metrics


def _run_fold(args) -> tuple[dict, dict, dict]:
    """One fold: (metrics per method, detail, invariant checks made)."""
    fold_no, config, X_all, y_all, *parts, fold_rng = args  # parts: train, val, test
    checks_before = dict(INVARIANT_CHECKS)

    # distinct indices fall short of the summed lengths when parts overlap
    if np.unique(np.concatenate(parts)).size != sum(len(idx) for idx in parts):
        raise StateError(f"fold {fold_no}: split indices overlap")

    # one derived stream per stochastic stage, in a fixed order
    rfe_rng, augment_rng, baseline_augment_rng, init_rng, train_rng = (
        fold_rng.spawn() for _ in range(5)
    )
    y = tuple(y_all[idx] for idx in parts)
    y_tr = y[0]
    stats = fit_standardizer(X_all[parts[0]], column_names=config.regressors)
    X = tuple(apply_standardizer(stats, X_all[idx]) for idx in parts)
    if y_tr.max() == y_tr.min():  # its std can round to a tiny nonzero value
        raise DegenerateTargetError("training target is constant in this fold")

    results = {}
    baseline_X, baseline_y = X[0], y_tr
    if config.augment_baselines:
        baseline_X, baseline_y = augment_training_set(
            X[0], y_tr, config.jitter_copies, baseline_augment_rng
        )
    for method in METHOD_ORDER:
        model = fit_baseline(config.baseline_spec(method), baseline_X, baseline_y)
        name = DISPLAY_NAMES[method]
        preds = tuple(predict_linear(model, part) for part in X)
        results[name] = _score(fold_no, name, preds, y)

    selection = rfe_select(
        X[0], y_tr, config.rfe_k, config.forest_params(), rfe_rng,
        protected=config.protected_indices(),
    )

    X_sel = tuple(part[:, selection.selected] for part in X)
    X_aug, y_aug = augment_training_set(X_sel[0], y_tr, config.jitter_copies, augment_rng)

    # the network regresses a z-scored target; the 0.001-rate schedule
    # cannot march the output bias tens of units in a realistic epoch budget
    y_mu = float(y_tr.mean())
    y_sd = float(y_tr.std())

    params = init_model_params(
        init_rng,
        units=config.lstm_units,
        attn_dim=config.attn_dim,
        dense_widths=config.dense_widths,
    )
    trained, history = train_network(
        params,
        to_sequences(X_aug),
        (y_aug - y_mu) / y_sd,
        to_sequences(X_sel[1]),
        (y[1] - y_mu) / y_sd,
        config.train_settings(),
        train_rng,
    )

    def net_predict(part):
        return predict_network(trained, to_sequences(part)) * y_sd + y_mu

    # early stopping scored the kept parameters on the validation rows
    # already; their predictions are the ones a fresh predict would give
    net_preds = (net_predict(X_sel[0]), history.best_val_preds * y_sd + y_mu,
                 net_predict(X_sel[2]))
    results[NETWORK_NAME] = _score(fold_no, NETWORK_NAME, net_preds, y)

    detail = {
        "selected_features": [config.regressors[i] for i in selection.selected],
        "elimination_order": [config.regressors[i] for i in selection.elimination_order],
        "epochs_run": len(history.val_loss),
        "stopped_early": history.stopped_early,
        "final_val_loss": history.val_loss[-1],
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

    # each fold's stream is drawn from master in fold order
    fold_args = [
        (fold_no, config, X_all, y_all, trainval_idx[local_train],
         trainval_idx[local_val], test_idx, master.spawn())
        for fold_no, (local_train, local_val) in enumerate(fold_local)
    ]

    if config.jobs > 1:
        # imported here: it loads multiprocessing, which a one-process run
        # never uses but would still hold in memory
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(fold_args))) as pool:
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
        # the file name alone, so that checkouts at two paths write one report
        config={**asdict(config), "dataset": os.path.basename(config.dataset)},
        seed=config.seed,
        details=details,
    )


# ---------------------------------------------------------------------------
# rendering


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


def _table(report: CvReport, columns) -> str:
    """Aggregate means, one row per method, for ``columns`` of (header,
    metric key, decimal places); values align right under their headers."""
    width = max(len(m) for m in report.methods)
    cell = max(len(header) for header, _, _ in columns)
    lines = [" | ".join(["Method".ljust(width)] + [h.rjust(cell) for h, _, _ in columns])]
    lines.append("-" * len(lines[0]))
    for name in report.methods:
        agg = report.aggregate[name]
        lines.append(" | ".join([name.ljust(width)] + [
            f"{agg[key]['mean']:.{places}f}".rjust(cell) for _, key, places in columns
        ]))
    return "\n".join(lines + _protocol_notes(report)) + "\n"


def render_mse_table(report: CvReport) -> str:
    return _table(report, [("Train MSE", "train_mse", 4), ("Val. MSE", "val_mse", 4),
                           ("Test MSE", "test_mse", 4)])


def render_r2_table(report: CvReport) -> str:
    return _table(report, [("R2", "test_r2", 6)])


def render_csv(report: CvReport) -> str:
    lines = [",".join(("method",) + METRIC_KEYS)]
    for name in report.methods:
        agg = report.aggregate[name]
        lines.append(",".join([name] + [repr(agg[key]["mean"]) for key in METRIC_KEYS]))
    return "\n".join(lines) + "\n"
