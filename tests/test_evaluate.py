import concurrent.futures
import csv
import dataclasses
import functools
import inspect
import io
import json
import multiprocessing
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updrspred import config as config_module
from updrspred import evaluate
from updrspred.config import RunConfig, config_from_dict
from updrspred.dataset import DEFAULT_REGRESSORS
from updrspred.errors import (
    ConfigError,
    DegenerateTargetError,
    EmptyInputError,
    NumericError,
    ParameterError,
    RuntimeFault,
    ShapeError,
    UsageFault,
)
from updrspred.evaluate import (
    METRIC_KEYS,
    NETWORK_NAME,
    CvReport,
    mse,
    r2,
    render_csv,
    render_mse_table,
    render_r2_table,
    run_experiment,
)
from updrspred.linalg import RandomSource
from updrspred.nn import INVARIANT_CHECKS, init_model_params, reset_invariant_counters
from updrspred.optimize import LR_DECAY_FACTOR, LR_DECAY_STEPS

from conftest import write_synthetic_csv


class TestMse:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(y, y) == 0.0

    def test_hand_sum(self):
        # single miss of 1 over three observations
        assert mse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse(np.ones(3), np.ones(4))

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            mse(np.array([]), np.array([]))


class TestR2:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, y) == 1.0

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r2(y, np.full(4, y.mean())) == pytest.approx(0.0, abs=1e-15)

    def test_constant_target_rejected(self):
        with pytest.raises(DegenerateTargetError):
            r2(np.full(5, 2.0), np.arange(5.0))

    def test_constant_target_with_a_rounded_nonzero_spread_rejected(self):
        # the squared deviations of 20 copies of 0.1 do not sum to exactly 0
        with pytest.raises(DegenerateTargetError):
            r2(np.full(20, 0.1), np.linspace(0.0, 1.0, 20))

    def test_worse_than_mean_is_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, np.array([3.0, 1.0, 2.0])) < 0

    def test_algebraic_identity_with_mse(self):
        rng = RandomSource(1)
        for _ in range(200):
            y = rng.gaussians(0, 3, 20)
            y_hat = y + rng.gaussians(0, 1, 20)
            tss = float(((y - y.mean()) ** 2).sum())
            lhs = r2(y, y_hat)
            rhs = 1.0 - mse(y, y_hat) * len(y) / tss
            assert abs(lhs - rhs) < 1e-12


def smoke_config(csv_path, **overrides):
    base = dict(
        dataset=str(csv_path),
        k_folds=2,
        epochs=2,
        lstm_units=8,
        attn_dim=6,
        dense_widths=(12, 6),
        rfe_k=4,
        forest_n_trees=10,
        forest_max_depth=5,
        batch_size=16,
        adam_linear_steps=400,
        subsample_rows=150,
        seed=7,
    )
    base.update(overrides)
    return config_from_dict(base)


class TestRunExperiment:
    def test_report_structure(self, synthetic_csv):
        report = run_experiment(smoke_config(synthetic_csv))
        assert len(report.folds) == 2
        assert report.methods == [
            "LLS", "Conjugate Gradient", "Adam optimization",
            "Ridge Regressions", "LSTM-Attention",
        ]
        for fold in report.folds:
            assert set(fold) == set(report.methods)
            for metrics in fold.values():
                assert tuple(metrics) == METRIC_KEYS
                for value in metrics.values():
                    assert np.isfinite(value)

    def test_deterministic_reports(self, synthetic_csv):
        a = run_experiment(smoke_config(synthetic_csv))
        b = run_experiment(smoke_config(synthetic_csv))
        assert a.to_structured() == b.to_structured()

    def test_details_record_selection(self, synthetic_csv):
        config = smoke_config(synthetic_csv)
        report = run_experiment(config)
        for detail in report.details["folds"]:
            assert len(detail["selected_features"]) == config.rfe_k
            assert "motor_UPDRS" in detail["selected_features"]
            assert len(detail["elimination_order"]) == len(config.regressors) - config.rfe_k

    def test_constant_training_target_rejected_before_training(self, synthetic_csv, monkeypatch):
        # 240 training targets of 0.1 have a computed std of about 1e-17, not 0
        for stage in ("fit_baseline", "rfe_select", "train_network"):
            monkeypatch.setattr(evaluate, stage, lambda *args, stage=stage, **kwargs:
                                pytest.fail(f"{stage} ran on a constant target"))
        config = smoke_config(synthetic_csv)
        rng = RandomSource(3)
        X_all = rng.gaussians(0, 1, 300 * len(config.regressors)).reshape(300, -1)
        y_all = np.concatenate([np.full(240, 0.1), rng.gaussians(20, 5, 60)])
        rows = np.arange(300)
        args = (0, config, X_all, y_all, rows[:240], rows[240:270], rows[270:], RandomSource(4))
        with pytest.raises(DegenerateTargetError, match="constant in this fold"):
            evaluate._run_fold(args)

    def test_grouped_mode_runs(self, synthetic_csv):
        config = smoke_config(synthetic_csv, group_by_subject=True, subsample_rows=None)
        report = run_experiment(config)
        assert len(report.folds) == 2

    def test_parallel_folds_match_sequential(self, synthetic_csv):
        # identical numbers fold by fold; the embedded config snapshot is
        # allowed to differ in its jobs field
        seq = run_experiment(smoke_config(synthetic_csv))
        par = run_experiment(smoke_config(synthetic_csv, jobs=2))
        seq_doc = json.loads(seq.to_structured())
        par_doc = json.loads(par.to_structured())
        assert seq_doc["folds"] == par_doc["folds"]
        assert seq_doc["aggregate"] == par_doc["aggregate"]
        assert seq_doc["details"] == par_doc["details"]

    def test_worker_processes_count_invariant_checks(self, synthetic_csv):
        counts = {}
        for jobs in (1, 2):
            reset_invariant_counters()
            run_experiment(smoke_config(synthetic_csv, jobs=jobs))
            counts[jobs] = dict(INVARIANT_CHECKS)
        assert counts[2] == counts[1]
        assert all(count > 0 for count in counts[1].values())

    def test_forkserver_workers_match_one_process(self, synthetic_csv, monkeypatch):
        # Python 3.14 starts a pool's workers by forkserver on Linux, not by
        # fork: each worker imports the package afresh, counters at zero
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("forkserver")))
        docs, counts = {}, {}
        for jobs in (1, 2):
            reset_invariant_counters()
            report = run_experiment(smoke_config(synthetic_csv, jobs=jobs))
            counts[jobs] = dict(INVARIANT_CHECKS)
            docs[jobs] = json.loads(report.to_structured())
            assert docs[jobs]["config"].pop("jobs") == jobs
        assert docs[2] == docs[1]
        assert counts[2] == counts[1]
        assert all(count > 0 for count in counts[1].values())

    def test_worker_processes_capped_at_the_fold_count(self, synthetic_csv, monkeypatch):
        # a fork-started pool forks every worker it may use at the first submit
        recorded = []

        class InProcessPool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        report = run_experiment(smoke_config(synthetic_csv, jobs=64, k_folds=2))
        assert recorded == [2]
        assert len(report.folds) == 2

    def test_non_finite_prediction_names_fold_method_and_metric(self, synthetic_csv,
                                                                 monkeypatch):
        monkeypatch.setattr(evaluate, "predict_linear",
                            lambda model, X: np.full(len(X), np.nan))
        with pytest.raises(NumericError) as caught:
            run_experiment(smoke_config(synthetic_csv))
        assert str(caught.value) == "fold 0: method 'LLS' produced non-finite train MSE (nan)"

    def test_each_metric_checked_as_soon_as_computed(self):
        # a NaN train MSE is named before a constant test target fails r2
        y = (np.arange(4.0), np.arange(3.0), np.full(3, 2.0))
        preds = (np.full(4, np.nan), np.zeros(3), np.zeros(3))
        with pytest.raises(NumericError, match="non-finite train MSE"):
            evaluate._score(1, "LLS", preds, y)
        with pytest.raises(DegenerateTargetError):
            evaluate._score(1, "LLS", (np.zeros(4), *preds[1:]), y)

    def test_each_partition_predicted_once_per_method(self, synthetic_csv, monkeypatch):
        # train_network's own validation predictions go through optimize,
        # not through these names, so they are not counted; the network's
        # validation metrics reuse the predictions early stopping kept, so
        # only its train and test rows are predicted here
        calls = {"network": 0, "linear": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluate, "predict_network",
                            counted("network", evaluate.predict_network))
        monkeypatch.setattr(evaluate, "predict_linear",
                            counted("linear", evaluate.predict_linear))
        config = smoke_config(synthetic_csv)
        run_experiment(config)
        assert calls == {"network": 2 * config.k_folds, "linear": 12 * config.k_folds}

    # 240 rows at 0.005 round to a 1-row test side; 8 subjects of 30 rows
    # reach a 216-row target only with all 8 on the test side
    @pytest.mark.parametrize("grouped, fraction, sides", [
        (False, 0.005, "1 row(s) on the test side and 239"),
        (True, 0.9, "240 row(s) on the test side and 0"),
    ])
    def test_unusable_holdout_rejected_before_any_fold(self, synthetic_csv, monkeypatch,
                                                       grouped, fraction, sides):
        monkeypatch.setattr(evaluate, "_run_fold", lambda args: pytest.fail("a fold ran"))
        config = smoke_config(synthetic_csv, test_fraction=fraction, subsample_rows=None,
                              group_by_subject=grouped)
        with pytest.raises(ParameterError) as caught:
            run_experiment(config)
        assert f"test_fraction={fraction} puts {sides}" in str(caught.value)

    def test_grouped_run_at_paper_shape(self, tmp_path):
        # the paper's 5,875 visits of 42 subjects, split by subject into the
        # default 5 folds, with every stage cut to a token budget
        path = write_synthetic_csv(tmp_path / "paper_shape.csv", n_rows=5_875, n_subjects=42)
        config = config_from_dict({
            "dataset": str(path), "group_by_subject": True, "rfe_k": 10,
            "lstm_units": 4, "attn_dim": 4, "dense_widths": [4, 4], "epochs": 1,
            "forest_n_trees": 1, "forest_max_depth": 3, "adam_linear_steps": 20,
        })
        report = run_experiment(config)
        assert report.details["n_rows"] == 5_875
        assert len(report.folds) == 5
        for detail in report.details["folds"]:
            assert len(detail["selected_features"]) == 10

    def test_report_does_not_depend_on_the_dataset_path(self, synthetic_csv, tmp_path):
        reports = []
        for where in ("a", "b/c"):
            path = tmp_path / where / synthetic_csv.name
            path.parent.mkdir(parents=True)
            shutil.copyfile(synthetic_csv, path)
            reports.append(run_experiment(smoke_config(path)).to_structured())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["dataset"] == synthetic_csv.name

    def test_seed_changes_results(self, synthetic_csv):
        a = run_experiment(smoke_config(synthetic_csv, seed=1))
        b = run_experiment(smoke_config(synthetic_csv, seed=2))
        assert a.to_structured() != b.to_structured()


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    return write_synthetic_csv(tmp_path_factory.mktemp("small") / "small_updrs.csv",
                               n_rows=150, n_subjects=6)


# small enough that a run takes well under a second, with every protocol
# choice that validate() accepts left open
ACCEPTED_OVERRIDES = st.fixed_dictionaries({
    "k_folds": st.integers(2, 8),
    "group_by_subject": st.booleans(),
    "test_fraction": st.floats(0.05, 0.6),
    "subsample_rows": st.none() | st.integers(10, 200),
    "rfe_k": st.integers(1, len(DEFAULT_REGRESSORS)),
    "forest_n_trees": st.integers(1, 3),
    "forest_max_depth": st.integers(0, 6),
    "jitter_copies": st.integers(0, 3),
    "augment_baselines": st.booleans(),
    "lstm_units": st.integers(1, 4),
    "attn_dim": st.integers(1, 4),
    "dense_widths": st.tuples(st.integers(1, 4), st.integers(1, 4)),
    "epochs": st.integers(1, 2),
    "batch_size": st.integers(2, 64),
    "patience": st.integers(0, 2),
    "adam_linear_steps": st.integers(0, 50),
    "seed": st.integers(0, 2**32 - 1),
})


class TestAcceptedConfigs:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(overrides=ACCEPTED_OVERRIDES)
    def test_finite_metrics_or_a_typed_fault(self, small_csv, overrides):
        config = smoke_config(small_csv, **overrides)
        try:
            report = run_experiment(config)
        except (UsageFault, RuntimeFault):
            return
        assert len(report.folds) == config.k_folds
        values = [value for fold in report.folds for metrics in fold.values()
                  for value in metrics.values()]
        assert np.isfinite(values).all()


GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "smoke_report.json"


def assert_matches_golden(actual, expected, where="report"):
    """Floats agree within 1e-9 relative; everything else exactly."""
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches_golden(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches_golden(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=0.0), where
    else:
        assert type(actual) is type(expected) and actual == expected, where


class TestGoldenReport:
    """Behaviour lock: ``smoke_config`` on the default synthetic table.

    ``tests/golden/smoke_report.json`` holds the methods, folds, aggregate
    and details of ``run_experiment(smoke_config(csv))`` on
    ``write_synthetic_csv(path)`` (240 rows, 8 subjects, seed 99). Selected
    features, elimination order and epoch counts must match exactly and
    every metric within 1e-9 relative; exact bytes would tie the file to
    one BLAS kernel. A change that is meant to move these numbers
    regenerates the file and says so.
    """

    def test_smoke_report_matches_golden(self, synthetic_csv):
        doc = json.loads(run_experiment(smoke_config(synthetic_csv)).to_structured())
        expected = json.loads(GOLDEN_REPORT.read_text())
        assert_matches_golden({key: doc[key] for key in expected}, expected)


def toy_report(**config_overrides):
    metrics = {
        "LLS": dict(zip(METRIC_KEYS, (10.4735, 10.0138, 10.9074, 0.904409))),
        NETWORK_NAME: dict(zip(METRIC_KEYS, (6.3572, 6.6108, 7.0491, 0.9591))),
    }
    methods = ["LLS", NETWORK_NAME]
    folds = [metrics, metrics]
    aggregate = {
        name: {key: {"mean": value, "std": 0.0} for key, value in m.items()}
        for name, m in metrics.items()
    }
    config = dataclasses.replace(RunConfig(dataset="x.csv"), **config_overrides)
    return CvReport(methods=methods, folds=folds, aggregate=aggregate,
                    config=dataclasses.asdict(config), seed=0)


class TestRendering:
    def test_text_tables(self):
        report = toy_report()
        text = render_mse_table(report)
        assert text.splitlines()[0].startswith("Method")
        assert "10.9074" in text
        r2_text = render_r2_table(report)
        assert "0.904409" in r2_text

    @pytest.mark.parametrize("grouped, folds, fraction, split", [
        (False, 5, 0.2, "record-wise (one subject's visits can sit on both sides)"),
        (True, 3, 0.25, "by subject"),
    ])
    def test_tables_end_with_the_split_protocol(self, grouped, folds, fraction, split):
        report = toy_report(group_by_subject=grouped, k_folds=folds, test_fraction=fraction)
        for text in (render_mse_table(report), render_r2_table(report)):
            assert text.splitlines()[-2:] == [
                f"Split: {split}, k_folds={folds}, test_fraction={fraction}",
                "Note: the regressors include motor_UPDRS, "
                "which total UPDRS contains as a subscale",
            ]

    def test_motor_note_only_when_motor_updrs_is_a_regressor(self):
        report = toy_report(regressors=("age", "sex", "Jitter(%)"), protected_regressors=(),
                            rfe_k=2)
        for text in (render_mse_table(report), render_r2_table(report)):
            assert text.splitlines()[-1].startswith("Split: record-wise")
            assert "motor_UPDRS" not in text

    def test_row_order_preserved(self):
        text = render_mse_table(toy_report())
        lls_line = next(i for i, l in enumerate(text.splitlines()) if l.startswith("LLS"))
        net_line = next(i for i, l in enumerate(text.splitlines())
                        if l.startswith(NETWORK_NAME))
        assert lls_line < net_line

    def test_csv_round_trip(self):
        report = toy_report()
        rows = list(csv.DictReader(io.StringIO(render_csv(report))))
        assert [row["method"] for row in rows] == report.methods
        for row in rows:
            for key in ("train_mse", "val_mse", "test_mse", "test_r2"):
                assert float(row[key]) == report.aggregate[row["method"]][key]["mean"]

    def test_structured_is_versioned_json(self):
        doc = json.loads(toy_report().to_structured())
        assert doc["version"] == 2
        assert doc["methods"][0] == "LLS"


def config_case(override, match=None):
    """One bad-config case, with the message it must raise when given."""
    return pytest.param(override, match,
                        id=",".join(f"{key}={value}" for key, value in override.items()))


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown config key"):
            config_from_dict({"dataset": "x.csv", "learning_rate": 0.1})

    def test_defaults_follow_protocol(self):
        config = RunConfig()
        assert config.lstm_units == 100
        assert config.lr_initial == 0.001
        assert config.k_folds == 5
        # the fixed constants live with the stage that uses them
        p = init_model_params(RandomSource(0), units=2, attn_dim=2, dense_widths=(3, 2))
        assert p.dropout_rate == 0.3
        assert (LR_DECAY_FACTOR, LR_DECAY_STEPS) == (0.9, 10_000)

    def test_protected_must_be_regressor(self):
        with pytest.raises(Exception, match="protected"):
            config_from_dict({
                "dataset": "x.csv",
                "regressors": ["age", "sex"],
                "protected_regressors": ["motor_UPDRS"],
                "rfe_k": 1,
            })

    @pytest.mark.parametrize("key", [
        "rfe_on_standardized", "forest_features_per_split",
        "forest_min_samples_leaf", "forest_bootstrap", "jitter_sigma_scale",
        "dropout_rate", "l2", "bn_momentum", "bn_eps",
        "lr_decay_factor", "lr_decay_steps", "lr_staircase",
        "adam_beta1", "adam_beta2", "adam_eps", "min_delta",
        "ridge_lambda", "cg_tol", "cg_max_iter_per_dim",
    ])
    def test_removed_keys_rejected(self, key):
        with pytest.raises(Exception, match=f"unknown config key.*{key}"):
            config_from_dict({"dataset": "x.csv", key: None})

    @pytest.mark.parametrize("override, match", [
        config_case({"lstm_units": 0}),
        config_case({"attn_dim": 0}),
        config_case({"dense_widths": (0, 4)}),
        config_case({"patience": -1}),
        config_case({"adam_linear_steps": -1}),
        config_case({"forest_n_trees": 0}, "forest_n_trees must be >= 1, got 0"),
        config_case({"forest_max_depth": -1}, "forest_max_depth must be >= 0, got -1"),
        config_case({"jitter_copies": -1}, "jitter_copies must be >= 0, got -1"),
        config_case({"lr_initial": 0}, "lr_initial must be > 0, got 0"),
        config_case({"lr_initial": float("nan")}, "lr_initial must be finite, got nan"),
        config_case({"lr_initial": float("inf")}, "lr_initial must be finite, got inf"),
        config_case({"target": "motor"}),
        config_case({"regressors": ("age", "age"), "protected_regressors": (), "rfe_k": 1}),
        config_case({"rfe_k": 1, "protected_regressors": ("motor_UPDRS", "age")},
                    "protected_regressors names 2 features, more than rfe_k=1 can keep"),
    ])
    def test_bad_values_rejected_before_reading(self, tmp_path, override, match):
        config = RunConfig(dataset=str(tmp_path / "absent.csv"), **override)
        with pytest.raises(UsageFault, match=match) as caught:
            run_experiment(config)
        assert not isinstance(caught.value, OSError)

    def test_repeated_protected_regressor_counts_once(self):
        # rfe_select protects distinct columns, so a repeat takes no extra slot
        RunConfig(rfe_k=1, protected_regressors=("motor_UPDRS", "motor_UPDRS")).validate()

    @pytest.mark.parametrize("key, value", [
        ("lstm_units", "abc"),
        ("lstm_units", 4.5),
        ("epochs", True),
        ("group_by_subject", 1),
        ("dataset", 123),
        ("regressors", "age"),
        ("dense_widths", [4, "8"]),
        ("subsample_rows", "all"),
    ])
    def test_wrong_types_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
            config_from_dict({"dataset": "x.csv", key: value})

    @pytest.mark.parametrize("key, value", [("lr_initial", 1), ("lr_initial", 2 ** 53 + 1),
                                            ("test_fraction", 0.25)])
    def test_a_float_key_stores_a_float(self, key, value):
        stored = getattr(config_from_dict({"dataset": "x.csv", "lr_initial": 0.5,
                                           "test_fraction": 0.5, key: value}), key)
        assert type(stored) is float and stored == float(value)

    def test_an_integer_too_large_for_a_float_key_is_refused(self):
        with pytest.raises(ConfigError, match="config key 'lr_initial' is too large for a float"):
            config_from_dict({"dataset": "x.csv", "lr_initial": 10 ** 400})

    def test_stage_parameters_follow_config(self):
        config = config_from_dict({
            "dataset": "x.csv", "forest_n_trees": 7, "forest_max_depth": 3,
            "jitter_copies": 3, "lr_initial": 0.02,
            "epochs": 9, "patience": 4, "adam_linear_steps": 11,
            "regressors": ["age", "sex", "motor_UPDRS"], "rfe_k": 2,
        })
        forest = config.forest_params()
        assert (forest.n_trees, forest.max_depth) == (7, 3)
        assert config.protected_indices() == [2]
        settings = config.train_settings()
        assert (settings.epochs, settings.patience) == (9, 4)
        assert settings.lr_initial == 0.02
        spec = config.baseline_spec("ridge")
        assert (spec.method, spec.adam_steps) == ("ridge", 11)
        assert spec.lr_initial == 0.02

    @pytest.mark.parametrize("stage, build", [
        ("ForestParams", lambda config: config.forest_params()),
        ("TrainSettings", lambda config: config.train_settings()),
        ("BaselineSpec", lambda config: config.baseline_spec("lls")),
    ])
    def test_fields_a_builder_sets_have_no_default(self, monkeypatch, stage, build):
        # a default on such a field would be a second home for a RunConfig key
        cls = getattr(config_module, stage)
        passed = {}

        def recording(**kwargs):
            passed.update(kwargs)
            return cls(**kwargs)

        monkeypatch.setattr(config_module, stage, recording)
        build(RunConfig())
        assert passed
        defaulted = [f.name for f in dataclasses.fields(cls) if f.name in passed
                     and (f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING)]
        assert defaulted == []

    def test_network_shape_parameters_have_no_default(self):
        # RunConfig's lstm_units, attn_dim and dense_widths are their only home
        params = inspect.signature(init_model_params).parameters
        defaulted = [name for name in ("units", "attn_dim", "dense_widths")
                     if params[name].default is not inspect.Parameter.empty]
        assert defaulted == []
