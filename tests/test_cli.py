import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import updrspred.cli as cli_module
from updrspred import evaluate
from updrspred.cli import main
from updrspred.config import RunConfig, parse_override
from updrspred.dataset import DEFAULT_REGRESSORS
from updrspred.errors import NumericError, UsageFault


def run_cli(args, env=None):
    runner = CliRunner()
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def smoke_config_file(tmp_path, csv_path, **overrides):
    doc = dict(
        dataset=str(csv_path),
        k_folds=2,
        epochs=2,
        lstm_units=8,
        attn_dim=6,
        dense_widths=[12, 6],
        rfe_k=4,
        forest_n_trees=10,
        forest_max_depth=5,
        batch_size=16,
        adam_linear_steps=300,
        subsample_rows=150,
        seed=5,
        out_dir=str(tmp_path / "runs"),
    )
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def extract_run_dir(output: str) -> Path:
    for line in output.splitlines():
        if line.startswith("run directory:"):
            return Path(line.split(":", 1)[1].strip())
    raise AssertionError(f"no run directory line in output:\n{output}")


class TestInspect:
    def test_counts_and_stats(self, synthetic_csv):
        result = run_cli(["inspect", str(synthetic_csv)])
        assert result.exit_code == 0
        assert "240 records, 8 subjects" in result.output
        assert "total_UPDRS" in result.output

    def test_missing_file_exits_2(self, tmp_path):
        result = run_cli(["inspect", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_malformed_row_names_row_number(self, synthetic_csv, tmp_path):
        lines = synthetic_csv.read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = "maybe"
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        result = run_cli(["inspect", str(bad)])
        assert result.exit_code == 2
        assert "row 6" in result.output


    def test_undecodable_file_exits_2(self, synthetic_csv, tmp_path):
        bad = tmp_path / "latin.csv"
        bad.write_bytes(synthetic_csv.read_bytes().replace(b"\n", b"\xff\n", 2))
        result = run_cli(["inspect", str(bad)])
        assert result.exit_code == 2
        assert "latin.csv: not UTF-8 text" in result.output

class TestSelect:
    def test_writes_reports(self, synthetic_csv, tmp_path):
        config = smoke_config_file(tmp_path, synthetic_csv)
        result = run_cli(["--config", str(config), "select"])
        assert result.exit_code == 0, result.output
        run_dir = extract_run_dir(result.output)
        doc = json.loads((run_dir / "rfe_report.json").read_text())
        assert len(doc["selected"]) == 4
        assert len(doc["elimination_order"]) == 16
        assert (run_dir / "rfe_report.txt").exists()

    def test_k_equals_d_no_eliminations(self, synthetic_csv, tmp_path):
        config = smoke_config_file(tmp_path, synthetic_csv, rfe_k=20)
        result = run_cli(["--config", str(config), "select"])
        assert result.exit_code == 0
        run_dir = extract_run_dir(result.output)
        doc = json.loads((run_dir / "rfe_report.json").read_text())
        assert doc["elimination_order"] == []
        assert len(doc["selected"]) == 20

    def test_same_seed_identical_reports(self, synthetic_csv, tmp_path):
        config = smoke_config_file(tmp_path, synthetic_csv)
        first = run_cli(["--config", str(config), "select"])
        second = run_cli(["--config", str(config), "select"])
        d1 = extract_run_dir(first.output)
        d2 = extract_run_dir(second.output)
        assert (d1 / "rfe_report.json").read_bytes() == (d2 / "rfe_report.json").read_bytes()

    def test_out_under_a_file_exits_2_before_the_elimination(self, synthetic_csv, tmp_path,
                                                             monkeypatch):
        monkeypatch.setattr(cli_module, "rfe_select",
                            lambda *args, **kwargs: pytest.fail("the elimination ran"))
        config = smoke_config_file(tmp_path, synthetic_csv)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        before = sorted(tmp_path.iterdir())
        result = run_cli(["--config", str(config), "--out", str(taken / "runs"), "select"])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert taken.read_text() == "a file, not a directory\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_elimination_leaves_no_empty_run_directory(self, synthetic_csv, tmp_path,
                                                             monkeypatch):
        def fail(*args, **kwargs):
            assert len(list((tmp_path / "runs").iterdir())) == 1  # made before it ran
            raise NumericError("diverged")

        monkeypatch.setattr(cli_module, "rfe_select", fail)
        config = smoke_config_file(tmp_path, synthetic_csv)
        result = run_cli(["--config", str(config), "select"])
        assert result.exit_code == 1
        assert "diverged" in result.output
        assert list((tmp_path / "runs").iterdir()) == []


class TestTrainEval:
    def test_smoke_run_completes(self, synthetic_csv, tmp_path):
        config = smoke_config_file(tmp_path, synthetic_csv)
        result = run_cli(["--config", str(config), "train-eval"])
        assert result.exit_code == 0, result.output
        run_dir = extract_run_dir(result.output)
        for name in ("report.json", "report.csv", "mse_table.txt", "r2_table.txt"):
            assert (run_dir / name).exists(), name
        doc = json.loads((run_dir / "report.json").read_text())
        assert doc["methods"] == [
            "LLS", "Conjugate Gradient", "Adam optimization",
            "Ridge Regressions", "LSTM-Attention",
        ]
        table = (run_dir / "mse_table.txt").read_text()
        assert table.splitlines()[2].startswith("LLS")

    def test_byte_identical_reports_same_seed(self, synthetic_csv, tmp_path):
        config = smoke_config_file(tmp_path, synthetic_csv)
        first = run_cli(["--config", str(config), "train-eval"])
        second = run_cli(["--config", str(config), "train-eval"])
        assert first.exit_code == 0 and second.exit_code == 0
        d1 = extract_run_dir(first.output)
        d2 = extract_run_dir(second.output)
        for name in ("report.json", "report.csv", "mse_table.txt", "r2_table.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    @pytest.mark.parametrize("source", ["file", "set"])
    def test_a_whole_number_for_a_float_key_writes_the_float_report(self, synthetic_csv,
                                                                    tmp_path, source):
        # lr_initial 1 and 1.0 are one run, so they must write one report.json
        reports = []
        for text in ("1", "1.0"):
            value = {"lr_initial": json.loads(text)} if source == "file" else {}
            config = smoke_config_file(tmp_path, synthetic_csv, epochs=1, **value)
            flags = ["--set", f"lr_initial={text}"] if source == "set" else []
            result = run_cli(["--config", str(config), *flags, "train-eval"])
            assert result.exit_code == 0, result.output
            reports.append((extract_run_dir(result.output) / "report.json").read_bytes())
        assert b'"lr_initial": 1.0,' in reports[0]
        assert reports[0] == reports[1]

    def test_seed_flag_wins(self, synthetic_csv, tmp_path):
        config = smoke_config_file(tmp_path, synthetic_csv)
        a = run_cli(["--config", str(config), "--seed", "11", "train-eval"])
        b = run_cli(["--config", str(config), "--seed", "12", "train-eval"])
        ja = json.loads((extract_run_dir(a.output) / "report.json").read_text())
        jb = json.loads((extract_run_dir(b.output) / "report.json").read_text())
        assert ja["seed"] == 11 and jb["seed"] == 12
        assert ja["folds"] != jb["folds"]

    def test_unknown_config_key_exits_2(self, synthetic_csv, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": str(synthetic_csv), "optimizer": "sgd"}))
        result = run_cli(["--config", str(path), "train-eval"])
        assert result.exit_code == 2
        assert "unknown config key" in result.output

    @pytest.mark.parametrize("raw", ["NaN", "Infinity"])
    def test_non_finite_lr_initial_exits_2_before_reading(self, synthetic_csv, tmp_path,
                                                          monkeypatch, raw):
        monkeypatch.setattr(evaluate, "load_csv", lambda path: pytest.fail("data was read"))
        config = smoke_config_file(tmp_path, synthetic_csv)
        result = run_cli(["--config", str(config), "--set", f"lr_initial={raw}",
                          "train-eval"])
        assert result.exit_code == 2
        assert "lr_initial must be finite" in result.output
        assert not (tmp_path / "runs").exists()

    def test_out_that_is_a_file_exits_2_before_the_experiment(self, synthetic_csv, tmp_path,
                                                               monkeypatch):
        monkeypatch.setattr(cli_module, "run_experiment",
                            lambda config: pytest.fail("the experiment ran"))
        config = smoke_config_file(tmp_path, synthetic_csv)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        result = run_cli(["--config", str(config), "--out", str(taken), "train-eval"])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert taken.read_text() == "a file, not a directory\n"

    def test_failed_experiment_leaves_no_empty_run_directory(self, synthetic_csv, tmp_path,
                                                             monkeypatch):
        def fail(config):
            assert len(list((tmp_path / "runs").iterdir())) == 1  # made before it ran
            raise NumericError("diverged")

        monkeypatch.setattr(cli_module, "run_experiment", fail)
        config = smoke_config_file(tmp_path, synthetic_csv)
        result = run_cli(["--config", str(config), "train-eval"])
        assert result.exit_code == 1
        assert "diverged" in result.output
        assert list((tmp_path / "runs").iterdir()) == []

    def test_env_var_supplies_dataset(self, synthetic_csv, tmp_path):
        result = run_cli(
            ["--set", "k_folds=2", "--set", "epochs=1", "--set", "lstm_units=4",
             "--set", "attn_dim=3", "--set", "dense_widths=[6,4]",
             "--set", "rfe_k=3", "--set", "forest_n_trees=5",
             "--set", "forest_max_depth=4", "--set", "subsample_rows=120",
             "--set", "adam_linear_steps=100", "--set", "batch_size=16",
             "--out", str(tmp_path / "envruns"), "train-eval"],
            env={"UPDRSPRED_DATASET": str(synthetic_csv)},
        )
        assert result.exit_code == 0, result.output

    def test_missing_dataset_exits_2(self, tmp_path):
        result = run_cli(["--out", str(tmp_path), "train-eval"],
                         env={"UPDRSPRED_DATASET": ""})
        assert result.exit_code == 2
        assert "no dataset" in result.output


class TestConfigFile:
    def test_byte_order_mark_is_read(self, synthetic_csv, tmp_path):
        config = smoke_config_file(tmp_path, synthetic_csv)
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        result = run_cli(["--config", str(config), "select"])
        assert result.exit_code == 0, result.output
        doc = json.loads((extract_run_dir(result.output) / "rfe_report.json").read_text())
        assert len(doc["selected"]) == 4

    def test_undecodable_file_exits_2(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"dataset": "caf\xe9.csv"}')
        result = run_cli(["--config", str(path), "select"])
        assert result.exit_code == 2
        assert "latin.json: not UTF-8 text" in result.output

    def test_repeated_key_exits_2(self, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"dataset": "x.csv", "epochs": 200, "epochs": 2}')
        result = run_cli(["--config", str(path), "select"])
        assert result.exit_code == 2
        assert "config key 'epochs' is given more than once" in result.output

    def test_number_too_long_for_int_exits_2(self, tmp_path):
        # json reads a number past Python's int digit limit with a bare
        # ValueError, the parent of JSONDecodeError
        path = tmp_path / "long.json"
        path.write_text('{"dataset": "x.csv", "lr_initial": ' + "1" * 5000 + "}")
        result = run_cli(["--config", str(path), "select"])
        assert result.exit_code == 2
        assert "long.json: not valid JSON (Exceeds the limit" in result.output

    def test_overrides_apply_before_validation(self, synthetic_csv, tmp_path):
        # with the motor target, the default regressors hold the target's
        # own column; the file alone is refused, and --set mends it
        config = smoke_config_file(tmp_path, synthetic_csv, target="motor")
        refused = run_cli(["--config", str(config), "select"])
        assert refused.exit_code == 2
        assert "target column 'motor_UPDRS' cannot be a regressor" in refused.output
        regressors = [name for name in RunConfig().regressors if name != "motor_UPDRS"]
        result = run_cli(["--config", str(config), "--set", f"regressors={json.dumps(regressors)}",
                          "--set", "protected_regressors=[]", "select"])
        assert result.exit_code == 0, result.output
        doc = json.loads((extract_run_dir(result.output) / "rfe_report.json").read_text())
        assert len(doc["selected"]) == 4
        assert len(doc["elimination_order"]) == len(regressors) - 4


class TestGradcheck:
    def test_passes_and_reports(self):
        result = run_cli(["gradcheck"])
        assert result.exit_code == 0, result.output
        assert "max relative error over 20 models" in result.output
        assert "worst error per parameter block:" in result.output
        assert "fwd.w_forget" in result.output

    def test_detects_corruption(self, monkeypatch):
        import updrspred.cli as cli_module
        import updrspred.nn as nn_module

        original = nn_module.model_backward

        def corrupted(cache, target, p):
            loss, grad = original(cache, target, p)
            grad[nn_module.param_blocks(p)["bwd.w_output"]] = 0.0
            return loss, grad

        monkeypatch.setattr(nn_module, "model_backward", corrupted)
        monkeypatch.setattr(cli_module, "GRADCHECK_MODELS", 2)
        result = run_cli(["gradcheck"])
        assert result.exit_code == 1
        assert "bwd.w_output" in result.output

    def test_nan_gradient_exits_1(self, monkeypatch):
        import updrspred.nn as nn_module

        original = nn_module.model_backward

        def poisoned(cache, target, p):
            loss, grad = original(cache, target, p)
            grad[5] = np.nan
            return loss, grad

        monkeypatch.setattr(nn_module, "model_backward", poisoned)
        monkeypatch.setattr(cli_module, "GRADCHECK_MODELS", 1)
        result = run_cli(["gradcheck"])
        assert result.exit_code == 1
        assert "model  0: max relative error inf FAIL" in result.output

    def test_nan_worst_exits_1(self, monkeypatch):
        # a NaN is neither below nor at or above the tolerance
        monkeypatch.setattr(cli_module, "grad_check",
                            lambda *args, **kwargs: (float("nan"), {"fwd.w_forget": float("nan")}))
        monkeypatch.setattr(cli_module, "GRADCHECK_MODELS", 1)
        result = run_cli(["gradcheck"])
        assert result.exit_code == 1
        assert "model 0 failed in blocks: fwd.w_forget" in result.output


class TestImports:
    def test_the_process_pool_is_not_imported_with_the_cli(self):
        # it loads multiprocessing, which only a run with --jobs above 1 uses
        src = Path(cli_module.__file__).parents[1]
        code = "import sys, updrspred.cli; print('concurrent.futures.process' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert done.stdout == "False\n"


class TestSetOverride:
    @pytest.mark.parametrize("key", ["dataset", "target", "out_dir"])
    @pytest.mark.parametrize("text", ["2024", "1e3", "true", "null"])
    def test_string_key_keeps_text_that_is_no_json_string(self, key, text):
        assert parse_override(f"{key}={text}") == (key, text)

    def test_json_strings_and_other_keys_parse_as_json(self):
        assert parse_override('dataset="a b.csv"') == ("dataset", "a b.csv")
        assert parse_override("epochs=2") == ("epochs", 2)
        assert parse_override("lr_initial=1e3") == ("lr_initial", 1000.0)
        assert parse_override("subsample_rows=null") == ("subsample_rows", None)

    def test_number_too_long_for_int_is_refused_as_text(self, tmp_path):
        assert parse_override("lr_initial=" + "1" * 5000) == ("lr_initial", "1" * 5000)
        config = tmp_path / "config.json"
        config.write_text('{"dataset": "x.csv"}')
        result = run_cli(["--config", str(config), "--set", "lr_initial=" + "1" * 5000, "select"])
        assert result.exit_code == 2
        assert "config key 'lr_initial' must be a number, got '111" in result.output

    def test_numeric_out_dir_runs(self, synthetic_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = smoke_config_file(tmp_path, synthetic_csv)
        result = run_cli(["--config", str(config), "--set", "out_dir=2024", "select"])
        assert result.exit_code == 0, result.output
        assert extract_run_dir(result.output).parent == Path("2024")


# values a config file may hold for each RunConfig key, nearly all of them
# valid so that most examples build a config (the type and range refusals
# have their own tests); the strings include text that JSON reads as a
# number, a boolean or null
VALUES_BY_ANNOTATION = {
    "str": st.sampled_from(["2024", "1e3", "true", "null", "NaN", "[1]"]) | st.text(min_size=1),
    "int": st.integers(2, 20),
    "float": st.floats(0.01, 0.99),
    "bool": st.booleans(),
    "Optional[int]": st.none() | st.integers(10, 10**6),
}
VALUES_BY_KEY = {
    "target": st.just("total"),
    "regressors": st.permutations(DEFAULT_REGRESSORS),
    "protected_regressors": st.lists(st.sampled_from(DEFAULT_REGRESSORS), max_size=2),
    "dense_widths": st.lists(st.integers(1, 64), min_size=2, max_size=2),
}
CONFIG_DOCS = st.fixed_dictionaries({"dataset": VALUES_BY_ANNOTATION["str"]}, optional={
    field.name: VALUES_BY_KEY[field.name] if field.name in VALUES_BY_KEY
    else VALUES_BY_ANNOTATION[field.type]
    for field in dataclasses.fields(RunConfig) if field.name != "dataset"
})


def set_text(value, quote: bool) -> str:
    """``value`` as typed after ``--set KEY=``: a string as written, unless
    ``quote`` asks for JSON or the string holds a quote mark; anything else
    as JSON."""
    if isinstance(value, str) and not (quote or '"' in value):
        return value
    return json.dumps(value)


def build(**opts):
    """The CLI's merged RunConfig for ``opts``, or its fault's type and message."""
    try:
        return cli_module._build_config(SimpleNamespace(obj=dict(opts, seed=None, out_dir=None,
                                                                 jobs=None)))
    except UsageFault as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


class TestFileAndSetAgree:
    @settings(max_examples=300, deadline=None)
    @given(doc=CONFIG_DOCS, quote=st.booleans())
    def test_a_value_builds_one_config_from_either(self, config_path, doc, quote):
        config_path.write_text(json.dumps(doc))
        from_file = build(config_path=str(config_path), overrides=())
        overrides = tuple(f"{key}={set_text(value, quote)}" for key, value in doc.items())
        assert build(config_path=None, overrides=overrides) == from_file


class TestRunDirectory:
    def test_taken_name_moves_to_the_next_suffix(self, tmp_path, monkeypatch):
        # a concurrent run can take the name between a check and mkdir;
        # Path.exists answering False stands in for that run
        monkeypatch.setattr(cli_module.time, "strftime", lambda fmt: "20260101-000000")
        monkeypatch.setattr(Path, "exists", lambda self: False)
        (tmp_path / "run-20260101-000000-seed3").mkdir()
        with cli_module._run_dir(RunConfig(dataset="x.csv", out_dir=str(tmp_path),
                                           seed=3)) as made:
            assert made == tmp_path / "run-20260101-000000-seed3-1"
        assert made.is_dir()
