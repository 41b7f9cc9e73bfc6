"""The tracer leaves the package as it found it and does not change results."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import synth  # noqa: E402
import worker  # noqa: E402
from run import end_to_end, per_layer  # noqa: E402
from tracer import FUNCTION_TARGETS, LAYERS, METHOD_TARGETS, Tracer  # noqa: E402
from updrspred.config import config_from_dict  # noqa: E402
from workloads import WARMUP_ROWS, WARMUP_SUBJECTS, WORKLOADS, config_doc  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _owners_and_originals():
    found = []
    for module_name, path, *_ in FUNCTION_TARGETS + METHOD_TARGETS:
        owner = importlib.import_module(f"updrspred.{module_name}")
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        found.append((owner, attr, vars(owner)[attr]))
    return found


def _tiny_config(tmp_path, workload="rfe-forest"):
    path = tmp_path / "table.csv"
    synth.write_table(path, WARMUP_ROWS, WARMUP_SUBJECTS, seed=2)
    return config_from_dict(config_doc(WORKLOADS[workload], path, 2, warmup=True))


def test_every_target_exists_and_is_restored():
    before = _owners_and_originals()
    tracer = Tracer()
    with tracer.installed():
        assert not tracer.missing
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_originals_restored_after_a_failing_run(tmp_path):
    before = _owners_and_originals()
    config = _tiny_config(tmp_path)
    config.dataset = str(tmp_path / "missing.csv")
    with pytest.raises(OSError):
        worker.run_protocol(config, tmp_path / "out", Tracer())
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_report_equals_untraced_byte_for_byte(tmp_path, workload):
    config = _tiny_config(tmp_path, workload)
    worker.run_protocol(config, tmp_path / "plain", Tracer(only=()))
    tracer = Tracer()
    tracer.run_id = "traced"
    result = worker.run_protocol(config, tmp_path / "traced", tracer)
    for name in worker.REPORT_FILES:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    _, problems = worker.check_outputs(tmp_path / "traced", config.rfe_k,
                                       result["invariant_checks"])
    assert problems == []
    assert result["invariant_checks"] > 0
    assert tracer.overhead_s > 0


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.spans = [
        ["evaluate.fold", 0.0, 10.0, -1, "r", True],
        ["optimize.train_network", 1.0, 7.0, 0, "r", True],
        ["nn.backward", 2.0, 5.0, 1, "r", True],
        ["dataset.split", 8.0, 9.0, 0, "r", True],
    ]
    assert tracer.self_times() == [3.0, 3.0, 3.0, 1.0]
    layers = tracer.layer_summary("r")["layers"]
    assert sum(entry["self_s"] for entry in layers.values()) == 10.0
    assert layers["nn"]["self_s"] == 3.0


def test_benchmark_json_names_match_the_emitted_metrics(tmp_path):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]

    config = _tiny_config(tmp_path)
    tracer = Tracer()
    tracer.run_id = "r"
    result = worker.run_protocol(config, tmp_path / "out", tracer)
    layers = worker.layer_metrics(tracer, "r", result["invariant_checks"], tracer.overhead_s)
    assert {f"self_share.{layer}" for layer in LAYERS} <= set(layers)
    emitted = per_layer([{"ok": True, "traced": True, "layers": layers}])
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, (_, unit) in emitted.items()]

    run = {"ok": True, "traced": False, "train_eval_s": 1.0, "train_network_s": 0.5,
           "train_rows": 10.0, "lstm_test_r2": 0.5, "lls_test_r2": 0.9}
    metrics = end_to_end([0.1], {"peak_rss_mb": 50.0}, [run])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == {name: unit for name, (_, unit) in metrics.items()}
