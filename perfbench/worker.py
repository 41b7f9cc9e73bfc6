"""One benchmark process, started by ``run.py``; prints one JSON line.

``setup``    generate the workload's table from its seed, write it, import
             the package and warm it up. ``run.py`` times the whole process.
``measure``  import and warm up (untimed), then run the ``train-eval``
             protocol on the table again and again until the time is up.
             Each protocol run is checked on its own, and a failed run is
             recorded without stopping the others.

With ``--trace 1`` the protocol runs alternate between untraced and traced,
so the two can be compared byte for byte and in wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import synth  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WARMUP_ROWS,
    WARMUP_SUBJECTS,
    WORKLOADS,
    config_doc,
)

clock = time.perf_counter
REPORT_FILES = ("report.json", "report.csv", "mse_table.txt", "r2_table.txt")
MIN_RUNS = 3
LLS_R2_FLOOR = 0.9  # the synthetic target is close to linear in its regressors
# The jitter and shimmer variants are near-collinear, and CG stops after
# 10 * (d + 1) iterations, so on small tables it trails LLS by up to ~2e-6
# in test R2. A broken solver misses by far more than this.
SOLVER_R2_TOLERANCE = 1e-4


def import_package(src: Path):
    """Import the package from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import updrspred
    from updrspred import config, evaluate, nn  # noqa: F401

    where = Path(updrspred.__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"updrspred imported from {where}, not from {src}")
    return updrspred


def machine_facts() -> dict:
    import os
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        pass
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": threads,
        "machine": platform.machine(),
    }


def write_reports(report, out_dir: Path) -> None:
    """Write the four report files exactly as ``updrspred train-eval`` does."""
    from updrspred.evaluate import render_csv, render_mse_table, render_r2_table

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_structured() + "\n")
    (out_dir / "report.csv").write_text(render_csv(report))
    (out_dir / "mse_table.txt").write_text(render_mse_table(report))
    (out_dir / "r2_table.txt").write_text(render_r2_table(report))


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, float):
        yield node


def check_outputs(out_dir: Path, rfe_k: int, invariant_checks: int) -> tuple[dict, list]:
    """The parsed report and a list of failed checks (empty when all pass)."""
    problems = []
    for name in REPORT_FILES:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"{name} missing or empty")
    doc = json.loads((out_dir / "report.json").read_text())
    metrics = {"folds": doc["folds"], "aggregate": doc["aggregate"]}
    if not all(math.isfinite(v) for v in _numbers(metrics)):
        problems.append("report.json holds a non-finite metric")
    for fold_no, fold in enumerate(doc["details"]["folds"]):
        if len(fold["selected_features"]) != rfe_k:
            problems.append(f"fold {fold_no} selected {len(fold['selected_features'])} "
                            f"features, not {rfe_k}")
    if invariant_checks <= 0:
        problems.append("no network invariant was checked")
    r2 = {name: doc["aggregate"][name]["test_r2"]["mean"] for name in doc["methods"]}
    if not r2["LLS"] >= LLS_R2_FLOOR:
        problems.append(f"LLS test R2 {r2['LLS']} below {LLS_R2_FLOOR}")
    if not abs(r2["Conjugate Gradient"] - r2["LLS"]) <= SOLVER_R2_TOLERANCE:
        problems.append("conjugate gradient and LLS disagree on test R2")
    return doc, problems


def run_protocol(config, out_dir: Path, tracer) -> dict:
    """One ``train-eval`` run: the experiment, then its four report files."""
    from updrspred import evaluate, nn

    nn.reset_invariant_counters()
    tracer.counters.clear()
    start = clock()
    with tracer.installed():
        with tracer.span("evaluate.run_experiment"):
            report = evaluate.run_experiment(config)
        with tracer.span("evaluate.render_write"):
            write_reports(report, out_dir)
    elapsed = clock() - start
    invariant_checks = sum(nn.INVARIANT_CHECKS.values())
    return {"train_eval_s": elapsed, "invariant_checks": invariant_checks}


def layer_metrics(tracer: Tracer, run_id: str, invariant_checks: int,
                  overhead_s: float) -> dict:
    """The per-layer metrics of one traced protocol run."""
    summary = tracer.layer_summary(run_id)
    spans, counts = summary["spans"], tracer.counters

    def total(name):
        return spans[name]["total_s"] if name in spans else 0.0

    def own(name):
        return spans[name]["self_s"] if name in spans else 0.0

    trees = spans.get("forest.fit_tree", {}).get("durations", [])
    epochs = counts["optimize.epochs_run"]
    out = {
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.rows_parsed": counts["dataset.rows_parsed"],
        "dataset.build_design_s": total("dataset.build_design"),
        "dataset.standardize_s": total("dataset.standardize"),
        "dataset.split_s": total("dataset.split"),
        "dataset.to_sequences_s": total("dataset.to_sequences"),
        "rfe.select_s": total("rfe.select"),
        "rfe.self_s": own("rfe.select"),
        "rfe.rounds": counts["rfe.rounds"],
        "forest.fit_forest_s": total("forest.fit_forest"),
        "forest.fit_tree_s_p50": statistics.median(trees) if trees else 0.0,
        "forest.trees": counts["forest.trees"],
        "forest.importance_s": total("forest.importance"),
        "augment.augment_s": total("augment.augment"),
        "augment.rows_out": counts["augment.rows_out"],
        "nn.forward_train_s": total("nn.forward_train"),
        "nn.backward_s": total("nn.backward"),
        "nn.commit_batchnorm_s": total("nn.commit_batchnorm"),
        "nn.forward_infer_s": total("nn.forward_infer"),
        "nn.forward_rows": counts["nn.forward_rows"],
        "nn.invariant_checks": invariant_checks,
        "optimize.train_network_s": total("optimize.train_network"),
        "optimize.train_self_s": own("optimize.train_network"),
        "optimize.adam_step_s": total("optimize.adam_step"),
        "optimize.adam_steps": counts["optimize.adam_steps"],
        "optimize.early_stop_update_s": total("optimize.early_stop_update"),
        "optimize.predict_network_s": total("optimize.predict_network"),
        "optimize.predict_rows": counts["optimize.predict_rows"],
        "optimize.epochs_run": epochs,
        "optimize.useful_epoch_ratio": counts["optimize.best_epochs"] / epochs if epochs else 0.0,
        "baselines.lls_fit_s": total("baselines.lls_fit"),
        "baselines.cg_fit_s": total("baselines.cg_fit"),
        "baselines.adam_linear_fit_s": total("baselines.adam_linear_fit"),
        "baselines.ridge_fit_s": total("baselines.ridge_fit"),
        "baselines.predict_s": total("baselines.predict"),
        "evaluate.fold_s": total("evaluate.fold"),
        "evaluate.self_s": own("evaluate.fold") + own("evaluate.run_experiment"),
        "evaluate.folds": spans.get("evaluate.fold", {}).get("calls", 0),
        "evaluate.render_write_s": total("evaluate.render_write"),
        "trace.overhead_s": overhead_s,
    }
    layers = summary["layers"]
    busy = sum(entry["self_s"] for entry in layers.values())
    for layer in LAYERS:
        share = layers[layer]["self_s"] / busy if busy > 0 else 0.0
        out[f"self_share.{layer}"] = 100.0 * share
    return out


def _load_config(workload, csv_path: Path, seed: int, warmup: bool = False):
    from updrspred.config import config_from_dict

    return config_from_dict(config_doc(workload, csv_path, seed, warmup=warmup))


def warm_up(workload, work_dir: Path, seed: int) -> None:
    """One protocol run on a small table, so imports, BLAS and allocator are warm."""
    path = work_dir / "warmup.csv"
    synth.write_table(path, WARMUP_ROWS, WARMUP_SUBJECTS, seed)
    run_protocol(_load_config(workload, path, seed, warmup=True), work_dir / "warmup",
                 Tracer(only=()))


def cmd_setup(args) -> dict:
    workload = WORKLOADS[args.workload]
    sha = synth.write_table(args.csv, workload.rows, workload.subjects, args.seed)
    import_package(Path(args.src))
    warm_up(workload, Path(args.work), args.seed)
    return {"sha256": sha, "machine": machine_facts()}


def cmd_measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    import_package(Path(args.src))
    work = Path(args.work)
    warm_up(workload, work, args.seed)
    config = _load_config(workload, Path(args.csv), args.seed)

    # untraced runs time train_network alone, for train_rows_per_s
    plain = Tracer(only=("evaluate.train_network",))
    full = Tracer()
    runs = []
    begin = clock()
    while len(runs) < MIN_RUNS or clock() - begin < args.seconds:
        if clock() - begin > args.hard_limit:
            break
        index = len(runs)
        traced = bool(args.trace) and index % 2 == 1
        tracer = full if traced else plain
        tracer.run_id = f"run-{index}"
        tracer.overhead_s = 0.0
        out_dir = work / tracer.run_id
        record = {"index": index, "traced": traced, "ok": False, "error": None}
        try:
            result = run_protocol(config, out_dir, tracer)
            doc, problems = check_outputs(out_dir, config.rfe_k, result["invariant_checks"])
            spans = tracer.layer_summary(tracer.run_id)["spans"]
            record.update(
                train_eval_s=result["train_eval_s"],
                train_network_s=spans["optimize.train_network"]["total_s"],
                train_rows=tracer.counters["optimize.train_rows"],
                sha256=hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest(),
                lstm_test_r2=doc["aggregate"]["LSTM-Attention"]["test_r2"]["mean"],
                lls_test_r2=doc["aggregate"]["LLS"]["test_r2"]["mean"],
                ok=not problems,
                error="; ".join(problems) or None,
            )
            if traced:
                record["layers"] = layer_metrics(tracer, tracer.run_id,
                                                 result["invariant_checks"],
                                                 tracer.overhead_s)
                record["layer_failures"] = {
                    layer: entry["failed"]
                    for layer, entry in tracer.layer_summary(tracer.run_id)["layers"].items()}
        except Exception:  # one failed run is recorded; the others still run
            record["error"] = traceback.format_exc(limit=5)
        runs.append(record)

    if args.trace:
        full.write(work / "spans.jsonl")
    return {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_targets": sorted(set(full.missing + plain.missing)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--hard-limit", type=float, default=120.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    Path(args.work).mkdir(parents=True, exist_ok=True)
    result = cmd_setup(args) if args.command == "setup" else cmd_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
