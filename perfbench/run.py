"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload net-train --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout. It sets the workload up several times
in fresh processes and times each set-up, then starts one measuring
process that runs the whole ``train-eval`` protocol until ``--seconds``
have passed. With ``--trace 0`` the last line of standard output carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer ones.
The line before it is a human-readable summary, and the full result,
machine facts included, goes to ``perfbench/_work/<workload>/result.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s; keep a margin for the last step
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not measure anything: no result line is printed."""


def _worker(command: str, args, work: Path, env: dict, timeout: float,
            extra=()) -> dict:
    cmd = [sys.executable, str(WORKER), command, "--workload", args.workload,
           "--seed", str(args.seed), "--csv", str(work / "table.csv"),
           "--src", str(SRC), "--work", str(work), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{command} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{command} worker failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantiles(values) -> dict:
    """Median, the highest value and the count: too few samples for a
    percentile with ten samples beyond it, so the maximum stands in."""
    return {"p50": statistics.median(values), "max": max(values), "n": len(values)}


def end_to_end(setup_times, measured, runs) -> dict:
    ok = [r for r in runs if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    rates = [r["train_rows"] / r["train_network_s"] for r in plain if r["train_network_s"] > 0]
    first = ok[0] if ok else {}
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_eval_s": (statistics.median([r["train_eval_s"] for r in plain]) if plain else 0.0, "s"),
        "train_rows_per_s": (statistics.median(rates) if rates else 0.0, "rows/s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "ok_runs_share": (len(ok) / len(runs), "ratio"),
        "lstm_test_r2": (first.get("lstm_test_r2", 0.0), "R2"),
        "lls_test_r2": (first.get("lls_test_r2", 0.0), "R2"),
    }


def per_layer(runs) -> dict:
    traced = [r["layers"] for r in runs if r["ok"] and r["traced"]]
    if not traced:
        return {}
    out = {}
    for name in traced[0]:
        unit = ("s" if name.endswith("_s") or "_s_" in name
                else "%" if name.startswith("self_share.")
                else "ratio" if name.endswith("_ratio") else "count")
        out[name] = (statistics.median(t[name] for t in traced), unit)
    return out


def _layer_failures(runs) -> dict:
    """Failed spans per layer, summed over the traced runs."""
    out = {}
    for r in runs:
        for layer, count in r.get("layer_failures", {}).items():
            out[layer] = out.get(layer, 0) + count
    return out


def run(args) -> dict:
    began = time.monotonic()
    if not (SRC / "updrspred" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}; run from the root of a checkout")
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    for var in BLAS_THREAD_VARS:
        env[var] = str(args.blas_threads)

    setup_times, hashes = [], set()
    for _ in range(SETUPS):
        start = time.perf_counter()
        setup = _worker("setup", args, work, env, RUN_LIMIT_S - (time.monotonic() - began))
        setup_times.append(time.perf_counter() - start)
        hashes.add(setup["sha256"])

    remaining = RUN_LIMIT_S - (time.monotonic() - began)
    measured = _worker("measure", args, work, env, remaining, extra=(
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        # stop starting protocol runs early enough for the slowest to finish
        "--hard-limit", str(max(remaining - 60.0, 0.0))))
    runs = measured["runs"]

    problems = [f"run {r['index']}: {r['error']}" for r in runs if not r["ok"]]
    if len(hashes) != 1:
        problems.append("the same seed generated different tables")
    digests = {r["sha256"] for r in runs if r.get("sha256")}
    if len(digests) > 1:
        problems.append("report.json differs between runs of one seed"
                        + (" (traced against untraced)" if args.trace else ""))
    if measured["missing_targets"]:
        problems.append("trace targets missing: " + ", ".join(measured["missing_targets"]))
    metrics = end_to_end(setup_times, measured, runs) if not args.trace else per_layer(runs)
    if args.trace and not metrics:
        problems.append("no traced run completed")

    plain = [r["train_eval_s"] for r in runs if r["ok"] and not r["traced"]]
    traced = [r["train_eval_s"] for r in runs if r["ok"] and r["traced"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": setup["machine"],
        "blas_threads": args.blas_threads,
        "setup_s": quantiles(setup_times),
        "train_eval_s": quantiles(plain) if plain else None,
        "train_eval_traced_s": quantiles(traced) if traced else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layer_failures": _layer_failures(runs),
        "problems": problems,
        "runs": [{k: v for k, v in r.items() if k not in ("layers", "layer_failures")}
                 for r in runs],
        "wall_s": time.monotonic() - began,
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def summary_line(result) -> str:
    parts = [f"{result['workload']} seed={result['seed']} trace={result['trace']}"]
    for key in ("setup_s", "train_eval_s", "train_eval_traced_s"):
        q = result[key]
        if q:
            parts.append(f"{key} p50={q['p50']:.3f} max={q['max']:.3f} n={q['n']}")
    m = result["machine"]
    parts.append(f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
                 f"blas={m['blas_name']} {m['blas_version']} threads={result['blas_threads']}")
    if result["problems"]:
        parts.append("PROBLEMS: " + " | ".join(p.splitlines()[-1] for p in result["problems"]))
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS thread count for the measured processes (default 1)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    runs = result["runs"]
    failed = sum(1 for r in runs if not r["ok"])
    print(summary_line(result))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": len(runs),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
