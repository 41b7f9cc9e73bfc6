"""Command-line entry point.

Subcommands:

  inspect     row/subject counts and per-column statistics of a dataset
  select      run the forest-guided feature elimination, write its report
  train-eval  run the full cross-validated experiment, write all reports
  gradcheck   verify analytic gradients against finite differences

Configuration comes from a JSON file (--config), overridden by repeatable
--set KEY=VALUE flags, overridden in turn by the dedicated --seed/--out/
--jobs flags. The UPDRSPRED_DATASET environment variable supplies the
default dataset path. Exit codes: 0 success, 1 runtime or numeric failure,
2 usage, configuration, or schema failure.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import time
from pathlib import Path

import click

from .config import ENV_DATASET, RunConfig, config_from_dict, load_config, parse_override
from .dataset import (
    REQUIRED_COLUMNS,
    apply_standardizer,
    build_design,
    fit_standardizer,
    load_csv,
)
from .errors import RuntimeFault, UsageFault
from .evaluate import render_csv, render_mse_table, render_r2_table, run_experiment
from .linalg import RandomSource
from .nn import grad_check, random_gradcheck_model
from .rfe import rfe_select

GRADCHECK_MODELS = 20
GRADCHECK_TOLERANCE = 1e-5


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Turn a command's faults into an error line and exit code 1 or 2."""

    @functools.wraps(fn)
    def command(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except UsageFault as exc:
            _fail(str(exc), 2)
        except RuntimeFault as exc:
            _fail(str(exc), 1)
        except OSError as exc:
            _fail(str(exc), 2)

    return command


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON configuration file.")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Override one config key (repeatable).")
@click.option("--seed", type=int, default=None, help="Random seed override.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory override.")
@click.option("--jobs", type=int, default=None, help="Worker process cap.")
@click.pass_context
def main(ctx, config_path, overrides, seed, out_dir, jobs):
    ctx.ensure_object(dict)
    ctx.obj.update(config_path=config_path, overrides=overrides, seed=seed,
                   out_dir=out_dir, jobs=jobs)


def _build_config(ctx) -> RunConfig:
    """Merge the file, the overrides, the dedicated flags and the dataset
    default into one dict, in rising precedence, then validate it once."""
    opts = ctx.obj
    doc = load_config(opts["config_path"]) if opts["config_path"] else {}
    doc.update(parse_override(text) for text in opts["overrides"])
    doc.update((key, opts[key]) for key in ("seed", "out_dir", "jobs") if opts[key] is not None)
    if doc.get("dataset", "") == "":
        doc["dataset"] = os.environ.get(ENV_DATASET, "")
    config = config_from_dict(doc)
    if not config.dataset:
        raise UsageFault(
            f"no dataset given: set the dataset config key or {ENV_DATASET}"
        )
    return config


@contextlib.contextmanager
def _run_dir(config: RunConfig):
    """A new run directory for a command's work, removed if the work raises while it is empty.

    It is made before the work, so an unusable ``--out`` fails before a long
    elimination or experiment rather than after it.
    """
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(config.out_dir)
    base.mkdir(parents=True, exist_ok=True)
    name = f"run-{stamp}-seed{config.seed}"
    for suffix in itertools.count():
        run_dir = base / (f"{name}-{suffix}" if suffix else name)
        try:
            run_dir.mkdir()
        except FileExistsError:  # taken, perhaps by a concurrent run
            continue
        break
    try:
        yield run_dir
    except BaseException:
        if not any(run_dir.iterdir()):
            run_dir.rmdir()
        raise


@main.command()
@click.argument("dataset", type=click.Path())
@_guarded
def inspect(dataset):
    """Print row and subject counts plus per-column statistics."""
    ds = load_csv(dataset)
    click.echo(f"{len(ds)} records, {ds.n_subjects} subjects")
    header = f"{'column':<14} {'mean':>12} {'stddev':>12} {'min':>12} {'max':>12}"
    click.echo(header)
    for name in REQUIRED_COLUMNS[1:]:
        col = ds.column(name)
        click.echo(
            f"{name:<14} {col.mean():>12.5f} {col.std():>12.5f} "
            f"{col.min():>12.5f} {col.max():>12.5f}"
        )


@main.command()
@click.pass_context
@_guarded
def select(ctx):
    """Run recursive feature elimination and write its report."""
    config = _build_config(ctx)
    with _run_dir(config) as run_dir:
        ds = load_csv(config.dataset)
        X, y = build_design(ds, config.target, config.regressors)
        X = apply_standardizer(fit_standardizer(X, column_names=config.regressors), X)
        result = rfe_select(X, y, config.rfe_k, config.forest_params(),
                            RandomSource(config.seed), protected=config.protected_indices())
    (run_dir / "rfe_report.txt").write_text(result.to_report(config.regressors))
    (run_dir / "rfe_report.json").write_text(result.to_json(config.regressors) + "\n")
    click.echo(f"run directory: {run_dir}")
    click.echo(result.to_report(config.regressors), nl=False)


@main.command("train-eval")
@click.pass_context
@_guarded
def train_eval(ctx):
    """Run the cross-validated experiment and write all report files."""
    config = _build_config(ctx)
    with _run_dir(config) as run_dir:
        report = run_experiment(config)
    (run_dir / "report.json").write_text(report.to_structured() + "\n")
    (run_dir / "report.csv").write_text(render_csv(report))
    mse_table = render_mse_table(report)
    r2_table = render_r2_table(report)
    (run_dir / "mse_table.txt").write_text(mse_table)
    (run_dir / "r2_table.txt").write_text(r2_table)
    click.echo(f"run directory: {run_dir}")
    click.echo(mse_table, nl=False)
    click.echo("")
    click.echo(r2_table, nl=False)


@main.command()
@_guarded
def gradcheck():
    """Check analytic gradients against central finite differences."""
    worst_overall = 0.0
    block_worst: dict[str, float] = {}
    failures = []
    for seed in range(GRADCHECK_MODELS):
        params, X, y = random_gradcheck_model(seed)
        worst, per_block = grad_check(params, X, y, eps=1e-4)
        worst_overall = max(worst_overall, worst)
        for name, err in per_block.items():
            block_worst[name] = max(block_worst.get(name, 0.0), err)
        status = "ok" if worst < GRADCHECK_TOLERANCE else "FAIL"
        click.echo(f"model {seed:2d}: max relative error {worst:.3e} {status}")
        if status == "FAIL":  # a NaN is not below the tolerance either
            offenders = [n for n, e in per_block.items() if not e < GRADCHECK_TOLERANCE]
            failures.append((seed, offenders))
    click.echo("worst error per parameter block:")
    for name in sorted(block_worst, key=block_worst.get, reverse=True):
        click.echo(f"  {name:<16} {block_worst[name]:.3e}")
    click.echo(f"max relative error over {GRADCHECK_MODELS} models: "
               f"{worst_overall:.3e}")
    if failures:
        for seed, offenders in failures:
            click.echo(f"model {seed} failed in blocks: {', '.join(offenders)}",
                       err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
