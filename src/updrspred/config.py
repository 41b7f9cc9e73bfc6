"""Run configuration: one flat, serializable bag of the knobs a run varies.

Only settings that some run changes are keys here: the data, the
elimination and forest budget, the jitter copies, the network's widths,
the initial learning rate, the epoch, batch and patience budget, the
evaluation protocol and the run plumbing. Each key's default and range
check live here and nowhere else. Constants of the setup this pipeline
reproduces are stated once, in the stage that uses them: 0.3 dropout, the
L2 penalty and batch-norm epsilon in ``nn.init_model_params``, batch-norm
momentum in ``nn.BN_MOMENTUM``; the 0.9-per-10,000-steps decay in
``optimize.LR_DECAY_FACTOR`` and ``optimize.LR_DECAY_STEPS``; Adam's betas
and epsilon as class constants of ``optimize.Adam``; the early-stopping
``min_delta`` in ``optimize.TrainSettings``; the leaf size in
``forest.ForestParams``, whose forest always bootstraps; the noise scale in
``augment.SIGMA_SCALE``; the ridge penalty in ``baselines.BaselineSpec``;
and the CG tolerance and iteration cap in ``baselines.solve_cg``.

Unknown keys, including keys that earlier versions accepted, are rejected
rather than ignored so a typo cannot silently fall back to a default.
``validate`` checks every key before any data is read. The pipeline
stages take their parameter objects from the ``RunConfig`` methods below,
the one place that maps knobs to stages.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional

from .baselines import BaselineSpec
from .dataset import DEFAULT_REGRESSORS, check_design, utf8_lines
from .errors import ConfigError
from .forest import ForestParams
from .optimize import TrainSettings

ENV_DATASET = "UPDRSPRED_DATASET"


@dataclass
class RunConfig:
    # data
    dataset: str = ""
    target: str = "total"
    regressors: tuple = DEFAULT_REGRESSORS
    subsample_rows: Optional[int] = None

    # feature elimination
    rfe_k: int = 10
    protected_regressors: tuple = ("motor_UPDRS",)

    # forest estimator behind the elimination loop
    forest_n_trees: int = 100
    forest_max_depth: int = 12

    # jitter augmentation
    jitter_copies: int = 1
    augment_baselines: bool = False

    # network
    lstm_units: int = 100
    attn_dim: int = 64
    dense_widths: tuple = (64, 32)

    # optimization
    lr_initial: float = 0.001
    epochs: int = 200
    batch_size: int = 64
    patience: int = 15

    # baseline solvers
    adam_linear_steps: int = 5000

    # evaluation protocol
    k_folds: int = 5
    test_fraction: float = 0.2
    group_by_subject: bool = False

    # run plumbing
    seed: int = 0
    out_dir: str = "runs"
    jobs: int = 1

    def validate(self) -> None:
        check_design(self.target, self.regressors)
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.rfe_k < 1 or self.rfe_k > len(self.regressors):
            raise ConfigError(
                f"rfe_k must lie in 1..{len(self.regressors)}, got {self.rfe_k}"
            )
        if self.forest_n_trees < 1:
            raise ConfigError(f"forest_n_trees must be >= 1, got {self.forest_n_trees}")
        if self.forest_max_depth < 0:
            raise ConfigError(f"forest_max_depth must be >= 0, got {self.forest_max_depth}")
        if self.jitter_copies < 0:
            raise ConfigError(f"jitter_copies must be >= 0, got {self.jitter_copies}")
        if not math.isfinite(self.lr_initial):
            raise ConfigError(f"lr_initial must be finite, got {self.lr_initial}")
        if self.lr_initial <= 0:
            raise ConfigError(f"lr_initial must be > 0, got {self.lr_initial}")
        if self.epochs < 1 or self.batch_size < 2:
            raise ConfigError("epochs must be >= 1 and batch_size >= 2")
        if self.patience < 0 or self.adam_linear_steps < 0:
            raise ConfigError("patience and adam_linear_steps must be >= 0")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if len(self.dense_widths) != 2:
            raise ConfigError("dense_widths must name exactly two hidden layer widths")
        widths = (self.lstm_units, self.attn_dim, *self.dense_widths)
        if min(widths) < 1:
            raise ConfigError(
                f"lstm_units, attn_dim and dense_widths must be >= 1, got {widths}"
            )
        for name in self.protected_regressors:
            if name not in self.regressors:
                raise ConfigError(f"protected regressor {name!r} is not a regressor")
        n_protected = len(set(self.protected_regressors))
        if n_protected > self.rfe_k:
            raise ConfigError(f"protected_regressors names {n_protected} features, "
                              f"more than rfe_k={self.rfe_k} can keep")
        if self.subsample_rows is not None and self.subsample_rows < 10:
            raise ConfigError("subsample_rows must be >= 10 when set")

    # parameter objects of the pipeline stages

    def forest_params(self) -> ForestParams:
        return ForestParams(n_trees=self.forest_n_trees, max_depth=self.forest_max_depth)

    def protected_indices(self) -> list:
        """Column indices of ``protected_regressors`` within ``regressors``."""
        return [self.regressors.index(name) for name in self.protected_regressors]

    def train_settings(self) -> TrainSettings:
        return TrainSettings(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr_initial=self.lr_initial,
            patience=self.patience,
        )

    def baseline_spec(self, method: str) -> BaselineSpec:
        return BaselineSpec(
            method=method,
            adam_steps=self.adam_linear_steps,
            lr_initial=self.lr_initial,
        )


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# what a JSON value must be for each annotation; a boolean is never a number
_KINDS = {
    "str": ("a string", str),
    "int": ("an integer", int),
    "float": ("a number", (int, float)),
    "bool": ("true or false", bool),
    "Optional[int]": ("an integer or null", (int, type(None))),
    "tuple": ("a list", (list, tuple)),
}
_ITEM_TYPES = {"regressors": "str", "protected_regressors": "str", "dense_widths": "int"}


def _check_type(key: str, value, annotation: str) -> None:
    expected, kind = _KINDS[annotation]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def config_from_dict(doc: dict) -> RunConfig:
    unknown = sorted(set(doc) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs = dict(doc)
    for key, value in doc.items():
        _check_type(key, value, _FIELD_TYPES[key])
        if _FIELD_TYPES[key] == "float":  # stored as one, so 1 and 1.0 write one report
            try:
                kwargs[key] = float(value)
            except OverflowError:
                raise ConfigError(f"config key {key!r} is too large for a float") from None
    for key, item_type in _ITEM_TYPES.items():
        if key in kwargs:
            for item in kwargs[key]:
                _check_type(key, item, item_type)
            kwargs[key] = tuple(kwargs[key])
    config = RunConfig(**kwargs)
    config.validate()
    return config


def _refuse_repeats(pairs) -> dict:
    keys = [key for key, _ in pairs]
    repeated = [key for key in keys if keys.count(key) > 1]
    if repeated:
        raise ConfigError(f"config key {repeated[0]!r} is given more than once")
    return dict(pairs)


def load_config(path) -> dict:
    """The unvalidated JSON object in the UTF-8 file ``path``; a repeated key is refused."""
    try:
        doc = json.loads("".join(utf8_lines(path, ConfigError)),
                         object_pairs_hook=_refuse_repeats)
    # ValueError, JSONDecodeError's parent, is also what int() raises for a
    # number of more than sys.get_int_max_str_digits() digits
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def parse_override(text: str):
    """Parse one ``KEY=VALUE`` command-line override into (key, value)."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not KEY=VALUE")
    key, raw = text.split("=", 1)
    key = key.strip()
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        value = json.loads(raw)
    except ValueError:  # also a number too long for int()
        value = raw  # bare strings (paths, column names) stay strings
    # a string key takes text that is no JSON string, such as 2024 or null, as written
    if _FIELD_TYPES[key] == "str" and not isinstance(value, str):
        value = raw
    return key, value
