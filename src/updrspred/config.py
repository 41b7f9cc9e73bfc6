"""Run configuration: one flat, serializable bag of knobs.

Defaults follow the experimental setup this pipeline reproduces where that
setup is explicit (100 LSTM units, 0.3 dropout, learning rate 0.001
decaying by 0.9 every 10,000 steps, 5 folds) and documented house choices
everywhere else. Unknown keys are rejected rather than ignored so a typo
cannot silently fall back to a default. The pipeline stages take their
parameter objects from the ``RunConfig`` methods below, the one place that
maps knobs to stages.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

from .augment import JitterConfig
from .baselines import BaselineSpec
from .dataset import DEFAULT_REGRESSORS
from .errors import ConfigError
from .forest import ForestParams
from .optimize import LrSchedule, TrainSettings

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
    forest_min_samples_leaf: int = 5
    forest_bootstrap: bool = True

    # jitter augmentation
    jitter_sigma_scale: float = 0.01
    jitter_copies: int = 1
    augment_baselines: bool = False

    # network
    lstm_units: int = 100
    attn_dim: int = 64
    dense_widths: tuple = (64, 32)
    dropout_rate: float = 0.3
    l2: float = 1e-4
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5

    # optimization
    lr_initial: float = 0.001
    lr_decay_factor: float = 0.9
    lr_decay_steps: int = 10_000
    lr_staircase: bool = True
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 200
    batch_size: int = 64
    patience: int = 15
    min_delta: float = 1e-4

    # baseline solvers
    ridge_lambda: float = 1.0
    cg_tol: float = 1e-10
    cg_max_iter_per_dim: int = 10
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
        if self.target not in ("total", "motor"):
            raise ConfigError(f"target must be 'total' or 'motor', got {self.target!r}")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.rfe_k < 1 or self.rfe_k > len(self.regressors):
            raise ConfigError(
                f"rfe_k must lie in 1..{len(self.regressors)}, got {self.rfe_k}"
            )
        if self.epochs < 1 or self.batch_size < 2:
            raise ConfigError("epochs must be >= 1 and batch_size >= 2")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if len(self.dense_widths) != 2:
            raise ConfigError("dense_widths must name exactly two hidden layer widths")
        for name in self.protected_regressors:
            if name not in self.regressors:
                raise ConfigError(f"protected regressor {name!r} is not a regressor")
        if self.subsample_rows is not None and self.subsample_rows < 10:
            raise ConfigError("subsample_rows must be >= 10 when set")

    # parameter objects of the pipeline stages

    def forest_params(self) -> ForestParams:
        return ForestParams(
            n_trees=self.forest_n_trees,
            max_depth=self.forest_max_depth,
            min_samples_leaf=self.forest_min_samples_leaf,
            bootstrap=self.forest_bootstrap,
        )

    def protected_indices(self) -> list:
        """Column indices of ``protected_regressors`` within ``regressors``."""
        return [self.regressors.index(name) for name in self.protected_regressors]

    def jitter_config(self) -> JitterConfig:
        return JitterConfig(sigma_scale=self.jitter_sigma_scale, copies=self.jitter_copies)

    def lr_schedule(self) -> LrSchedule:
        return LrSchedule(
            initial=self.lr_initial,
            decay_factor=self.lr_decay_factor,
            decay_steps=self.lr_decay_steps,
            staircase=self.lr_staircase,
        )

    def train_settings(self) -> TrainSettings:
        return TrainSettings(
            epochs=self.epochs,
            batch_size=self.batch_size,
            schedule=self.lr_schedule(),
            beta1=self.adam_beta1,
            beta2=self.adam_beta2,
            adam_eps=self.adam_eps,
            patience=self.patience,
            min_delta=self.min_delta,
        )

    def baseline_spec(self, method: str) -> BaselineSpec:
        return BaselineSpec(
            method=method,
            ridge_lambda=self.ridge_lambda,
            cg_tol=self.cg_tol,
            cg_max_iter_per_dim=self.cg_max_iter_per_dim,
            adam_steps=self.adam_linear_steps,
            adam_schedule=self.lr_schedule(),
        )

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["regressors"] = list(self.regressors)
        doc["protected_regressors"] = list(self.protected_regressors)
        doc["dense_widths"] = list(self.dense_widths)
        return doc


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}
_TUPLE_FIELDS = ("regressors", "protected_regressors", "dense_widths")


def config_from_dict(doc: dict) -> RunConfig:
    unknown = sorted(set(doc) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs = dict(doc)
    for name in _TUPLE_FIELDS:
        if name in kwargs:
            if not isinstance(kwargs[name], (list, tuple)):
                raise ConfigError(f"config key {name!r} must be a list")
            kwargs[name] = tuple(kwargs[name])
    config = RunConfig(**kwargs)
    config.validate()
    return config


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(doc)


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
    except json.JSONDecodeError:
        value = raw  # bare strings (paths, column names) stay strings
    return key, value
