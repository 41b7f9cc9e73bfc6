"""Telemonitoring CSV ingestion, standardization, splits, and sequence tensors.

The input is the UCI Parkinson's telemonitoring table: one row per voice
recording, identified columns for subject, demographics, the two UPDRS
scores, and 16 precomputed voice measurements. Columns are looked up by
header name, so files with reordered columns load fine.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateColumnError,
    EmptyInputError,
    ParameterError,
    ParseError,
    SchemaError,
    ShapeError,
)
from .linalg import RandomSource

VOICE_FEATURES = (
    "Jitter(%)",
    "Jitter(Abs)",
    "Jitter:RAP",
    "Jitter:PPQ5",
    "Jitter:DDP",
    "Shimmer",
    "Shimmer(dB)",
    "Shimmer:APQ3",
    "Shimmer:APQ5",
    "Shimmer:APQ11",
    "Shimmer:DDA",
    "NHR",
    "HNR",
    "RPDE",
    "DFA",
    "PPE",
)

REQUIRED_COLUMNS = (
    "subject#",
    "age",
    "sex",
    "test_time",
    "motor_UPDRS",
    "total_UPDRS",
) + VOICE_FEATURES

# Everything a total-UPDRS model may regress on by default: demographics,
# visit time, the motor subscale, and the 16 voice measures (20 columns).
DEFAULT_REGRESSORS = ("age", "sex", "test_time", "motor_UPDRS") + VOICE_FEATURES

TARGET_COLUMNS = {"total": "total_UPDRS", "motor": "motor_UPDRS"}


@dataclass(frozen=True)
class Dataset:
    columns: dict  # header name -> read-only array, one per required column
    feature_names: tuple  # column labels as they appeared in the file

    def __len__(self) -> int:
        return len(self.columns["subject#"])

    @property
    def n_subjects(self) -> int:
        return len(np.unique(self.columns["subject#"]))

    def column(self, name: str) -> np.ndarray:
        """Column by header name: float64, except int64 for subject#."""
        try:
            return self.columns[name]
        except KeyError:
            raise ConfigError(f"unknown column {name!r}") from None


@dataclass
class StandardizationStats:
    mean: np.ndarray
    stddev: np.ndarray


def _parse_cell(raw: str, column: str, row_number: int) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row_number}: column {column!r} has non-numeric value {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row_number}: column {column!r} is not finite ({raw!r})")
    return value


def load_csv(path) -> Dataset:
    """Parse the telemonitoring CSV, validating schema and every cell.

    Row numbers in errors count the header as row 1.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        positions = {}
        for i, name in enumerate(header):
            positions.setdefault(name, i)
        missing = [c for c in REQUIRED_COLUMNS if c not in positions]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {', '.join(repr(m) for m in missing)}")
        repeated = [c for c in REQUIRED_COLUMNS if header.count(c) > 1]
        if repeated:
            raise SchemaError(f"{path}: repeated column(s) {', '.join(repr(r) for r in repeated)}")

        cells = {name: [] for name in REQUIRED_COLUMNS}
        for row_number, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {row_number}: expected {len(header)} cells, got {len(row)}"
                )
            for name, values in cells.items():
                values.append(_parse_cell(row[positions[name]].strip(), name, row_number))
            sex_value = cells["sex"][-1]
            if sex_value not in (0.0, 1.0):
                raise ParseError(f"row {row_number}: column 'sex' must be 0 or 1, got {sex_value}")
            subject = cells["subject#"][-1]
            if not (subject.is_integer() and abs(subject) < 2**63):
                raise ParseError(
                    f"row {row_number}: column 'subject#' must be a whole number "
                    f"below 2**63 in magnitude, got {subject}"
                )
            cells["subject#"][-1] = int(subject)

    if not cells["subject#"]:
        raise EmptyInputError(f"{path}: no data rows")
    columns = {
        name: np.array(values, dtype=np.int64 if name == "subject#" else np.float64)
        for name, values in cells.items()
    }
    for array in columns.values():
        array.flags.writeable = False
    return Dataset(columns=columns, feature_names=tuple(header))


def check_design(target: str, regressors) -> None:
    """Reject a target or regressor list that no table can satisfy.

    ``target`` is "total" or "motor"; ``regressors`` names distinct
    schema columns other than ``subject#`` and the target's own column.
    """
    if target not in TARGET_COLUMNS:
        raise ConfigError(f"target must be one of {sorted(TARGET_COLUMNS)}, got {target!r}")
    target_column = TARGET_COLUMNS[target]
    if target_column in regressors:
        raise ConfigError(f"target column {target_column!r} cannot be a regressor")
    known = set(REQUIRED_COLUMNS) - {"subject#"}
    for name in regressors:
        if name not in known:
            raise ConfigError(f"unknown regressor {name!r}")
    if not regressors:
        raise ConfigError("regressor list is empty")
    if len(set(regressors)) != len(regressors):
        raise ConfigError("a regressor is listed more than once")


def build_design(dataset: Dataset, target: str, regressors) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (X, y): one row per record in file order.

    ``regressors`` is an ordered list of column names that become the
    columns of X; see :func:`check_design` for what is accepted.
    """
    regressors = list(regressors)
    check_design(target, regressors)
    X = np.column_stack([dataset.column(name) for name in regressors])
    y = dataset.column(TARGET_COLUMNS[target])
    return X, y


def fit_standardizer(X: np.ndarray, column_names=()) -> StandardizationStats:
    """Per-column mean/stddev (population) from training rows only."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D (rows, columns), got shape {X.shape}")
    if X.size == 0:
        raise EmptyInputError("cannot standardize an empty matrix")
    # compare values, not the spread: a constant column's std can round to
    # about 3e-16, which would scale a value 0.1 off the mean to about 3e14
    for j in np.flatnonzero(X.max(axis=0) == X.min(axis=0)):
        label = column_names[j] if j < len(column_names) else f"column {j}"
        raise DegenerateColumnError(f"{label} is constant; cannot standardize")
    return StandardizationStats(mean=X.mean(axis=0), stddev=X.std(axis=0))


def apply_standardizer(stats: StandardizationStats, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D (rows, columns), got shape {X.shape}")
    if X.shape[1] != stats.mean.shape[0]:
        raise ConfigError(
            f"standardizer fitted on {stats.mean.shape[0]} columns, got {X.shape[1]}"
        )
    return (X - stats.mean) / stats.stddev


def kfold_split(n: int, k: int, rng: RandomSource):
    """Shuffled k-fold split of 0..n-1.

    Validation sets are disjoint, cover every index, and differ in size by
    at most one (the first ``n % k`` folds get the extra element).
    """
    if k < 2 or k > n:
        raise ParameterError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    perm = rng.permutation(n)
    base = n // k
    extra = n % k
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        val = np.sort(perm[start : start + size])
        train = np.sort(np.concatenate([perm[:start], perm[start + size :]]))
        folds.append((train, val))
        start += size
    return folds


def _check_holdout_sides(test_fraction: float, n_trainval: int, n_test: int) -> None:
    # r2 on the test side needs two rows; the folds need a training side
    if n_test < 2 or n_trainval < 1:
        raise ParameterError(
            f"test_fraction={test_fraction} puts {n_test} row(s) on the test side and "
            f"{n_trainval} on the train/validation side; the test side needs at least 2 "
            f"and the train/validation side at least 1"
        )


def holdout_split(n: int, test_fraction: float, rng: RandomSource):
    """One shuffled train-and-validate / test partition of 0..n-1: the
    grouped split with one group per row."""
    return grouped_holdout_split(np.arange(n), test_fraction, rng)


def grouped_holdout_split(groups: np.ndarray, test_fraction: float, rng: RandomSource):
    """Holdout split that keeps whole groups on one side.

    Shuffled groups are assigned to the test side until its row count
    reaches ``round(n * test_fraction)``.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    groups = np.asarray(groups)
    unique, sizes = np.unique(groups, return_counts=True)
    order = rng.permutation(len(unique))
    target = int(round(len(groups) * test_fraction))
    test_groups = []
    total = 0
    for gi in order:
        if total >= target:
            break
        test_groups.append(unique[gi])
        total += int(sizes[gi])
    mask = np.isin(groups, test_groups)
    test = np.nonzero(mask)[0]
    trainval = np.nonzero(~mask)[0]
    _check_holdout_sides(test_fraction, len(trainval), len(test))
    return trainval, test


def grouped_kfold_split(groups: np.ndarray, k: int, rng: RandomSource):
    """K folds whose validation sets never split a group across folds."""
    groups = np.asarray(groups)
    n = len(groups)
    unique = np.unique(groups)
    if k < 2 or k > len(unique):
        raise ParameterError(f"k must satisfy 2 <= k <= number of groups, got k={k}")
    order = rng.permutation(len(unique))
    fold_rows = [[] for _ in range(k)]
    fold_sizes = [0] * k
    for gi in order:
        g = unique[gi]
        rows = np.nonzero(groups == g)[0]
        smallest = min(range(k), key=lambda i: (fold_sizes[i], i))
        fold_rows[smallest].append(rows)
        fold_sizes[smallest] += len(rows)
    folds = []
    everything = np.arange(n)
    for i in range(k):
        val = np.sort(np.concatenate(fold_rows[i])) if fold_rows[i] else np.array([], dtype=int)
        train = np.setdiff1d(everything, val)
        folds.append((train, val))
    return folds


def to_sequences(X: np.ndarray) -> np.ndarray:
    """Reshape (N, d) features into N pseudo-sequences of d steps of 1 value.

    Each selected feature of a recording becomes one timestep, in column
    order, so a recurrent model reads the feature vector as a sequence.
    Returns a new (N, d, 1) array.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise EmptyInputError("cannot build sequences from an empty matrix")
    n, d = X.shape
    return X.reshape(n, d, 1).copy()
