"""Telemonitoring CSV ingestion, standardization, splits, and sequence tensors.

The input is the UCI Parkinson's telemonitoring table: one row per voice
recording, identified columns for subject, demographics, the two UPDRS
scores, and 16 precomputed voice measurements. Columns are looked up by
header name, so files with reordered columns load fine.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

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
    # float() also reads PEP 515 underscores and non-ASCII digits, so a
    # mistyped "2_1" or "٢١" would load as 21.0
    try:
        if not raw.isascii() or "_" in raw:
            raise ValueError(raw)
        value = float(raw)
    except ValueError:
        raise ParseError(
            f"row {row_number}: column {column!r} has non-numeric value {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row_number}: column {column!r} is not finite ({raw!r})")
    return value


def utf8_lines(path, fault: type[Exception]):
    """The lines, endings kept, of the UTF-8 file ``path`` (a byte-order mark
    is skipped); a byte that is not UTF-8 raises ``fault`` naming ``path``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise fault(
                f"{path}: not UTF-8 text ({exc.reason}: byte 0x{exc.object[exc.start]:02x})"
            ) from None


def load_csv(path) -> Dataset:
    """Parse the telemonitoring CSV, validating schema and every cell.

    The file is UTF-8 text, with or without a byte-order mark. Row numbers
    in errors count the header as row 1.
    """
    with contextlib.closing(utf8_lines(path, ParseError)) as lines:
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        positions = {name: i for i, name in enumerate(header)}
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
            # the cell's exact value: a non-whole number can round to a whole
            # double (4503599627370497.5 to 4503599627370498.0). Decimal, unlike
            # Fraction, keeps an exponent such as 0e-999999999 symbolic.
            try:
                exact = Decimal(row[positions["subject#"]].strip())
            except InvalidOperation:  # an exponent beyond Decimal's range
                exact = None
            # from 2**53 on, distinct ids can parse to one double
            if not (subject.is_integer() and abs(subject) < 2**53 and exact == int(subject)):
                raise ParseError(
                    f"row {row_number}: column 'subject#' must be a whole number "
                    f"below 2**53 in magnitude, got {subject}"
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

    ``regressors`` is an ordered sequence of column names that become the
    columns of X; see :func:`check_design` for what is accepted.
    """
    check_design(target, regressors)
    X = np.column_stack([dataset.column(name) for name in regressors])
    y = dataset.column(TARGET_COLUMNS[target])
    return X, y


def fit_standardizer(X: np.ndarray, column_names=()) -> StandardizationStats:
    """Per-column mean/stddev (population) from training rows only."""
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
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D (rows, columns), got shape {X.shape}")
    if X.shape[1] != stats.mean.shape[0]:
        raise ConfigError(
            f"standardizer fitted on {stats.mean.shape[0]} columns, got {X.shape[1]}"
        )
    return (X - stats.mean) / stats.stddev


def _sides(labels: np.ndarray, key):
    """(rows labelled otherwise, rows labelled ``key``) as ascending indices."""
    hit = labels == key
    return np.flatnonzero(~hit), np.flatnonzero(hit)


def kfold_split(n: int, k: int, rng: RandomSource):
    """Shuffled k-fold split of 0..n-1.

    Validation sets are disjoint, cover every index, and differ in size by
    at most one (the first ``n % k`` folds get the extra element).
    """
    if k < 2 or k > n:
        raise ParameterError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    place = np.argsort(rng.permutation(n))  # each row's place in the shuffle
    # fold i takes the next n // k places, plus one for the first n % k folds
    fold = np.repeat(np.arange(k), n // k + (np.arange(k) < n % k))[place]
    return [_sides(fold, i) for i in range(k)]


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
    _, group_of_row, sizes = np.unique(groups, return_inverse=True, return_counts=True)
    order = rng.permutation(len(sizes))
    target = int(round(len(group_of_row) * test_fraction))
    # a shuffled group joins the test side while the rows before it fall short
    shuffled_sizes = sizes[order]
    in_test = np.cumsum(shuffled_sizes) - shuffled_sizes < target
    trainval, test = _sides(in_test[np.argsort(order)][group_of_row], True)
    # r2 on the test side needs two rows; the folds need a training side
    if len(test) < 2 or len(trainval) < 1:
        raise ParameterError(
            f"test_fraction={test_fraction} puts {len(test)} row(s) on the test side and "
            f"{len(trainval)} on the train/validation side; the test side needs at least 2 "
            f"and the train/validation side at least 1"
        )
    return trainval, test


def grouped_kfold_split(groups: np.ndarray, k: int, rng: RandomSource):
    """K folds whose validation sets never split a group across folds: each
    shuffled group joins the fold with the fewest rows, the first on a tie."""
    _, group_of_row, sizes = np.unique(groups, return_inverse=True, return_counts=True)
    if k < 2 or k > len(sizes):
        raise ParameterError(f"k must satisfy 2 <= k <= number of groups, got k={k}")
    order = rng.permutation(len(sizes))
    fold_of_group = np.empty(len(sizes), dtype=np.int64)
    fold_sizes = [0] * k
    for gi in order:
        smallest = fold_sizes.index(min(fold_sizes))
        fold_of_group[gi] = smallest
        fold_sizes[smallest] += sizes[gi]
    fold = fold_of_group[group_of_row]
    return [_sides(fold, i) for i in range(k)]


def to_sequences(X: np.ndarray) -> np.ndarray:
    """Reshape (N, d) features into N pseudo-sequences of d steps of 1 value.

    Each selected feature of a recording becomes one timestep, in column
    order, so a recurrent model reads the feature vector as a sequence.
    Returns a new (N, d, 1) array.
    """
    if X.size == 0:
        raise EmptyInputError("cannot build sequences from an empty matrix")
    n, d = X.shape
    return X.reshape(n, d, 1).copy()
