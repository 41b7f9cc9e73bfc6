"""CART regression trees and a bagged forest with depth-based importance.

Trees split greedily on variance reduction. The forest's feature ranking
uses how shallow each feature's first split sits, averaged over the trees
that use it: a feature splitting at mean minimal depth m scores
1 / (1 + m), with the root counting as depth 0 and never-used features
scoring 0. Shallow use means the feature partitions the data early, which
is the signal the elimination loop consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyInputError, ParameterError, ShapeError
from .linalg import RandomSource

_VARIANCE_FLOOR = 1e-12


@dataclass
class ForestParams:
    # Every split searches all features: with per-node subsampling the
    # minimal split depth of a feature reflects sampling luck as much as
    # merit, which wrecks the ranking once few features remain.
    n_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 5
    bootstrap: bool = True

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ParameterError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 0:
            raise ParameterError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ParameterError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    prediction: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RegressionForest:
    trees: list
    n_features: int


def _best_split(X, y, rows, min_leaf):
    """Best (gain, feature, threshold) over all features, or None.

    Thresholds are midpoints between consecutive distinct sorted values.
    All columns are searched in one vectorized pass; exact gain ties
    resolve to the lowest feature index, then the lowest threshold (the
    argmin scans features in ascending order, positions within each).
    """
    y_node = y[rows]
    n = len(rows)
    total1 = y_node.sum()
    total2 = (y_node * y_node).sum()
    parent_sse = total2 - total1 * total1 / n
    if parent_sse <= _VARIANCE_FLOOR:
        return None

    values = X[rows]
    order = np.argsort(values, axis=0, kind="stable")
    sv = np.take_along_axis(values, order, axis=0)
    sy = y_node[order]
    c1 = np.cumsum(sy, axis=0)[:-1]
    c2 = np.cumsum(sy * sy, axis=0)[:-1]

    sizes = np.arange(1, n, dtype=np.float64)[:, None]
    legal = (sv[:-1] < sv[1:]) & (sizes >= min_leaf) & (n - sizes >= min_leaf)
    if not legal.any():
        return None
    right1 = total1 - c1
    sse = c1 * (-c1) / sizes + c2 + right1 * (-right1) / (n - sizes) + (total2 - c2)
    sse[~legal] = np.inf

    # scan feature-major so ties fall to the lowest feature index first
    flat = int(np.argmin(sse.T))
    col, pos = divmod(flat, sse.shape[0])
    gain = parent_sse - sse[pos, col]
    if not gain > 0.0:
        return None
    threshold = (sv[pos, col] + sv[pos + 1, col]) / 2.0
    return gain, col, float(threshold)


def _grow(X, y, rows, depth, params):
    node = TreeNode(prediction=float(y[rows].mean()))
    n = len(rows)
    if depth >= params.max_depth or n < 2 * params.min_samples_leaf:
        return node
    best = _best_split(X, y, rows, params.min_samples_leaf)
    if best is None:
        return node
    _, node.feature, node.threshold = best
    mask = X[rows, node.feature] <= node.threshold
    node.left = _grow(X, y, rows[mask], depth + 1, params)
    node.right = _grow(X, y, rows[~mask], depth + 1, params)
    return node


def fit_tree(X: np.ndarray, y: np.ndarray, params: ForestParams) -> TreeNode:
    """Grow one CART regression tree; every split searches all features."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.size == 0 or y.size == 0:
        raise EmptyInputError("cannot fit a tree on empty data")
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    params.validate()
    return _grow(X, y, np.arange(X.shape[0]), 0, params)


def fit_forest(
    X: np.ndarray, y: np.ndarray, params: ForestParams, rng: RandomSource
) -> RegressionForest:
    """Fit ``n_trees`` trees, each on its own bootstrap resample.

    Per-tree seeds are all derived from ``rng`` up front, so a parallel
    implementation fitting trees out of order would produce the identical
    forest.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.size == 0 or y.size == 0:
        raise EmptyInputError("cannot fit a forest on empty data")
    params.validate()
    tree_rngs = [rng.spawn() for _ in range(params.n_trees)]
    trees = []
    n = X.shape[0]
    for tree_rng in tree_rngs:
        rows = tree_rng.integers(n, n) if params.bootstrap else slice(None)
        trees.append(fit_tree(X[rows], y[rows], params))
    return RegressionForest(trees=trees, n_features=X.shape[1])


def predict_tree(tree: TreeNode, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        if node.is_leaf:
            out[rows] = node.prediction
            continue
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out


def _min_depths(tree: TreeNode, n_features: int) -> np.ndarray:
    depths = np.full(n_features, -1, dtype=np.int64)
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            continue
        if depths[node.feature] < 0 or depth < depths[node.feature]:
            depths[node.feature] = depth
        stack.append((node.left, depth + 1))
        stack.append((node.right, depth + 1))
    return depths


def feature_importance(forest: RegressionForest) -> np.ndarray:
    """Score features by 1 / (1 + mean minimal split depth).

    The mean runs over the trees in which the feature splits at all;
    features used by no tree score exactly 0.
    """
    d = forest.n_features
    depth_sum = np.zeros(d)
    used_in = np.zeros(d)
    for tree in forest.trees:
        depths = _min_depths(tree, d)
        mask = depths >= 0
        depth_sum[mask] += depths[mask]
        used_in[mask] += 1
    importance = np.zeros(d)
    seen = used_in > 0
    importance[seen] = 1.0 / (1.0 + depth_sum[seen] / used_in[seen])
    return importance
