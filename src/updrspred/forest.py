"""CART regression trees and a bagged forest with depth-based importance.

Trees split greedily on variance reduction and grow breadth-first on
presorted columns (SLIQ; Mehta, Agrawal & Rissanen, EDBT 1996): each
column is sorted once per tree, one vectorized pass searches every open
node of a depth, and the sorted row ids are then regrouped stably by
child. Each node thus sees its rows as a stable sort of that node alone
orders them, so the trees equal, bit for bit, those of a builder that
sorts at every node.

The forest's feature ranking uses how shallow each feature's first split
sits, averaged over the trees that use it: a feature splitting at mean
minimal depth m scores 1 / (1 + m), with the root counting as depth 0 and
never-used features scoring 0. Shallow use means the feature partitions
the data early, which is the signal the elimination loop consumes.
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
    n_trees: int
    max_depth: int
    min_samples_leaf: int = 5

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


def _level_splits(XT, y, order, sizes, total1, total2, min_leaf):
    """Best (feature, threshold, gain) of every node of one depth at once.

    ``order[j]`` holds the nodes' row ids node after node, each node's ids
    sorted by column j. Each node's sorted ``y`` fills a zero-padded lane
    of a (node, feature, position) block, so prefix sums and SSEs are those
    of a search over that node alone. Thresholds are midpoints between
    consecutive distinct values; gain ties go to the lowest feature, then
    the lowest threshold.
    """
    K, d, N, m = len(sizes), XT.shape[0], order.shape[1], int(sizes.max())
    lo, w = min_leaf - 1, m - 2 * min_leaf + 1  # the positions min_leaf allows
    cols = np.arange(d)[:, None]
    starts = np.cumsum(sizes) - sizes
    node_of = np.repeat(np.arange(K), sizes)
    dest = (node_of * d + cols) * m + (np.arange(N) - starts[node_of])
    values = XT[cols, order]
    sy = np.zeros((2, K, d, m))
    sy[0].ravel()[dest] = y[order]
    sy[1] = sy[0] * sy[0]
    c1, c2 = np.cumsum(sy[..., :lo + w], axis=3)[..., lo:]
    distinct = np.zeros((K, d, m), dtype=bool)
    distinct.ravel()[dest[:, :-1]] = values[:, :-1] < values[:, 1:]
    n = sizes[:, None, None].astype(np.float64)
    left_n = np.arange(lo + 1, lo + w + 1, dtype=np.float64)
    legal = distinct[..., lo:lo + w] & (n - left_n >= min_leaf)
    t1, t2 = total1[:, None, None], total2[:, None, None]
    right1 = t1 - c1
    with np.errstate(divide="ignore", invalid="ignore"):  # padding past a node's end
        sse = c1 * (-c1) / left_n + c2 + right1 * (-right1) / (n - left_n) + (t2 - c2)
    # scan feature-major so ties fall to the lowest feature index first
    sse = np.where(legal, sse, np.inf).reshape(K, d * w)
    flat = np.argmin(sse, axis=1)
    feature, pos = np.divmod(flat, w)
    at = starts + lo + pos
    threshold = (values[feature, at] + values[feature, at + 1]) / 2.0
    gain = total2 - total1 * total1 / sizes - sse[np.arange(K), flat]
    return feature, threshold, gain


def fit_tree(X: np.ndarray, y: np.ndarray, params: ForestParams) -> TreeNode:
    """Grow one CART regression tree; every split searches all features."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.size == 0 or y.size == 0:
        raise EmptyInputError("cannot fit a tree on empty data")
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    params.validate()
    (n, d), min_leaf = X.shape, params.min_samples_leaf
    XT, cols = np.ascontiguousarray(X.T), np.arange(d)[:, None]

    def make_node(rows, depth, open_nodes):
        # ``rows`` ascend, as in a depth-first builder, so the sums round alike
        y_node = y[rows]
        total1 = y_node.sum()
        node = TreeNode(prediction=float(total1 / len(rows)))
        if depth < params.max_depth and len(rows) >= 2 * min_leaf:
            total2 = (y_node * y_node).sum()
            if total2 - total1 * total1 / len(rows) > _VARIANCE_FLOOR:
                open_nodes.append((node, rows, total1, total2))
        return node

    open_nodes = []
    root = make_node(np.arange(n), 0, open_nodes)
    order = np.argsort(XT, axis=1, kind="stable")
    depth = 0
    while open_nodes:
        nodes, node_rows, *totals = zip(*open_nodes)
        sizes = np.array([len(rows) for rows in node_rows])
        feature, threshold, gain = _level_splits(XT, y, order, sizes, *np.array(totals), min_leaf)
        depth += 1
        # side 2k / 2k + 1 holds node k's left / right rows; a stable sort
        # keeps each side's rows ascending
        node_of = np.repeat(np.arange(len(nodes)), sizes)
        rows = np.concatenate(node_rows)
        side = 2 * node_of + ~(XT[feature[node_of], rows] <= threshold[node_of])
        ends = [0] + np.cumsum(np.bincount(side, minlength=2 * len(nodes))).tolist()
        rows = rows[np.argsort(side, kind="stable")]
        open_nodes = []
        for k, node in enumerate(nodes):
            if gain[k] > 0.0:
                node.feature, node.threshold = int(feature[k]), float(threshold[k])
                node.left = make_node(rows[ends[2 * k]:ends[2 * k + 1]], depth, open_nodes)
                node.right = make_node(rows[ends[2 * k + 1]:ends[2 * k + 2]], depth, open_nodes)
        if not open_nodes:
            break
        # regroup each column's sorted ids by open node with one stable sort
        # of small-int (column, node) keys; rows of closed nodes sort after
        # the open ones in every column and are cut off
        slots = len(open_nodes) + 1
        child = np.full(n, slots - 1, dtype=np.min_scalar_type(d * slots))
        for i, (_, rows, _, _) in enumerate(open_nodes):
            child[rows] = i
        keys = child[order] + (cols * slots).astype(child.dtype)
        order = order.ravel()[np.argsort(keys.ravel(), kind="stable")].reshape(d, -1)
        order = order[:, :sum(len(rows) for _, rows, _, _ in open_nodes)]
    return root


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
        rows = tree_rng.integers(n, n)
        trees.append(fit_tree(X[rows], y[rows], params))
    return RegressionForest(trees=trees, n_features=X.shape[1])


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
