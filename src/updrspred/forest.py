"""CART regression trees and a bagged forest with depth-based importance.

Trees split greedily on variance reduction and grow breadth-first on
presorted columns (SLIQ; Mehta, Agrawal & Rissanen, EDBT 1996): each
column is sorted once per tree, one vectorized pass searches every open
node of a depth, and the sorted row ids are then regrouped stably by
child. Each node thus sees its rows as a stable sort of that node alone
orders them, so the trees equal, bit for bit, those of a builder that
sorts at every node. A tree's depths carve their search blocks from one
grow-only workspace, so growing a tree does not allocate, free and fault
in those blocks again at every depth.

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


def as_table(X, y):
    """``X`` as a float (rows, features) table and ``y`` as one float per row, or ShapeError."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D (rows, features), got shape {X.shape}")
    if y.ndim != 1:
        raise ShapeError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    return X, y


class _LevelWorkspace:
    """Grow-only flat float and bool buffers that one tree's depths share.

    Each depth carves its (node, feature, position) blocks from the front
    of these buffers. A buffer is replaced only when a depth needs more
    than it holds, so a tree allocates its level blocks a few times rather
    than once per depth, and no depth faults in pages that the previous
    one handed back to the OS.
    """

    def __init__(self):
        self.floats = np.empty(0)
        self.flags = np.empty(0, dtype=bool)

    def reserve(self, n_floats, n_flags):
        """The two buffers, each first grown if it holds fewer items than asked."""
        if self.floats.size < n_floats:
            self.floats = None  # free the old buffer before the larger one
            self.floats = np.empty(n_floats)
        if self.flags.size < n_flags:
            self.flags = None
            self.flags = np.empty(n_flags, dtype=bool)
        return self.floats, self.flags


def _level_splits(XT, y, order, sizes, total1, total2, min_leaf, workspace):
    """Best (feature, threshold, gain) of every node of one depth at once.

    ``order[j]`` holds the nodes' row ids node after node, each node's ids
    sorted by column j. Each node's sorted ``y`` fills a zero-padded lane
    of a (node, feature, position) block, so prefix sums and SSEs are those
    of a search over that node alone. The blocks are views of the tree's
    ``workspace``, filled in place. Thresholds are midpoints between
    consecutive distinct values; gain ties go to the lowest feature, then
    the lowest threshold.
    """
    K, d, N, m = len(sizes), XT.shape[0], order.shape[1], int(sizes.max())
    cells = K * d * m
    floats, flags = workspace.reserve(4 * cells, 2 * cells)
    blocks = floats[:4 * cells].reshape(4, K, d, m)
    c1, c2, sse, term = blocks
    distinct, illegal = flags[:2 * cells].reshape(2, K, d, m)

    cols = np.arange(d)[:, None]
    starts = np.cumsum(sizes) - sizes
    node_of = np.repeat(np.arange(K), sizes)
    dest = node_of * (d * m) + np.arange(N) - starts[node_of] + cols * m
    values = XT[cols, order]
    # c1 and c2 hold the padded y and y² until their prefix sums overwrite them
    c1.fill(0.0)
    c1.ravel()[dest] = y[order]
    np.multiply(c1, c1, out=c2)
    np.cumsum(blocks[:2], axis=3, out=blocks[:2])
    # a node's last position and those past it keep stale or cross-node
    # flags; a split there leaves fewer than min_leaf rows on the right
    distinct.ravel()[dest[:, :-1]] = values[:, :-1] < values[:, 1:]
    left_n = np.arange(1, m + 1, dtype=np.float64)
    right_n = sizes[:, None, None] - left_n
    # for bools, a <= b is ~a | b: not distinct, or a side below min_leaf
    np.less_equal(distinct, np.minimum(left_n, right_n) < min_leaf, out=illegal)
    t1, t2 = total1[:, None, None], total2[:, None, None]
    # c1 * (-c1) / left_n + c2 + right1 * (-right1) / right_n + (t2 - c2), in
    # this order; rounding is sign-symmetric, so x * (-x) / n == x * x / (-n)
    with np.errstate(divide="ignore", invalid="ignore"):  # padding past a node's end
        np.multiply(c1, c1, out=sse)
        sse /= -left_n
        sse += c2
        np.subtract(t1, c1, out=term)  # right1
        np.multiply(term, term, out=term)
        term /= -right_n
        sse += term
        np.subtract(t2, c2, out=term)
        sse += term
    np.putmask(sse, illegal, np.inf)
    # scan feature-major so ties fall to the lowest feature index first
    sse = sse.reshape(K, d * m)
    flat = np.argmin(sse, axis=1)
    feature, pos = np.divmod(flat, m)
    at = starts + pos
    threshold = (values[feature, at] + values[feature, at + 1]) / 2.0
    gain = total2 - total1 * total1 / sizes - sse[np.arange(K), flat]
    return feature, threshold, gain


def fit_tree(X: np.ndarray, y: np.ndarray, params: ForestParams) -> TreeNode:
    """Grow one CART regression tree; every split searches all features."""
    X, y = as_table(X, y)
    if X.size == 0 or y.size == 0:
        raise EmptyInputError("cannot fit a tree on empty data")
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

    open_nodes, workspace = [], _LevelWorkspace()
    root = make_node(np.arange(n), 0, open_nodes)
    order = np.argsort(XT, axis=1, kind="stable")
    depth = 0
    while open_nodes:
        nodes, node_rows, *totals = zip(*open_nodes)
        sizes = np.array([len(rows) for rows in node_rows])
        feature, threshold, gain = _level_splits(XT, y, order, sizes, *np.array(totals),
                                                min_leaf, workspace)
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
    X, y = as_table(X, y)
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
