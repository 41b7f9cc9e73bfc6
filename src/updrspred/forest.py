"""CART regression trees and a bagged forest with depth-based importance.

Trees split greedily on variance reduction and grow breadth-first on
presorted columns (SLIQ; Mehta, Agrawal & Rissanen, EDBT 1996). A tree
reads only each column's order: the forest ranks each column once, each
tree radix-sorts its bootstrap rows' ranks, one vectorized pass searches
every open node of a depth, and a node sends a row left when its value
is at most the left side's last one. The sorted row ids are then regrouped
stably by child, so each node sees its rows as a stable sort of that node
alone orders them, and the minimal split depths equal those of a builder
that sorts at every node. A split is scored on the sums of ``y`` alone,
and a node opens only when its ``y`` values differ. A tree's depths carve
their search blocks from one grow-only workspace.

A tree's output is its minimal-depth vector: for each feature, the depth
of the shallowest node that splits on it (Ishwaran et al., JASA 2010).
No thresholds or leaf values are kept, because nothing reads them. The
forest's feature ranking averages these depths over the trees that use
the feature: a feature splitting at mean minimal depth m scores
1 / (1 + m), with the root counting as depth 0 and never-used features
scoring 0. Shallow use means the feature partitions the data early,
which is the signal the elimination loop consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, ParameterError, ShapeError
from .linalg import RandomSource

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


def as_table(X, y):
    """``X`` as a (rows, features) table in its own dtype and ``y`` as floats, or ShapeError."""
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D (rows, features), got shape {X.shape}")
    if y.ndim != 1:
        raise ShapeError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    return X, y


class _LevelWorkspace:
    """A grow-only flat float buffer that one tree's depths share.

    Each depth carves its (node, feature, position) blocks from the front
    of this buffer. It is replaced only when a depth needs more than it
    holds, so a tree allocates its level blocks a few times rather than
    once per depth, and no depth faults in pages that the previous one
    handed back to the OS.
    """

    def __init__(self):
        self.floats = np.empty(0)

    def reserve(self, n_floats):
        """The buffer's first ``n_floats`` items, after growing it if it holds fewer."""
        if self.floats.size < n_floats:
            self.floats = None  # free the old buffer before the larger one
            self.floats = np.empty(n_floats)
        return self.floats[:n_floats]


def _level_splits(XT, y, order, sizes, totals, min_leaf, workspace):
    """Best (feature, last left value, gain) of every node of one depth at once.

    ``order[j]`` holds the nodes' row ids node after node, each node's ids
    sorted by column j, and ``totals`` holds each node's sum of ``y``. Each
    node's sorted ``y`` fills a zero-padded lane of a (node, feature,
    position) block, so prefix sums and scores are those of a search over
    that node alone. A split scores ``-c1²/n_l - r1²/n_r`` on its sides'
    sums of ``y``: the children's SSE less the node's sum of ``y²``, which
    no candidate changes. The blocks are views of the tree's ``workspace``,
    filled in place. A split lies between two distinct values and is
    returned as the left side's last one; gain ties go to the lowest
    feature, then the leftmost split.
    """
    K, d, N, m = len(sizes), XT.shape[0], order.shape[1], int(sizes.max())
    c1, score, term = workspace.reserve(3 * K * d * m).reshape(3, K, d, m)

    cols = np.arange(d)[:, None]
    starts = np.cumsum(sizes) - sizes
    node_of = np.repeat(np.arange(K), sizes)
    dest = node_of * (d * m) + np.arange(N) - starts[node_of] + cols * m
    values = XT[cols, order]
    # c1 holds the padded y until its prefix sums overwrite it
    c1.fill(0.0)
    c1.ravel()[dest] = y[order]
    np.cumsum(c1, axis=2, out=c1)
    left_n = np.arange(1, m + 1, dtype=np.float64)
    right_n = sizes[:, None, None] - left_n
    # c1 * (-c1) / left_n + right1 * (-right1) / right_n, in this order;
    # rounding is sign-symmetric, so x * (-x) / n == x * x / (-n)
    with np.errstate(divide="ignore", invalid="ignore"):  # padding past a node's end
        np.multiply(c1, c1, out=score)
        score /= -left_n
        np.subtract(totals[:, None, None], c1, out=term)  # right1
        np.multiply(term, term, out=term)
        term /= -right_n
        score += term
    # no split between equal values; the comparison across two nodes'
    # boundary lands on a node's last position, which the side rule covers
    score.ravel()[dest[:, :-1][values[:, :-1] == values[:, 1:]]] = np.inf
    # a side below min_leaf, which includes each node's last position and
    # the padding past it
    np.copyto(score, np.inf, where=np.minimum(left_n, right_n) < min_leaf)
    # scan feature-major so ties fall to the lowest feature index first
    score = score.reshape(K, d * m)
    flat = np.argmin(score, axis=1)
    feature, pos = np.divmod(flat, m)
    gain = -(totals * totals / sizes) - score[np.arange(K), flat]
    return feature, values[feature, starts + pos], gain


def fit_tree(X: np.ndarray, y: np.ndarray, params: ForestParams) -> np.ndarray:
    """Each feature's minimal split depth in one CART regression tree.

    Returns a (d,) int64 array: the depth of the shallowest node that splits
    on the feature, 0 for the root, or -1 where the feature never splits.
    Every split searches all features, and only each column's order counts.
    """
    X, y = as_table(X, y)
    if X.size == 0 or y.size == 0:
        raise EmptyInputError("cannot fit a tree on empty data")
    params.validate()
    (n, d), min_leaf = X.shape, params.min_samples_leaf
    XT, cols = np.ascontiguousarray(X.T), np.arange(d)[:, None]
    depths = np.full(d, -1, dtype=np.int64)
    order, workspace = np.argsort(XT, axis=1, kind="stable"), _LevelWorkspace()
    children = [np.arange(n)]
    for depth in range(params.max_depth):
        # a node opens when both sides can keep min_leaf rows and its y
        # values differ; its rows ascend, as in a depth-first builder, so
        # the sums round alike
        node_rows, totals = [], []
        for rows in children:
            if len(rows) >= 2 * min_leaf:
                y_node = y[rows]
                if y_node.max() > y_node.min():
                    node_rows.append(rows)
                    totals.append(y_node.sum())
        if not node_rows:
            break
        sizes = np.array([len(rows) for rows in node_rows])
        if depth > 0:
            # regroup each column's sorted ids by open node with one stable
            # sort of small-int (column, node) keys; rows of closed nodes
            # sort after the open ones in every column and are cut off
            slots = len(node_rows) + 1
            child = np.full(n, slots - 1, dtype=np.min_scalar_type(d * slots))
            for i, rows in enumerate(node_rows):
                child[rows] = i
            keys = child[order] + (cols * slots).astype(child.dtype)
            order = order.ravel()[np.argsort(keys.ravel(), kind="stable")].reshape(d, -1)
            order = order[:, :sizes.sum()]
        feature, last_left, gain = _level_splits(XT, y, order, sizes, np.array(totals),
                                                 min_leaf, workspace)
        split = gain > 0.0
        # breadth-first, so a feature's first recorded depth is its minimum
        used = feature[split]
        depths[used[depths[used] < 0]] = depth
        # side 2k / 2k + 1 holds node k's left / right rows; a stable sort
        # keeps each side's rows ascending
        node_of = np.repeat(np.arange(len(node_rows)), sizes)
        rows = np.concatenate(node_rows)
        side = 2 * node_of + ~(XT[feature[node_of], rows] <= last_left[node_of])
        ends = [0] + np.cumsum(np.bincount(side, minlength=2 * len(node_rows))).tolist()
        rows = rows[np.argsort(side, kind="stable")]
        children = [rows[ends[s]:ends[s + 1]]
                    for k in np.flatnonzero(split) for s in (2 * k, 2 * k + 1)]
    return depths


def fit_forest(
    X: np.ndarray, y: np.ndarray, params: ForestParams, rng: RandomSource
) -> np.ndarray:
    """Minimal split depths of ``n_trees`` trees, one per bootstrap resample.

    Returns an (n_trees, d) int64 array whose row t is tree t's
    :func:`fit_tree` output on its bootstrap rows of ``X``'s dense column
    ranks, which order the rows as the values do. Per-tree seeds are all
    derived from ``rng`` up front, so a parallel implementation fitting
    trees out of order would produce the identical forest.
    """
    X, y = as_table(X, y)
    if X.size == 0 or y.size == 0:
        raise EmptyInputError("cannot fit a forest on empty data")
    params.validate()
    tree_rngs = [rng.spawn() for _ in range(params.n_trees)]
    n, d = X.shape
    ranks = np.empty((n, d), dtype=np.min_scalar_type(n - 1))
    for j in range(d):
        ranks[:, j] = np.unique(X[:, j], return_inverse=True)[1]
    draws = (tree_rng.integers(n, n) for tree_rng in tree_rngs)
    return np.stack([fit_tree(ranks[rows], y[rows], params) for rows in draws])


def feature_importance(depths: np.ndarray) -> np.ndarray:
    """Score features by 1 / (1 + mean minimal split depth).

    ``depths`` is :func:`fit_forest`'s (n_trees, d) array. The mean runs
    over the trees in which the feature splits at all; features used by no
    tree score exactly 0.
    """
    used = depths >= 0
    depth_sum = np.where(used, depths, 0).sum(axis=0)
    used_in = used.sum(axis=0)
    importance = np.zeros(depths.shape[1])
    seen = used_in > 0
    importance[seen] = 1.0 / (1.0 + depth_sum[seen] / used_in[seen])
    return importance
