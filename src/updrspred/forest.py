"""CART regression trees and a bagged forest with depth-based importance.

Trees split greedily on variance reduction and grow breadth-first on
presorted columns (SLIQ; Mehta, Agrawal & Rissanen, EDBT 1996). A tree
reads only each column's order, so a table of dense column ranks
(:func:`dense_ranks`) fits the same trees as its values: ``rfe_select``
ranks its table once, and each tree radix-sorts its bootstrap rows'
ranks. One vectorized pass over a (feature, row) table then searches
every open node of a depth, with no padding and no Python loop over the
nodes. A node sends a row left when
its value is at most the left side's last one. The sorted row ids are
regrouped stably by child, so each node sees its rows as a stable sort of
that node alone orders them, and the minimal split depths equal those of
a builder that sorts at every node.

A split is scored on the sums of the target alone, and those sums are
exact: each tree turns its ``y`` into 64-bit fixed point once
(:func:`fixed_point`), and no sum of those integers rounds. So the sums
do not depend on the order they are taken in, equal sums give bit-equal
scores, gain ties go to the lowest feature and then the leftmost split,
and scaling ``y`` by a power of two changes no split. A node opens only
when its fixed-point targets differ.

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

from .errors import EmptyInputError, NumericError, ParameterError, ShapeError
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


def check_table(X: np.ndarray, y: np.ndarray) -> None:
    """Check that ``X`` is a (rows, features) table with one finite ``y`` per row.

    Raises ShapeError for misshapen operands and NumericError for a
    non-finite ``X`` or ``y``, before anything is fitted.
    """
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D (rows, features), got shape {X.shape}")
    if y.ndim != 1:
        raise ShapeError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            bad = np.count_nonzero(~np.isfinite(values))
            raise NumericError(
                f"{name} must be finite, but {bad} of its {values.size} values are not")


def dense_ranks(X: np.ndarray) -> np.ndarray:
    """Each column of ``X`` as its dense ranks, in the smallest unsigned dtype that holds them.

    The ranks order the rows as the values do, so a tree fitted on them
    splits as one fitted on ``X``.
    """
    n, d = X.shape
    ranks = np.empty((n, d), dtype=np.min_scalar_type(n - 1))
    for j in range(d):
        ranks[:, j] = np.unique(X[:, j], return_inverse=True)[1]
    return ranks


def fixed_point(y: np.ndarray) -> np.ndarray:
    """``y`` as int64 multiples of one power of two, so that its sums are exact.

    The scale puts ``max|y|`` at most ``2**61 / 2**b``, where ``2**b`` is
    at least ``len(y)``, so a sum over any of the rows, and the difference
    of two such sums, is an exact int64. The scale follows ``max|y|``'s
    binary exponent, so ``y * 2**s`` gives the same integers as ``y``
    whenever that product is exact, as it is short of the subnormal range.
    """
    _, exponent = np.frexp(np.abs(y).max())
    scale = 61 - int(exponent) - (len(y) - 1).bit_length()
    return np.rint(np.ldexp(y, scale)).astype(np.int64)


def _level_splits(q, order, values, sizes, min_leaf, scratch):
    """Each node's best split at one depth: (feature, position, taken).

    Row j of ``order`` and of ``values`` holds the row ids and the column-j
    values of the depth's nodes, node after node, each node's rows sorted
    by column j; ``sizes`` holds the nodes' row counts and ``q`` the
    tree's fixed-point targets. A split scores ``-c1²/n_l - r1²/n_r`` on
    its sides' exact sums ``c1`` and ``r1``: the children's SSE less the
    node's sum of ``y²``, which no candidate changes. It lies between two
    distinct values, leaves each side ``min_leaf`` rows or more, and gain
    ties go to the lowest feature, then the leftmost split. ``position`` is
    the column index of the left side's last row; ``taken`` marks the nodes
    whose targets differ and whose best split gains. The two (d, N) float
    blocks are a view of the front of ``scratch``, the tree's flat block of
    at least ``2 * d * N`` floats, and are written before they are read.
    """
    (d, N), K = order.shape, len(sizes)
    starts = np.cumsum(sizes) - sizes
    node_of = np.repeat(np.arange(K), sizes)
    c1 = q[order]
    first = c1[0]
    differ = np.maximum.reduceat(first, starts) > np.minimum.reduceat(first, starts)
    totals = np.add.reduceat(first, starts)
    # one cumsum gives every node's own prefix sums once each node's first
    # row carries minus the previous node's total
    c1[:, starts[1:]] -= totals[:-1]
    np.cumsum(c1, axis=1, out=c1)
    left_n = np.arange(1.0, N + 1.0) - starts[node_of]
    right_n = sizes[node_of] - left_n
    # c1 * (-c1) / left_n + r1 * (-r1) / right_n in floats from the exact
    # sums; rounding is sign-symmetric, so x * (-x) / n == x * x / (-n).
    # r1 is 0 at a node's last row, where the side rule below rules it out
    score, term = scratch[:2 * d * N].reshape(2, d, N)
    score[...] = c1
    score *= score
    score /= -left_n
    np.subtract(totals[node_of], c1, out=c1)
    term[...] = c1
    term *= term
    term /= -np.maximum(right_n, 1.0)
    score += term
    # an illegal split scores 0, and a split gains only where it scores
    # below -(node total)²/n <= 0. None lies between equal values; the
    # comparison across two nodes' boundary lands on a node's last row,
    # which the side rule covers
    legal = np.empty((d, N), dtype=bool)
    np.not_equal(values[:, :-1], values[:, 1:], out=legal[:, :-1])
    legal[:, -1] = False
    legal &= np.minimum(left_n, right_n) >= min_leaf
    score *= legal
    # the lowest feature that reaches the node's minimum, then its first row
    lowest = np.minimum.reduceat(score, starts, axis=1)
    best = lowest.min(axis=0)
    feature = np.argmax(lowest == best, axis=0)
    hits = np.flatnonzero(score[feature[node_of], np.arange(N)] == best[node_of])
    position = hits[np.searchsorted(hits, starts)]
    totals = totals.astype(np.float64)
    gain = -(totals * totals / sizes) - best
    return feature, position, differ & (gain > 0.0)


def fit_tree(X: np.ndarray, y: np.ndarray, params: ForestParams) -> np.ndarray:
    """Each feature's minimal split depth in one CART regression tree.

    Returns a (d,) int64 array: the depth of the shallowest node that splits
    on the feature, 0 for the root, or -1 where the feature never splits.
    Every split searches all features, and only each column's order counts.
    No level holds more rows than the root, so one ``2 * d * n`` float block,
    allocated once, serves every depth's split scores.
    """
    check_table(X, y)
    if X.size == 0 or y.size == 0:
        raise EmptyInputError("cannot fit a tree on empty data")
    params.validate()
    (n, d), min_leaf = X.shape, params.min_samples_leaf
    depths = np.full(d, -1, dtype=np.int64)
    if n < 2 * min_leaf:
        return depths
    q, XT, cols = fixed_point(y), np.ascontiguousarray(X.T), np.arange(d)[:, None]
    order, scratch = np.argsort(XT, axis=1, kind="stable"), np.empty(2 * d * n)
    values, sizes = XT[cols, order], np.array([n])
    for depth in range(params.max_depth):
        feature, position, split = _level_splits(q, order, values, sizes, min_leaf, scratch)
        # breadth-first, so a feature's first recorded depth is its minimum
        used = feature[split]
        depths[used[depths[used] < 0]] = depth
        if depth + 1 == params.max_depth or not split.any():
            break
        # child 2k / 2k + 1 holds node k's left / right rows; a child opens
        # when its node split and it can keep min_leaf rows on both sides
        K, rows = len(sizes), order[0]
        node_of = np.repeat(np.arange(K), sizes)
        last_left = values[feature, position]
        child = 2 * node_of + (XT[feature[node_of], rows] > last_left[node_of])
        child_sizes = np.bincount(child, minlength=2 * K)
        opens = np.repeat(split, 2) & (child_sizes >= 2 * min_leaf)
        if not opens.any():
            break
        # regroup each column's sorted ids by open child with one stable
        # sort of small-int (column, child) keys; rows of closed children
        # take the last slot, sort after the open ones in every column and
        # are cut off
        slots = int(opens.sum()) + 1
        slot = np.where(opens, np.cumsum(opens) - 1, slots - 1).astype(
            np.min_scalar_type(d * slots))
        label = np.empty(n, dtype=slot.dtype)
        label[rows] = slot[child]
        keys = label[order] + (cols * slots).astype(slot.dtype)
        sizes = child_sizes[opens]
        regroup = np.argsort(keys.ravel(), kind="stable").reshape(d, -1)[:, :sizes.sum()]
        order, values = order.ravel()[regroup], values.ravel()[regroup]
    return depths


def fit_forest(
    X: np.ndarray, y: np.ndarray, params: ForestParams, rng: RandomSource
) -> np.ndarray:
    """Minimal split depths of ``n_trees`` trees, one per bootstrap resample.

    Returns an (n_trees, d) int64 array whose row t is tree t's
    :func:`fit_tree` output on its bootstrap rows of ``X``, which is handed
    on unchanged. A tree reads only each column's order, so ``X`` may be
    the values or their :func:`dense_ranks`; ``rfe_select`` passes the
    ranks, which it computes once for all its rounds. Per-tree seeds are
    all derived from ``rng`` up front, so a parallel implementation
    fitting trees out of order would produce the identical forest.
    """
    check_table(X, y)
    if X.size == 0 or y.size == 0:
        raise EmptyInputError("cannot fit a forest on empty data")
    params.validate()
    tree_rngs = [rng.spawn() for _ in range(params.n_trees)]
    n = X.shape[0]
    draws = (tree_rng.integers(n, n) for tree_rng in tree_rngs)
    return np.stack([fit_tree(X[rows], y[rows], params) for rows in draws])


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
