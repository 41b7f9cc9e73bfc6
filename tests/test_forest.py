from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updrspred import forest as forest_module
from updrspred.config import RunConfig
from updrspred.errors import EmptyInputError, NumericError, ShapeError
from updrspred.forest import (ForestParams, dense_ranks, feature_importance, fit_forest,
                              fit_tree)
from updrspred.linalg import RandomSource


def full_growth_params(**overrides):
    base = dict(n_trees=1, max_depth=64, min_samples_leaf=1)
    base.update(overrides)
    return ForestParams(**base)


class TestFitTree:
    @pytest.mark.parametrize("n", [10, 50])
    @pytest.mark.parametrize("value", [3.5, 30.1234])
    def test_constant_target_splits_nothing(self, value, n):
        # 30.1234's rounded sums leave a spread above any small absolute floor
        X = np.random.default_rng(0).normal(size=(n, 3))
        y = np.full(n, value)
        assert np.array_equal(fit_tree(X, y, full_growth_params()), [-1, -1, -1])

    def test_single_available_split_is_at_the_root(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        depths = fit_tree(X, y, full_growth_params())
        assert depths.dtype == np.int64
        assert np.array_equal(depths, [0])

    def test_zero_gain_split_is_not_taken(self):
        # both halves hold the same targets, so the only legal split gains 0
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(fit_tree(X, y, full_growth_params()), [-1])

    def test_max_depth_zero_splits_nothing(self):
        X = np.arange(12.0).reshape(6, 2)
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(fit_tree(X, y, full_growth_params(max_depth=0)), [-1, -1])

    def test_full_growth_uses_every_feature_with_one_at_the_root(self):
        rng = RandomSource(5)
        X = rng.gaussians(0, 1, 200).reshape(50, 4)
        y = rng.gaussians(0, 1, 50)
        depths = fit_tree(X, y, full_growth_params())
        assert depths.shape == (4,)
        assert depths.min() >= 0 and (depths == 0).sum() == 1

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            fit_tree(np.zeros((0, 2)), np.zeros(0), full_growth_params())

    def test_split_between_adjacent_doubles_is_taken(self):
        # no double lies between two adjacent ones, so the split must fall
        # at a value, as it does between 1.0 and 2.0
        a = np.nextafter(1.0, 2.0)
        params = full_growth_params(max_depth=4)
        for low, high in [(a, np.nextafter(a, 2.0)), (1.0, 2.0)]:
            X = np.column_stack([np.repeat([low, high], 10), np.tile(np.arange(10.0), 2)])
            y = 10.0 * (X[:, 0] == high) + (X[:, 1] < 5)
            assert np.array_equal(fit_tree(X, y, params), [0, 1])
            assert np.array_equal(reference_depths(X, y, params), [0, 1])

    def test_tied_gain_goes_to_the_lowest_feature(self):
        # both columns offer the same left set {0, 1, 2}; its float sums
        # round apart ((0.8 + 0.92) + 0.27 != (0.27 + 0.92) + 0.8), its
        # fixed-point sums do not
        X = np.column_stack([np.arange(6.0), [2.0, 1.0, 0.0, 5.0, 4.0, 3.0]])
        y = np.array([0.8, 0.92, 0.27, 5.54, 5.44, 5.93])
        params = full_growth_params(max_depth=1)
        assert np.array_equal(fit_tree(X, y, params), [0, -1])
        assert np.array_equal(reference_depths(X, y, params), [0, -1])

    @pytest.mark.parametrize("power", [-1070, -20, 20, 1015])
    def test_power_of_two_scale_keeps_the_depths(self, power):
        # targets of four bits stay exact down to the subnormal 2**-1070;
        # squared float sums would underflow there and overflow at 2**1015
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 16, size=80).astype(np.float64)
        params = ForestParams(n_trees=1, max_depth=6, min_samples_leaf=2)
        depths = fit_tree(X, y, params)
        assert (depths >= 0).all()
        assert np.array_equal(fit_tree(X, np.ldexp(y, power), params), depths)

    @pytest.mark.parametrize("table, bad", [
        pytest.param("y", np.nan, id="nan"),
        pytest.param("y", np.inf, id="inf"),
        pytest.param("y", -np.inf, id="-inf"),
        pytest.param("X", np.nan, id="X-nan"),
        pytest.param("X", np.inf, id="X-inf"),
        pytest.param("X", -np.inf, id="X--inf"),
    ])
    def test_non_finite_target_refused(self, table, bad):
        X = np.arange(12.0).reshape(6, 2)
        y = np.arange(6.0)
        operands = {"X": X, "y": y}
        operands[table].flat[5] = bad
        size = operands[table].size
        with pytest.raises(NumericError, match=f"{table} must be finite, but 1 of its {size} "):
            fit_tree(X, y, full_growth_params())


@dataclass
class Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["Node"] = None
    right: Optional["Node"] = None
    prediction: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def fixed_point_targets(y):
    """The tree's exact integer targets: ``y`` times the power of two that
    brings ``max|y|`` to at most ``2**61 / 2**b``, where ``2**b >= len(y)``,
    rounded to integers. No sum of them rounds."""
    _, exponent = np.frexp(np.abs(y).max())
    scale = 61 - int(exponent) - (len(y) - 1).bit_length()
    return np.rint(np.ldexp(y, scale)).astype(np.int64)


def _reference_best_split(X, q, rows, min_leaf):
    """The depth-first builder's split search: one node, one fresh argsort, integer sums."""
    q_node = q[rows]
    n = len(rows)
    if not q_node.max() > q_node.min():
        return None
    total1 = q_node.sum()

    values = X[rows]
    order = np.argsort(values, axis=0, kind="stable")
    sv = np.take_along_axis(values, order, axis=0)
    c1 = np.cumsum(q_node[order], axis=0)[:-1]

    sizes = np.arange(1, n, dtype=np.float64)[:, None]
    legal = (sv[:-1] < sv[1:]) & (sizes >= min_leaf) & (n - sizes >= min_leaf)
    if not legal.any():
        return None
    # the sums are exact integers; the score is taken in floats from them
    right1 = (total1 - c1).astype(np.float64)
    c1 = c1.astype(np.float64)
    # the children's SSE less the node's sum of y², which no candidate changes
    score = c1 * (-c1) / sizes + right1 * (-right1) / (n - sizes)
    score[~legal] = np.inf

    flat = int(np.argmin(score.T))
    col, pos = divmod(flat, score.shape[0])
    total1 = float(total1)
    gain = -(total1 * total1 / n) - score[pos, col]
    if not gain > 0.0:
        return None
    # split at the left side's last value: adjacent doubles have nothing between them
    return gain, col, sv[pos, col]


def _reference_grow(X, y, q, rows, depth, params):
    node = Node(prediction=float(y[rows].mean()))
    n = len(rows)
    if depth >= params.max_depth or n < 2 * params.min_samples_leaf:
        return node
    best = _reference_best_split(X, q, rows, params.min_samples_leaf)
    if best is None:
        return node
    _, node.feature, node.threshold = best
    mask = X[rows, node.feature] <= node.threshold
    node.left = _reference_grow(X, y, q, rows[mask], depth + 1, params)
    node.right = _reference_grow(X, y, q, rows[~mask], depth + 1, params)
    return node


def reference_tree(X, y, params):
    """Recursive depth-first CART: the oracle for ``fit_tree``.

    Splits are searched on the fixed-point targets; leaves predict the mean
    of the raw ``y``.
    """
    return _reference_grow(X, y, fixed_point_targets(y), np.arange(X.shape[0]), 0, params)


def predict_tree(tree: Node, X: np.ndarray) -> np.ndarray:
    """Each row's leaf prediction, routing left when ``x[feature] <= threshold``."""
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


def _min_depths(tree: Node, n_features: int) -> np.ndarray:
    """Each feature's shallowest split depth in ``tree``, -1 where it never splits."""
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


def reference_depths(X, y, params):
    return _min_depths(reference_tree(X, y, params), X.shape[1])


class TestReferenceTree:
    """The oracle is CART: it memorizes, keeps leaves whole, splits at a left side's last value."""

    def test_full_growth_memorizes_training_data(self):
        rng = RandomSource(5)
        X = rng.gaussians(0, 1, 200).reshape(50, 4)
        y = rng.gaussians(0, 1, 50)
        tree = reference_tree(X, y, full_growth_params())
        assert np.allclose(predict_tree(tree, X), y, atol=1e-12)

    def test_min_samples_leaf_respected(self):
        rng = RandomSource(9)
        X = rng.gaussians(0, 1, 120).reshape(60, 2)
        y = rng.gaussians(0, 1, 60)
        tree = reference_tree(X, y, full_growth_params(min_samples_leaf=7))

        def leaf_sizes(node, rows):
            if node.is_leaf:
                return [len(rows)]
            mask = X[rows, node.feature] <= node.threshold
            return leaf_sizes(node.left, rows[mask]) + leaf_sizes(node.right, rows[~mask])

        assert min(leaf_sizes(tree, np.arange(60))) >= 7

    def test_single_available_split(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        tree = reference_tree(X, y, full_growth_params())
        assert (tree.feature, tree.threshold) == (0, 0.0)
        assert (tree.left.prediction, tree.right.prediction) == (0.0, 10.0)
        assert tree.left.is_leaf and tree.right.is_leaf


@st.composite
def tree_problems(draw):
    """A table with tied, binary, scaled, negated and constant columns, plus tree settings.

    A scaled column orders the rows as an earlier one does, so their SSE
    ties go to the earlier column; a negated column offers the same
    partitions in reverse order; a constant column never splits.
    """
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    kinds = ["gaussian", "tied", "binary", "scaled", "negated", "constant"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=d, max_size=d)):
        if kind in ("scaled", "negated") and columns:
            earlier = columns[draw(st.integers(0, len(columns) - 1))]
            columns.append(earlier * rng.uniform(0.1, 10.0) if kind == "scaled" else -earlier)
        elif kind == "constant":
            columns.append(np.full(n, rng.normal()))
        elif kind == "tied":
            columns.append(rng.choice(rng.normal(size=draw(st.integers(1, 8))), size=n))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, size=n).astype(np.float64))
        else:  # gaussian, or a scaled or negated first column
            columns.append(rng.normal(size=n))
    X = np.column_stack(columns)
    y = rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        y = np.round(y, 1)  # tied targets: exact gain ties between candidates
    params = ForestParams(n_trees=1, max_depth=draw(st.integers(0, 12)),
                          min_samples_leaf=draw(st.integers(1, 10)))
    return X, y, params


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(problem=tree_problems())
    def test_same_minimal_depths(self, problem):
        X, y, params = problem
        assert np.array_equal(fit_tree(X, y, params), reference_depths(X, y, params))

    @settings(max_examples=150, deadline=None)
    @given(problem=tree_problems(), onto=st.sampled_from(["ranks", "adjacent doubles"]))
    def test_increasing_map_of_the_columns_keeps_the_depths(self, problem, onto):
        X, y, params = problem
        ranks = np.column_stack([np.unique(column, return_inverse=True)[1] for column in X.T])
        if onto == "ranks":
            mapped = ranks.astype(np.min_scalar_type(ranks.max()))
        else:
            mapped = 1.0 + ranks * np.spacing(1.0)
        assert np.array_equal(fit_tree(mapped, y, params), fit_tree(X, y, params))

    def test_same_depths_at_rfe_shape(self):
        # a bootstrap resample at the default depth and leaf size
        rng = RandomSource(3)
        X = rng.gaussians(0, 1, 587 * 20).reshape(587, 20)
        X[:, 1] = X[:, 1] > 0
        y = X[:, 0] * 3.0 + X[:, 1] + rng.gaussians(0, 1, 587)
        params = RunConfig().forest_params()
        for _ in range(3):
            rows = rng.integers(587, 587)
            assert np.array_equal(fit_tree(X[rows], y[rows], params),
                                  reference_depths(X[rows], y[rows], params))

    def test_levels_hold_only_their_open_nodes_rows_and_reuse_the_root_buffer(
            self, monkeypatch):
        # no level is padded: each holds exactly its open nodes' rows, so
        # none is wider than the root, and every level carves its scores
        # from the one block the tree sized for the root
        rng = RandomSource(23)
        X = rng.gaussians(0, 1, 300 * 4).reshape(300, 4)
        X[:, 3] = np.round(X[:, 3])
        y = np.sin(2.0 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.gaussians(0, 1, 300)
        params = ForestParams(n_trees=1, max_depth=12, min_samples_leaf=2)
        levels = []
        level_splits = forest_module._level_splits

        def spy(q, order, values, sizes, min_leaf, scratch):
            levels.append((order.shape, values.shape, sizes.copy(), scratch))
            return level_splits(q, order, values, sizes, min_leaf, scratch)

        monkeypatch.setattr(forest_module, "_level_splits", spy)
        depths = fit_tree(X, y, params)
        assert len(levels) > 3
        widths = [order_shape[1] for order_shape, *_ in levels]
        assert widths[0] == 300 and widths[-1] < 300
        assert widths == sorted(widths, reverse=True)
        assert levels[0][3].shape == (2 * 4 * 300,)
        for order_shape, values_shape, sizes, buffer in levels:
            assert order_shape == values_shape == (4, sizes.sum())
            assert sizes.min() >= 2 * params.min_samples_leaf
            assert buffer is levels[0][3]
        assert np.array_equal(depths, reference_depths(X, y, params))

    def test_depths_do_not_depend_on_what_the_scratch_block_held(self, monkeypatch):
        # every depth writes its score blocks before it reads them, so a
        # block full of NaN, as a deeper level's leftovers might be, gives
        # the same depths
        rng = RandomSource(24)
        X = rng.gaussians(0, 1, 240 * 5).reshape(240, 5)
        X[:, 4] = np.round(X[:, 4])
        y = np.cos(X[:, 0]) + X[:, 1] * X[:, 4] + 0.1 * rng.gaussians(0, 1, 240)
        params = ForestParams(n_trees=1, max_depth=10, min_samples_leaf=2)
        level_splits, calls = forest_module._level_splits, []

        def spy(q, order, values, sizes, min_leaf, scratch):
            scratch.fill(np.nan)
            calls.append(len(sizes))
            return level_splits(q, order, values, sizes, min_leaf, scratch)

        monkeypatch.setattr(forest_module, "_level_splits", spy)
        depths = fit_tree(X, y, params)
        assert len(calls) > 3
        assert np.array_equal(depths, reference_depths(X, y, params))

    def test_every_forest_tree_matches_on_its_bootstrap(self):
        rng = RandomSource(29)
        X = rng.gaussians(0, 1, 150 * 5).reshape(150, 5)
        X[:, 4] = X[:, 4] > 0.3
        y = X[:, 0] * 2.0 - X[:, 4] + 0.5 * rng.gaussians(0, 1, 150)
        params = ForestParams(n_trees=6, max_depth=8, min_samples_leaf=3)
        depths = fit_forest(X, y, params, RandomSource(31))
        # redraw each tree's rows from the same spawned stream
        seeds = RandomSource(31)
        tree_rngs = [seeds.spawn() for _ in range(params.n_trees)]
        assert depths.shape == (params.n_trees, 5) and depths.dtype == np.int64
        for tree_depths, tree_rng in zip(depths, tree_rngs):
            rows = tree_rng.integers(150, 150)
            assert np.array_equal(tree_depths, reference_depths(X[rows], y[rows], params))


BAD_SHAPES = {
    "y longer than X": ((50, 3), (80,), "X has 50 rows but y has 80"),
    "y shorter than X": ((50, 3), (30,), "X has 50 rows but y has 30"),
    "1-D X": ((50,), (50,), "X must be 2-D"),
    "column y": ((40, 3), (40, 1), "y must be 1-D"),
}


@pytest.mark.parametrize("x_shape, y_shape, message", BAD_SHAPES.values(), ids=BAD_SHAPES)
class TestShapeRefusals:
    def test_fit_tree(self, x_shape, y_shape, message):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match=message):
            fit_tree(rng.normal(size=x_shape), rng.normal(size=y_shape), full_growth_params())

    def test_fit_forest_fits_and_draws_nothing(self, x_shape, y_shape, message, monkeypatch):
        fitted = []
        monkeypatch.setattr(forest_module, "fit_tree", lambda *args: fitted.append(args))
        data = np.random.default_rng(0)
        rng = RandomSource(5)
        with pytest.raises(ShapeError, match=message):
            fit_forest(data.normal(size=x_shape), data.normal(size=y_shape),
                       ForestParams(n_trees=3, max_depth=4), rng)
        assert fitted == []
        assert rng.next_u64() == RandomSource(5).next_u64()


def test_fit_forest_refuses_a_non_finite_target_before_any_tree(monkeypatch):
    # a non-finite target, then a non-finite feature value
    fitted = []
    monkeypatch.setattr(forest_module, "fit_tree", lambda *args: fitted.append(args))
    X, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    for table in (y, X):
        table.flat[2] = np.nan
        rng = RandomSource(5)
        with pytest.raises(NumericError, match="must be finite"):
            fit_forest(X, y, ForestParams(n_trees=3, max_depth=4, min_samples_leaf=1), rng)
        table.flat[2] = 2.0
        assert fitted == []
        assert rng.next_u64() == RandomSource(5).next_u64()


class TestForest:
    def test_trees_read_the_table_unchanged(self, monkeypatch):
        tables = []
        fit = forest_module.fit_tree

        def spy(X, y, params):
            tables.append(X)
            return fit(X, y, params)

        monkeypatch.setattr(forest_module, "fit_tree", spy)
        X = np.column_stack([np.linspace(-3.0, 3.0, 300), np.repeat([2.5, -1.0, 7.0], 100)])
        fit_forest(X, X[:, 0], ForestParams(n_trees=2, max_depth=3), RandomSource(4))
        assert len(tables) == 2
        for table in tables:
            # each tree gets its bootstrap rows of X itself, values and dtype
            assert table.dtype == np.float64
            rows = np.searchsorted(X[:, 0], table[:, 0])  # column 0 ascends
            assert np.array_equal(table, X[rows])

    def test_ranks_give_the_forest_of_their_values(self, monkeypatch):
        rng = RandomSource(17)
        X = rng.gaussians(0, 1, 90 * 4).reshape(90, 4)
        X[:, 2] = np.round(X[:, 2])
        y = X[:, 0] - X[:, 2] + 0.3 * rng.gaussians(0, 1, 90)
        params = ForestParams(n_trees=4, max_depth=5, min_samples_leaf=2)
        ranks = dense_ranks(X)
        assert ranks.dtype == np.uint8
        ranked = []
        monkeypatch.setattr(forest_module, "dense_ranks", lambda table: ranked.append(table))
        expected = fit_forest(X, y, params, RandomSource(2))
        assert np.array_equal(fit_forest(ranks, y, params, RandomSource(2)), expected)
        assert ranked == []

    def test_single_tree_equals_tree_on_its_bootstrap(self):
        rng = RandomSource(7)
        X = rng.gaussians(0, 1, 80).reshape(40, 2)
        y = X[:, 0] * 2.0 + X[:, 1]
        params = full_growth_params(max_depth=4)
        depths = fit_forest(X, y, params, RandomSource(11))
        # fit_forest draws each tree's rows from the tree's own spawned stream
        rows = RandomSource(11).spawn().integers(40, 40)
        assert depths.shape == (1, 2)
        assert np.array_equal(depths[0], fit_tree(X[rows], y[rows], params))

    def test_constant_target(self):
        X = np.arange(20.0).reshape(20, 1)
        y = np.full(20, -2.0)
        depths = fit_forest(X, y, ForestParams(n_trees=5, max_depth=3, min_samples_leaf=1),
                            RandomSource(0))
        assert np.array_equal(depths, np.full((5, 1), -1))

    def test_same_seed_identical_depths(self):
        rng = RandomSource(13)
        X = rng.gaussians(0, 1, 150).reshape(50, 3)
        y = X @ np.array([1.0, -2.0, 0.5])
        params = ForestParams(n_trees=8, max_depth=5, min_samples_leaf=2)
        d1 = fit_forest(X, y, params, RandomSource(3))
        d2 = fit_forest(X, y, params, RandomSource(3))
        assert np.array_equal(d1, d2)

    def test_tree_order_irrelevant(self):
        rng = RandomSource(21)
        X = rng.gaussians(0, 1, 90).reshape(30, 3)
        y = X[:, 1]
        depths = fit_forest(X, y, ForestParams(n_trees=6, max_depth=4, min_samples_leaf=2),
                            RandomSource(8))
        assert np.array_equal(feature_importance(depths[::-1]), feature_importance(depths))


class TestImportance:
    def test_root_only_feature_scores_one(self):
        # The tree splits feature 0 at the root and nothing else.
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 4.0])
        assert feature_importance(fit_tree(X, y, full_growth_params())[None])[0] == 1.0

    def test_unused_feature_scores_zero(self):
        X = np.column_stack([np.array([0.0, 1.0, 0.0, 1.0]), np.zeros(4)])
        y = np.array([0.0, 5.0, 0.0, 5.0])
        importance = feature_importance(fit_tree(X, y, full_growth_params())[None])
        assert importance[1] == 0.0
        assert np.argmax(importance) == 0

    def test_mean_runs_over_the_trees_that_use_the_feature(self):
        depths = np.array([[0, -1, 2], [2, -1, -1]])
        assert np.array_equal(feature_importance(depths), [1.0 / 2.0, 0.0, 1.0 / 3.0])

    def test_informative_feature_ranks_first_across_seeds(self):
        hits = 0
        n_seeds = 100
        for seed in range(n_seeds):
            rng = RandomSource(1000 + seed)
            X = rng.gaussians(0, 1, 120 * 6).reshape(120, 6)
            y = X[:, 0] + 0.01 * rng.gaussians(0, 1, 120)
            depths = fit_forest(
                X, y,
                ForestParams(n_trees=50, max_depth=6, min_samples_leaf=5),
                rng.spawn(),
            )
            if np.argmax(feature_importance(depths)) == 0:
                hits += 1
        assert hits >= 95

    def test_noise_duplicates_do_not_outrank_signal(self):
        wins = 0
        n_seeds = 50
        for seed in range(n_seeds):
            rng = RandomSource(500 + seed)
            x0 = rng.gaussians(0, 1, 100)
            noise = rng.gaussians(0, 1, 100 * 4).reshape(100, 4)
            X = np.column_stack([x0, noise])
            y = 2.0 * x0 + 0.05 * rng.gaussians(0, 1, 100)
            depths = fit_forest(
                X, y, ForestParams(n_trees=30, max_depth=6, min_samples_leaf=5), rng.spawn()
            )
            if np.argmax(feature_importance(depths)) == 0:
                wins += 1
        assert wins / n_seeds >= 0.95
