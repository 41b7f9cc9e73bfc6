import json

import numpy as np
import pytest

from updrspred import rfe as rfe_module
from updrspred.errors import NumericError, ParameterError, ShapeError
from updrspred.forest import ForestParams
from updrspred.linalg import RandomSource
from updrspred.rfe import rfe_select

FAST_FOREST = ForestParams(n_trees=20, max_depth=6, min_samples_leaf=5)


def make_signal_problem(seed, n=120, noise_features=5):
    rng = RandomSource(seed)
    x0 = rng.gaussians(0, 1, n)
    noise = rng.gaussians(0, 1, n * noise_features).reshape(n, noise_features)
    X = np.column_stack([x0, noise])
    y = 3.0 * x0 + rng.gaussians(0, 1, n)
    return X, y, rng.spawn()


class TestRfeSelect:
    def test_k_equals_d_selects_everything(self):
        X, y, rng = make_signal_problem(1)
        result = rfe_select(X, y, 6, FAST_FOREST, rng)
        assert result.selected == (0, 1, 2, 3, 4, 5)
        assert result.elimination_order == ()
        assert result.rounds == []

    def test_round_count_and_partition(self):
        X, y, rng = make_signal_problem(2)
        result = rfe_select(X, y, 2, FAST_FOREST, rng)
        assert len(result.elimination_order) == 4
        assert len(result.rounds) == 4
        combined = sorted(result.selected + result.elimination_order)
        assert combined == list(range(6))

    def test_selected_ascending(self):
        X, y, rng = make_signal_problem(3)
        result = rfe_select(X, y, 3, FAST_FOREST, rng)
        assert list(result.selected) == sorted(result.selected)

    def test_k_out_of_range(self):
        X, y, rng = make_signal_problem(4)
        with pytest.raises(ParameterError):
            rfe_select(X, y, 0, FAST_FOREST, rng)
        with pytest.raises(ParameterError):
            rfe_select(X, y, 7, FAST_FOREST, rng)

    def test_deterministic(self):
        X, y, _ = make_signal_problem(5)
        a = rfe_select(X, y, 2, FAST_FOREST, RandomSource(42))
        b = rfe_select(X, y, 2, FAST_FOREST, RandomSource(42))
        assert a.selected == b.selected
        assert a.elimination_order == b.elimination_order

    def test_protected_features_survive(self):
        X, y, rng = make_signal_problem(6)
        result = rfe_select(X, y, 2, FAST_FOREST, rng, protected=[5])
        assert 5 in result.selected
        assert 5 not in result.elimination_order

    def test_too_many_protected_rejected(self):
        X, y, rng = make_signal_problem(7)
        with pytest.raises(ParameterError):
            rfe_select(X, y, 1, FAST_FOREST, rng, protected=[0, 1])

    def test_signal_feature_survives_to_k1(self):
        # Statistical oracle: y = 3*x0 + noise keeps x0 in nearly all seeds.
        hits = 0
        n_seeds = 100
        for seed in range(n_seeds):
            X, y, rng = make_signal_problem(9000 + seed)
            result = rfe_select(X, y, 1, FAST_FOREST, rng)
            if result.selected == (0,):
                hits += 1
        assert hits >= 95

    def test_importance_ties_drop_highest_index_first(self):
        # the two zero columns never split, so both score 0 every round
        X = np.column_stack([np.arange(40.0), np.zeros(40), np.zeros(40)])
        y = np.arange(40.0)
        result = rfe_select(X, y, 1, FAST_FOREST, RandomSource(0))
        assert result.elimination_order == (2, 1)
        assert result.selected == (0,)

    def test_snapshots_align_with_survivors(self):
        X, y, rng = make_signal_problem(8)
        result = rfe_select(X, y, 3, FAST_FOREST, rng)
        for r, record in enumerate(result.rounds):
            assert len(record.surviving) == 6 - r
            assert len(record.importance) == len(record.surviving)
            assert record.removed in record.surviving


def test_each_fold_is_ranked_once_and_selects_as_before(monkeypatch):
    X, y, _ = make_signal_problem(12, noise_features=4)
    X[:, 2] = np.round(X[:, 2])
    ranked, tables = [], []
    dense_ranks, fit_forest = rfe_module.dense_ranks, rfe_module.fit_forest

    def rank_spy(table):
        ranked.append(table)
        return dense_ranks(table)

    def forest_spy(table, *rest):
        tables.append(table)
        return fit_forest(table, *rest)

    monkeypatch.setattr(rfe_module, "dense_ranks", rank_spy)
    monkeypatch.setattr(rfe_module, "fit_forest", forest_spy)
    result = rfe_select(X, y, 2, FAST_FOREST, RandomSource(3))
    assert len(ranked) == 1
    # each round's forest reads the surviving columns of the one rank table
    ranks = dense_ranks(X)
    assert len(tables) == len(result.rounds) == 3
    for table, record in zip(tables, result.rounds):
        assert table.dtype == ranks.dtype
        assert np.array_equal(table, ranks[:, list(record.surviving)])
    # handing every round its float columns, which the trees read as they
    # are, selects the same
    monkeypatch.setattr(rfe_module, "dense_ranks", lambda table: table)
    monkeypatch.setattr(rfe_module, "fit_forest", fit_forest)
    per_round = rfe_select(X, y, 2, FAST_FOREST, RandomSource(3))
    assert per_round.elimination_order == result.elimination_order
    assert [r.importance.tolist() for r in per_round.rounds] == \
        [r.importance.tolist() for r in result.rounds]


@pytest.mark.parametrize("x_shape, y_shape, message", [
    pytest.param((50, 3), (80,), "X has 50 rows but y has 80", id="y longer than X"),
    pytest.param((50, 3), (30,), "X has 50 rows but y has 30", id="y shorter than X"),
    pytest.param((50,), (50,), "X must be 2-D", id="1-D X"),
    pytest.param((40, 3), (40, 1), "y must be 1-D", id="column y"),
])
def test_bad_shapes_refused_before_any_forest(x_shape, y_shape, message, monkeypatch):
    fitted = []
    monkeypatch.setattr(rfe_module, "fit_forest", lambda *args: fitted.append(args))
    data = np.random.default_rng(0)
    rng = RandomSource(6)
    k = x_shape[1] if len(x_shape) == 2 else 1  # with k == d no round would run
    with pytest.raises(ShapeError, match=message):
        rfe_select(data.normal(size=x_shape), data.normal(size=y_shape), k, FAST_FOREST, rng)
    assert fitted == []
    assert rng.next_u64() == RandomSource(6).next_u64()


def test_non_finite_table_refused_before_any_forest(monkeypatch):
    # NaN in every third row of one column used to rank as the largest value
    fitted = []
    monkeypatch.setattr(rfe_module, "fit_forest", lambda *args: fitted.append(args))
    data = np.random.default_rng(0)
    X = data.normal(size=(200, 4))
    X[::3, 0] = np.nan
    rng = RandomSource(7)
    with pytest.raises(NumericError, match="X must be finite, but 67 of its 800 values are not"):
        rfe_select(X, data.normal(size=200), 2, FAST_FOREST, rng)
    assert fitted == []
    assert rng.next_u64() == RandomSource(7).next_u64()


class TestRfeReport:
    def test_text_report_names_features(self):
        X, y, rng = make_signal_problem(10)
        result = rfe_select(X, y, 2, FAST_FOREST, rng)
        names = [f"col{i}" for i in range(6)]
        text = result.to_report(names)
        assert "selected (2)" in text
        assert "round 4" in text

    def test_json_roundtrip(self):
        X, y, rng = make_signal_problem(11)
        result = rfe_select(X, y, 2, FAST_FOREST, rng)
        names = [f"col{i}" for i in range(6)]
        doc = json.loads(result.to_json(names))
        assert doc["version"] == 1
        assert sorted(doc["selected"] + doc["elimination_order"]) == list(range(6))
        assert len(doc["per_round_importance"]) == 4
        assert doc["selected_names"] == [names[i] for i in doc["selected"]]
        assert doc["eliminated_names"] == [names[i] for i in doc["elimination_order"]]
