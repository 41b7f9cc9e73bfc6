import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from updrspred.dataset import (
    DEFAULT_REGRESSORS,
    REQUIRED_COLUMNS,
    VOICE_FEATURES,
    apply_standardizer,
    build_design,
    fit_standardizer,
    grouped_holdout_split,
    grouped_kfold_split,
    holdout_split,
    kfold_split,
    load_csv,
    to_sequences,
)
from updrspred.errors import (
    ConfigError,
    DegenerateColumnError,
    EmptyInputError,
    ParameterError,
    ParseError,
    SchemaError,
    ShapeError,
)
from updrspred.linalg import RandomSource


class TestLoadCsv:
    def test_loads_synthetic_file(self, synthetic_csv):
        ds = load_csv(synthetic_csv)
        assert len(ds) == 240
        assert ds.n_subjects == 8
        assert ds.column("subject#")[0] == 1

    def test_order_preserved(self, synthetic_csv):
        ds = load_csv(synthetic_csv)
        with open(synthetic_csv) as fh:
            lines = fh.read().splitlines()[1:]
        first_motor = float(lines[0].split(",")[4])
        assert ds.column("motor_UPDRS")[0] == pytest.approx(first_motor)

    def test_header_only_is_empty_input(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("subject#,age,sex,test_time,motor_UPDRS,total_UPDRS,"
                     + ",".join(VOICE_FEATURES) + "\n")
        with pytest.raises(EmptyInputError):
            load_csv(p)

    def test_missing_column_names_it(self, synthetic_csv, tmp_path):
        text = open(synthetic_csv).read().replace("total_UPDRS", "total_updrs_oops")
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(SchemaError, match="total_UPDRS"):
            load_csv(p)

    def test_repeated_required_column_names_it(self, synthetic_csv, tmp_path):
        header, *rows = open(synthetic_csv).read().splitlines()
        p = tmp_path / "bad.csv"
        p.write_text("\n".join([header + ",PPE,extra,extra"] + [r + ",1.5,0,0" for r in rows]) + "\n")
        with pytest.raises(SchemaError, match="repeated column\\(s\\) 'PPE'$"):
            load_csv(p)

    def test_row_with_an_extra_cell_reports_row_and_counts(self, synthetic_csv, tmp_path):
        # an extra cell after test_time would shift every later column by one
        lines = open(synthetic_csv).read().splitlines()
        cells = lines[3].split(",")
        cells.insert(4, "99")
        lines[3] = ",".join(cells)
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 4: expected 22 cells, got 23"):
            load_csv(p)

    def test_non_numeric_cell_reports_row(self, synthetic_csv, tmp_path):
        lines = open(synthetic_csv).read().splitlines()
        cells = lines[3].split(",")
        cells[4] = "oops"
        lines[3] = ",".join(cells)
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 4"):
            load_csv(p)

    @pytest.mark.parametrize("raw", ["1.5", "1e300"])
    def test_bad_subject_id_reports_row(self, synthetic_csv, tmp_path, raw):
        # 1.5 must not be truncated into subject 1: a merged subject would
        # straddle the grouped splits; 1e300 does not fit the int64 ids
        lines = open(synthetic_csv).read().splitlines()
        cells = lines[3].split(",")
        cells[0] = raw
        lines[3] = ",".join(cells)
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"row 4: column 'subject#' must be a whole number"):
            load_csv(p)

    def test_unknown_column_rejected(self, synthetic_csv):
        with pytest.raises(ConfigError, match="mystery"):
            load_csv(synthetic_csv).column("mystery")

    def test_columns_mapped_by_name_not_position(self, synthetic_csv, tmp_path):
        lines = open(synthetic_csv).read().splitlines()
        header = lines[0].split(",")
        # swap age and sex columns wholesale
        ia, ib = header.index("age"), header.index("sex")
        swapped = []
        for line in lines:
            cells = line.split(",")
            cells[ia], cells[ib] = cells[ib], cells[ia]
            swapped.append(",".join(cells))
        p = tmp_path / "swapped.csv"
        p.write_text("\n".join(swapped) + "\n")
        original = load_csv(synthetic_csv)
        reordered = load_csv(p)
        assert np.array_equal(original.column("age"), reordered.column("age"))

    def test_canonical_file(self, real_data):
        ds = load_csv(real_data)
        assert len(ds) == 5875
        assert ds.n_subjects == 42


class TestBuildDesign:
    def test_default_regressors_shape(self, synthetic_csv):
        ds = load_csv(synthetic_csv)
        X, y = build_design(ds, "total", DEFAULT_REGRESSORS)
        assert X.shape == (len(ds), 20)
        assert y.shape == (len(ds),)

    def test_voice_only_shape(self, synthetic_csv):
        ds = load_csv(synthetic_csv)
        X, _ = build_design(ds, "total", VOICE_FEATURES)
        assert X.shape == (len(ds), 16)

    def test_target_among_regressors_rejected(self, synthetic_csv):
        ds = load_csv(synthetic_csv)
        with pytest.raises(ConfigError):
            build_design(ds, "total", ["age", "total_UPDRS"])

    def test_unknown_regressor_rejected(self, synthetic_csv):
        ds = load_csv(synthetic_csv)
        with pytest.raises(ConfigError, match="mystery"):
            build_design(ds, "total", ["age", "mystery"])

    def test_motor_target_allows_total_exclusion(self, synthetic_csv):
        ds = load_csv(synthetic_csv)
        X, y = build_design(ds, "motor", VOICE_FEATURES)
        assert np.array_equal(y, ds.column("motor_UPDRS"))

    def test_canonical_design_shape(self, real_data):
        ds = load_csv(real_data)
        X, y = build_design(ds, "total", DEFAULT_REGRESSORS)
        assert X.shape == (5875, 20)
        assert y.shape == (5875,)


class TestStandardizer:
    def test_fit_apply_zero_mean_unit_std(self):
        rng = RandomSource(1)
        X = rng.gaussians(5.0, 3.0, 400).reshape(100, 4)
        stats = fit_standardizer(X)
        Z = apply_standardizer(stats, X)
        assert np.all(np.abs(Z.mean(axis=0)) < 1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_mean_row_maps_to_zero(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
        stats = fit_standardizer(X)
        z = apply_standardizer(stats, stats.mean.reshape(1, -1))
        assert np.allclose(z, 0.0, atol=1e-12)

    def test_constant_column_rejected_by_name(self):
        X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        with pytest.raises(DegenerateColumnError, match="flat"):
            fit_standardizer(X, column_names=("ok", "flat"))

    def test_constant_column_with_a_rounded_nonzero_std_rejected(self):
        # 240 copies of 0.1 have a computed std of about 3e-16, not 0
        X = np.column_stack([np.arange(240.0), np.full(240, 0.1)])
        with pytest.raises(DegenerateColumnError, match="flat"):
            fit_standardizer(X, column_names=("ok", "flat"))

    def test_fit_refuses_non_2d_input(self):
        # a 1-D array would give scalar statistics
        with pytest.raises(ShapeError, match="2-D"):
            fit_standardizer(np.array([1.0, 2.0, 4.0]))

    def test_apply_refuses_non_2d_input(self):
        stats = fit_standardizer(np.array([[1.0], [2.0], [4.0]]))
        with pytest.raises(ShapeError, match="2-D"):
            apply_standardizer(stats, np.array([1.0, 2.0, 4.0]))

    def test_round_trip(self):
        rng = RandomSource(2)
        X = rng.gaussians(-2.0, 0.5, 60).reshape(20, 3)
        stats = fit_standardizer(X)
        back = apply_standardizer(stats, X) * stats.stddev + stats.mean
        assert np.allclose(back, X, atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 80), d=st.integers(1, 6), seed=st.integers(0, 2**31 - 1),
           log_scales=st.lists(st.floats(-3, 3), min_size=6, max_size=6),
           offsets=st.lists(st.floats(-100, 100), min_size=6, max_size=6))
    def test_round_trip_property(self, n, d, seed, log_scales, offsets):
        # column j: offset_j * scale_j plus noise of spread scale_j, so the
        # offset is at most 100 spreads away from zero
        base = np.random.default_rng(seed).normal(size=(n, d))
        assume(np.all(base.std(axis=0) > 0.1))
        scale = 10.0 ** np.array(log_scales[:d])
        X = (base + np.array(offsets[:d])) * scale
        stats = fit_standardizer(X)
        Z = apply_standardizer(stats, X)
        back = Z * stats.stddev + stats.mean
        assert np.all(np.abs(back - X) <= 1e-12 * np.abs(X).max(axis=0))
        assert np.all(np.abs(Z.mean(axis=0)) < 1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, rtol=0, atol=1e-10)


class TestKfold:
    def test_exact_division(self):
        folds = kfold_split(10, 5, RandomSource(0))
        assert len(folds) == 5
        assert all(len(val) == 2 for _, val in folds)
        union = np.sort(np.concatenate([val for _, val in folds]))
        assert np.array_equal(union, np.arange(10))

    def test_remainder_distribution(self):
        folds = kfold_split(11, 5, RandomSource(0))
        sizes = sorted(len(val) for _, val in folds)
        assert sizes == [2, 2, 2, 2, 3]

    def test_same_seed_identical(self):
        a = kfold_split(37, 4, RandomSource(12))
        b = kfold_split(37, 4, RandomSource(12))
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)

    def test_train_val_disjoint_and_exhaustive(self):
        for n, k, seed in [(23, 3, 5), (100, 7, 9), (8, 2, 1)]:
            for train, val in kfold_split(n, k, RandomSource(seed)):
                assert len(np.intersect1d(train, val)) == 0
                assert len(train) + len(val) == n

    def test_bad_k_rejected(self):
        with pytest.raises(ParameterError):
            kfold_split(10, 1, RandomSource(0))
        with pytest.raises(ParameterError):
            kfold_split(3, 4, RandomSource(0))


class TestHoldout:
    def test_80_20(self):
        trainval, test = holdout_split(100, 0.2, RandomSource(0))
        assert len(test) == 20 and len(trainval) == 80

    def test_rounding(self):
        trainval, test = holdout_split(5875, 0.2, RandomSource(0))
        assert len(test) == 1175

    def test_same_seed_identical(self):
        a = holdout_split(50, 0.3, RandomSource(4))
        b = holdout_split(50, 0.3, RandomSource(4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_fraction_bounds(self):
        with pytest.raises(ParameterError):
            holdout_split(10, 0.0, RandomSource(0))
        with pytest.raises(ParameterError):
            holdout_split(10, 1.0, RandomSource(0))

    def test_test_side_below_two_rows_rejected(self):
        # round(3 * 0.1) = 0 test rows: r2 needs two
        with pytest.raises(ParameterError, match=r"test_fraction=0.1 puts 0 row\(s\) on the "
                                                 r"test side and 3 on the train/validation"):
            holdout_split(3, 0.1, RandomSource(0))
        with pytest.raises(ParameterError, match="puts 1 row"):
            holdout_split(10, 0.1, RandomSource(0))

    def test_empty_train_side_rejected(self):
        with pytest.raises(ParameterError, match="puts 3 row"):
            holdout_split(3, 0.9, RandomSource(0))

    def test_smallest_usable_sides_accepted(self):
        trainval, test = holdout_split(3, 0.6, RandomSource(0))
        assert len(test) == 2 and len(trainval) == 1


class TestGroupedSplits:
    def test_grouped_holdout_keeps_groups_whole(self):
        groups = np.repeat(np.arange(10), 12)
        trainval, test = grouped_holdout_split(groups, 0.2, RandomSource(6))
        assert set(groups[trainval]).isdisjoint(set(groups[test]))
        assert len(trainval) + len(test) == len(groups)

    def test_grouped_kfold_disjoint_groups(self):
        groups = np.repeat(np.arange(9), 7)
        folds = grouped_kfold_split(groups, 3, RandomSource(2))
        val_groups = [set(groups[val]) for _, val in folds]
        for i in range(3):
            for j in range(i + 1, 3):
                assert val_groups[i].isdisjoint(val_groups[j])
        union = np.sort(np.concatenate([val for _, val in folds]))
        assert np.array_equal(union, np.arange(len(groups)))

    def test_grouped_holdout_rejects_empty_train_side(self):
        # group 0 (1 row) is drawn first and falls short of the 50-row target,
        # so group 1 follows it: every row lands on the test side
        groups = np.array([0] + [1] * 100)
        with pytest.raises(ParameterError, match=r"test_fraction=0.5 puts 101 row\(s\) on the "
                                                 r"test side and 0 on the train/validation"):
            grouped_holdout_split(groups, 0.5, RandomSource(0))

    def test_grouped_holdout_rejects_single_test_row(self):
        # one-row groups: the first group drawn meets the 1-row target
        with pytest.raises(ParameterError, match=r"puts 1 row\(s\) on the test side and 19"):
            grouped_holdout_split(np.arange(20), 0.05, RandomSource(0))


class TestSplitProperties:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 200), k_draw=st.integers(2, 30), seed=st.integers(0, 2**31 - 1))
    def test_kfold_partitions_evenly(self, n, k_draw, seed):
        k = min(k_draw, n)
        folds = kfold_split(n, k, RandomSource(seed))
        assert len(folds) == k
        vals = [val for _, val in folds]
        assert np.array_equal(np.sort(np.concatenate(vals)), np.arange(n))
        sizes = [len(val) for val in vals]
        assert max(sizes) - min(sizes) <= 1
        for train, val in folds:
            assert np.array_equal(train, np.setdiff1d(np.arange(n), val))

    @settings(max_examples=200, deadline=None)
    @given(groups=st.lists(st.integers(0, 12), min_size=2, max_size=150),
           k_draw=st.integers(2, 13), seed=st.integers(0, 2**31 - 1))
    def test_grouped_kfold_never_splits_a_group(self, groups, k_draw, seed):
        groups = np.array(groups)
        k = min(k_draw, len(np.unique(groups)))
        if k < 2:
            with pytest.raises(ParameterError):
                grouped_kfold_split(groups, k_draw, RandomSource(seed))
            return
        folds = grouped_kfold_split(groups, k, RandomSource(seed))
        assert len(folds) == k
        vals = [val for _, val in folds]
        assert np.array_equal(np.sort(np.concatenate(vals)), np.arange(len(groups)))
        seen = set()
        for train, val in folds:
            val_groups = set(groups[val].tolist())
            assert seen.isdisjoint(val_groups)
            seen |= val_groups
            assert val_groups.isdisjoint(groups[train].tolist())
            assert np.array_equal(train, np.setdiff1d(np.arange(len(groups)), val))


class TestToSequences:
    def test_shape(self):
        X = np.arange(30.0).reshape(3, 10)
        assert to_sequences(X).shape == (3, 10, 1)

    def test_flatten_is_inverse(self):
        rng = RandomSource(3)
        X = rng.gaussians(0, 1, 70).reshape(7, 10)
        assert np.array_equal(to_sequences(X).reshape(7, 10), X)

    def test_single_cell(self):
        assert to_sequences(np.array([[4.2]])).shape == (1, 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            to_sequences(np.zeros((0, 3)))


def test_dataset_column_roundtrip(synthetic_csv):
    ds = load_csv(synthetic_csv)
    for name in ("age", "sex", "test_time", "motor_UPDRS", "total_UPDRS") + VOICE_FEATURES:
        col = ds.column(name)
        assert col.shape == (len(ds),)
        assert np.all(np.isfinite(col))


@st.composite
def telemonitoring_tables(draw):
    """(header order, column -> values written) for a random valid table."""
    n = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(REQUIRED_COLUMNS))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    table = {"subject#": column(st.integers(min_value=0, max_value=10**6)),
             "sex": column(st.sampled_from([0.0, 1.0]))}
    finite = st.floats(allow_nan=False, allow_infinity=False)
    table.update({name: column(finite) for name in REQUIRED_COLUMNS if name not in table})
    return order, table


class TestLoadCsvProperties:
    @settings(max_examples=60, deadline=None)
    @given(drawn=telemonitoring_tables(), whole_floats=st.booleans())
    def test_columns_read_back_exactly(self, tmp_path_factory, drawn, whole_floats):
        order, table = drawn
        path = tmp_path_factory.mktemp("table") / "table.csv"
        # subject ids written as "7" or as "7.0"; every float by repr
        cells = {name: [repr(v) for v in values] for name, values in table.items()}
        if whole_floats:
            cells["subject#"] = [repr(float(v)) for v in table["subject#"]]
        rows = zip(*(cells[name] for name in order))
        path.write_text(",".join(order) + "\n" + "".join(",".join(r) + "\n" for r in rows))

        ds = load_csv(path)
        assert ds.feature_names == tuple(order)
        assert len(ds) == len(table["subject#"])
        assert ds.column("subject#").tolist() == table["subject#"]
        for name in REQUIRED_COLUMNS[1:]:
            written = np.array(table[name], dtype=np.float64)
            assert np.array_equal(ds.column(name).view(np.uint64), written.view(np.uint64)), name
