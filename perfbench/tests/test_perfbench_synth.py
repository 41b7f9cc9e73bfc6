"""The benchmark's table generator writes what the pipeline's ingest accepts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import synth  # noqa: E402
from updrspred.dataset import REQUIRED_COLUMNS, load_csv  # noqa: E402


def test_load_csv_accepts_output_with_requested_counts(tmp_path):
    path = tmp_path / "table.csv"
    synth.write_table(path, 1_000, 12, seed=5)
    dataset = load_csv(path)
    assert len(dataset) == 1_000
    assert dataset.n_subjects == 12
    assert tuple(dataset.feature_names) == REQUIRED_COLUMNS


def test_same_seed_same_bytes_and_other_seed_differs():
    first = synth.table_csv(500, 7, seed=3)
    assert synth.table_csv(500, 7, seed=3) == first
    assert synth.table_csv(500, 7, seed=4) != first


def test_write_table_returns_digest_of_written_bytes(tmp_path):
    import hashlib

    path = tmp_path / "table.csv"
    digest = synth.write_table(path, 200, 4, seed=1)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_subject_rows_split_evenly():
    assert synth.subject_row_counts(10, 3) == [4, 3, 3]
    assert sum(synth.subject_row_counts(5_875, 42)) == 5_875
