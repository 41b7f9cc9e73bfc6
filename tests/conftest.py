"""Shared fixtures: synthetic telemonitoring CSVs and real-data discovery.

The canonical UCI file is not redistributable with the repo. Tests that
need it read the path from the UPDRSPRED_DATASET environment variable or
from data/parkinsons_updrs.data next to the repo root, and skip with a
download hint when neither exists.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from updrspred.dataset import REQUIRED_COLUMNS, VOICE_FEATURES
from updrspred.linalg import RandomSource

REPO_ROOT = Path(__file__).resolve().parent.parent
REAL_DATA_CANDIDATES = (
    os.environ.get("UPDRSPRED_DATASET", ""),
    str(REPO_ROOT / "data" / "parkinsons_updrs.data"),
)

REAL_DATA_HINT = (
    "canonical telemonitoring CSV not found; set UPDRSPRED_DATASET or place "
    "parkinsons_updrs.data under data/ (see README)"
)


def real_dataset_path():
    for cand in REAL_DATA_CANDIDATES:
        if cand and Path(cand).is_file():
            return cand
    return None


@pytest.fixture
def real_data():
    path = real_dataset_path()
    if path is None:
        pytest.skip(REAL_DATA_HINT)
    return path


def write_synthetic_csv(path, n_rows=240, n_subjects=8, seed=99):
    """Write a schema-correct stand-in for the telemonitoring table.

    The relationships are loosely realistic: total UPDRS tracks the motor
    subscale plus age, visit time, and a mild nonlinear voice effect, so
    both linear solvers and the network have signal to find.
    """
    rng = RandomSource(seed)
    rows = []
    per_subject = n_rows // n_subjects
    counts = [per_subject + (1 if i < n_rows % n_subjects else 0) for i in range(n_subjects)]
    for subject in range(1, n_subjects + 1):
        age = 45 + int(rng.integers(35, 1)[0])
        sex = int(rng.integers(2, 1)[0])
        base_motor = 8.0 + 20.0 * float(rng.uniforms(1)[0])
        for visit in range(counts[subject - 1]):
            test_time = visit * (180.0 / max(1, counts[subject - 1])) + float(rng.uniforms(1)[0])
            drift = 0.02 * test_time
            noise = rng.gaussians(0.0, 1.0, 20)
            motor = base_motor + drift + 0.8 * noise[0]
            jitter_pct = abs(0.006 + 0.002 * noise[1] + 0.0005 * motor / 10.0)
            shimmer = abs(0.03 + 0.01 * noise[2])
            nhr = abs(0.02 + 0.01 * noise[3])
            hnr = 21.0 - 2.0 * shimmer * 100.0 * 0.05 + noise[4] * 0.5
            rpde = min(max(0.4 + 0.05 * noise[5], 0.0), 1.0)
            dfa = min(max(0.65 + 0.04 * noise[6], 0.0), 1.0)
            ppe = abs(0.15 + 0.05 * noise[7] + 0.002 * motor)
            voice = {
                "Jitter(%)": jitter_pct,
                "Jitter(Abs)": jitter_pct / 130.0,
                "Jitter:RAP": jitter_pct * 0.5 + 0.0002 * abs(noise[8]),
                "Jitter:PPQ5": jitter_pct * 0.55 + 0.0002 * abs(noise[9]),
                "Jitter:DDP": jitter_pct * 1.5 + 0.0003 * abs(noise[10]),
                "Shimmer": shimmer,
                "Shimmer(dB)": shimmer * 9.0,
                "Shimmer:APQ3": shimmer * 0.5,
                "Shimmer:APQ5": shimmer * 0.6,
                "Shimmer:APQ11": shimmer * 0.75,
                "Shimmer:DDA": shimmer * 1.5,
                "NHR": nhr,
                "HNR": hnr,
                "RPDE": rpde,
                "DFA": dfa,
                "PPE": ppe,
            }
            total = (
                6.0
                + 1.05 * motor
                + 0.05 * (age - 60)
                + 0.01 * test_time
                + 12.0 * ppe
                + 3.0 * np.tanh(2.0 * (rpde - 0.4))
                + 0.6 * noise[11]
            )
            row = {
                "subject#": subject,
                "age": age,
                "sex": sex,
                "test_time": round(test_time, 4),
                "motor_UPDRS": round(motor, 4),
                "total_UPDRS": round(total, 4),
            }
            row.update({k: round(float(v), 6) for k, v in voice.items()})
            rows.append(row)
    with open(path, "w") as fh:
        fh.write(",".join(REQUIRED_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in REQUIRED_COLUMNS) + "\n")
    return path


@pytest.fixture
def synthetic_csv(tmp_path):
    return write_synthetic_csv(tmp_path / "synthetic_updrs.csv")


@pytest.fixture
def tiny_csv(tmp_path):
    return write_synthetic_csv(tmp_path / "tiny_updrs.csv", n_rows=90, n_subjects=5, seed=3)


assert set(VOICE_FEATURES) < set(REQUIRED_COLUMNS)
