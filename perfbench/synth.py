"""Seeded synthetic stand-in for the UCI Parkinson's telemonitoring table.

The benchmark's inputs come from here and nowhere else: a workload seed in,
CSV bytes out. The pipeline under test only ever sees the written file, so
this module imports nothing from the package. The draws use numpy's PCG64
generator, vectorized over rows, so a 25,000-row table takes a fraction of
a second to build.

The relationships are loosely realistic. Each subject has a fixed age, sex
and baseline motor score; the motor score drifts with visit time. Every
voice measure carries noise plus a share of one severity signal derived
from the motor score, as dysphonia tracks disease stage; this is also what
lets the network learn a usable model within a budget of one or two
epochs, so its test R2 is steady from seed to seed. Total UPDRS tracks the motor subscale
plus age, visit time, PPE and a mild nonlinear RPDE effect. Every column
has spread within every plausible fold, so standardization never meets a
constant column.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

VOICE_FEATURES = (
    "Jitter(%)", "Jitter(Abs)", "Jitter:RAP", "Jitter:PPQ5", "Jitter:DDP",
    "Shimmer", "Shimmer(dB)", "Shimmer:APQ3", "Shimmer:APQ5", "Shimmer:APQ11",
    "Shimmer:DDA", "NHR", "HNR", "RPDE", "DFA", "PPE",
)
COLUMNS = (
    "subject#", "age", "sex", "test_time", "motor_UPDRS", "total_UPDRS",
) + VOICE_FEATURES

# integer columns, then 4-decimal clinical columns, then 6 significant digits
_FORMATS = ["%d", "%d", "%d", "%.4f", "%.4f", "%.4f"] + ["%.6g"] * len(VOICE_FEATURES)


def subject_row_counts(n_rows: int, n_subjects: int) -> list[int]:
    """Rows per subject: as even as possible, earlier subjects take the extra."""
    if n_subjects < 1 or n_rows < n_subjects:
        raise ValueError(f"need 1 <= n_subjects <= n_rows, got {n_subjects}, {n_rows}")
    base, extra = divmod(n_rows, n_subjects)
    return [base + (1 if i < extra else 0) for i in range(n_subjects)]


def make_table(n_rows: int, n_subjects: int, seed: int) -> np.ndarray:
    """The table as an (n_rows, 22) float array in ``COLUMNS`` order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.array(subject_row_counts(n_rows, n_subjects))
    subject = np.repeat(np.arange(1, n_subjects + 1), counts)
    age = np.repeat(45 + rng.integers(0, 35, n_subjects), counts)
    sex = np.repeat(rng.integers(0, 2, n_subjects), counts)
    # one subject in each of n equal slices of the 8-28 range, in random order,
    # so the spread of severity (and with it the test R2 scale) barely moves
    # from seed to seed
    strata = (rng.permutation(n_subjects) + rng.random(n_subjects)) / n_subjects
    base_motor = np.repeat(8.0 + 20.0 * strata, counts)

    # visits spread evenly over 180 days per subject, plus up to a day of jitter
    visit = np.concatenate([np.arange(c) for c in counts])
    test_time = visit * (180.0 / np.repeat(counts, counts)) + rng.random(n_rows)
    noise = rng.standard_normal((n_rows, 12))

    motor = base_motor + 0.02 * test_time + 0.8 * noise[:, 0]
    # dysphonia worsens with motor severity, so every voice measure shares it
    severity = (motor - 20.0) / 8.0
    jitter_pct = np.abs(0.006 + 0.001 * noise[:, 1] + 0.002 * severity)
    shimmer = np.abs(0.03 + 0.005 * noise[:, 2] + 0.01 * severity)
    nhr = np.abs(0.02 + 0.005 * noise[:, 3] + 0.006 * severity)
    hnr = 21.0 - 10.0 * shimmer - 1.0 * severity + 0.5 * noise[:, 4]
    rpde = np.clip(0.4 + 0.04 * severity + 0.03 * noise[:, 5], 0.0, 1.0)
    dfa = np.clip(0.65 + 0.03 * severity + 0.02 * noise[:, 6], 0.0, 1.0)
    ppe = np.abs(0.15 + 0.04 * severity + 0.03 * noise[:, 7])
    small = 0.0002 * np.abs(noise[:, 8:11])
    total = (
        6.0 + 1.05 * motor + 0.05 * (age - 60) + 0.01 * test_time
        + 12.0 * ppe + 3.0 * np.tanh(2.0 * (rpde - 0.4)) + 0.6 * noise[:, 11]
    )
    return np.column_stack([
        subject, age, sex, test_time, motor, total,
        jitter_pct, jitter_pct / 130.0,
        jitter_pct * 0.5 + small[:, 0], jitter_pct * 0.55 + small[:, 1],
        jitter_pct * 1.5 + 1.5 * small[:, 2],
        shimmer, shimmer * 9.0, shimmer * 0.5, shimmer * 0.6, shimmer * 0.75,
        shimmer * 1.5, nhr, hnr, rpde, dfa, ppe,
    ]).astype(np.float64)


def table_csv(n_rows: int, n_subjects: int, seed: int) -> bytes:
    """The table rendered as CSV bytes with the UCI header."""
    out = io.StringIO()
    np.savetxt(out, make_table(n_rows, n_subjects, seed), fmt=_FORMATS,
               delimiter=",", header=",".join(COLUMNS), comments="")
    return out.getvalue().encode("ascii")


def write_table(path, n_rows: int, n_subjects: int, seed: int) -> str:
    """Write the CSV to ``path``; returns the sha256 of the bytes written."""
    data = table_csv(n_rows, n_subjects, seed)
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()
