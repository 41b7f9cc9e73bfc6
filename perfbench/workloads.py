"""The benchmark's workloads: a table shape plus ``RunConfig`` overrides.

Every workload runs the whole ``train-eval`` protocol with ``jobs=1`` and
the paper's 20 regressors. The folds are cut from 5 to 2, and the tables
to a quarter of the paper's visits per subject, so that one protocol run
takes 2 to 5 seconds and the median of a measured run rests on 7 to 19
of them. The fold loop is the same code either way. The epoch count is
fixed and patience exceeds it, so early stopping never shortens a run and
the work done per run is set by the config alone. On the first two
workloads ``adam_linear`` takes 1,000 steps instead of 5,000: at these
table sizes 5,000 would take a fifth of the run, and the baselines belong
to ``ingest-linear``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PAPER_ROWS = 5_875
PAPER_SUBJECTS = 42
ROWS = PAPER_ROWS // 4  # the paper's 42 subjects with a quarter of their visits


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    subjects: int
    config: dict = field(default_factory=dict)


_COMMON = {"jobs": 1, "k_folds": 2, "patience": 1_000}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="net-train",
            why="paper's 42 subjects at a quarter of the rows, 100-unit BiLSTM at batch 64 "
                "and a token forest: nn and optimize do most of the work, as in a real run",
            rows=ROWS,
            subjects=PAPER_SUBJECTS,
            config={**_COMMON, "rfe_k": 10, "lstm_units": 100, "batch_size": 64,
                    "jitter_copies": 1, "epochs": 2, "lr_initial": 0.01,
                    "forest_n_trees": 1, "forest_max_depth": 4, "adam_linear_steps": 1_000},
        ),
        Workload(
            name="rfe-forest",
            why="net-train's table with 10 elimination rounds at the default tree "
                "depth and leaf size and a tiny network: forest and rfe dominate",
            rows=ROWS,
            subjects=PAPER_SUBJECTS,
            config={**_COMMON, "rfe_k": 10, "forest_n_trees": 10, "adam_linear_steps": 1_000,
                    "lstm_units": 8, "attn_dim": 8, "dense_widths": [16, 8],
                    "batch_size": 32, "epochs": 2, "lr_initial": 0.03},
        ),
        Workload(
            name="ingest-linear",
            why="3x net-train's rows and subjects, grouped splits, jittered baselines, "
                "no elimination, a tiny nn: ingest, baselines and inference dominate",
            rows=3 * ROWS,
            subjects=3 * PAPER_SUBJECTS,
            config={**_COMMON, "rfe_k": 20, "group_by_subject": True,
                    "augment_baselines": True, "lstm_units": 8, "attn_dim": 8,
                    "dense_widths": [8, 8], "batch_size": 64, "epochs": 1,
                    "lr_initial": 0.03},
        ),
    )
}

# A small table and network that touch every code path a workload uses,
# run once per process before anything is timed. With grouped splits a
# fold trains on about 16 of the 40 subjects, so a fold whose subjects all
# share one sex (a constant column the standardizer rejects) is not drawn.
WARMUP_ROWS = 400
WARMUP_SUBJECTS = 40
WARMUP_CONFIG = {"forest_n_trees": 1, "forest_max_depth": 3, "lstm_units": 4,
                 "attn_dim": 4, "dense_widths": [4, 4], "batch_size": 32,
                 "epochs": 1, "adam_linear_steps": 20}


def config_doc(workload: Workload, dataset: str, seed: int, warmup: bool = False) -> dict:
    """The ``RunConfig`` fields for one protocol run of ``workload``."""
    doc = dict(workload.config, dataset=str(dataset), seed=int(seed))
    if warmup:
        doc.update(WARMUP_CONFIG)
    return doc
