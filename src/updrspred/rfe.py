"""Recursive feature elimination driven by the forest's depth ranking.

Each round refits the forest on the surviving columns, ranks them, and
drops exactly the single least-important feature until ``k`` survive.
The table is turned into dense column ranks once, and each round's forest
reads the surviving columns of those. Columns can be protected (they are
ranked but never dropped), which the pipeline uses to pin must-keep
regressors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .forest import ForestParams, check_table, dense_ranks, feature_importance, fit_forest
from .linalg import RandomSource


@dataclass
class RfeRound:
    surviving: tuple  # original column indices entering the round
    importance: np.ndarray  # aligned with `surviving`
    removed: int  # original column index dropped this round


@dataclass
class RfeResult:
    selected: tuple  # original indices kept, ascending
    rounds: list = field(default_factory=list)

    @property
    def elimination_order(self) -> tuple:
        """Original indices in removal order, one per round."""
        return tuple(r.removed for r in self.rounds)

    def per_round_importance(self):
        return [
            {int(f): float(s) for f, s in zip(r.surviving, r.importance)}
            for r in self.rounds
        ]

    def to_report(self, feature_names) -> str:
        """Human-readable elimination history, naming column j ``feature_names[j]``."""
        selected = ", ".join(feature_names[i] for i in self.selected)
        lines = [f"selected ({len(self.selected)}): {selected}"]
        for round_no, r in enumerate(self.rounds, start=1):
            scores = ", ".join(
                f"{feature_names[f]}={s:.4f}" for f, s in zip(r.surviving, r.importance)
            )
            lines.append(f"round {round_no}: removed {feature_names[r.removed]} [{scores}]")
        return "\n".join(lines) + "\n"

    def to_json(self, feature_names) -> str:
        """The elimination history as JSON, with column j named ``feature_names[j]``."""
        return json.dumps({
            "version": 1,
            "selected": [int(i) for i in self.selected],
            "elimination_order": [int(i) for i in self.elimination_order],
            "per_round_importance": self.per_round_importance(),
            "selected_names": [feature_names[i] for i in self.selected],
            "eliminated_names": [feature_names[i] for i in self.elimination_order],
        }, indent=2, sort_keys=True)


def rfe_select(
    X: np.ndarray,
    y: np.ndarray,
    k: int,
    params: ForestParams,
    rng: RandomSource,
    protected=(),
) -> RfeResult:
    """Keep the ``k`` most useful columns of X by iterated elimination.

    Exactly ``d - k`` rounds run; each uses a freshly derived seed and
    removes the feature with the lowest importance (ties fall to the
    highest original column index). Protected columns count toward ``k``
    but are never removed.
    """
    check_table(X, y)
    d = X.shape[1]
    if not 1 <= k <= d:
        raise ParameterError(f"k must lie in 1..{d}, got {k}")
    protected = {int(p) for p in protected}
    if any(not 0 <= p < d for p in protected):
        raise ParameterError(f"protected indices out of range for d={d}")
    if len(protected) > k:
        raise ParameterError(f"{len(protected)} protected features cannot fit in k={k}")

    if d > k:
        X = dense_ranks(X)  # a forest reads only each column's order
    surviving = list(range(d))
    rounds = []
    while len(surviving) > k:
        round_rng = rng.spawn()
        depths = fit_forest(X[:, surviving], y, params, round_rng)
        importance = feature_importance(depths)
        removable = [
            (importance[j], -surviving[j], j)
            for j in range(len(surviving))
            if surviving[j] not in protected
        ]
        if not removable:
            raise ParameterError("no removable features left before reaching k")
        _, _, drop_local = min(removable)
        dropped = surviving[drop_local]
        rounds.append(
            RfeRound(
                surviving=tuple(surviving),
                importance=importance,
                removed=dropped,
            )
        )
        surviving.pop(drop_local)

    return RfeResult(selected=tuple(sorted(surviving)), rounds=rounds)
