"""Recall@K and MRR@K over ranked lists.

Ranks are 1-based; a target outside the top K contributes 0 to both
metrics (truncated MRR). Means use exact summation so results do not
depend on example order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_values

RULES = {"ks": (lambda ks: all(k >= 1 for k in ks), "all >= 1")}  # {name: (test, wanted)}, for errors.check_values


def target_rank(ranked, target: int) -> int:
    """The target's 1-based position in a ranked list (a RankedList or a
    sequence of item ids), or 0 when the target is absent."""
    hits = np.flatnonzero(np.asarray(getattr(ranked, "items", ranked), dtype=np.int64) == target)
    return int(hits[0]) + 1 if hits.size else 0


def recall_at_k(ranked, target: int, k: int) -> int:
    """1 if the target appears within the first k entries, else 0."""
    if k < 1:
        raise DataError("k must be >= 1")
    return int(0 < target_rank(ranked, target) <= k)


@dataclass
class EvalResult:
    per_k: dict[int, dict[str, float]]
    n_examples: int

    def to_json_dict(self) -> dict:
        return {"K": {str(k): dict(v) for k, v in sorted(self.per_k.items())}, "n_examples": self.n_examples}

    def render_text(self) -> str:
        lines = [f"{'K':>6}  {'recall':>10}  {'mrr':>10}"]
        for k in sorted(self.per_k):
            v = self.per_k[k]
            lines.append(f"{k:>6}  {v['recall']:>10.4f}  {v['mrr']:>10.4f}")
        lines.append(f"examples: {self.n_examples}")
        return "\n".join(lines)


def evaluate(ranked_lists, targets, ks=(20, 100)) -> EvalResult:
    """Mean Recall@K and MRR@K over (ranked list, target) pairs, every K
    derived from one target rank per list."""
    ranked_lists = list(ranked_lists)
    targets = list(targets)
    if not ranked_lists:
        raise DataError("empty test set")
    if len(ranked_lists) != len(targets):
        raise DataError("ranked lists and targets differ in length")
    check_values(RULES, ks=ks)
    ranks = [target_rank(rl, t) for rl, t in zip(ranked_lists, targets)]
    m = len(ranks)
    return EvalResult(
        per_k={
            int(k): {
                "recall": math.fsum(0 < r <= k for r in ranks) / m,
                "mrr": math.fsum(1.0 / r for r in ranks if 0 < r <= k) / m,
            }
            for k in ks
        },
        n_examples=m,
    )
