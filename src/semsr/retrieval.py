"""Exact cosine top-K search over item vectors, plus the re-ranking stage
that reorders a candidate head with a second model's scores.

Candidate lists travel between commands as JSON-lines, one test example
per line: {"example": <int>, "items": [<int>...], "scores": [<float>...]}.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import json_object, read_records
from .errors import DataError


@dataclass
class RankedList:
    """Items ordered by descending score; ties broken by ascending index."""

    items: np.ndarray  # (k,) int64
    scores: np.ndarray  # (k,) float64

    def __post_init__(self):
        self.items = np.asarray(self.items, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.items.shape != self.scores.shape:
            raise DataError("ranked list items and scores differ in length")
        if np.unique(self.items).size != self.items.size:
            raise DataError("ranked list contains duplicate items")

    def __len__(self) -> int:
        return self.items.size


@dataclass
class VectorIndex:
    """Unit-normalized item vectors in dense-index order."""

    matrix: np.ndarray  # (n, w), rows unit norm

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def build_index(table: np.ndarray) -> VectorIndex:
    """Normalize rows into a cosine index. Zero rows are rejected."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] < 1:
        raise DataError("index table must be a non-empty 2-d matrix")
    if not np.all(np.isfinite(table)):
        raise DataError("index table contains non-finite values")
    norms = np.linalg.norm(table, axis=1)
    zero = np.nonzero(norms == 0)[0]
    if zero.size:
        raise DataError(f"zero-norm row for item {int(zero[0])}")
    return VectorIndex(matrix=table / norms[:, None])


def top_k(scores: np.ndarray, k: int) -> RankedList:
    """Top-k items by descending score, ties by ascending index.

    `np.partition` finds the k-th largest score; every item scoring at or
    above it survives, and only the survivors are sorted (by descending
    score, then ascending index). Keeping all items tied at the cut makes
    the result exact: it is the head of a stable sort of all n scores, item
    for item. A NaN or infinite score is a DataError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"k={k} out of range 1..{n}")
    if not np.all(np.isfinite(scores)):
        raise DataError("non-finite score")
    cut = np.partition(scores, n - k)[n - k]
    keep = np.flatnonzero(scores >= cut)
    order = keep[np.lexsort((keep, -scores[keep]))[:k]]
    return RankedList(items=order, scores=scores[order])


def query(index: VectorIndex, vector: np.ndarray, k: int) -> RankedList:
    """Exact top-k rows by cosine similarity to the query vector."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (index.width,):
        raise DataError(f"query width {vector.shape} != index width {index.width}")
    norm = np.linalg.norm(vector)
    if norm == 0:
        raise DataError("zero query vector")
    return top_k(index.matrix @ (vector / norm), k)


def rerank(candidates: RankedList, ranker_scores: np.ndarray, k: int) -> RankedList:
    """Reorder the first k candidates by the ranker's scores (descending,
    ties by ascending item index). The returned item set equals the input
    head's item set, so recall at k is unchanged by construction."""
    if not 1 <= k <= len(candidates):
        raise DataError(f"k={k} exceeds candidate list length {len(candidates)}")
    ranker_scores = np.asarray(ranker_scores, dtype=np.float64)
    head = candidates.items[:k]
    if head.min() < 0 or head.max() >= ranker_scores.shape[0]:
        raise DataError(f"candidate items {int(head.min())}..{int(head.max())} have no ranker score")
    head_scores = ranker_scores[head]
    if not np.all(np.isfinite(head_scores)):
        raise DataError("non-finite ranker score for a candidate item")
    order = np.lexsort((head, -head_scores))
    return RankedList(items=head[order], scores=head_scores[order])


def write_candidates(path, ranked_lists: list[RankedList]) -> None:
    with Path(path).open("w") as fh:
        for i, rl in enumerate(ranked_lists):
            rec = {"example": i, "items": rl.items.tolist(), "scores": rl.scores.tolist()}
            fh.write(json.dumps(rec) + "\n")


def _nonneg_int(x) -> bool:
    return type(x) is int and x >= 0


def _candidate_record(rec: dict, seen: set, n: int) -> tuple[int, RankedList]:
    example, items, scores = rec.get("example"), rec.get("items"), rec.get("scores")
    if not _nonneg_int(example) or example in seen:
        raise DataError(f"'example' must be a new non-negative integer, got {example!r}")
    seen.add(example)
    if not isinstance(items, list) or not all(_nonneg_int(i) and i < n for i in items):
        raise DataError(f"'items' must be a list of integers in 0..{n - 1}")
    # abs(v) <= max is isfinite(v) without the OverflowError of an integer past float range
    if not isinstance(scores, list) or len(scores) != len(items) or not all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in scores
    ):
        raise DataError("'scores' must be finite numbers, one per item")
    return example, RankedList(items=np.array(items, dtype=np.int64), scores=np.array(scores, dtype=np.float64))


def read_candidates(path, n: int) -> list[RankedList]:
    """Candidate lists in example order over a catalog of n items; the
    example ids must be 0..m-1 and every item must lie in 0..n-1."""
    seen: set[int] = set()
    out = dict(read_records(path, "candidate", lambda line: _candidate_record(json_object(line), seen, n)))
    if not out:
        raise DataError(f"candidate file is empty: {path}")
    if max(out) != len(out) - 1:
        raise DataError(f"{path}: example ids must be 0..{len(out) - 1}, found {max(out)}")
    return [out[i] for i in range(len(out))]
