import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsr.errors import DataError
from semsr.metrics import EvalResult, evaluate, recall_at_k, target_rank
from semsr.retrieval import RankedList


def scan_rank(items, target):
    """Oracle: 1-based rank by linear scan, None when absent."""
    for pos, item in enumerate(items):
        if item == target:
            return pos + 1
    return None


class TestRecall:
    def test_hit_at_rank_one(self):
        assert recall_at_k([7, 3, 1], 7, 20) == 1

    def test_absent_target(self):
        assert recall_at_k([7, 3, 1], 99, 3) == 0

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            items = rng.permutation(50)[:20].tolist()
            target = int(rng.integers(0, 50))
            k = int(rng.integers(1, 25))
            rank = scan_rank(items[:k], target)
            assert recall_at_k(items, target, k) == (1 if rank else 0)

    def test_k_below_one_reads_as_evaluate_reads_it(self):
        """One rule for K: a single list and a batch refuse K = 0 in one text."""
        with pytest.raises(DataError) as single:
            recall_at_k([1, 2], 1, 0)
        with pytest.raises(DataError) as batch:
            evaluate([[1, 2]], [1], ks=(0,))
        assert str(single.value) == str(batch.value) == "ks must be all >= 1, got (0,)"


class TestTargetRank:
    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            items = rng.permutation(50)[: int(rng.integers(0, 21))].tolist()
            target = int(rng.integers(0, 50))
            assert target_rank(items, target) == (scan_rank(items, target) or 0)
            ranked = RankedList(items=items, scores=np.zeros(len(items)))
            assert target_rank(ranked, target) == target_rank(items, target)


class TestReciprocalRank:
    """MRR@K through `evaluate`, one list at a time and against the scan oracle."""

    def test_rank_four(self):
        assert evaluate([[9, 8, 7, 6, 5]], [6], ks=(10,)).per_k[10]["mrr"] == 0.25

    def test_just_past_cutoff(self):
        assert evaluate([[9, 8, 7, 6]], [6], ks=(3,)).per_k[3] == {"recall": 0.0, "mrr": 0.0}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_scan_oracle(self, data):
        """Random lists (some shorter than K, some without their target) and
        a repeated K, which `evaluate` reports once."""
        lists = data.draw(st.lists(st.lists(st.integers(0, 30), unique=True, max_size=12), min_size=1, max_size=8))
        targets = data.draw(st.lists(st.integers(0, 30), min_size=len(lists), max_size=len(lists)))
        ks = data.draw(st.lists(st.integers(1, 15), min_size=1, max_size=4))
        ks.append(ks[0])
        result = evaluate(lists, targets, ks)
        assert sorted(result.per_k) == sorted(set(ks)) and result.n_examples == len(lists)
        for k in ks:
            ranks = [scan_rank(l[:k], t) for l, t in zip(lists, targets)]
            assert result.per_k[k]["recall"] == math.fsum(1.0 for r in ranks if r) / len(lists)
            assert result.per_k[k]["mrr"] == math.fsum(1.0 / r for r in ranks if r) / len(lists)


class TestEvaluate:
    def test_single_perfect_example(self):
        result = evaluate([[5, 2, 3]], [5], ks=(20, 100))
        assert result.per_k[20] == {"recall": 1.0, "mrr": 1.0}
        assert result.per_k[100] == {"recall": 1.0, "mrr": 1.0}

    def test_mean_of_hit_and_miss(self):
        result = evaluate([[5, 2], [5, 2]], [5, 9], ks=(20,))
        assert result.per_k[20]["recall"] == 0.5
        assert result.per_k[20]["mrr"] == 0.5

    def test_matches_brute_force_mean(self):
        rng = np.random.default_rng(2)
        lists, targets = [], []
        for _ in range(200):
            lists.append(rng.permutation(300)[:120].tolist())
            targets.append(int(rng.integers(0, 300)))
        result = evaluate(lists, targets, ks=(20, 100))
        for k in (20, 100):
            recalls = [1 if scan_rank(l[:k], t) else 0 for l, t in zip(lists, targets)]
            rrs = [1.0 / r if (r := scan_rank(l[:k], t)) else 0.0 for l, t in zip(lists, targets)]
            assert abs(result.per_k[k]["recall"] - sum(recalls) / 200) < 1e-12
            assert abs(result.per_k[k]["mrr"] - math.fsum(rrs) / 200) < 1e-12

    def test_monotone_in_k_and_mrr_below_recall(self):
        rng = np.random.default_rng(3)
        lists = [rng.permutation(100)[:60].tolist() for _ in range(100)]
        targets = [int(rng.integers(0, 100)) for _ in range(100)]
        result = evaluate(lists, targets, ks=(1, 5, 20, 60))
        ks = sorted(result.per_k)
        for a, b in zip(ks, ks[1:]):
            assert result.per_k[a]["recall"] <= result.per_k[b]["recall"]
            assert result.per_k[a]["mrr"] <= result.per_k[b]["mrr"]
        for k in ks:
            assert result.per_k[k]["mrr"] <= result.per_k[k]["recall"]

    def test_order_invariant(self):
        rng = np.random.default_rng(4)
        lists = [rng.permutation(40)[:15].tolist() for _ in range(50)]
        targets = [int(rng.integers(0, 40)) for _ in range(50)]
        forward = evaluate(lists, targets, ks=(5, 15))
        backward = evaluate(lists[::-1], targets[::-1], ks=(5, 15))
        assert forward.per_k == backward.per_k

    def test_empty_test_set_rejected(self):
        with pytest.raises(DataError, match="empty test set"):
            evaluate([], [], ks=(20,))

    def test_k_below_one_rejected(self):
        with pytest.raises(DataError, match=re.escape("ks must be all >= 1, got (5, 0)")):
            evaluate([[1, 2]], [1], ks=(5, 0))


class TestReport:
    def test_json_shape(self):
        result = EvalResult(per_k={20: {"recall": 0.5, "mrr": 0.25}, 100: {"recall": 0.8, "mrr": 0.3}}, n_examples=10)
        payload = result.to_json_dict()
        assert payload == {
            "K": {"20": {"recall": 0.5, "mrr": 0.25}, "100": {"recall": 0.8, "mrr": 0.3}},
            "n_examples": 10,
        }

    def test_json_keeps_every_per_k_field(self):
        result = EvalResult(per_k={5: {"recall": 0.5, "mrr": 0.25, "mrr_before": 0.125}}, n_examples=2)
        assert result.to_json_dict()["K"] == {"5": {"recall": 0.5, "mrr": 0.25, "mrr_before": 0.125}}

    def test_text_is_aligned(self):
        result = EvalResult(per_k={20: {"recall": 0.5, "mrr": 0.25}}, n_examples=3)
        text = result.render_text()
        assert "recall" in text.splitlines()[0]
        assert "0.5000" in text and "0.2500" in text
