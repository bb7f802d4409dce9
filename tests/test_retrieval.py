import numpy as np
import pytest

from semsr.errors import DataError
from semsr.metrics import recall_at_k
from semsr.retrieval import (
    RankedList,
    build_index,
    query,
    read_candidates,
    rerank,
    write_candidates,
)


class TestBuildIndex:
    def test_unit_rows_stored_unchanged(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((20, 8))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        index = build_index(rows)
        assert np.max(np.abs(index.matrix - rows)) < 1e-7

    def test_rows_are_normalized(self):
        index = build_index(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(index.matrix, [[0.6, 0.8]], atol=1e-12)

    def test_thousand_rows_all_unit(self):
        rng = np.random.default_rng(1)
        index = build_index(rng.standard_normal((1000, 16)) * rng.uniform(0.1, 9, (1000, 1)))
        norms = np.linalg.norm(index.matrix, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_zero_row_rejected_naming_item(self):
        rows = np.ones((4, 3))
        rows[2] = 0.0
        with pytest.raises(DataError, match="item 2"):
            build_index(rows)


class TestQuery:
    def test_stored_row_is_its_own_best_match(self):
        rng = np.random.default_rng(2)
        table = rng.standard_normal((30, 6))
        index = build_index(table)
        result = query(index, table[17] * 2.5, k=5)
        assert result.items[0] == 17
        assert abs(result.scores[0] - 1.0) < 1e-6

    def test_orthogonal_query_scores_zero_with_index_ties(self):
        index = build_index(np.eye(4)[:3])  # rows e0, e1, e2
        result = query(index, np.array([0.0, 0.0, 0.0, 1.0]), k=3)
        np.testing.assert_allclose(result.scores, 0.0, atol=1e-12)
        assert result.items.tolist() == [0, 1, 2]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        index = build_index(rng.standard_normal((200, 12)))
        vec = rng.standard_normal(12)
        result = query(index, vec, k=10)
        sims = index.matrix @ (vec / np.linalg.norm(vec))
        oracle = sorted(range(200), key=lambda i: (-sims[i], i))[:10]
        assert result.items.tolist() == oracle

    def test_k_equals_n_is_a_permutation(self):
        index = build_index(np.random.default_rng(4).standard_normal((25, 5)))
        result = query(index, np.ones(5), k=25)
        assert sorted(result.items.tolist()) == list(range(25))

    def test_zero_query_rejected(self):
        index = build_index(np.ones((3, 2)))
        with pytest.raises(DataError, match="zero query"):
            query(index, np.zeros(2), k=1)

    def test_nan_query_rejected(self):
        index = build_index(np.eye(3))
        with pytest.raises(DataError, match="non-finite score"):
            query(index, np.array([0.5, np.nan, 1.0]), k=2)


def ranked(items, scores=None):
    items = np.asarray(items)
    if scores is None:
        scores = np.linspace(1.0, 0.1, items.size)
    return RankedList(items=items, scores=np.asarray(scores, dtype=float))


class TestRerank:
    def test_reorders_by_ranker_scores(self):
        cand = ranked([10, 11, 12])
        scores = np.zeros(20)
        scores[[10, 11, 12]] = [0.1, 0.9, 0.5]
        out = rerank(cand, scores, k=3)
        assert out.items.tolist() == [11, 12, 10]

    def test_agreeing_ranker_is_a_fixed_point(self):
        cand = ranked([4, 2, 7], scores=[0.9, 0.5, 0.2])
        scores = np.zeros(10)
        scores[[4, 2, 7]] = [0.9, 0.5, 0.2]
        out = rerank(cand, scores, k=3)
        assert out.items.tolist() == [4, 2, 7]

    def test_head_set_preserved_and_sorted(self):
        rng = np.random.default_rng(5)
        items = rng.permutation(500)[:100]
        cand = ranked(items, scores=np.sort(rng.random(100))[::-1])
        ranker = rng.random(500)
        out = rerank(cand, ranker, k=20)
        head = items[:20]
        assert sorted(out.items.tolist()) == sorted(head.tolist())
        oracle = sorted(head.tolist(), key=lambda i: (-ranker[i], i))
        assert out.items.tolist() == oracle

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        cand = ranked(rng.permutation(50)[:30])
        ranker = rng.random(50)
        once = rerank(cand, ranker, k=12)
        twice = rerank(once, ranker, k=12)
        assert once.items.tolist() == twice.items.tolist()

    def test_recall_preserved_at_every_cutoff(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            items = rng.permutation(60)[:40]
            cand = ranked(items, scores=np.sort(rng.random(40))[::-1])
            ranker = rng.random(60)
            target = int(rng.integers(0, 60))
            for k in (5, 20, 40):
                out = rerank(cand, ranker, k=k)
                assert recall_at_k(out, target, k) == recall_at_k(cand, target, k)

    def test_candidate_without_score_rejected(self):
        cand = ranked([1, 2, 9])
        with pytest.raises(DataError, match="no ranker score"):
            rerank(cand, np.ones(5), k=3)

    def test_negative_candidate_rejected(self):
        with pytest.raises(DataError, match="no ranker score"):
            rerank(ranked([1, -1, 3]), np.ones(5), k=3)

    def test_k_larger_than_candidates_rejected(self):
        with pytest.raises(DataError, match="exceeds"):
            rerank(ranked([1, 2]), np.ones(5), k=3)


class TestRankedList:
    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            RankedList(items=np.array([1, 1, 2]), scores=np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length"):
            RankedList(items=np.array([1, 2]), scores=np.ones(3))


class TestCandidateFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        lists = [ranked(rng.permutation(30)[:10], scores=np.sort(rng.random(10))[::-1]) for _ in range(5)]
        path = tmp_path / "candidates.jsonl"
        write_candidates(path, lists)
        back = read_candidates(path, 30)
        assert len(back) == 5
        for a, b in zip(lists, back):
            assert a.items.tolist() == b.items.tolist()
            np.testing.assert_allclose(a.scores, b.scores)

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "candidates.jsonl"
        path.write_text('{"example": 0, "items": [1], "scores": [0.5]}\n{"example": 1}\n')
        with pytest.raises(DataError, match=":2"):
            read_candidates(path, 2)
